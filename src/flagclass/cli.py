"""Command line front end.

Four commands: `info` prints the combinatorial shape of one flag,
`classify` works through every almost complex structure on it, `sweep`
writes one classification report per flag under a rank bound, and
`verify` re-runs the library's theorem checks and prints one PASS or
FAIL line each.

Exit codes are part of the contract: 0 success, 1 usage error, 2 a cap
was exceeded, 3 a verification check failed.  Reports are plain data
with a schema tag and no timestamps, so identical invocations produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .chevalley import compute_structure_constants, verify_jacobi
from .errors import (
    CapExceededError,
    InvalidInputError,
    InvalidLieTypeError,
    InvariantViolationError,
    NotAFlagManifoldError,
    NotConnectedError,
)
from .flag import FlagSpec, build_t_roots, make_flag
from .rootsys import LieType, build_root_system, proper_subsets, types_up_to
from .structures import (
    classify_triple,
    closed_metric_feasibility,
    c_of_j,
    enumerate_iacs,
    is_integrable,
    nijenhuis_oracle,
    normal_metric_unique,
    qk_feasibility,
    t_chambers,
    t_zero_sum_triples,
)
from .tzs import connectivity, make_functional_set
from .weyl import WEYL_CAP, a_theta, generate_weyl, weyl_order

SCHEMA = "flagclass/1"
DEFAULT_IACS_CAP = 12
DEFAULT_VERIFY_RANK = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than lo."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def _parse_lie_type(type_str: str | None, rank: int | None) -> LieType:
    if type_str is None:
        raise UsageError("--type is required")
    text = type_str.strip()
    if rank is not None:
        if any(c.isdigit() for c in text):
            raise UsageError(f"rank given twice: --type {text} with --rank {rank}")
        text = f"{text}{rank}"
    return LieType.parse(text)


def _parse_index_list(text: str, rank: int, label: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.lstrip("-").isdigit():
            raise UsageError(f"cannot read {label} entry {piece!r} as an integer")
        k = int(piece)
        if not 1 <= k <= rank:
            raise UsageError(f"{label} index {k} out of range 1..{rank}")
        out.append(k)
    return tuple(sorted(set(out)))


def _parse_theta(args, rank: int) -> tuple[int, ...]:
    if args.theta is not None and args.paint is not None:
        raise UsageError("give --theta or --paint, not both")
    if args.paint is not None:
        painted = _parse_index_list(args.paint, rank, "--paint")
        return tuple(k for k in range(1, rank + 1) if k not in painted)
    if args.theta is None:
        return ()
    return _parse_index_list(args.theta, rank, "--theta")


def _frac(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def flag_key(t: LieType, theta: tuple[int, ...]) -> dict:
    return {"type": str(t), "theta": list(theta)}


def info_payload(f: FlagSpec) -> dict:
    ts = build_t_roots(f)
    report = connectivity(make_functional_set(ts.t_roots))
    return {
        "schema": SCHEMA,
        "flag": flag_key(f.rs.lie_type, tuple(sorted(f.theta))),
        "roots": len(f.rs.all_roots),
        "painted_roots": len(f.r_theta),
        "complement_roots": len(f.r_m),
        "s": len(ts.positive),
        "t_roots": [
            {"coords": list(t.coords), "fiber_dim": ts.summand_dims[t]}
            for t in ts.positive
        ],
        "zero_sum_triples": len(t_zero_sum_triples(ts)),
        "tzs_connected": report.connected,
    }


def _info_text(payload: dict) -> str:
    flag = payload["flag"]
    theta = ",".join(str(k) for k in flag["theta"]) or "(none)"
    lines = [
        f"flag {flag['type']} theta={theta}",
        f"roots: {payload['roots']}"
        f" (painted {payload['painted_roots']},"
        f" complement {payload['complement_roots']})",
        f"positive t-roots: {payload['s']}",
    ]
    for entry in payload["t_roots"]:
        coords = ",".join(str(c) for c in entry["coords"])
        lines.append(f"  ({coords}) fiber dimension {entry['fiber_dim']}")
    lines.append(f"zero-sum triples: {payload['zero_sum_triples']}")
    lines.append(f"t-root triples connect all classes: {payload['tzs_connected']}")
    return "\n".join(lines) + "\n"


def classify_payload(f: FlagSpec, iacs_cap: int) -> dict:
    ts = build_t_roots(f)
    triples = t_zero_sum_triples(ts)
    structures = enumerate_iacs(ts, cap=iacs_cap)
    entries = []
    for j in structures:
        qk = qk_feasibility(j, ts)
        entries.append(
            {
                "signs": list(j.signs),
                "integrable": is_integrable(j, ts),
                "c_of_j": sorted(list(t.coords) for t in c_of_j(j, ts)),
                "qk": {
                    "feasible": qk.feasible,
                    "sample": None if qk.sample is None else [_frac(x) for x in qk.sample],
                },
                "triples": [
                    {
                        "members": [list(m) for m in tr.members],
                        "class": classify_triple(j, tr, ts).value,
                    }
                    for tr in triples
                ],
            }
        )
    ak_holds = all(
        entry["integrable"]
        for entry, j in zip(entries, structures)
        if closed_metric_feasibility(j, ts).feasible
    )
    return {
        "schema": SCHEMA,
        "flag": flag_key(f.rs.lie_type, tuple(sorted(f.theta))),
        "s": len(ts.positive),
        "iacs": entries,
        "theorems": {
            "normal_metric_unique": normal_metric_unique(f, cap=iacs_cap).holds,
            "ak_equals_k": ak_holds,
            "tzs_connected": connectivity(make_functional_set(ts.t_roots)).connected,
        },
    }


def _classify_text(payload: dict) -> str:
    flag = payload["flag"]
    theta = ",".join(str(k) for k in flag["theta"]) or "(none)"
    lines = [
        f"flag {flag['type']} theta={theta}: {len(payload['iacs'])} structures"
        f" on {payload['s']} classes"
    ]
    for entry in payload["iacs"]:
        signs = "".join("+" if s > 0 else "-" for s in entry["signs"])
        verdicts = []
        verdicts.append("integrable" if entry["integrable"] else "non-integrable")
        verdicts.append("qk-feasible" if entry["qk"]["feasible"] else "qk-infeasible")
        lines.append(f"  {signs}: {', '.join(verdicts)}")
    thm = payload["theorems"]
    lines.append(
        "theorems:"
        f" normal_metric_unique={thm['normal_metric_unique']}"
        f" ak_equals_k={thm['ak_equals_k']}"
        f" tzs_connected={thm['tzs_connected']}"
    )
    return "\n".join(lines) + "\n"


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def sweep_filename(t: LieType, theta: tuple[int, ...]) -> str:
    tag = "-".join(str(k) for k in theta) if theta else "none"
    return f"{t}_theta_{tag}.json"


def run_sweep(max_rank: int, out_dir: Path, iacs_cap: int) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    index_entries = []
    for t in types_up_to(max_rank):
        rs = build_root_system(t)
        for theta in proper_subsets(t.rank):
            name = sweep_filename(t, theta)
            entry = {"file": name, "flag": flag_key(t, theta)}
            try:
                payload = classify_payload(make_flag(rs, theta), iacs_cap)
            except CapExceededError as e:
                entry["status"] = "error"
                entry["error"] = str(e)
            else:
                (out_dir / name).write_text(_dump_json(payload))
                entry["status"] = "ok"
                entry["theorems"] = payload["theorems"]
            index_entries.append(entry)
    index = {"schema": SCHEMA, "max_rank": max_rank, "flags": index_entries}
    (out_dir / "index.json").write_text(_dump_json(index))
    return index


class _CheckTally:
    """One verify check: counts cases, keeps the first failure detail."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.skipped = 0
        self.failure = None

    def case(self, ok: bool, detail: str):
        self.cases += 1
        if not ok and self.failure is None:
            self.failure = detail

    def skip(self):
        self.skipped += 1

    def line(self) -> str:
        if self.failure is not None:
            return f"FAIL {self.name}: {self.failure}"
        note = f" ({self.cases} cases"
        note += f", {self.skipped} skipped by cap)" if self.skipped else ")"
        return f"PASS {self.name}{note}"

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_verify(max_rank: int, iacs_cap: int, weyl_cap: int) -> tuple[list[str], bool]:
    jacobi = _CheckTally("jacobi")
    root_conn = _CheckTally("root-connectivity")
    troot_conn = _CheckTally("t-root-connectivity")
    fourway = _CheckTally("integrability-four-way")
    ak = _CheckTally("ak-equals-k")
    unique = _CheckTally("normal-metric-uniqueness")
    stab = _CheckTally("weyl-stabilizer")

    for t in types_up_to(max_rank):
        rs = build_root_system(t)
        sc = compute_structure_constants(rs)
        report = verify_jacobi(sc)
        jacobi.case(report.ok, f"{t}: Jacobi fails on triple {report.counterexample}")
        root_conn.case(
            connectivity(make_functional_set(rs.all_roots)).connected,
            f"{t}: root triples do not connect all sign classes",
        )

        if weyl_order(t) <= weyl_cap:
            group = generate_weyl(rs, cap=weyl_cap)
        else:
            group = None

        for theta in proper_subsets(t.rank):
            f = make_flag(rs, theta)
            ts = build_t_roots(f)
            where = f"{t} theta={theta}"
            troot_conn.case(
                connectivity(make_functional_set(ts.t_roots)).connected,
                f"{where}: t-root triples do not connect all sign classes",
            )

            if group is None:
                stab.skip()
            else:
                try:
                    a_theta(group, f)
                except InvariantViolationError as e:
                    stab.case(False, f"{where}: {e}")
                else:
                    stab.case(True, "")

            if len(ts.positive) > iacs_cap:
                fourway.skip()
                ak.skip()
                unique.skip()
                continue

            chambers = {c.signs for c in t_chambers(ts)}
            for j in enumerate_iacs(ts, cap=iacs_cap):
                integrable = is_integrable(j, ts)
                routes = {integrable, nijenhuis_oracle(f, sc, j), j.signs in chambers}
                fourway.case(
                    len(routes) == 1,
                    f"{where}: integrability routes disagree at signs={j.signs}",
                )
                if closed_metric_feasibility(j, ts).feasible:
                    ak.case(
                        integrable,
                        f"{where}: closed metric on non-integrable signs={j.signs}",
                    )
            if len(ts.positive) >= 2:
                unique.case(
                    normal_metric_unique(f, cap=iacs_cap).holds,
                    f"{where}: a non-normal metric is forced equal by no triple",
                )

    tallies = [jacobi, root_conn, troot_conn, fourway, ak, unique, stab]
    return [tl.line() for tl in tallies], all(tl.ok for tl in tallies)


def build_parser() -> _Parser:
    parser = _Parser(prog="flagclass", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flag_args(p):
        p.add_argument("--type", help="Lie type, combined like A3 or a bare family letter")
        p.add_argument("--rank", type=int, help="rank, when --type is a bare letter")
        p.add_argument(
            "--theta",
            nargs="?",
            const="",
            help="unpainted simple-root indices kept in the subalgebra, e.g. 2,3",
        )
        p.add_argument("--paint", help="painted indices instead; the complement of --theta")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--iacs-cap", type=_int_at_least(0), default=DEFAULT_IACS_CAP)

    p_info = sub.add_parser("info", help="shape of one flag")
    add_flag_args(p_info)

    p_classify = sub.add_parser("classify", help="classify every structure on one flag")
    add_flag_args(p_classify)

    p_sweep = sub.add_parser("sweep", help="classification reports for every small flag")
    p_sweep.add_argument("--max-rank", type=_int_at_least(1), default=2)
    p_sweep.add_argument("--out", help="output directory (required unless FLAGCLASS_OUT is set)")
    p_sweep.add_argument("--iacs-cap", type=_int_at_least(0), default=DEFAULT_IACS_CAP)

    p_verify = sub.add_parser("verify", help="re-run the theorem checks")
    p_verify.add_argument("--max-rank", type=_int_at_least(1), default=DEFAULT_VERIFY_RANK)
    p_verify.add_argument("--iacs-cap", type=_int_at_least(0), default=DEFAULT_IACS_CAP)
    p_verify.add_argument("--weyl-cap", type=int, default=WEYL_CAP)
    p_verify.add_argument("--out", help="also write the check lines here")

    return parser


def _resolve_out(args) -> str | None:
    return os.environ.get("FLAGCLASS_OUT") or getattr(args, "out", None)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = _resolve_out(args)

        if args.command in ("info", "classify"):
            t = _parse_lie_type(args.type, args.rank)
            rs = build_root_system(t)
            theta = _parse_theta(args, t.rank)
            f = make_flag(rs, theta)
            if args.command == "info":
                payload = info_payload(f)
                text = _info_text(payload)
            else:
                payload = classify_payload(f, args.iacs_cap)
                text = _classify_text(payload)
            _emit(_dump_json(payload) if args.format == "json" else text, out)
            return 0

        if args.command == "sweep":
            if out is None:
                raise UsageError("sweep needs --out or FLAGCLASS_OUT")
            index = run_sweep(args.max_rank, Path(out), args.iacs_cap)
            ok = sum(1 for e in index["flags"] if e["status"] == "ok")
            errs = len(index["flags"]) - ok
            sys.stdout.write(f"wrote {ok} reports to {out}" + (f", {errs} errors\n" if errs else "\n"))
            return 2 if errs else 0

        lines, ok = run_verify(args.max_rank, args.iacs_cap, args.weyl_cap)
        text = "\n".join(lines) + "\n"
        sys.stdout.write(text)
        if out is not None:
            Path(out).write_text(text)
        return 0 if ok else 3

    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (InvalidLieTypeError, NotAFlagManifoldError, InvalidInputError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except CapExceededError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 2
    except (InvariantViolationError, NotConnectedError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
