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
import os
import sys
from fractions import Fraction
from pathlib import Path

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
    IACS_CAP,
    TripleClass,
    _c_of,
    _chamber_list,
    _closed_witness_list,
    _integrable,
    _integrable_list,
    _nijenhuis_list,
    _one_sign,
    _pairs_list,
    _signs,
    enumerate_iacs,
    normal_metric_unique,
    qk_feasibility,
    t_zero_sum_triples,
)
from .tzs import connectivity, make_functional_set

SCHEMA = "flagclass/1"
DEFAULT_IACS_CAP = 12
# Largest `verify --iacs-cap`: the largest s up to RANK_CAP (E6 full).
# verify lists only each route's integrable structures, at most one per
# chamber, and builds no list of all 2^s, so it is not held to IACS_CAP.
VERIFY_IACS_CAP = 36
DEFAULT_VERIFY_RANK = 4
# Largest `--max-rank` of `verify` and `sweep`.  Rank 6 is the largest the
# acceptance suite runs Jacobi and t-root connectivity on.  At rank 7 `verify`
# would enumerate the Weyl groups of B7 and C7 (645,120 elements, under
# WEYL_CAP) in full, and `sweep` would add 5 * 127 flags to the 545 up to
# rank 6, one report each.
RANK_CAP = 6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_rank_cap(command: str, max_rank: int) -> None:
    if max_rank > RANK_CAP:
        raise CapExceededError(
            f"{command} up to rank {max_rank} exceeds the rank cap of {RANK_CAP}"
        )


def _int_in(lo: int, hi: int | None = None):
    """An argparse type: an integer no smaller than lo and, if hi is given, no larger."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}, got {value}")
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
        try:
            k = int(piece)
        except ValueError:
            raise UsageError(f"cannot read {label} entry {piece!r} as an integer") from None
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
        # flagclass/1 keys: painted_roots counts R_Theta, the unpainted roots,
        # and complement_roots counts R_M, the painted ones
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
        f" (unpainted {payload['painted_roots']},"
        f" painted {payload['complement_roots']})",
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
    # one members list per triple, shared by every entry
    members = [[list(m) for m in tr.members] for tr in t_zero_sum_triples(ts)]
    classes = {True: TripleClass.ZERO_THREE.value, False: TripleClass.ONE_TWO.value}
    structures = enumerate_iacs(ts, cap=iacs_cap)
    # the list reversed is the list negated.  -j has the QK rows of j negated,
    # with the same answer and sample, and the one-signed triples of j: build
    # each pair's entry once: one _one_sign pass gives its integrability, C(j)
    # and triple classes, and one solve its QK answer
    half = []
    for j in structures[: len(structures) // 2]:
        one = _one_sign(j.signs, ts)
        qk = qk_feasibility(j, ts)
        half.append(
            {
                "integrable": _integrable(one),
                "c_of_j": sorted(list(t.coords) for t in _c_of(one, ts)),
                "qk": {
                    "feasible": qk.feasible,
                    "sample": None if qk.sample is None else [_frac(x) for x in qk.sample],
                },
                "triples": [{"members": m, "class": classes[o]} for m, o in zip(members, one)],
            }
        )
    entries = [{"signs": list(j.signs), **v} for j, v in zip(structures, half + half[::-1])]
    # Borel-Hirzebruch, as in verify: feasible == integrable
    integrable = [n for n, entry in enumerate(entries) if entry["integrable"]]
    return {
        "schema": SCHEMA,
        "flag": flag_key(f.rs.lie_type, tuple(sorted(f.theta))),
        "s": len(ts.positive),
        "iacs": entries,
        "theorems": {
            "normal_metric_unique": normal_metric_unique(f).holds,
            "ak_equals_k": _closed_witness_list(ts) == integrable,
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
    """Render any report as json.dumps(payload, indent=2) + "\n", byte for byte.

    With indent set, the stdlib encoder runs in pure Python, and a classify
    report repeats every triple's members in each of its 2^s entries.  So
    the entries' "triples" lists are left out of json.dumps and each
    (members, class) pair is rendered once per report: classify_payload
    shares one members list per triple between the entries.  Indent=2
    output holds no raw newline inside a string, so a value nested d levels
    deep is its own json.dumps with 2*d spaces after every newline, and a
    `null` placeholder at one exact indent marks the one key it stands for.
    """
    import json

    entries = payload.get("iacs")
    if not entries:
        return json.dumps(payload, indent=2) + "\n"
    top = json.dumps({**payload, "iacs": None}, indent=2)
    before, after = top.split('\n  "iacs": null')
    heads = json.dumps([{**e, "triples": None} for e in entries], indent=2)
    pieces = heads.replace("\n", "\n  ").split('\n      "triples": null')
    nl = "\n        "
    rendered = {}
    out = [before, '\n  "iacs": ', pieces[0]]
    for entry, piece in zip(entries, pieces[1:]):
        texts = []
        for tr in entry["triples"]:
            key = (id(tr["members"]), tr["class"])
            text = rendered.get(key)
            if text is None:
                text = rendered[key] = json.dumps(tr, indent=2).replace("\n", nl)
            texts.append(text)
        block = f"[{nl}{(',' + nl).join(texts)}\n      ]" if texts else "[]"
        out += ('\n      "triples": ', block, piece)
    out += (after, "\n")
    return "".join(out)


def _write_atomic(path: Path, text: str) -> None:
    """Replace path with text through a sibling temp file, so a failed write leaves the old file.

    A symlink such as /dev/stdout, or a target that exists but is no regular
    file such as a pipe, is written in place: renaming over it would replace it.
    """
    if path.is_symlink() or (path.exists() and not path.is_file()):
        path.write_text(text)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def sweep_filename(t: LieType, theta: tuple[int, ...]) -> str:
    tag = "-".join(str(k) for k in theta) if theta else "none"
    return f"{t}_theta_{tag}.json"


def run_sweep(max_rank: int, out_dir: Path, iacs_cap: int) -> dict:
    """One report per flag plus index.json; failed flags are indexed with status "error".

    A verification failure does not stop the sweep: the first one is
    raised again once the index is written.
    """
    _check_rank_cap("sweep", max_rank)
    out_dir.mkdir(parents=True, exist_ok=True)
    index_entries = []
    failure = None
    for t in types_up_to(max_rank):
        rs = build_root_system(t)
        for theta in proper_subsets(t.rank):
            name = sweep_filename(t, theta)
            entry = {"file": name, "flag": flag_key(t, theta)}
            try:
                payload = classify_payload(make_flag(rs, theta), iacs_cap)
            except CapExceededError as e:
                entry["status"], entry["error"] = "error", str(e)
            except (InvariantViolationError, NotConnectedError) as e:
                entry["status"], entry["error"] = "error", str(e)
                failure = failure or e
            else:
                _write_atomic(out_dir / name, _dump_json(payload))
                entry["status"] = "ok"
                entry["theorems"] = payload["theorems"]
            index_entries.append(entry)
    index = {"schema": SCHEMA, "max_rank": max_rank, "flags": index_entries}
    _write_atomic(out_dir / "index.json", _dump_json(index))
    if failure is not None:
        raise failure
    return index


class _CheckTally:
    """One verify check: counts cases, keeps the first failure detail."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.skipped = 0
        self.failure = None

    def case(self, ok: bool, detail: str):
        self.cases(1, None if ok else detail)

    def cases(self, n: int, failure: str | None = None):
        """Count n cases at once, with the first failure among them if any."""
        self.count += n
        if failure is not None and self.failure is None:
            self.failure = failure

    def skip(self):
        self.skipped += 1

    def line(self) -> str:
        if self.failure is not None:
            return f"FAIL {self.name}: {self.failure}"
        note = f" ({self.count} cases"
        note += f", {self.skipped} skipped by cap)" if self.skipped else ")"
        return f"PASS {self.name}{note}"

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_verify(
    max_rank: int, iacs_cap: int, weyl_cap: int | None = None
) -> tuple[list[str], bool]:
    """The verify check lines and whether all passed; weyl_cap None means weyl.WEYL_CAP.

    Only verify cross-checks against Chevalley constants and Weyl groups, so
    only it imports those layers; info, classify and sweep start without them.
    """
    _check_rank_cap("verify", max_rank)
    from .chevalley import compute_structure_constants, verify_jacobi
    from .weyl import WEYL_CAP, a_theta, generate_weyl

    if weyl_cap is None:
        weyl_cap = WEYL_CAP
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

        try:
            group = generate_weyl(rs, cap=weyl_cap)
        except CapExceededError:
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

            s = len(ts.positive)
            if s > iacs_cap:
                fourway.skip()
                ak.skip()
                unique.skip()
                continue

            # each route lists the structures it calls integrable, by index n
            integrable = set(_integrable_list(ts))
            disagree = set()
            for route in (_pairs_list(ts), _nijenhuis_list(f, sc), _chamber_list(ts)):
                disagree |= integrable.symmetric_difference(route)
            failure = None
            if disagree:
                signs = _signs(min(disagree), s)
                failure = f"{where}: integrability routes disagree at signs={signs}"
            fourway.cases(1 << s, failure)
            # Borel-Hirzebruch: every invariant complex structure carries an
            # invariant Kahler metric, so feasible == integrable
            feasible = set(_closed_witness_list(ts))
            wrong = feasible ^ integrable
            failure = None
            if wrong:
                n = min(wrong)
                failure = (
                    f"{where}: closed metric feasible={n in feasible},"
                    f" integrable={n in integrable} at signs={_signs(n, s)}"
                )
            ak.cases(len(feasible | integrable), failure)
            if s >= 2:
                try:
                    holds = normal_metric_unique(f).holds
                except InvariantViolationError as e:
                    unique.case(False, f"{where}: {e}")
                else:
                    unique.case(holds, f"{where}: a non-normal metric is forced equal by no triple")

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

    p_info = sub.add_parser("info", help="shape of one flag")
    add_flag_args(p_info)

    p_classify = sub.add_parser("classify", help="classify every structure on one flag")
    add_flag_args(p_classify)
    p_classify.add_argument("--iacs-cap", type=_int_in(1, IACS_CAP), default=DEFAULT_IACS_CAP)

    p_sweep = sub.add_parser("sweep", help="classification reports for every small flag")
    p_sweep.add_argument("--max-rank", type=_int_in(1), default=2)
    p_sweep.add_argument("--out", help="output directory (required unless FLAGCLASS_OUT is set)")
    p_sweep.add_argument("--iacs-cap", type=_int_in(1, IACS_CAP), default=DEFAULT_IACS_CAP)

    p_verify = sub.add_parser("verify", help="re-run the theorem checks")
    p_verify.add_argument("--max-rank", type=_int_in(1), default=DEFAULT_VERIFY_RANK)
    p_verify.add_argument(
        "--iacs-cap", type=_int_in(1, VERIFY_IACS_CAP), default=DEFAULT_IACS_CAP
    )
    # None stands for weyl.WEYL_CAP, resolved by run_verify, so that parsing
    # loads no Weyl layer.
    p_verify.add_argument("--weyl-cap", type=_int_in(1), default=None)
    p_verify.add_argument("--out", help="also write the check lines here")

    return parser


def _resolve_out(args) -> str | None:
    return os.environ.get("FLAGCLASS_OUT") or getattr(args, "out", None)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(Path(out), text)


def main(argv=None) -> int:
    parser = build_parser()
    out = None
    try:
        args = parser.parse_args(argv)
        out = _resolve_out(args)

        if args.command in ("info", "classify"):
            t = _parse_lie_type(args.type, args.rank)
            rs = build_root_system(t)
            theta = _parse_theta(args, t.rank)
            f = make_flag(rs, theta)
            if args.command == "info":
                payload, render = info_payload(f), _info_text
            else:
                payload, render = classify_payload(f, args.iacs_cap), _classify_text
            _emit(_dump_json(payload) if args.format == "json" else render(payload), out)
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
            _write_atomic(Path(out), text)
        return 0 if ok else 3

    except (UsageError, InvalidLieTypeError, NotAFlagManifoldError, InvalidInputError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"usage error: cannot write {out or 'stdout'}: {e.strerror or e}", file=sys.stderr)
        return 1
    except CapExceededError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 2
    except (InvariantViolationError, NotConnectedError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
