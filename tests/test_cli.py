"""Command line behavior: formats, exit codes, sweep determinism, verify wiring."""
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import flagclass
from flagclass import chevalley, cli, structures, weyl
from flagclass.chevalley import StructureConstants, compute_structure_constants
from flagclass.errors import InvariantViolationError
from flagclass.flag import make_flag
from flagclass.rootsys import LieType
from flagclass.structures import VerificationReport
from flagclass.tzs import ConnectivityReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_info_text_example(capsys):
    code, out, err = run_cli(capsys, "info", "--type", "A3", "--theta", "2,3")
    assert code == 0
    assert "positive t-roots: 1" in out
    assert "fiber dimension 3" in out


def test_info_text_counts_unpainted_then_painted_roots(capsys):
    # painting node 1 of B3 leaves nodes 2 and 3 unpainted: R_Theta is their
    # B2, 8 roots, and the other 10 roots are painted
    code, out, err = run_cli(capsys, "info", "--type", "B3", "--paint", "1")
    assert code == 0, err
    assert out.splitlines()[1] == "roots: 18 (unpainted 8, painted 10)"
    payload = run_json(capsys, "info", "--type", "B3", "--paint", "1")
    # the flagclass/1 keys keep their names: painted_roots counts R_Theta
    assert (payload["painted_roots"], payload["complement_roots"]) == (8, 10)


@pytest.mark.parametrize(
    "argv, render",
    [
        (("classify", "--type", "A3", "--theta", ""), "_classify_text"),
        (("info", "--type", "B3", "--paint", "1"), "_info_text"),
    ],
)
def test_json_output_renders_no_text_report(capsys, monkeypatch, argv, render):
    code, before, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err

    def refuse(payload):
        raise AssertionError(f"{render} ran for --format json")

    monkeypatch.setattr(cli, render, refuse)
    assert run_cli(capsys, *argv, "--format", "json") == (0, before, "")


def test_info_json_fields(capsys):
    payload = run_json(capsys, "info", "--type", "A2", "--theta")
    assert payload["schema"] == "flagclass/1"
    assert payload["flag"] == {"type": "A2", "theta": []}
    assert payload["roots"] == 6
    assert payload["s"] == 3
    assert payload["zero_sum_triples"] == 2
    assert payload["tzs_connected"] is True


def test_combined_and_split_type_agree(capsys):
    one = run_json(capsys, "info", "--type", "A3", "--theta", "2")
    two = run_json(capsys, "info", "--type", "A", "--rank", "3", "--theta", "2")
    assert one == two


def test_paint_is_the_complement(capsys):
    one = run_json(capsys, "info", "--type", "A3", "--theta", "2,3")
    two = run_json(capsys, "info", "--type", "A3", "--paint", "1")
    assert one == two


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "--theta", "1"),
        ("info", "--type", "A2", "--theta", "1", "--paint", "2"),
        ("info", "--type", "A2", "--theta", "5"),
        ("info", "--type", "A2", "--theta", "x"),
        ("info", "--type", "A1", "--theta", "1"),
        ("info", "--type", "Z9"),
        ("info", "--type", "A3", "--rank", "3"),
        ("info", "--type", "A2", "--iacs-cap", "3"),
        ("classify",),
        ("classify", "--type", "A2", "--theta", "--iacs-cap", "-1"),
        # one over the hard cap, on flags small enough that a missed check fails fast
        ("classify", "--type", "A2", "--theta", "--iacs-cap", "21"),
        ("sweep", "--max-rank", "1", "--iacs-cap", "21"),
        ("verify", "--max-rank", "1", "--iacs-cap", "37"),
        ("verify", "--max-rank", "0"),
        ("verify", "--max-rank", "2", "--weyl-cap", "-1"),
        ("verify", "--max-rank", "2", "--weyl-cap", "0"),
        ("info", "--type", "A3", "--theta", "--1"),
        ("info", "--type", "A3", "--theta=--1"),
        ("info", "--type", "A3", "--paint", "²"),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("command", ["classify", "sweep", "verify"])
def test_iacs_cap_above_the_hard_cap_is_rejected_at_parse_time(capsys, tmp_path, command):
    # verify lists only each route's integrable structures, never all 2^s,
    # so its cap is the largest s up to the rank cap (E6 full), higher than
    # the one of the commands that list every structure
    argv, cap = {
        "classify": (("classify", "--type", "A2", "--theta"), cli.IACS_CAP),
        "sweep": (("sweep", "--max-rank", "1", "--out", str(tmp_path / "sweep")), cli.IACS_CAP),
        "verify": (("verify", "--max-rank", "1"), cli.VERIFY_IACS_CAP),
    }[command]
    assert (cli.IACS_CAP, cli.VERIFY_IACS_CAP) == (20, 36)
    code, _, err = run_cli(capsys, *argv, "--iacs-cap", str(cap + 1))
    assert code == 1
    assert f"must be at most {cap}, got {cap + 1}" in err
    assert not (tmp_path / "sweep").exists()
    code, _, err = run_cli(capsys, *argv, "--iacs-cap", str(cap))
    assert code == 0, err


@pytest.mark.parametrize("command", ["classify", "sweep", "verify"])
def test_iacs_cap_zero_is_a_usage_error(capsys, tmp_path, command):
    # every flag has s >= 1, so cap 0 admits no structure: a pass would be vacuous
    argv = {
        "classify": ("classify", "--type", "A2", "--theta"),
        "sweep": ("sweep", "--max-rank", "2", "--out", str(tmp_path / "sweep")),
        "verify": ("verify", "--max-rank", "2"),
    }[command]
    code, out, err = run_cli(capsys, *argv, "--iacs-cap", "0")
    assert code == 1
    assert "usage error" in err and "must be at least 1, got 0" in err
    assert out == ""
    assert not (tmp_path / "sweep").exists()


BENCH_DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text()
)


@pytest.mark.parametrize("command", sorted(BENCH_DIGESTS))
def test_benchmark_commands_match_digests(capsys, tmp_path, command):
    """Each benchmark command, run in-process, reproduces its stored exit code and bytes.

    A sweep's stdout names its output directory, so only its files are compared.
    """
    ref = BENCH_DIGESTS[command]
    argv = command.split(" ")
    if "files" in ref:
        argv[argv.index("--out") + 1] = str(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == ref["exit"]
    if "files" in ref:
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
        }
        assert written == ref["files"]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == ref["stdout"]


def test_no_command_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1


def test_classify_a2_full(capsys):
    payload = run_json(capsys, "classify", "--type", "A2", "--theta")
    assert payload["s"] == 3
    assert len(payload["iacs"]) == 8
    first = payload["iacs"][0]
    assert first["signs"] == [1, 1, 1]
    assert first["integrable"] is True
    assert first["qk"] == {"feasible": True, "sample": [1, 1, 2]}
    assert first["c_of_j"] == []
    second = payload["iacs"][1]
    assert second["signs"] == [1, 1, -1]
    assert second["integrable"] is False
    assert second["c_of_j"] == [[0, 1], [1, 0], [1, 1]]
    classes = {t["class"] for entry in payload["iacs"] for t in entry["triples"]}
    assert classes == {"ZeroThree", "OneTwo"}
    assert sum(e["integrable"] for e in payload["iacs"]) == 6
    assert payload["theorems"] == {
        "normal_metric_unique": True,
        "ak_equals_k": True,
        "tzs_connected": True,
    }


def test_classify_respects_cap(capsys):
    code, _, err = run_cli(capsys, "classify", "--type", "A2", "--theta", "", "--iacs-cap", "2")
    assert code == 2
    assert "cap" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "classify", "--type", "A2", "--theta", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["s"] == 3


def test_out_to_a_pipe_or_symlink_is_written_in_place(capsys, tmp_path):
    expected = run_cli(capsys, "info", "--type", "A2", "--theta")[1]
    # a symlink (like /dev/stdout) must stay a link, with the report in its target
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("older\n")
    link.symlink_to(target)
    assert run_cli(capsys, "info", "--type", "A2", "--theta", "--out", str(link))[0] == 0
    assert link.is_symlink()
    assert target.read_text() == expected

    # a pipe cannot be replaced by a renamed file; it must stay a pipe and get the report
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    code, _, _ = run_cli(capsys, "info", "--type", "A2", "--theta", "--out", str(pipe))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0
    assert pipe.is_fifo()
    assert received == [expected]


@pytest.mark.parametrize(
    "command, target",
    [
        (("classify", "--type", "A2"), "missing-parent"),
        (("classify", "--type", "A2", "--theta="), "directory"),
        (("sweep", "--max-rank", "1"), "regular-file"),
    ],
)
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, monkeypatch, command, target):
    monkeypatch.delenv("FLAGCLASS_OUT", raising=False)
    path = tmp_path / "out"
    if target == "missing-parent":
        path = tmp_path / "nonexistent" / "x.json"
    elif target == "directory":
        path.mkdir()
    else:
        path.write_text("a regular file\n")
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run_cli(capsys, *command, "--out", str(path))
    assert code == 1
    assert err.startswith(f"usage error: cannot write {path}: ")
    # no temp file is left beside the target
    assert sorted(tmp_path.rglob("*")) == before


def test_env_var_overrides_out(capsys, tmp_path, monkeypatch):
    flag_target = tmp_path / "ignored.json"
    env_target = tmp_path / "wins.json"
    monkeypatch.setenv("FLAGCLASS_OUT", str(env_target))
    code, _, _ = run_cli(
        capsys, "info", "--type", "A2", "--theta", "--format", "json", "--out", str(flag_target)
    )
    assert code == 0
    assert env_target.exists()
    assert not flag_target.exists()


EXPECTED_SWEEP_FILES = [
    "A1_theta_none.json",
    "A2_theta_none.json",
    "A2_theta_1.json",
    "A2_theta_2.json",
    "B2_theta_none.json",
    "B2_theta_1.json",
    "B2_theta_2.json",
    "G2_theta_none.json",
    "G2_theta_1.json",
    "G2_theta_2.json",
]


def test_sweep_rank_two_writes_ten_reports(capsys, tmp_path):
    out = tmp_path / "sweep"
    code, stdout, _ = run_cli(capsys, "sweep", "--max-rank", "2", "--out", str(out))
    assert code == 0
    assert "wrote 10 reports" in stdout
    names = sorted(p.name for p in out.glob("*.json"))
    assert names == sorted(EXPECTED_SWEEP_FILES + ["index.json"])
    index = json.loads((out / "index.json").read_text())
    assert index["schema"] == "flagclass/1"
    assert [e["file"] for e in index["flags"]] == EXPECTED_SWEEP_FILES
    assert all(e["status"] == "ok" for e in index["flags"])
    assert all(
        set(e["theorems"]) == {"normal_metric_unique", "ak_equals_k", "tzs_connected"}
        for e in index["flags"]
    )
    assert all(all(e["theorems"].values()) for e in index["flags"])


def test_sweep_is_byte_idempotent(capsys, tmp_path):
    out = tmp_path / "sweep"
    run_cli(capsys, "sweep", "--max-rank", "2", "--out", str(out))
    first = {p.name: p.read_bytes() for p in out.glob("*.json")}
    run_cli(capsys, "sweep", "--max-rank", "2", "--out", str(out))
    second = {p.name: p.read_bytes() for p in out.glob("*.json")}
    assert first == second


def test_sweep_write_failure_leaves_the_old_tree(capsys, tmp_path, monkeypatch):
    out = tmp_path / "sweep"
    run_cli(capsys, "sweep", "--max-rank", "2", "--out", str(out))
    for p in out.iterdir():  # stand-ins for the reports of an older run
        p.write_text(f"older {p.name}\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_replace(src, dst):
        raise OSError("injected replace failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected replace failure"):
        cli.run_sweep(2, out, cli.DEFAULT_IACS_CAP)
    # iterdir also lists a leftover temp file, which would break the equality
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_sweep_without_out_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("FLAGCLASS_OUT", raising=False)
    code, _, err = run_cli(capsys, "sweep", "--max-rank", "2")
    assert code == 1
    assert "usage error" in err


def test_sweep_rejects_nonpositive_max_rank(capsys, tmp_path):
    out = tmp_path / "sweep"
    code, _, err = run_cli(capsys, "sweep", "--max-rank", "-2", "--out", str(out))
    assert code == 1
    assert "usage error" in err
    assert not (out / "index.json").exists()


def test_sweep_marks_capped_flags_as_errors(capsys, tmp_path):
    out = tmp_path / "sweep"
    code, _, _ = run_cli(
        capsys, "sweep", "--max-rank", "2", "--out", str(out), "--iacs-cap", "2"
    )
    assert code == 2
    index = json.loads((out / "index.json").read_text())
    by_file = {e["file"]: e for e in index["flags"]}
    assert by_file["A2_theta_none.json"]["status"] == "error"
    assert "cap" in by_file["A2_theta_none.json"]["error"]
    assert by_file["A2_theta_1.json"]["status"] == "ok"
    assert not (out / "A2_theta_none.json").exists()


def test_sweep_indexes_a_verification_failure_and_exits_three(capsys, tmp_path, monkeypatch):
    classify = cli.classify_payload

    def failing_on_b2_full(f, iacs_cap):
        if str(f.rs.lie_type) == "B2" and not f.theta:
            raise InvariantViolationError("injected failure")
        return classify(f, iacs_cap)

    monkeypatch.setattr(cli, "classify_payload", failing_on_b2_full)
    out = tmp_path / "sweep"
    code, _, err = run_cli(capsys, "sweep", "--max-rank", "2", "--out", str(out))
    assert code == 3
    assert "injected failure" in err
    index = json.loads((out / "index.json").read_text())
    assert [e["file"] for e in index["flags"]] == EXPECTED_SWEEP_FILES
    by_file = {e["file"]: e for e in index["flags"]}
    assert by_file["B2_theta_none.json"] == {
        "file": "B2_theta_none.json",
        "flag": {"type": "B2", "theta": []},
        "status": "error",
        "error": "injected failure",
    }
    assert not (out / "B2_theta_none.json").exists()
    others = [name for name in EXPECTED_SWEEP_FILES if name != "B2_theta_none.json"]
    assert all(by_file[name]["status"] == "ok" for name in others)
    assert all((out / name).exists() for name in others)

    # a verification failure outranks the cap's exit 2
    code, _, _ = run_cli(
        capsys, "sweep", "--max-rank", "2", "--out", str(out), "--iacs-cap", "2"
    )
    assert code == 3
    by_file = {e["file"]: e for e in json.loads((out / "index.json").read_text())["flags"]}
    assert "cap" in by_file["A2_theta_none.json"]["error"]
    assert by_file["B2_theta_none.json"]["error"] == "injected failure"


def test_verify_rank_two_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines)
    names = {line.split()[1] for line in lines}
    assert names == {
        "jacobi",
        "root-connectivity",
        "t-root-connectivity",
        "integrability-four-way",
        "ak-equals-k",
        "normal-metric-uniqueness",
        "weyl-stabilizer",
    }


def test_verify_rank_cap_exits_two_before_any_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-rank", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("cap exceeded:")


def test_sweep_rank_cap_exits_two_before_any_work(capsys, tmp_path):
    out = tmp_path / "x"
    code, stdout, err = run_cli(capsys, "sweep", "--max-rank", "7", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("cap exceeded:")
    assert not out.exists()


def test_verify_writes_out_file(capsys, tmp_path):
    target = tmp_path / "checks.txt"
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "1", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_verify_detects_injected_fault(capsys, monkeypatch):
    real = compute_structure_constants

    def corrupted(rs):
        sc = real(rs)
        if not sc.table:
            return sc
        key = sorted(sc.table, key=lambda ab: (ab[0].coords, ab[1].coords))[0]
        table = dict(sc.table)
        table[key] = table[key] + table[key]
        return StructureConstants(rs, table)

    # run_verify looks the name up in chevalley on each call
    monkeypatch.setattr(chevalley, "compute_structure_constants", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "2")
    assert code == 3
    assert any(line.startswith("FAIL jacobi") for line in out.splitlines())


def test_verify_detects_a_faulted_weyl_group(capsys, monkeypatch):
    real = weyl.generate_weyl

    def faulted(rs, cap=weyl.WEYL_CAP):
        # the last element fixing R_Theta for theta=(1,) now sends alpha_1 outside it
        w = real(rs, cap=cap)
        if rs.rank == 1:
            return w
        theta = {rs.index[b] for b in make_flag(rs, (1,)).r_theta}
        last = max(k for k, e in enumerate(w.elements) if {e.perm[i] for i in theta} == theta)
        perm = list(w.elements[last].perm)
        alpha, outside = rs.index[rs.simple_roots[0]], perm.index(min(set(perm) - theta))
        perm[alpha], perm[outside] = perm[outside], perm[alpha]
        elements = w.elements[:last] + (weyl.WeylElement(tuple(perm)),) + w.elements[last + 1 :]
        return weyl.WeylGroup(rs, elements, w.generators)

    # run_verify looks the name up in weyl on each call
    monkeypatch.setattr(weyl, "generate_weyl", faulted)
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "2")
    assert code == 3
    lines = out.splitlines()
    assert lines[-1].startswith("FAIL weyl-stabilizer: A2 theta=(1,): kept 1,")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_prints_a_pair_route_disagreement_as_a_fail_line(capsys, monkeypatch):
    real = structures._signed_pairs

    def faulted(ts):
        # on A2 full every sum d + e gets the wrong sign class, so the pair
        # route calls the all-plus structure non-integrable
        pairs = real(ts)
        if str(ts.flag.rs.lie_type) == "A2" and not ts.flag.theta:
            return tuple((d, e, (t, -st)) for d, e, (t, st) in pairs)
        return pairs

    # the pair route looks the name up in structures on each call, and the
    # chamber search reads the pair route's list, so the all-plus leaf loses
    # its chamber and its closed metric too
    monkeypatch.setattr(structures, "_signed_pairs", faulted)
    structures._chamber_points.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "2")
    finally:
        structures._chamber_points.cache_clear()
    assert code == 3
    lines = out.splitlines()
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == [
        "FAIL integrability-four-way: A2 theta=(): integrability routes disagree"
        " at signs=(1, 1, 1)",
        "FAIL ak-equals-k: A2 theta=(): closed metric feasible=False, integrable=True"
        " at signs=(1, 1, 1)",
    ]
    assert len(lines) == 7


def test_verify_prints_a_uniqueness_disagreement_as_a_fail_line(capsys, monkeypatch):
    real = structures.connectivity

    def disconnected(fs):
        report = real(fs)
        return ConnectivityReport(False, report.class_reps, report.components, report.triples)

    # normal_metric_unique looks the name up in structures on each call
    monkeypatch.setattr(structures, "connectivity", disconnected)
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "2")
    assert code == 3
    lines = out.splitlines()
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == [
        "FAIL normal-metric-uniqueness: A2 theta=(): uniqueness sweep disagrees"
        " with triple connectivity on A2 theta="
    ]
    assert len(lines) == 7


def negate_a2_full_plus_point(monkeypatch):
    """Negate the stored metric of the A2 full all-plus chamber, as if its point were -H.

    The index stays, so the chamber route of the four-way check is untouched.
    """
    real = structures._chamber_points

    def faulted(ts):
        points = real(ts)
        if str(ts.flag.rs.lie_type) == "A2" and not ts.flag.theta:
            (n, lam), *rest = points
            assert n == 0
            return ((n, tuple(-x for x in lam)), *rest)
        return points

    # the witness looks the chambers up in structures on each call
    monkeypatch.setattr(structures, "_chamber_points", faulted)


def test_verify_fails_ak_equals_k_on_an_integrable_structure_without_a_closed_metric(
    capsys, monkeypatch
):
    # the closed-metric decision is the chamber witness alone: with no
    # solve beside it, an integrable structure left unwitnessed fails
    negate_a2_full_plus_point(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "2")
    assert code == 3
    failed = [line for line in out.splitlines() if not line.startswith("PASS")]
    assert failed == [
        "FAIL ak-equals-k: A2 theta=(): closed metric feasible=False, integrable=True"
        " at signs=(1, 1, 1)"
    ]


def test_verify_fails_where_a_koszul_point_drops_a_fiber(capsys, monkeypatch):
    # v_J without the fiber of class 0, alpha_2 on A2 full, is orthogonal to
    # alpha_2: the all-plus leaf loses its witness, so the chamber route and
    # the closed metric both miss it
    real = structures._koszul_columns

    def faulted(ts):
        columns = real(ts)
        if str(ts.flag.rs.lie_type) == "A2" and not ts.flag.theta:
            return ((0,) * len(columns[0]), *columns[1:])
        return columns

    monkeypatch.setattr(structures, "_koszul_columns", faulted)
    structures._chamber_points.cache_clear()
    try:
        code, out, _ = run_cli(capsys, "verify", "--max-rank", "2")
    finally:
        structures._chamber_points.cache_clear()
    assert code == 3
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("PASS")] == [
        "FAIL integrability-four-way: A2 theta=(): integrability routes disagree"
        " at signs=(1, 1, 1)",
        "FAIL ak-equals-k: A2 theta=(): closed metric feasible=False, integrable=True"
        " at signs=(1, 1, 1)",
    ]
    assert len(lines) == 7


def test_classify_ak_equals_k_reads_false_when_no_structure_has_a_closed_metric(
    capsys, monkeypatch
):
    real = structures._chamber_points

    def negated(ts):
        # every witness metric of A3 full turns negative
        points = real(ts)
        if str(ts.flag.rs.lie_type) == "A3" and not ts.flag.theta:
            return tuple((n, tuple(-x for x in lam)) for n, lam in points)
        return points

    monkeypatch.setattr(structures, "_chamber_points", negated)
    payload = run_json(capsys, "classify", "--type", "A3", "--theta")
    integrable = {tuple(e["signs"]) for e in payload["iacs"] if e["integrable"]}
    assert len(integrable) == 24
    assert payload["theorems"]["ak_equals_k"] is False


def test_classify_ak_equals_k_reads_false_where_a_chamber_point_is_wrong(capsys, monkeypatch):
    argv = ("classify", "--type", "A2", "--theta=", "--format", "json")
    clean = run_json(capsys, *argv)
    assert clean["theorems"]["ak_equals_k"] is True
    negate_a2_full_plus_point(monkeypatch)
    faulted = run_json(capsys, *argv)
    assert faulted["theorems"]["ak_equals_k"] is False
    # only the theorem reads the chamber metrics
    assert faulted["iacs"] == clean["iacs"]


@pytest.mark.parametrize(
    "argv, solves",
    [
        (("classify", "--type", "A3", "--theta=", "--format", "json"), 32),
        (("classify", "--type", "D4", "--theta=1", "--format", "json"), 64),
        (("sweep", "--max-rank", "2"), 56),
    ],
)
def test_classify_solves_one_qk_system_per_conjugate_pair(
    capsys, monkeypatch, tmp_path, argv, solves
):
    # -j has the rows of j negated and so the same answer and sample: each
    # flag's 2^s structures take 2^(s-1) solves, all giving class 0 the sign +1
    if argv[0] == "sweep":
        argv += ("--out", str(tmp_path / "sweep"))
    # -j also has the one-signed triples of j, so its integrability, C(j)
    # and triple classes are read off one _one_sign pass of j, and the solve
    # of j makes one more of its own
    asked = {name: [] for name in ("_one_sign", "qk_feasibility")}
    passes = {"_one_sign": 2, "qk_feasibility": 1}

    def counting(name, real):
        def counted(j, ts):
            signs = getattr(j, "signs", j)
            asked[name].append((ts.flag.label(), len(ts.positive), signs))
            return real(j, ts)

        return counted

    monkeypatch.setattr(cli, "qk_feasibility", counting("qk_feasibility", cli.qk_feasibility))
    one_sign = counting("_one_sign", structures._one_sign)
    monkeypatch.setattr(cli, "_one_sign", one_sign)
    monkeypatch.setattr(structures, "_one_sign", one_sign)
    # the uniqueness sweep makes passes of its own, over every structure
    monkeypatch.setattr(cli, "normal_metric_unique", lambda f: VerificationReport(True, ()))
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    for name, calls in asked.items():
        assert len(calls) == passes[name] * solves, name
        assert all(signs[0] == 1 for _, _, signs in calls), name
        per_flag = {}
        for label, s, signs in calls:
            per_flag.setdefault((label, s), set()).add(signs)
        assert {key: len(v) for key, v in per_flag.items()} == {
            (label, s): 1 << (s - 1) for label, s in per_flag
        }, name


def test_verify_weyl_cap_skips_groups_over_it(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "2", "--weyl-cap", "6")
    assert code == 0
    assert "PASS weyl-stabilizer (4 cases, 6 skipped by cap)" in out.splitlines()


def test_module_entrypoint_runs():
    # the child must import the same flagclass as this process
    src = str(Path(flagclass.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flagclass.cli", "info", "--type", "B2", "--theta", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "fiber dimension" in proc.stdout


def test_types_up_to_order():
    names = [str(t) for t in cli.types_up_to(4)]
    assert names == [
        "A1",
        "A2",
        "B2",
        "G2",
        "A3",
        "B3",
        "C3",
        "A4",
        "B4",
        "C4",
        "D4",
        "F4",
    ]
    assert [str(t) for t in cli.types_up_to(6)][-4:] == ["B6", "C6", "D6", "E6"]
