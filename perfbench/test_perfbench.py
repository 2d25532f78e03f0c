"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import tracer


def test_self_time_subtracts_nested_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["structures.qk_feasibility", 1.0, 4.0, 0],
        ["feasibility.solve_positive_kernel", 2.0, 3.5, 1],
        ["feasibility.solve_strict_rows", 2.5, 3.0, 2],
        ["structures.qk_feasibility", 5.0, 9.0, 0],
    ]
    times = tracer.layer_times(spans)
    assert times["cli.main"] == [1, pytest.approx(3.0), pytest.approx(10.0)]
    assert times["structures.qk_feasibility"] == [2, pytest.approx(5.5), pytest.approx(7.0)]
    assert times["feasibility.solve_positive_kernel"] == [1, pytest.approx(1.0), pytest.approx(1.5)]
    assert times["feasibility.solve_strict_rows"] == [1, pytest.approx(0.5), pytest.approx(0.5)]
    # Self times of all spans add up to the root's duration.
    assert sum(row[1] for row in times.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0], ["c", 3.0, 7.0, 0], ["d", 8.0, 9.0, 0]]
    assert tracer.layer_times(spans)["a"][1] == pytest.approx(10.0 - 6.0 - 1.0)


def _result(stdout: bytes, code: int = 0) -> run.ChildResult:
    return run.ChildResult(code, 1.0, 1.0, 1024, stdout)


def test_digest_check_catches_a_corrupted_stdout():
    argv = ("verify", "--max-rank", "1")
    good = b"PASS jacobi (1 cases)\n"
    digests = {run.command_key(argv): {"exit": 0, "stdout": run.sha256(good)}}
    assert run.check_output(argv, _result(good), digests) == []
    corrupted = good.replace(b"1", b"2", 1)
    assert run.check_output(argv, _result(corrupted), digests) == ["stdout digest differs"]
    assert run.check_output(argv, _result(good, code=3), digests) == [
        "exit code 3, expected 0"
    ]


def test_digest_check_catches_a_corrupted_or_missing_sweep_file(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    out_dir = tmp_path / run.SWEEP_OUT
    out_dir.mkdir(parents=True)
    files = {"index.json": b'{"flags": []}\n', "A1_theta_none.json": b'{"s": 1}\n'}
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
    argv = ("sweep", "--max-rank", "1", "--out", run.SWEEP_OUT)
    stdout = b"wrote 1 reports\n"
    digests = {
        run.command_key(argv): {
            "exit": 0,
            "stdout": run.sha256(stdout),
            "files": {name: run.sha256(data) for name, data in files.items()},
        }
    }
    assert run.check_output(argv, _result(stdout), digests) == []
    (out_dir / "A1_theta_none.json").write_bytes(b'{"s": 2}\n')
    assert run.check_output(argv, _result(stdout), digests) == [
        "A1_theta_none.json digest differs"
    ]
    (out_dir / "A1_theta_none.json").unlink()
    assert run.check_output(argv, _result(stdout), digests) == ["wrote 1 files, expected 2"]


def test_tally_counts_a_command_once_however_many_problems():
    tally = run.Tally()
    tally.record(("a",), [])
    tally.record(("b",), ["exit code 1, expected 0", "stdout digest differs"])
    assert (tally.attempted, tally.failed, len(tally.problems)) == (2, 1, 2)


def test_every_seed_draws_a_command_with_a_reference_digest():
    digests = json.loads(run.DIGESTS.read_text())
    for workload in run.WORKLOADS:
        assert set(map(run.command_key, run.all_commands(workload))) <= set(digests)
        for seed in range(20):
            commands = run.workload_commands(workload, seed)
            assert commands == run.workload_commands(workload, seed)
            assert set(commands) <= set(run.all_commands(workload))


def test_traced_child_nests_spans_under_the_cli(tmp_path):
    spans_path = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "tracer.py"), str(spans_path), "--",
         "classify", "--type", "A2", "--theta=", "--format", "json"],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, check=True,
    )
    assert json.loads(out.stdout)["schema"] == "flagclass/1"
    trace = json.loads(spans_path.read_text())
    spans = trace["spans"]
    assert spans[0][0] == tracer.ROOT_SPAN and spans[0][3] == -1
    names = {span[0] for span in spans}
    assert {"structures.qk_feasibility", "feasibility.solve_positive_kernel"} <= names
    # Every kernel solve is entered through a structures test, never directly.
    for name, _start, _end, parent in spans:
        if name == "feasibility.solve_positive_kernel":
            assert spans[parent][0].startswith("structures.")
    assert trace["counts"]["feasibility.solve_positive_kernel.rows"] > 0
    assert trace["caches"]["rootsys.build_root_system"][1] >= 1


def test_strict_rows_ratio_counts_only_calls_from_outside_the_solver():
    traced = tracer.Tracer()
    answers = iter([None, (1,), (1,)])
    strict = traced.wrap("feasibility.solve_strict_rows", lambda rows, n: next(answers))

    class Result:
        feasible, certificate = False, (1,)

    def kernel(rows, n):
        strict(rows, n)  # a certificate search: counted as a call, not a decision
        return Result()

    traced.wrap("feasibility.solve_positive_kernel", kernel)([[1]], 1)
    strict([], 1)
    strict([], 1)
    counts = traced.counts
    assert counts["feasibility.solve_strict_rows.outside_calls"] == 2
    assert counts["feasibility.solve_strict_rows.outside_feasible"] == 2
    assert counts["feasibility.solve_positive_kernel.certificates"] == 1


def test_a_missing_traced_name_fails_the_traced_command(monkeypatch):
    # The missing name comes first, so nothing is patched before install raises.
    monkeypatch.setattr(tracer, "TRACED", ("weyl.no_such_function", *tracer.TRACED))
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    with pytest.raises(AttributeError):
        tracer.install(tracer.Tracer())
