"""Command line behavior: formats, exit codes, sweep determinism, verify wiring."""
import json
import subprocess
import sys

import pytest

from flagclass import cli
from flagclass.chevalley import StructureConstants, compute_structure_constants
from flagclass.rootsys import LieType


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
        ("classify",),
        ("classify", "--type", "A2", "--theta", "--iacs-cap", "-1"),
        ("verify", "--max-rank", "0"),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "usage error" in err


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

    monkeypatch.setattr(cli, "compute_structure_constants", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--max-rank", "2")
    assert code == 3
    assert any(line.startswith("FAIL jacobi") for line in out.splitlines())


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flagclass.cli", "info", "--type", "B2", "--theta", "1"],
        capture_output=True,
        text=True,
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
