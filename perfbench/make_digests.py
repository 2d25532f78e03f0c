"""Write digests.json: the reference outputs the benchmark checks against.

    python3 perfbench/make_digests.py

Runs every command any seed of any workload can produce, once, and stores
its exit code, the sha256 of its stdout, the sha256 of every file it
writes, and the number of structures it covers.  Regenerate only when a
change to the reports is intended; the benchmark treats any other
difference as an error.
"""
from __future__ import annotations

import json
import re
import shutil
import sys

import run


def structures(argv: tuple[str, ...], stdout: bytes) -> int:
    """iacs entries in the reports, or the four-way case count of verify."""
    if argv[0] == "classify":
        return len(json.loads(stdout)["iacs"])
    if argv[0] == "verify":
        return int(re.search(rb"PASS integrability-four-way \((\d+) cases", stdout)[1])
    reports = [p for p in (run.ROOT / run.SWEEP_OUT).iterdir() if p.name != "index.json"]
    return sum(len(json.loads(p.read_text())["iacs"]) for p in reports)


def main() -> int:
    digests = {}
    for workload in run.WORKLOADS:
        for argv in run.all_commands(workload):
            shutil.rmtree(run.ROOT / run.SWEEP_OUT, ignore_errors=True)
            result = run.run_child([sys.executable, "-m", "flagclass.cli", *argv])
            entry = {
                "exit": result.code,
                "stdout": run.sha256(result.stdout),
                "structures": structures(argv, result.stdout),
            }
            if argv[0] == "sweep":
                out_dir = run.ROOT / run.SWEEP_OUT
                entry["files"] = {
                    p.name: run.sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())
                }
            digests[run.command_key(argv)] = entry
            print(f"{result.wall_s:7.2f}s exit {result.code} {run.command_key(argv)}")
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
