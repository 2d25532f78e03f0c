"""Outside-in benchmark of the flagclass command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI invocation is a fresh `python -m flagclass.cli` child process,
started one at a time from this process, so the library's lru_caches
start cold as they do for users.  One pass runs the workload's command
list once; passes repeat until S seconds have gone.  Every output byte is
checked against the sha256 digests in `digests.json`.  Time metrics are
scaled to a reference host's speed by `probe.py` runs around every command
(see PROBE_REF_S).

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` untraced and traced passes alternate; the traced ones run
`tracer.py` in the child and the last line carries the per-layer metrics.
Two traced passes must agree on every work count.

The exit code is 0 when every output is correct, 1 when any output, exit
code or count is wrong, and 2 when the checkout holds no program to run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH / "digests.json"
CHILD_TIMEOUT_S = 120
SWEEP_OUT = ".perfbench_work/sweep"

# Time metrics are reported at the speed of a reference host.  A host with
# shared vCPUs can change speed by 2x within seconds, so every command and
# every set-up import is divided by the mean of the probe.py runs just
# before and just after it, and scaled by PROBE_REF_S, the probe's median
# on the reference host (2 shared vCPUs at 2.0 GHz, Python 3.11.7).
PROBE_REF_S = 0.41
MIN_PASSES = 3


# Workloads.  Each maps a seed to the command list of one pass; only
# classify draws its input from the seed.  Why each exists is in
# README.md and BENCHMARK.json.

CLASSIFY_FIXED = (("A3", ""), ("G2", ""))
# Flags that the seed draws from.  D4 theta={1},{3},{4} are images of one
# another under triality, so their reports differ but their work is the
# same, and the seed does not move the timings.
CLASSIFY_POOL = (("D4", "1"), ("D4", "3"), ("D4", "4"))


def classify_argv(lie_type: str, theta: str) -> tuple[str, ...]:
    return ("classify", "--type", lie_type, f"--theta={theta}", "--format", "json")


def workload_commands(name: str, seed: int) -> list[tuple[str, ...]]:
    if name == "classify":
        drawn = random.Random(seed).choice(CLASSIFY_POOL)
        return [classify_argv(*flag) for flag in (*CLASSIFY_FIXED, drawn)]
    if name == "verify-fourway":
        return [("verify", "--max-rank", "3", "--iacs-cap", "6")]
    if name == "verify-lie":
        return [("verify", "--max-rank", "3", "--iacs-cap", "1")]
    if name == "sweep-r2":
        return [("sweep", "--max-rank", "2", "--out", SWEEP_OUT)]
    raise KeyError(name)


WORKLOADS = ("classify", "verify-fourway", "verify-lie", "sweep-r2")


def all_commands(name: str) -> list[tuple[str, ...]]:
    """Every command any seed can produce for the workload."""
    if name == "classify":
        return [classify_argv(*flag) for flag in (*CLASSIFY_FIXED, *CLASSIFY_POOL)]
    return workload_commands(name, 0)


def command_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


# Child processes.

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes


def run_child(argv: list[str]) -> ChildResult:
    """Run one child to completion; wall time and rusage come from wait4."""
    WORK.mkdir(exist_ok=True)
    out_path = WORK / "stdout"
    with open(out_path, "wb") as out, open(WORK / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
    return ChildResult(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        out_path.read_bytes(),
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(argv: tuple[str, ...], result: ChildResult, digests: dict) -> list[str]:
    """Every way the command's exit code or output differs from the reference."""
    ref = digests[command_key(argv)]
    problems = []
    if result.code != ref["exit"]:
        problems.append(f"exit code {result.code}, expected {ref['exit']}")
    if sha256(result.stdout) != ref["stdout"]:
        problems.append("stdout digest differs")
    if "files" in ref:
        out_dir = ROOT / SWEEP_OUT
        written = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
        if written != sorted(ref["files"]):
            problems.append(f"wrote {len(written)} files, expected {len(ref['files'])}")
        for name in written:
            if ref["files"].get(name) != sha256((out_dir / name).read_bytes()):
                problems.append(f"{name} digest differs")
    return problems


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, argv: tuple[str, ...], problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{command_key(argv)}: {p}" for p in problems)


def time_probe() -> float:
    result = run_child([sys.executable, str(BENCH / "probe.py")])
    if result.code != 0:
        raise RuntimeError("the host-speed probe failed")
    return result.wall_s


class ReferenceSpeed:
    """Brackets each measurement with probes and scales it to PROBE_REF_S."""

    def __init__(self):
        self.probes = [time_probe()]

    def scale(self, *seconds: float) -> list[float]:
        """Scale values measured since the last probe; runs the next probe."""
        self.probes.append(time_probe())
        factor = 2 * PROBE_REF_S / (self.probes[-2] + self.probes[-1])
        return [s * factor for s in seconds]


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0
    maxrss_kb: int = 0
    structures: int = 0
    trace: dict = field(default_factory=lambda: {"layers": {}, "counts": {}, "caches": {}})


def run_pass(commands, digests: dict, tally: Tally, speed: ReferenceSpeed | None) -> Pass:
    """One pass; untraced with a ReferenceSpeed, traced without one."""
    one = Pass()
    spans_path = WORK / "spans.json"
    for argv in commands:
        shutil.rmtree(ROOT / SWEEP_OUT, ignore_errors=True)
        if speed is None:
            prefix = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--"]
        else:
            prefix = [sys.executable, "-m", "flagclass.cli"]
        result = run_child(prefix + list(argv))
        problems = check_output(argv, result, digests)
        tally.record(argv, problems)
        one.wall_s += result.wall_s
        one.cpu_s += result.cpu_s
        one.maxrss_kb = max(one.maxrss_kb, result.maxrss_kb)
        one.structures += digests[command_key(argv)]["structures"]
        if speed is not None:
            wall, cpu = speed.scale(result.wall_s, result.cpu_s)
            one.ref_wall_s += wall
            one.ref_cpu_s += cpu
        elif not problems:
            add_trace(one.trace, json.loads(spans_path.read_text()))
    return one


def add_trace(acc: dict, child: dict) -> None:
    """Add one child's per-layer times, work counts and cache statistics."""
    for name, row in tracer.layer_times(child["spans"]).items():
        acc["layers"][name] = [a + b for a, b in zip(acc["layers"].get(name, (0, 0, 0)), row)]
    for name, value in child["counts"].items():
        acc["counts"][name] = acc["counts"].get(name, 0) + value
    for name, pair in child["caches"].items():
        acc["caches"][name] = [a + b for a, b in zip(acc["caches"].get(name, (0, 0)), pair)]


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    result = run_child([sys.executable, "-c", "import flagclass.cli"])
    if result.code != 0:
        raise RuntimeError("python -c 'import flagclass.cli' failed")
    return result.wall_s


# Metrics.

def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    wall = statistics.median(p.ref_wall_s for p in passes)
    structures = statistics.median(p.structures for p in passes)
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(p.ref_cpu_s for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(p.maxrss_kb for p in passes) / 1024, "MB"),
        "structures_per_s": (structures / wall, "1/s"),
    }


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    first = traced[0].trace
    for name in tracer.TRACED:
        rows = [p.trace["layers"].get(name, [0, 0.0, 0.0]) for p in traced]
        metrics[f"{name}.calls"] = (first["layers"].get(name, [0])[0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(r[1] for r in rows), "s")
        metrics[f"{name}.total_s"] = (statistics.median(r[2] for r in rows), "s")
    for layer in tracer.ENTRY_POINTS:
        metrics[f"{layer}.self_s"] = (
            sum(metrics[f"{n}.self_s"][0] for n in tracer.TRACED if n.startswith(layer + ".")),
            "s",
        )
    metrics["cli.self_s"] = (
        statistics.median(p.trace["layers"][tracer.ROOT_SPAN][1] for p in traced),
        "s",
    )
    counts = first["counts"]
    strict = "feasibility.solve_strict_rows"
    for name in tracer.COUNT_NAMES:
        if name != f"{strict}.outside_feasible":
            metrics[name] = (counts[name], "count")
    metrics[f"{strict}.feasible_ratio"] = (
        ratio(counts[f"{strict}.outside_feasible"], counts[f"{strict}.outside_calls"]),
        "ratio",
    )
    for name in tracer.CACHED:
        hits, misses = first["caches"][name]
        metrics[f"{name}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in untraced),
        "s",
    )
    return metrics


def work_counts(p: Pass) -> dict:
    """Every count of a traced pass that must repeat exactly."""
    return {
        "calls": {name: row[0] for name, row in p.trace["layers"].items()},
        "counts": p.trace["counts"],
        "caches": p.trace["caches"],
    }


# Noise record.

def cpu_ticks() -> list[int] | None:
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def noise_record(args, before: list[int] | None, after: list[int] | None) -> dict:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "src_sha256": src_sha(),
        "steal_s": None,
        "steal_share": None,
    }
    if before and after and len(before) > 7:
        delta = [b - a for a, b in zip(before, after)]
        record["steal_s"] = delta[7] / os.sysconf("SC_CLK_TCK")
        record["steal_share"] = ratio(delta[7], sum(delta[:8]))
    return record


# Driver.

def run(args) -> int:
    digests = json.loads(DIGESTS.read_text())
    commands = workload_commands(args.workload, args.seed)
    tally = Tally()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    setup: list[float] = []

    ticks_before = cpu_ticks()
    try:
        time_setup()  # compiles the bytecode once; users pay that only on install
        start = time.perf_counter()
        speed = ReferenceSpeed()
        while True:
            setup.extend(speed.scale(time_setup()))
            untraced.append(run_pass(commands, digests, tally, speed))
            if args.trace:
                traced.append(run_pass(commands, digests, tally, None))
            if tally.failed:
                break  # the run is wrong already; a hung command must not repeat
            enough = len(untraced) >= MIN_PASSES and (len(traced) >= 2 or not args.trace)
            if enough and time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    ticks_after = cpu_ticks()

    if args.trace and tally.failed == 0:
        reference = work_counts(traced[0])
        for p in traced[1:]:
            if work_counts(p) != reference:
                tally.problems.append("work counts differ between two traced passes")
                tally.failed += 1
                break
    correct = tally.failed == 0
    if args.trace:
        metrics = per_layer(traced, untraced) if correct else {}
    else:
        metrics = end_to_end(untraced, setup)

    print(json.dumps({"noise": noise_record(args, ticks_before, ticks_after)}))
    for problem in tally.problems:
        print(f"FAIL {problem}")
    walls = [p.wall_s for p in untraced]
    quart = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(
        f"{args.workload} seed={args.seed}: {len(walls)} passes,"
        f" measured wall q1/median/q3 {quart[0]:.3f}/{quart[1]:.3f}/{quart[2]:.3f} s,"
        f" probe median {statistics.median(speed.probes):.3f} s"
        f" (reference {PROBE_REF_S} s),"
        f" {tally.failed} of {tally.attempted} commands failed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if not args.trace:
        print(f"  error_rate {ratio(tally.failed, tally.attempted):.6g} ratio")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flagclass" / "cli.py").is_file():
        print(f"no flagclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
