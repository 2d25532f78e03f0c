"""Traced child process for the benchmark, and the span arithmetic.

Run as a script, this wraps the public cross-module entry points of
flagclass at every place they are looked up (the defining module and each
module that imported the name), runs `flagclass.cli.main` on the given
arguments, and writes the spans, work counts and lru_cache statistics as
JSON:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json -- classify --type A3 --theta=

The CLI's report still goes to stdout, so the caller can check it like an
untraced run.  Spans are kept in memory and written once, at exit.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# Entry points traced, by layer (module).  `cli.main` is the root span.
ENTRY_POINTS = {
    "rootsys": ("build_root_system",),
    "flag": ("make_flag", "build_t_roots"),
    "tzs": ("zero_sum_triples", "connectivity"),
    "chevalley": ("compute_structure_constants", "verify_jacobi"),
    "structures": (
        "enumerate_iacs",
        "qk_feasibility",
        "closed_metric_feasibility",
        "is_integrable",
        "nijenhuis_oracle",
        "t_chambers",
        "normal_metric_unique",
    ),
    "feasibility": ("solve_positive_kernel", "solve_strict_rows"),
    "weyl": ("generate_weyl", "a_theta"),
}
ROOT_SPAN = "cli.main"
TRACED = tuple(f"{m}.{fn}" for m, fns in ENTRY_POINTS.items() for fn in fns)

# lru_cached functions whose hit ratio is reported.
CACHED = (
    "rootsys.build_root_system",
    "flag.build_t_roots",
    "chevalley.compute_structure_constants",
    "structures.t_zero_sum_triples",
    "structures._nijenhuis_pairs",
    "structures._root_zero_sum_triples",
    "structures._check_triple_lifts",
)

# Work counts taken from the arguments and results of single entry points.
COUNT_NAMES = (
    "feasibility.solve_positive_kernel.rows",
    "feasibility.solve_positive_kernel.infeasible",
    "feasibility.solve_positive_kernel.certificates",
    "feasibility.solve_strict_rows.outside_calls",
    "feasibility.solve_strict_rows.outside_feasible",
    "tzs.zero_sum_triples.triples",
    "weyl.generate_weyl.elements",
)


def _count(counts: dict, name: str, parent: str | None, args, result) -> None:
    if name == "feasibility.solve_positive_kernel":
        counts[name + ".rows"] += len(args[0])
        counts[name + ".infeasible"] += not result.feasible
        counts[name + ".certificates"] += result.certificate is not None
    elif name == "feasibility.solve_strict_rows":
        # Calls from inside solve_positive_kernel include certificate
        # searches, which always succeed; only the others are decisions.
        if parent != "feasibility.solve_positive_kernel":
            counts[name + ".outside_calls"] += 1
            counts[name + ".outside_feasible"] += result is not None
    elif name == "tzs.zero_sum_triples":
        counts[name + ".triples"] += len(result)
    elif name == "weyl.generate_weyl":
        counts[name + ".elements"] += len(result.elements)


class Tracer:
    """Records spans as [name, start, end, parent index] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = len(spans), stack[-1]
            span = [name, perf_counter(), 0.0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            _count(counts, name, spans[parent][0] if parent >= 0 else None, args, result)
            return result

        return traced


def _lookup(name: str):
    """The function a dotted `layer.function` name refers to.

    A missing name raises, so the traced command fails: a change that
    renames or removes a traced or cached function updates ENTRY_POINTS
    or CACHED with it.
    """
    layer, fn_name = name.split(".")
    return getattr(importlib.import_module(f"flagclass.{layer}"), fn_name)


def install(tracer: Tracer) -> dict:
    """Patch every lookup site of the traced names; return the lru_caches."""
    modules = [importlib.import_module("flagclass")] + [
        importlib.import_module(f"flagclass.{m}") for m in (*ENTRY_POINTS, "cli")
    ]
    caches = {name: _lookup(name) for name in CACHED}
    for name, fn in caches.items():
        if not hasattr(fn, "cache_info"):
            raise TypeError(f"{name} is not an lru_cache")
    for name in TRACED:
        original = _lookup(name)
        wrapped = tracer.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    return caches


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_times(spans) -> dict[str, list]:
    """Per span name: [calls, self seconds, total seconds].

    A span's self time is its duration minus the part of it that its child
    spans cover.  Total time sums the durations of a name's spans; no traced
    entry point calls itself, so no interval is counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) - _covered(children.get(index, []))
        row[2] += end - start
    return out


def main(argv: list[str]) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <flagclass arguments>")
    tracer = Tracer()
    caches = install(tracer)
    import flagclass.cli

    code = tracer.wrap(ROOT_SPAN, flagclass.cli.main)(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(
            {
                "spans": tracer.spans,
                "counts": tracer.counts,
                "caches": {k: list(c.cache_info()[:2]) for k, c in sorted(caches.items())},
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
