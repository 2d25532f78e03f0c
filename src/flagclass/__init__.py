"""Combinatorial models of generalized flag manifolds and their invariant structures.

Each public name is imported from its submodule on first access (PEP 562),
so `import flagclass` loads no submodule and a command loads only the
modules it runs: the Chevalley and Weyl layers only for `verify`.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "chevalley": (
        "ExtScalar",
        "StructureConstants",
        "bracket_coefficient",
        "compute_structure_constants",
        "verify_jacobi",
    ),
    "errors": (
        "CapExceededError",
        "CartanBracketError",
        "DimensionMismatchError",
        "FlagclassError",
        "InvalidInputError",
        "InvalidLieTypeError",
        "InvariantViolationError",
        "NotAFlagManifoldError",
        "NotConnectedError",
        "NotInSubgroupError",
        "ProjectsToZeroError",
        "RootArgumentError",
    ),
    "feasibility": ("QKFeasibility",),
    "flag": (
        "FlagSpec",
        "TRoot",
        "TRootSystem",
        "bridge_root",
        "build_t_roots",
        "complement_components",
        "make_flag",
        "t_projection",
    ),
    "rootsys": (
        "LieType",
        "Root",
        "RootSystem",
        "build_root_system",
        "inner_product",
        "root_string",
        "simple_reflection",
    ),
    "structures": (
        "IACS",
        "InvariantMetric",
        "StructureLabel",
        "TripleClass",
        "VerificationReport",
        "c_of_g",
        "c_of_j",
        "classify_structure",
        "classify_triple",
        "closed_metric_feasibility",
        "enumerate_iacs",
        "g1_oracle",
        "is_g1",
        "is_integrable",
        "kahler_triple_sum",
        "metric_grid",
        "nijenhuis_oracle",
        "normal_metric",
        "normal_metric_unique",
        "qk_feasibility",
        "t_chambers",
        "t_zero_sum_triples",
        "triple_sum_row",
    ),
    "tzs": (
        "ConnectivityReport",
        "FunctionalSet",
        "TzsChain",
        "ZeroSumTriple",
        "chain_between",
        "connectivity",
        "make_functional_set",
        "zero_sum_triples",
    ),
    "weyl": (
        "WEYL_CAP",
        "WeylElement",
        "WeylGroup",
        "a_theta",
        "act_on_structure",
        "generate_weyl",
        "orbits",
        "weyl_order",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    # Not cached here: the defining module stays the one place a name is
    # bound, so flagclass.X is always flagclass.<module>.X.
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
