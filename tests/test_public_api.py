"""The public API is frozen: flagclass.__all__ keeps this sorted list, and every name resolves."""
import importlib

import pytest

import flagclass

PUBLIC_NAMES = [
    "CapExceededError",
    "CartanBracketError",
    "ConnectivityReport",
    "DimensionMismatchError",
    "ExtScalar",
    "FlagSpec",
    "FlagclassError",
    "FunctionalSet",
    "IACS",
    "InvalidInputError",
    "InvalidLieTypeError",
    "InvariantMetric",
    "InvariantViolationError",
    "LieType",
    "NotAFlagManifoldError",
    "NotConnectedError",
    "NotInSubgroupError",
    "ProjectsToZeroError",
    "QKFeasibility",
    "Root",
    "RootArgumentError",
    "RootSystem",
    "StructureConstants",
    "StructureLabel",
    "TRoot",
    "TRootSystem",
    "TripleClass",
    "TzsChain",
    "VerificationReport",
    "WEYL_CAP",
    "WeylElement",
    "WeylGroup",
    "ZeroSumTriple",
    "a_theta",
    "act_on_structure",
    "bracket_coefficient",
    "bridge_root",
    "build_root_system",
    "build_t_roots",
    "c_of_g",
    "c_of_j",
    "chain_between",
    "classify_structure",
    "classify_triple",
    "closed_metric_feasibility",
    "complement_components",
    "compute_structure_constants",
    "connectivity",
    "enumerate_iacs",
    "g1_oracle",
    "generate_weyl",
    "inner_product",
    "is_g1",
    "is_integrable",
    "kahler_triple_sum",
    "make_flag",
    "make_functional_set",
    "metric_grid",
    "nijenhuis_oracle",
    "normal_metric",
    "normal_metric_unique",
    "orbits",
    "qk_feasibility",
    "root_string",
    "simple_reflection",
    "t_chambers",
    "t_projection",
    "t_zero_sum_triples",
    "triple_sum_row",
    "verify_jacobi",
    "weyl_order",
    "zero_sum_triples",
]


def test_all_is_the_frozen_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert flagclass.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(flagclass))


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from flagclass import *", namespace)
    missing = [name for name in PUBLIC_NAMES if name not in namespace]
    assert missing == []
    assert all(namespace[name] is getattr(flagclass, name) for name in PUBLIC_NAMES)
    for module in ("chevalley", "weyl", "cli"):
        assert getattr(flagclass, module) is importlib.import_module(f"flagclass.{module}")
    # one result type for both positive-kernel systems, defined by the solver
    assert flagclass.QKFeasibility is flagclass.feasibility.QKFeasibility
    with pytest.raises(AttributeError, match="no_such_name"):
        flagclass.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from flagclass import no_such_name", {})
