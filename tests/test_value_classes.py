"""The contract of the package's frozen value classes.

Each class is constructed from hard-coded field names and values, so the
oracle here is the field list itself, not any introspection of the class:
construction by position and keyword, equality by class and fields (or by
identity), a hash equal to that of the field tuple, refused assignment and
deletion, the `Name(field=value, ...)` repr, and copy, deepcopy and pickle
round-trips.
"""
import copy
import pickle
from fractions import Fraction

import pytest

from flagclass.chevalley import (
    ExtScalar,
    JacobiReport,
    StructureConstants,
    compute_structure_constants,
)
from flagclass.feasibility import QKFeasibility
from flagclass.flag import FlagSpec, TRoot, TRootSystem, build_t_roots, make_flag
from flagclass.rootsys import LieType, Root, RootSystem, _Coords, build_root_system
from flagclass.structures import IACS, InvariantMetric, PairWitness, VerificationReport
from flagclass.tzs import ConnectivityReport, FunctionalSet, TzsChain, ZeroSumTriple
from flagclass.weyl import WeylElement, WeylGroup, generate_weyl

RS = build_root_system(LieType("A", 2))
FLAG = make_flag(RS, ())
TS = build_t_roots(FLAG)
TRIPLE = ZeroSumTriple(((-1, -1), (0, 1), (1, 0)))
CHAIN = TzsChain(((1, 0), (0, 1)), (TRIPLE,))
WITNESS = PairWitness((TRoot((1, 0)), TRoot((0, 1))), CHAIN, (IACS((1, 1, 1)),))
GROUP = generate_weyl(RS)

# (class, field names in declaration order, values in canonical form, compares by value)
CASES = [
    (LieType, ("family", "rank"), ("A", 2), True),
    (Root, ("coords",), ((1, 0),), True),
    (RootSystem, ("lie_type", "simple_roots", "all_roots", "gram"),
     (RS.lie_type, RS.simple_roots, RS.all_roots, RS.gram), False),
    (TRoot, ("coords",), ((1, 1),), True),
    (FlagSpec, ("rs", "theta", "r_theta", "r_m", "sigma_m"),
     (RS, FLAG.theta, FLAG.r_theta, FLAG.r_m, FLAG.sigma_m), True),
    (TRootSystem, ("flag", "t_roots", "positive", "fibers", "summand_dims"),
     (FLAG, TS.t_roots, TS.positive, TS.fibers, TS.summand_dims), False),
    (QKFeasibility, ("feasible", "sample", "equations", "certificate"),
     (True, (Fraction(1), Fraction(1), Fraction(2)), ((1, 1, -1),), None), True),
    (FunctionalSet, ("vectors",), (frozenset({(1,), (-1,)}),), True),
    (ZeroSumTriple, ("members",), (TRIPLE.members,), True),
    (TzsChain, ("endpoints", "triples"), (((1, 0), (0, 1)), (TRIPLE,)), True),
    (ConnectivityReport, ("connected", "class_reps", "components", "triples", "witness_chains"),
     (True, ((0, 1), (1, 0)), (((0, 1), (1, 0)),), (TRIPLE,), (CHAIN,)), True),
    (IACS, ("signs",), ((1, -1, 1),), True),
    (InvariantMetric, ("lambdas",), ((Fraction(1), Fraction(2), Fraction(3)),), True),
    (PairWitness, ("pair", "chain", "forcing"),
     ((TRoot((1, 0)), TRoot((0, 1))), CHAIN, (IACS((1, 1, 1)),)), True),
    (VerificationReport, ("holds", "witnesses"), (True, (WITNESS,)), True),
    (ExtScalar, ("a", "b", "c", "d"), (Fraction(1), Fraction(0), Fraction(2), Fraction(0)), True),
    (StructureConstants, ("rs", "table"), (RS, compute_structure_constants(RS).table), False),
    (JacobiReport, ("ok", "counterexample"),
     (False, (Root((1, 0)), Root((0, 1)), Root((-1, -1)))), True),
    (WeylElement, ("perm",), ((1, 0, 2, 3, 4, 5),), True),
    (WeylGroup, ("rs", "elements", "generators"), (RS, GROUP.elements, GROUP.generators), False),
]
FIELDS = {cls: names for cls, names, _, _ in CASES}
IDS = [cls.__name__ for cls, *_ in CASES]


def same(a, b):
    """Equality that looks through identity-compared classes to their fields."""
    if type(a) in FIELDS:
        names = FIELDS[type(a)]
        return type(a) is type(b) and all(same(getattr(a, n), getattr(b, n)) for n in names)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


class Other:
    """A stand-in of another class carrying the same attribute names."""


@pytest.mark.parametrize("cls, names, values, by_value", CASES, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, names, values, by_value):
    assert cls.__match_args__ == names
    for x in (cls(*values), cls(**dict(zip(names, values)))):
        assert type(x) is cls
        assert all(getattr(x, n) == v for n, v in zip(names, values))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    if cls is not ConnectivityReport:  # its last field has a default
        with pytest.raises(TypeError):
            cls(*values[:-1])


@pytest.mark.parametrize("cls, names, values, by_value", CASES, ids=IDS)
def test_equality_and_hash(cls, names, values, by_value):
    x, y = cls(*values), cls(*values)
    other = Other()
    for n, v in zip(names, values):
        setattr(other, n, v)
    assert x == x
    assert x.__eq__(other) is NotImplemented
    assert x != other
    if by_value:
        assert x == y and not x != y
        assert hash(x) == hash(y) == hash(tuple(values))
    else:
        assert x != y and not x == y
        assert hash(x) == object.__hash__(x)


def test_equality_needs_the_same_class():
    assert Root((1, 0)) != TRoot((1, 0))
    assert Root((1, 0)).__eq__(TRoot((1, 0))) is NotImplemented
    assert Root((1, 0)) != Root((0, 1))
    assert IACS((1, -1)) != IACS((1, 1))
    assert len({Root((1, 0)), Root((1, 0)), TRoot((1, 0))}) == 2


def test_equality_is_written_once_on_the_coordinate_base():
    # an identity-compared class holds object's methods, not its own
    written = [
        cls for cls in FIELDS
        if cls.__dict__.get("__eq__", object.__eq__) is not object.__eq__
        or cls.__dict__.get("__hash__", object.__hash__) is not object.__hash__
    ]
    assert written == []
    assert {"__eq__", "__hash__"} <= _Coords.__dict__.keys()
    assert issubclass(Root, _Coords) and issubclass(TRoot, _Coords)
    assert not isinstance(TRoot((1,)), Root)
    a, b = TRoot((1, 0)), TRoot((0, 1))
    assert type(-a) is TRoot and type(a + b) is TRoot
    r, s = Root((1, 0)), Root((0, 1))
    assert all(type(x) is Root for x in (-r, r + s, r - s, r.scaled(2)))


@pytest.mark.parametrize("cls, names, values, by_value", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, by_value):
    x = cls(*values)
    for n in names:
        with pytest.raises(AttributeError):
            setattr(x, n, values[0])
        with pytest.raises(AttributeError):
            delattr(x, n)
        assert getattr(x, n) == values[names.index(n)]
    with pytest.raises(AttributeError):
        x.no_such_field = 1


@pytest.mark.parametrize(
    "cls, names, values, by_value",
    [case for case in CASES if case[0] is not ExtScalar],  # printed as a field element
    ids=[name for name in IDS if name != "ExtScalar"],
)
def test_repr_lists_the_fields(cls, names, values, by_value):
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({fields})"


def test_literal_reprs():
    assert repr(Root((1, 0))) == "Root(coords=(1, 0))"
    assert repr(TRoot((-1,))) == "TRoot(coords=(-1,))"
    assert repr(LieType("g", 2)) == "LieType(family='G', rank=2)"
    assert repr(IACS((1, -1))) == "IACS(signs=(1, -1))"
    assert repr(InvariantMetric((1, 2))) == (
        "InvariantMetric(lambdas=(Fraction(1, 1), Fraction(2, 1)))"
    )
    assert repr(ExtScalar(1, 0, Fraction(1, 2), 0)) == "ExtScalar(1 + 1/2*s3)"
    assert repr(ExtScalar(0, 0, 0, 0)) == "ExtScalar(0)"
    assert str(Root((0, 1))) == "Root(coords=(0, 1))"


def test_constructors_keep_their_coercions():
    assert LieType("b", 3).family == "B"
    assert InvariantMetric((1, 2)).lambdas == (Fraction(1), Fraction(2))
    assert all(type(x) is Fraction for x in InvariantMetric((1, 2)).lambdas)
    assert ZeroSumTriple(((1, 0), (0, 1), (-1, -1))).members == TRIPLE.members
    assert all(type(x) is Fraction for x in (ExtScalar(1, 2, 3, 4).a, ExtScalar(1, 2, 3, 4).d))
    # a list is stored as a tuple: hashable, equal to the tuple-built value, printed alike
    for cls, value in ((IACS, (1, -1)), (WeylElement, (1, 0)), (Root, (1, 0)), (TRoot, (1, 0))):
        x, y = cls(list(value)), cls(value)
        assert getattr(x, FIELDS[cls][0]) == value
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)


def test_connectivity_report_defaults_to_no_witness_chains():
    report = ConnectivityReport(False, ((1,),), (((1,),),), ())
    assert report.witness_chains == ()
    assert report == ConnectivityReport(False, ((1,),), (((1,),),), (), ())
    assert ConnectivityReport(
        connected=False, class_reps=(), components=(), triples=()
    ).witness_chains == ()


@pytest.mark.parametrize("cls, names, values, by_value", CASES, ids=IDS)
@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trips(cls, names, values, by_value, roundtrip):
    x = cls(*values)
    y = roundtrip(x)
    assert type(y) is cls
    assert same(y, x)
    if roundtrip is copy.copy:
        assert (y == x) is by_value
    elif by_value and cls is not FlagSpec:  # a FlagSpec holds its RootSystem by identity
        assert y == x and hash(y) == hash(x)


def test_cached_properties_still_work_on_the_root_systems():
    rs = RootSystem(RS.lie_type, RS.simple_roots, RS.all_roots, RS.gram)
    assert rs.index[rs.all_roots[0]] == 0
    assert rs.positive_roots == RS.positive_roots
    ts = TRootSystem(FLAG, TS.t_roots, TS.positive, TS.fibers, TS.summand_dims)
    assert ts.pos_index == TS.pos_index
