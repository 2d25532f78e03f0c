"""Painted diagrams, restriction to t-roots, and bridge roots."""
import itertools

import pytest

from flagclass.errors import (
    InvalidInputError,
    NotAFlagManifoldError,
    NotConnectedError,
    ProjectsToZeroError,
    RootArgumentError,
)
from flagclass.flag import (
    TRoot,
    bridge_root,
    build_t_roots,
    complement_components,
    make_flag,
    t_projection,
)
from flagclass.rootsys import LieType, Root, build_root_system, proper_subsets, types_up_to

DESK_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4),
    ("F", 4), ("G", 2),
]


def desk_flags():
    for family, rank in DESK_TYPES:
        rs = build_root_system(LieType(family, rank))
        for size in range(rank):
            for theta in itertools.combinations(range(1, rank + 1), size):
                yield make_flag(rs, theta)


def bridge_oracle(f, d1, d2):
    """All roots of the lemma form: simple from each component plus a painted part."""
    comps = complement_components(f)
    phis = list(f.r_theta) + [Root((0,) * f.rs.rank)]
    out = set()
    for i in comps[d1 - 1]:
        for j in comps[d2 - 1]:
            for phi in phis:
                cand = f.rs.simple_roots[i - 1] + phi + f.rs.simple_roots[j - 1]
                if cand in f.r_m:
                    out.add(cand)
    return out


def test_a3_theta23_complement_roots():
    rs = build_root_system(LieType("A", 3))
    f = make_flag(rs, {2, 3})
    expect = set()
    for coords in [(1, 0, 0), (1, 1, 0), (1, 1, 1)]:
        expect.add(Root(coords))
        expect.add(-Root(coords))
    assert f.r_m == expect
    assert f.r_theta == frozenset(rs.root_set) - expect


def test_full_flag_has_empty_unpainted_part():
    rs = build_root_system(LieType("B", 3))
    f = make_flag(rs, ())
    assert f.r_theta == frozenset()
    assert f.r_m == frozenset(rs.all_roots)
    assert f.sigma_m == (1, 2, 3)


def test_theta_equal_sigma_rejected():
    rs = build_root_system(LieType("A", 2))
    with pytest.raises(NotAFlagManifoldError):
        make_flag(rs, {1, 2})


def test_theta_out_of_range_rejected():
    rs = build_root_system(LieType("A", 2))
    with pytest.raises(InvalidInputError):
        make_flag(rs, {0, 1})
    with pytest.raises(InvalidInputError):
        make_flag(rs, {3})
    # entries are ints: no rounding, no bools, no characters of a string
    for theta in ([1.7], [True], "x", [1, 1.0]):
        with pytest.raises(InvalidInputError, match="must be ints"):
            make_flag(rs, theta)
    for theta in (5, None):
        with pytest.raises(InvalidInputError, match="iterable of ints"):
            make_flag(rs, theta)


def test_unpainted_part_splits_roots():
    for f in desk_flags():
        assert f.r_theta | f.r_m == frozenset(f.rs.root_set)
        assert not (f.r_theta & f.r_m)
        assert {-r for r in f.r_theta} == f.r_theta


def test_unpainted_part_closed_under_addition():
    for f in desk_flags():
        for a in f.r_theta:
            for b in f.r_theta:
                c = a + b
                if c in f.rs.root_set:
                    assert c in f.r_theta


def test_positive_half_closure():
    # adding a painted or positive complementary root to a positive
    # complementary root never leaves the positive complementary half
    for f in desk_flags():
        r_m_pos = [r for r in f.r_m if r.is_positive()]
        left = list(f.r_theta) + r_m_pos
        for a in left:
            for b in r_m_pos:
                c = a + b
                if c in f.rs.root_set:
                    assert c in f.r_m and c.is_positive()


def test_projection_examples():
    rs = build_root_system(LieType("A", 3))
    f = make_flag(rs, {2, 3})
    assert t_projection(f, Root((1, 1, 1))) == TRoot((1,))
    assert t_projection(f, Root((1, 0, 0))) == TRoot((1,))


def test_projection_refuses_unpainted_roots():
    rs = build_root_system(LieType("A", 3))
    f = make_flag(rs, {2, 3})
    with pytest.raises(ProjectsToZeroError):
        t_projection(f, Root((0, 1, 0)))
    with pytest.raises(RootArgumentError):
        t_projection(f, Root((5, 0, 0)))
    for bad in ([1, 0, 0], (1, 0, 0), TRoot((1, 0, 0))):
        with pytest.raises(RootArgumentError):
            t_projection(f, bad)


def test_projection_is_identity_on_full_flag():
    rs = build_root_system(LieType("C", 3))
    f = make_flag(rs, ())
    for r in rs.all_roots:
        assert t_projection(f, r).coords == r.coords


def test_projection_commutes_with_negation():
    for f in desk_flags():
        for a in f.r_m:
            assert t_projection(f, -a) == -t_projection(f, a)


def test_a3_theta23_single_summand():
    rs = build_root_system(LieType("A", 3))
    ts = build_t_roots(make_flag(rs, {2, 3}))
    assert len(ts.positive) == 1
    assert ts.summand_dims[ts.positive[0]] == 3


def test_a4_grassmannian_single_summand():
    rs = build_root_system(LieType("A", 4))
    ts = build_t_roots(make_flag(rs, {1, 2, 4}))
    assert len(ts.positive) == 1
    assert ts.summand_dims[ts.positive[0]] == 6


def test_two_summand_flags():
    for family, rank, theta in [("B", 2, {1}), ("B", 3, {1, 2})]:
        rs = build_root_system(LieType(family, rank))
        ts = build_t_roots(make_flag(rs, theta))
        delta = ts.positive[0]
        assert ts.positive == (delta, delta + delta)
        assert ts.t_roots == {delta, delta + delta, -delta, -(delta + delta)}


def test_fibers_partition_everywhere():
    for f in desk_flags():
        ts = build_t_roots(f)
        seen = set()
        for t, fiber in ts.fibers.items():
            assert fiber
            assert not (seen & fiber)
            seen |= fiber
            assert ts.summand_dims[t] == len(fiber)
            for a in fiber:
                assert t_projection(f, a) == t
        assert seen == f.r_m
        assert {-t for t in ts.t_roots} == ts.t_roots
        assert 2 * len(ts.positive) == len(ts.t_roots)


def test_positive_t_roots_sorted_and_sign_definite():
    for f in desk_flags():
        ts = build_t_roots(f)
        assert list(ts.positive) == sorted(ts.positive, key=lambda t: t.coords)
        for t in ts.t_roots:
            assert any(t.coords)
            assert all(a >= 0 for a in t.coords) or all(a <= 0 for a in t.coords)


def test_classify_roundtrip():
    rs = build_root_system(LieType("B", 3))
    ts = build_t_roots(make_flag(rs, {2}))
    for i, t in enumerate(ts.positive):
        assert ts.classify(t) == (i, 1)
        assert ts.classify(-t) == (i, -1)
    with pytest.raises(RootArgumentError):
        ts.classify(TRoot((9, 9)))


def test_build_is_cached():
    rs = build_root_system(LieType("A", 3))
    assert build_t_roots(make_flag(rs, {2, 3})) is build_t_roots(make_flag(rs, {2, 3}))


def test_labels():
    rs = build_root_system(LieType("A", 3))
    f = make_flag(rs, {2, 3})
    assert f.label() == "A3 theta=2,3"
    assert f.paint_label() == "A3 : paint 1"
    full = make_flag(rs, ())
    assert full.label() == "A3 theta="


def painted_components(f):
    """Union-find over the painted pairs with a nonzero Gram entry."""
    parent = {i: i for i in f.sigma_m}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(f.sigma_m, 2):
        if f.rs.gram[i - 1][j - 1]:
            parent[find(i)] = find(j)
    comps = {}
    for i in f.sigma_m:
        comps.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(c) for c in comps.values()))


def test_components_listing():
    rs5 = build_root_system(LieType("A", 5))
    f = make_flag(rs5, {2, 4})
    assert complement_components(f) == ((1,), (3,), (5,))
    rs4 = build_root_system(LieType("B", 4))
    f = make_flag(rs4, {2})
    assert complement_components(f) == ((1,), (3, 4))
    for t in types_up_to(8):
        rs = build_root_system(t)
        for theta in proper_subsets(t.rank):
            f = make_flag(rs, theta)
            assert complement_components(f) == painted_components(f), f.label()


def test_bridge_a3():
    rs = build_root_system(LieType("A", 3))
    f = make_flag(rs, {2})
    beta = bridge_root(f, 1, 2)
    assert beta == Root((1, 1, 1))
    assert beta in bridge_oracle(f, 1, 2)


def test_bridge_a4():
    rs = build_root_system(LieType("A", 4))
    f = make_flag(rs, {2, 3})
    beta = bridge_root(f, 1, 2)
    assert beta == Root((1, 1, 1, 1))
    assert beta in bridge_oracle(f, 1, 2)


def test_bridge_matches_oracle_on_desk_corpus():
    """Every flag up to rank 8 and ordered pair of components: the bridge exists
    exactly when the oracle finds one, and is its unique least-height root."""
    for t in types_up_to(8):
        rs = build_root_system(t)
        for theta in proper_subsets(t.rank):
            f = make_flag(rs, theta)
            comps = complement_components(f)
            for d1, d2 in itertools.permutations(range(1, len(comps) + 1), 2):
                expected = bridge_oracle(f, d1, d2)
                if not expected:
                    with pytest.raises(NotConnectedError):
                        bridge_root(f, d1, d2)
                    continue
                low = min(r.height for r in expected)
                assert [r for r in expected if r.height == low] == [bridge_root(f, d1, d2)]


def test_bridge_restriction_is_endpoint_sum():
    rs = build_root_system(LieType("B", 4))
    f = make_flag(rs, {2, 3})
    beta = bridge_root(f, 1, 2)
    a1 = f.rs.simple_roots[0]
    a2 = f.rs.simple_roots[3]
    assert t_projection(f, beta) == t_projection(f, a1) + t_projection(f, a2)


def test_bridge_rejects_connected_complement():
    rs = build_root_system(LieType("B", 3))
    f = make_flag(rs, {1})
    with pytest.raises(NotConnectedError):
        bridge_root(f, 1, 2)
    # adjacent painted nodes form a single component, so there is nothing to join
    rs2 = build_root_system(LieType("A", 2))
    with pytest.raises(NotConnectedError):
        bridge_root(make_flag(rs2, ()), 1, 2)


def test_bridge_rejects_black_interior():
    rs = build_root_system(LieType("A", 5))
    f = make_flag(rs, {2, 4})
    assert bridge_root(f, 1, 2) == Root((1, 1, 1, 0, 0))
    assert bridge_root(f, 2, 3) == Root((0, 0, 1, 1, 1))
    with pytest.raises(NotConnectedError):
        bridge_root(f, 1, 3)


def test_bridge_argument_validation():
    rs = build_root_system(LieType("A", 3))
    f = make_flag(rs, {2})
    with pytest.raises(InvalidInputError):
        bridge_root(f, 1, 1)
    with pytest.raises(InvalidInputError):
        bridge_root(f, 0, 2)
    with pytest.raises(InvalidInputError):
        bridge_root(f, 1, 7)
    # True == 1 and 1.0 == 1, but neither names a component
    for d1, d2 in ((True, 2), (1.0, 2.0)):
        with pytest.raises(InvalidInputError):
            bridge_root(f, d1, d2)
