"""Weyl group generation, painted-diagram stabilizers, and the structure action."""
import itertools
import random
from fractions import Fraction

import pytest

from flagclass.errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidInputError,
    InvariantViolationError,
    NotInSubgroupError,
    RootArgumentError,
)
from flagclass.flag import TRoot, build_t_roots, make_flag
from flagclass.rootsys import (
    LieType,
    Root,
    build_root_system,
    inner_product,
    proper_subsets,
    types_up_to,
)
from flagclass.structures import (
    IACS,
    InvariantMetric,
    classify_structure,
    enumerate_iacs,
    is_integrable,
    normal_metric,
)
from flagclass.weyl import (
    WeylElement,
    WeylGroup,
    _a_theta_test,
    _kept,
    a_theta,
    act_on_structure,
    generate_weyl,
    orbits,
    weyl_order,
)

_SYSTEMS = {}
_GROUPS = {}


def rs_for(name):
    if name not in _SYSTEMS:
        _SYSTEMS[name] = build_root_system(LieType.parse(name))
    return _SYSTEMS[name]


def group_for(name):
    if name not in _GROUPS:
        _GROUPS[name] = generate_weyl(rs_for(name))
    return _GROUPS[name]


CLOSED_FORM_ORDERS = {
    "A2": 6,
    "A3": 24,
    "B2": 8,
    "B3": 48,
    "C3": 48,
    "D4": 192,
    "F4": 1152,
    "G2": 12,
}


def test_orders_match_closed_forms():
    for name, expected in CLOSED_FORM_ORDERS.items():
        assert weyl_order(LieType.parse(name)) == expected
        assert group_for(name).order == expected


def test_weyl_order_big_types():
    assert weyl_order(LieType.parse("E6")) == 51840
    assert weyl_order(LieType.parse("E8")) == 696729600
    assert weyl_order(LieType.parse("A7")) == 40320
    assert weyl_order(LieType.parse("D5")) == 1920


def test_cap_rejects_before_generating():
    with pytest.raises(CapExceededError, match="24"):
        generate_weyl(rs_for("A3"), cap=10)
    with pytest.raises(CapExceededError, match="2903040"):
        generate_weyl(build_root_system(LieType.parse("E7")))


@pytest.mark.parametrize("cap", ["x", -1, True, False, 2.0, None])
def test_cap_must_be_a_nonnegative_int(cap):
    with pytest.raises(InvalidInputError, match="cap"):
        generate_weyl(rs_for("A2"), cap=cap)


def test_bfs_order_is_deterministic():
    w = group_for("A2")
    assert w.elements[0].is_identity
    assert set(w.elements[1:3]) == set(w.generators)
    assert list(w.elements[1:3]) == sorted(w.elements[1:3], key=lambda e: e.perm)
    again = generate_weyl(rs_for("A2"))
    assert [e.perm for e in again.elements] == [e.perm for e in w.elements]


def _bfs_by_compose(rs):
    """The group by a breadth-first sweep over WeylElement.compose: the test oracle."""
    generators = generate_weyl(rs).generators
    identity = WeylElement(tuple(range(len(rs.all_roots))))
    seen = {identity.perm}
    elements = [identity]
    frontier = [identity]
    while frontier:
        discovered = set()
        for w in frontier:
            for s in generators:
                img = w.compose(s).perm
                if img not in seen:
                    seen.add(img)
                    discovered.add(img)
        frontier = [WeylElement(p) for p in sorted(discovered)]
        elements.extend(frontier)
    return [e.perm for e in elements]


@pytest.mark.parametrize("t", [str(t) for t in types_up_to(4)])
def test_element_order_matches_compose_oracle(t):
    w = generate_weyl(rs_for(t))
    assert [e.perm for e in w.elements] == _bfs_by_compose(rs_for(t))
    assert w.order == weyl_order(LieType.parse(t))


def test_elements_distinct_and_bijective():
    w = group_for("B2")
    assert len({e.perm for e in w.elements}) == w.order
    n = len(rs_for("B2").all_roots)
    for e in w.elements:
        assert sorted(e.perm) == list(range(n))


def test_invalid_permutation_rejected():
    # a permutation is a sequence of ints: no floats, no bools, no bare int
    for perm in ((0, 0, 1), (0, 1.0), (True, False), 5):
        with pytest.raises(InvalidInputError):
            WeylElement(perm)


def test_apply_refuses_what_is_not_a_root():
    rs = rs_for("A2")
    e = group_for("A2").generators[0]
    for bad in ([1, 0], (1, 0), TRoot((1, 0))):
        with pytest.raises(RootArgumentError):
            e.apply(rs, bad)
    with pytest.raises(InvalidInputError):
        e.apply(rs, Root((2, 0)))


def test_inner_products_preserved():
    for name in ("A2", "B2", "G2"):
        rs = rs_for(name)
        for e in group_for(name).elements:
            assert e.preserves_inner_products(rs)


def test_compose_matches_pointwise_application():
    rs = rs_for("A3")
    w = group_for("A3")
    rng = random.Random(7)
    for _ in range(25):
        e1, e2 = rng.choice(w.elements), rng.choice(w.elements)
        both = e1.compose(e2)
        for b in rng.sample(rs.all_roots, 4):
            assert both.apply(rs, b) == e1.apply(rs, e2.apply(rs, b))


def test_group_closure_and_inverses():
    w = group_for("B2")
    perms = {e.perm for e in w.elements}
    for e1 in w.elements:
        assert any(e1.compose(e2).is_identity for e2 in w.elements)
        for e2 in w.elements:
            assert e1.compose(e2).perm in perms


def test_a_theta_of_the_full_flag_is_full_group():
    for name in ("A2", "B2"):
        w = group_for(name)
        f = make_flag(rs_for(name), ())
        assert a_theta(w, f) == w.elements


def test_a_theta_a3_example():
    rs = rs_for("A3")
    w = group_for("A3")
    f = make_flag(rs, (2, 3))
    sub = a_theta(w, f)
    assert len(sub) == 6
    brute = tuple(
        e
        for e in w.elements
        if {e.apply(rs, b) for b in f.r_theta} == set(f.r_theta)
    )
    assert sub == brute


@pytest.mark.parametrize("t", [str(t) for t in types_up_to(4)])
def test_a_theta_masks_match_brute_force(t):
    # F4 is among the types up to rank 4
    w = group_for(t)
    for theta in proper_subsets(w.rs.rank):
        f = make_flag(w.rs, theta)
        simple, _, member = _a_theta_test(f)
        assert a_theta(w, f) == tuple(e for e in w.elements if member(e.perm))
        n_theta = sum(1 for e in w.elements if {e.perm[i] for i in simple} == set(simple))
        assert _kept(w, simple, simple).count(1) == n_theta, theta


@pytest.mark.parametrize("t", ["E6", "B6"])
def test_a_theta_matches_brute_force_on_large_groups(t):
    # 51,840 and 46,080 elements, on every Theta of size 1 and of size rank - 1;
    # the group is not kept in _GROUPS, so its memory goes with the test
    w = generate_weyl(rs_for(t))
    rank = w.rs.rank
    thetas = [th for th in proper_subsets(rank) if len(th) in (1, rank - 1)]
    assert len(thetas) == 2 * rank
    for theta in thetas:
        f = make_flag(w.rs, theta)
        simple, _, member = _a_theta_test(f)
        assert a_theta(w, f) == tuple(e for e in w.elements if member(e.perm)), theta
        n_theta = [e for e in w.elements if {e.perm[i] for i in simple} == set(simple)]
        kept = _kept(w, simple, simple)
        assert [e for e, k in zip(w.elements, kept) if k] == n_theta, theta


def test_a_theta_is_closed_under_composition():
    rs = rs_for("B3")
    w = group_for("B3")
    for theta in ((1,), (1, 3)):
        sub = a_theta(w, make_flag(rs, theta))
        perms = {e.perm for e in sub}
        for e1 in sub:
            for e2 in sub:
                assert e1.compose(e2).perm in perms


def test_a_theta_equals_rm_preservation_desk():
    for name in ("A2", "A3", "B2", "B3", "C3", "G2"):
        rs = rs_for(name)
        w = group_for(name)
        for r in range(1, rs.rank + 1):
            for theta in itertools.combinations(range(1, rs.rank + 1), r - 1):
                f = make_flag(rs, theta)
                m_set = set(f.r_m)
                sub = set(a_theta(w, f))
                for e in w.elements:
                    preserves_m = all(e.apply(rs, b) in m_set for b in f.r_m)
                    assert (e in sub) == preserves_m


def _faulted_group(w, f):
    """w with its last element of A_Theta, found by brute force, replaced by a
    permutation that sends the first simple root of Theta outside R_Theta."""
    rs = f.rs
    theta_set = set(f.r_theta)
    last = max(
        k for k, e in enumerate(w.elements) if {e.apply(rs, b) for b in f.r_theta} == theta_set
    )
    perm = list(w.elements[last].perm)
    alpha = rs.index[rs.simple_roots[min(f.theta) - 1]]
    outside = perm.index(rs.index[next(b for b in rs.all_roots if b not in theta_set)])
    perm[alpha], perm[outside] = perm[outside], perm[alpha]
    elements = w.elements[:last] + (WeylElement(tuple(perm)),) + w.elements[last + 1 :]
    return WeylGroup(rs, elements, w.generators)


def test_a_theta_rejects_a_faulted_group():
    faulted = 0
    for t in types_up_to(3):
        w = group_for(str(t))
        for theta in filter(None, proper_subsets(t.rank)):
            f = make_flag(w.rs, theta)
            bad = _faulted_group(w, f)
            assert bad.elements != w.elements
            with pytest.raises(InvariantViolationError, match="N_Theta"):
                a_theta(bad, f)
            faulted += 1
    assert faulted == 24


def test_action_examples_a2():
    rs = rs_for("A2")
    f = make_flag(rs, ())
    w = group_for("A2")
    s1 = w.generators[0]
    nm = normal_metric(3)
    # positive class order is (0,1), (1,0), (1,1): the second slot is alpha_1
    j, _ = act_on_structure(s1, f, IACS((1, 1, -1)), nm)
    assert j.signs == (-1, -1, 1)
    j, _ = act_on_structure(s1, f, IACS((1, 1, 1)), nm)
    assert j.signs == (1, -1, 1)


def test_action_of_identity_is_trivial():
    rs = rs_for("A3")
    f = make_flag(rs, (2,))
    ts = build_t_roots(f)
    w = group_for("A3")
    g = InvariantMetric(tuple(Fraction(k + 1) for k in range(len(ts.positive))))
    for j in enumerate_iacs(ts)[:4]:
        jj, gg = act_on_structure(w.identity, f, j, g)
        assert jj == j and gg == g


def test_action_requires_subgroup_membership():
    rs = rs_for("A3")
    w = group_for("A3")
    f = make_flag(rs, (2, 3))
    ts = build_t_roots(f)
    sub = set(a_theta(w, f))
    outsider = next(e for e in w.elements if e not in sub)
    j = enumerate_iacs(ts)[0]
    with pytest.raises(NotInSubgroupError):
        act_on_structure(outsider, f, j, normal_metric(len(ts.positive)))


def test_action_checks_vector_lengths():
    rs = rs_for("A2")
    f = make_flag(rs, ())
    w = group_for("A2")
    g = normal_metric(3)
    for j, metric in ((IACS((1, 1)), g), (IACS((1, 1, 1)), normal_metric(2))):
        with pytest.raises(DimensionMismatchError, match="3 positive classes"):
            act_on_structure(w.identity, f, j, metric)


def test_action_permutes_metric_entries():
    rs = rs_for("A2")
    f = make_flag(rs, ())
    w = group_for("A2")
    s1 = w.generators[0]
    g = InvariantMetric((Fraction(5), Fraction(7), Fraction(11)))
    # s1 swaps the classes of alpha_2 and alpha_1 + alpha_2, fixes alpha_1's
    _, gg = act_on_structure(s1, f, IACS((1, 1, 1)), g)
    assert gg.lambdas == (Fraction(11), Fraction(7), Fraction(5))


def test_action_well_defined_on_fat_fibers():
    rs = rs_for("B2")
    f = make_flag(rs, (1,))
    ts = build_t_roots(f)
    w = group_for("B2")
    sub = a_theta(w, f)
    assert len(sub) > 1
    g = InvariantMetric((Fraction(2), Fraction(3)))
    for e in sub:
        for j in enumerate_iacs(ts):
            jj, gg = act_on_structure(e, f, j, g)
            assert len(jj.signs) == len(ts.positive)
            assert sorted(gg.lambdas) == sorted(g.lambdas)


def test_action_preserves_labels_on_samples():
    for name, theta in (("A2", ()), ("B2", ()), ("B2", (2,)), ("G2", ())):
        rs = rs_for(name)
        f = make_flag(rs, theta)
        ts = build_t_roots(f)
        w = group_for(name)
        sub = a_theta(w, f)
        rng = random.Random(13)
        metrics = [normal_metric(len(ts.positive))] + [
            InvariantMetric(tuple(Fraction(rng.randint(1, 3)) for _ in ts.positive))
            for _ in range(2)
        ]
        for j in enumerate_iacs(ts):
            for g in metrics:
                labels = classify_structure(g, j, ts)
                for e in sub:
                    jj, gg = act_on_structure(e, f, j, g)
                    assert classify_structure(gg, jj, ts) == labels


def test_orbits_a2_full_flag():
    rs = rs_for("A2")
    f = make_flag(rs, ())
    ts = build_t_roots(f)
    w = group_for("A2")
    sub = a_theta(w, f)
    iacs = enumerate_iacs(ts)
    nm = normal_metric(3)
    parts = orbits(sub, f, [(j, nm) for j in iacs])
    assert sorted(len(p) for p in parts) == [2, 6]
    big = next(p for p in parts if len(p) == 6)
    small = next(p for p in parts if len(p) == 2)
    assert all(is_integrable(iacs[i], ts) for i in big)
    assert not any(is_integrable(iacs[i], ts) for i in small)
    assert parts[0][0] == 0
    assert all(p[0] == min(p) for p in parts)


def test_orbits_cover_and_partition():
    rs = rs_for("B2")
    f = make_flag(rs, ())
    ts = build_t_roots(f)
    sub = a_theta(group_for("B2"), f)
    iacs = enumerate_iacs(ts)
    nm = normal_metric(len(ts.positive))
    parts = orbits(sub, f, [(j, nm) for j in iacs])
    seen = sorted(i for p in parts for i in p)
    assert seen == list(range(len(iacs)))


def test_orbits_detect_non_closed_input():
    rs = rs_for("A2")
    f = make_flag(rs, ())
    ts = build_t_roots(f)
    sub = a_theta(group_for("A2"), f)
    iacs = enumerate_iacs(ts)
    nm = normal_metric(3)
    with pytest.raises(InvalidInputError, match="closed"):
        orbits(sub, f, [(iacs[1], nm)])


def test_orbits_reject_elements_that_are_not_a_group():
    rs = rs_for("A2")
    f = make_flag(rs, ())
    ts = build_t_roots(f)
    pairs = [(j, normal_metric(3)) for j in enumerate_iacs(ts)]
    # no elements: every structure would sit in an empty orbit
    with pytest.raises(InvalidInputError, match="not a group"):
        orbits((), f, pairs)
    # one non-identity element: the seeds land outside their own images
    with pytest.raises(InvalidInputError, match="not a group"):
        orbits(a_theta(group_for("A2"), f)[1:2], f, pairs)


def test_orbits_reject_duplicates():
    rs = rs_for("A2")
    f = make_flag(rs, ())
    ts = build_t_roots(f)
    sub = a_theta(group_for("A2"), f)
    j = enumerate_iacs(ts)[0]
    nm = normal_metric(3)
    with pytest.raises(InvalidInputError, match="duplicate"):
        orbits(sub, f, [(j, nm), (j, nm)])
