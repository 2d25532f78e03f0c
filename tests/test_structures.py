"""Structure classification checked against tensor, cone, and containment routes."""
import math
from fractions import Fraction
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest

from flagclass import feasibility, structures
from flagclass.chevalley import bracket_coefficient, compute_structure_constants
from flagclass.errors import (
    CapExceededError,
    DimensionMismatchError,
    FlagclassError,
    InvalidInputError,
    RootArgumentError,
)
from flagclass.flag import build_t_roots, make_flag, t_projection
from flagclass.rootsys import LieType, Root, build_root_system, proper_subsets, types_up_to
from flagclass.structures import (
    IACS,
    InvariantMetric,
    StructureLabel,
    TripleClass,
    c_of_g,
    c_of_j,
    classify_structure,
    classify_triple,
    closed_metric_feasibility,
    enumerate_iacs,
    g1_oracle,
    is_g1,
    is_integrable,
    kahler_triple_sum,
    metric_grid,
    nijenhuis_oracle,
    normal_metric,
    normal_metric_unique,
    qk_feasibility,
    t_chambers,
    t_zero_sum_triples,
    triple_sum_row,
)
from flagclass.tzs import ZeroSumTriple
from oracles import _zero_sum_members, fraction_rank, uniqueness_sweep

DESK_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")
_SYSTEMS = {}
_CONSTANTS = {}


def rs_for(name):
    if name not in _SYSTEMS:
        _SYSTEMS[name] = build_root_system(LieType.parse(name))
    return _SYSTEMS[name]


def sc_for(name):
    if name not in _CONSTANTS:
        _CONSTANTS[name] = compute_structure_constants(rs_for(name))
    return _CONSTANTS[name]


def desk_flags(max_rank):
    for name in DESK_TYPES:
        rs = rs_for(name)
        if rs.rank > max_rank:
            continue
        for bits in product((False, True), repeat=rs.rank):
            theta = frozenset(i + 1 for i, b in enumerate(bits) if b)
            if len(theta) == rs.rank:
                continue
            yield name, make_flag(rs, theta)


def full_ts(name):
    return build_t_roots(make_flag(rs_for(name), frozenset()))


def triple_with_classes(ts, coords_set):
    for t in t_zero_sum_triples(ts):
        if {tuple(abs(x) for x in c) for c in t.classes()} == coords_set:
            return t
    raise AssertionError(f"no triple over {coords_set}")


# A2 full flag: positive t-roots in canonical order are (0,1), (1,0), (1,1)
A2_PLUS = IACS((1, 1, 1))
A2_MIXED = IACS((1, 1, -1))


def test_enumerate_counts_and_order():
    ts = full_ts("A2")
    iacs = enumerate_iacs(ts)
    assert len(iacs) == 8
    assert iacs[0].signs == (1, 1, 1)
    assert iacs[1].signs == (1, 1, -1)
    assert iacs[4].signs == (-1, 1, 1)
    assert len({j.signs for j in iacs}) == 8

    single = build_t_roots(make_flag(rs_for("A3"), frozenset({2, 3})))
    assert len(enumerate_iacs(single)) == 2

    # the list reversed is the list negated: entry 2^s - 1 - n is -j for entry n
    by_s = {}
    for _, f in desk_flags(3):
        by_s.setdefault(len(build_t_roots(f).positive), f)
    assert set(range(1, 7)) <= set(by_s)
    for s in range(1, 7):
        iacs = enumerate_iacs(build_t_roots(by_s[s]))
        assert [tuple(-v for v in j.signs) for j in iacs] == [j.signs for j in reversed(iacs)]


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_iacs(full_ts("A2"), cap=2)


@pytest.mark.parametrize("cap", ["x", -1, True, False, 3.0, None])
def test_enumerate_cap_must_be_a_nonnegative_int(cap):
    with pytest.raises(InvalidInputError, match="cap"):
        enumerate_iacs(full_ts("A2"), cap=cap)


def test_sign_lookup_negates():
    ts = full_ts("A2")
    top = ts.positive[2]
    assert A2_MIXED.sign(ts, top) == -1
    assert A2_MIXED.sign(ts, -top) == 1


def test_classify_triple_examples():
    ts = full_ts("A2")
    tri = triple_with_classes(ts, {(0, 1), (1, 0), (1, 1)})
    assert classify_triple(A2_MIXED, tri, ts) is TripleClass.ZERO_THREE
    assert classify_triple(A2_PLUS, tri, ts) is TripleClass.ONE_TWO

    two = build_t_roots(make_flag(rs_for("B2"), frozenset({1})))
    doubled = triple_with_classes(two, {(1,), (2,)})
    assert classify_triple(IACS((-1, 1)), doubled, two) is TripleClass.ZERO_THREE
    assert classify_triple(IACS((1, 1)), doubled, two) is TripleClass.ONE_TWO


def test_classify_triple_rejects_foreign_members():
    ts = full_ts("A2")
    foreign = ZeroSumTriple(((2, 2), (-2, 0), (0, -2)))
    with pytest.raises(RootArgumentError):
        classify_triple(A2_PLUS, foreign, ts)


def test_integrable_examples():
    single = build_t_roots(make_flag(rs_for("A3"), frozenset({2, 3})))
    assert all(is_integrable(j, single) for j in enumerate_iacs(single))

    two = build_t_roots(make_flag(rs_for("B2"), frozenset({1})))
    verdicts = {j.signs: is_integrable(j, two) for j in enumerate_iacs(two)}
    assert verdicts == {(1, 1): True, (-1, -1): True, (1, -1): False, (-1, 1): False}

    ts = full_ts("A2")
    assert sum(is_integrable(j, ts) for j in enumerate_iacs(ts)) == 6


def test_nijenhuis_examples():
    ts = full_ts("A2")
    f = ts.flag
    sc = sc_for("A2")
    assert nijenhuis_oracle(f, sc, A2_PLUS)
    assert not nijenhuis_oracle(f, sc, A2_MIXED)

    irr = make_flag(rs_for("A3"), frozenset({2, 3}))
    for j in enumerate_iacs(build_t_roots(irr)):
        assert nijenhuis_oracle(irr, sc_for("A3"), j)


def test_nijenhuis_pairs_match_a_double_loop_over_r_m():
    # one record per unordered pair of R_M whose sum lies in R_M, with the
    # constant and the classes of a, b and a + b found by restriction
    for t in types_up_to(4):
        rs = build_root_system(t)
        sc = compute_structure_constants(rs)
        for theta in proper_subsets(t.rank):
            f = make_flag(rs, theta)
            ts = build_t_roots(f)

            def cls(r):
                return ts.classify(t_projection(f, r))

            expected = Counter(
                (bracket_coefficient(sc, a, b), cls(a), cls(b), cls(a + b))
                for a, b in combinations(sorted(f.r_m, key=lambda r: r.coords), 2)
                if a + b in f.r_m
            )
            assert Counter(structures._nijenhuis_pairs(f, sc)) == expected, f.label()


def test_signed_pairs_match_a_double_loop_over_t_roots():
    # one record per ordered pair of t-roots whose sum is a t-root, in the
    # order of a double loop over ts.t_roots
    for t in types_up_to(4):
        rs = build_root_system(t)
        for theta in proper_subsets(t.rank):
            ts = build_t_roots(make_flag(rs, theta))
            roots = ts.t_roots
            expected = tuple(
                (ts.classify(d), ts.classify(e), ts.classify(d + e))
                for d in roots for e in roots if d + e in roots
            )
            assert structures._signed_pairs(ts) == expected, ts.flag.label()


def test_pair_records_are_the_zero_sum_triples_of_signed_rows():
    # the chamber search drops a prefix on a pair record (d, e, -(d + e)), so
    # its Farkas argument needs every record to be three signed rows summing
    # to zero, and every such triple of rows to be a record
    flags = 0
    for t in types_up_to(6):
        rs = build_root_system(t)
        for theta in proper_subsets(t.rank):
            ts = build_t_roots(make_flag(rs, theta))
            records = {
                tuple(sorted((d, e, (k, -sign))))
                for d, e, (k, sign) in structures._signed_pairs(ts)
            }
            expected = {tuple(sorted(members)) for members in _zero_sum_members(ts)}
            assert records == expected, ts.flag.label()
            flags += 1
    assert flags == 545


@pytest.mark.parametrize("other", ["B3", "C3"])
def test_constant_oracles_refuse_constants_of_another_system(other):
    f = make_flag(rs_for("A3"), ())
    s = len(build_t_roots(f).positive)
    j, g = IACS((1,) * s), normal_metric(s)
    with pytest.raises(InvalidInputError, match="different root systems"):
        nijenhuis_oracle(f, sc_for(other), j)
    with pytest.raises(InvalidInputError, match="different root systems"):
        g1_oracle(f, sc_for(other), g, j)
    with pytest.raises(InvalidInputError, match="different root systems"):
        structures._nijenhuis_list(f, sc_for(other))


def test_integrability_routes_agree_desk():
    for name, f in desk_flags(3):
        ts = build_t_roots(f)
        sc = sc_for(name)
        chambers = {j.signs for j in t_chambers(ts)}
        for j in enumerate_iacs(ts):
            flat = is_integrable(j, ts)
            assert nijenhuis_oracle(f, sc, j) == flat, (f.label(), j.signs)
            assert (j.signs in chambers) == flat, (f.label(), j.signs)


WEYL_ORDERS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48, "C3": 48}


def test_chamber_counts_on_full_flags():
    # a full flag's chambers are the Weyl chambers, one per group element
    assert set(WEYL_ORDERS) == {str(t) for t in types_up_to(3)}
    for name, order in WEYL_ORDERS.items():
        assert len(t_chambers(full_ts(name))) == order, name
    single = build_t_roots(make_flag(rs_for("A3"), frozenset({2, 3})))
    assert len(t_chambers(single)) == 2


def test_chamber_counts_on_rank4_full_flags():
    for name, order in {"A4": 120, "B4": 384, "C4": 384, "D4": 192}.items():
        assert len(t_chambers(full_ts(name))) == order, name


def test_chambers_match_sign_vectors_of_grid_points():
    # every chamber of a flag up to rank 3 holds an integer point of the
    # grid [-12, 12]^d; the points on no t-root hyperplane give its signs
    for t in types_up_to(3):
        for theta in proper_subsets(t.rank):
            ts = build_t_roots(make_flag(rs_for(str(t)), theta))
            normals = [p.coords for p in ts.positive]
            realized = set()
            for x in product(range(-12, 13), repeat=len(ts.flag.sigma_m)):
                values = [sum(a * b for a, b in zip(n, x)) for n in normals]
                if all(values):
                    realized.add(tuple(1 if v > 0 else -1 for v in values))
            assert realized == {j.signs for j in t_chambers(ts)}, ts.flag.label()


@pytest.fixture
def cold_chamber_search():
    """Search afresh, and leave no point found under a patch in the cache."""
    structures._chamber_points.cache_clear()
    yield
    structures._chamber_points.cache_clear()


def flags_up_to_rank4():
    for t in types_up_to(4):
        for theta in proper_subsets(t.rank):
            yield build_t_roots(make_flag(rs_for(str(t)), theta))


def test_chamber_search_runs_no_elimination(monkeypatch, cold_chamber_search):
    # prefixes are dropped by zero-sum rows and leaves certified by their
    # Koszul point, so every flag up to rank 4, F4 full (s = 24) included,
    # is searched without one Fourier-Motzkin run
    def refuse(*args, **kwargs):
        raise AssertionError("the chamber search ran an elimination")

    monkeypatch.setattr(feasibility, "_eliminate", refuse)
    chambers = sum(len(t_chambers(ts)) for ts in flags_up_to_rank4())
    assert chambers == 3750


def test_chamber_search_drops_only_empty_prefixes_and_witnesses_every_leaf(
    monkeypatch, cold_chamber_search
):
    # the two certificates of the search, each checked by the solver it
    # replaced: every prefix it drops has no strictly positive point, and
    # every leaf it keeps standing is witnessed by its Koszul point, so no
    # leaf of the + half of the search is lost to the metric test
    dropped = []
    closes = structures._closes_a_triple

    def recording_closes(prefix, certificates):
        out = closes(prefix, certificates)
        if out:
            dropped.append(prefix)
        return out

    monkeypatch.setattr(structures, "_closes_a_triple", recording_closes)
    checked = 0
    for ts in flags_up_to_rank4():
        pos = [p.coords for p in ts.positive]
        listed = structures._pairs_list(ts)
        dropped.clear()
        points = structures._chamber_points(ts)
        assert 2 * len(points) == len(listed), ts.flag.label()
        n = len(ts.flag.sigma_m)
        for prefix in dropped:
            rows = [tuple(Fraction(e * c) for c in p) for e, p in zip(prefix, pos)]
            assert feasibility.solve_strict_rows(rows, n) is None, (ts.flag.label(), prefix)
        checked += len(dropped)
    assert checked == 6090


def test_chamber_points_are_the_plus_half_with_points_inside():
    # the indices, in order, are the first half of t_chambers; each metric
    # is positive and is lambda_k = j_k (pos_k . H) for a point H, which is
    # then strictly inside the chamber of j
    for t in types_up_to(3):
        for theta in proper_subsets(t.rank):
            ts = build_t_roots(make_flag(rs_for(str(t)), theta))
            s = len(ts.positive)
            points = structures._chamber_points(ts)
            chambers = t_chambers(ts)
            assert 2 * len(points) == len(chambers)
            iacs = enumerate_iacs(ts)
            for (n, lam), chamber in zip(points, chambers):
                assert iacs[n] == chamber
                assert all(type(x) is int and x > 0 for x in lam) and len(lam) == s
                pos = [p.coords for p in ts.positive]
                values = [sign * x for sign, x in zip(chamber.signs, lam)]
                # pos . H = values has a solution H: the augmented rank is the rank
                augmented = [p + (v,) for p, v in zip(pos, values)]
                assert fraction_rank(augmented, len(pos[0]) + 1) == fraction_rank(pos, len(pos[0]))


def test_closed_rows_of_an_integrable_structure_keep_one_dimension_per_painted_root():
    # the converse of the chamber witness: the closed metrics of an integrable
    # j fill a kernel of dimension len(sigma_m), the dimension of its chamber,
    # so every Kahler metric of j is lambda_k = j_k (pos_k . H) for an H there
    checked = 0
    for t in types_up_to(3):
        for theta in proper_subsets(t.rank):
            f = make_flag(rs_for(str(t)), theta)
            ts = build_t_roots(f)
            s = len(ts.positive)
            for j in enumerate_iacs(ts):
                if not is_integrable(j, ts):
                    continue
                rows = [triple_sum_row(j, tr, ts) for tr in t_zero_sum_triples(ts)]
                assert s - fraction_rank(rows, s) == len(f.sigma_m), (f.label(), j.signs)
                checked += 1
    assert checked == 244  # one per chamber over the 31 flags


def test_chambers_follow_enumeration_order():
    ts = full_ts("A2")
    chambers = t_chambers(ts)
    realizable = {j.signs for j in chambers}
    expected = tuple(j for j in enumerate_iacs(ts) if j.signs in realizable)
    assert chambers == expected


def test_c_of_j_examples():
    ts = full_ts("A2")
    assert c_of_j(A2_PLUS, ts) == frozenset()
    assert {t.coords for t in c_of_j(A2_MIXED, ts)} == {(0, 1), (1, 0), (1, 1)}

    two = build_t_roots(make_flag(rs_for("B2"), frozenset({1})))
    assert {t.coords for t in c_of_j(IACS((-1, 1)), two)} == {(1,), (2,)}


def test_c_of_g_examples():
    ts = full_ts("A2")
    assert {t.coords for t in c_of_g(normal_metric(3), ts)} == {(0, 1), (1, 0), (1, 1)}
    assert c_of_g(InvariantMetric((1, 1, 2)), ts) == frozenset()


def test_is_g1_examples():
    ts = full_ts("A2")
    grid = list(metric_grid(3))
    for j in enumerate_iacs(ts):
        if is_integrable(j, ts):
            assert all(is_g1(g, j, ts) for g in grid)
    assert not is_g1(InvariantMetric((1, 1, 2)), A2_MIXED, ts)
    assert is_g1(normal_metric(3), A2_MIXED, ts)


def test_g1_containment_is_not_sufficient():
    # On the full G2 flag, sign vector negative only on the class (3, 2):
    # the triple {(1,1), (2,1), -(3,2)} is all-equal-sign, and the metric
    # below is non-constant on it while every class still lies in some
    # constant triple. Covering each class is therefore weaker than the
    # per-triple test, and the tensor oracle sides with the latter.
    ts = full_ts("G2")
    assert [t.coords for t in ts.positive] == [
        (0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2),
    ]
    j = IACS((1, 1, 1, 1, 1, -1))
    g = InvariantMetric((1, 2, 2, 2, 1, 1))
    assert c_of_j(j, ts) <= c_of_g(g, ts)
    assert not is_g1(g, j, ts)
    assert not g1_oracle(ts.flag, sc_for("G2"), g, j)


def test_g1_oracle_matches_reduction():
    ts = full_ts("A2")
    f, sc = ts.flag, sc_for("A2")
    for j in enumerate_iacs(ts):
        for g in metric_grid(3):
            assert g1_oracle(f, sc, g, j) == is_g1(g, j, ts), (j.signs, g.lambdas)

    # flag with a doubled t-root, exercising the multiset lift of triples
    two = make_flag(rs_for("B2"), frozenset({1}))
    tts = build_t_roots(two)
    for j in enumerate_iacs(tts):
        for g in metric_grid(2):
            assert g1_oracle(two, sc_for("B2"), g, j) == is_g1(g, j, tts)


def test_qk_examples():
    ts = full_ts("A2")
    res = qk_feasibility(A2_PLUS, ts)
    assert res.feasible
    assert res.sample == (1, 1, 2)

    vac = qk_feasibility(A2_MIXED, ts)
    assert vac.feasible and vac.equations == ()

    single = build_t_roots(make_flag(rs_for("A3"), frozenset({2, 3})))
    assert qk_feasibility(enumerate_iacs(single)[0], single).feasible


def test_qk_infeasible_instance():
    ts = full_ts("A3")
    j = enumerate_iacs(ts)[2]
    assert j.signs == (1, 1, 1, 1, -1, 1)
    res = qk_feasibility(j, ts)
    assert not res.feasible and res.sample is None
    combo = [
        sum(c * row[k] for c, row in zip(res.certificate, res.equations))
        for k in range(6)
    ]
    assert all(v >= 0 for v in combo) and any(combo)


def test_qk_feasibility_makes_its_own_one_sign_pass():
    # the one-signed triples are a function of j and ts, so no caller hands
    # them in: an empty pass would have dropped every row of this infeasible j
    ts = full_ts("A3")
    j = IACS((1, -1, 1, -1, 1, 1))
    assert not qk_feasibility(j, ts).feasible
    with pytest.raises(TypeError):
        qk_feasibility(j, ts, one=())


def test_qk_sweep_carries_proof():
    infeasible_seen = 0
    for name, f in desk_flags(3):
        ts = build_t_roots(f)
        for j in enumerate_iacs(ts):
            res = qk_feasibility(j, ts)
            if res.feasible:
                assert all(v > 0 for v in res.sample)
                for row in res.equations:
                    assert sum(c * v for c, v in zip(row, res.sample)) == 0
            else:
                infeasible_seen += 1
                combo = [
                    sum(c * row[k] for c, row in zip(res.certificate, res.equations))
                    for k in range(len(ts.positive))
                ]
                assert all(v >= 0 for v in combo) and any(combo)
    assert infeasible_seen > 0


def test_kahler_triple_sum_examples():
    ts = full_ts("A2")
    tri = triple_with_classes(ts, {(0, 1), (1, 0), (1, 1)})
    plus_sum = kahler_triple_sum(InvariantMetric((1, 1, 2)), A2_PLUS, tri, ts)
    mixed_sum = kahler_triple_sum(normal_metric(3), A2_MIXED, tri, ts)
    assert abs(plus_sum) == 0
    assert abs(mixed_sum) == 3

    scaled = InvariantMetric((3, 3, 3))
    assert kahler_triple_sum(scaled, A2_MIXED, tri, ts) == 3 * mixed_sum


def test_classify_structure_examples():
    ts = full_ts("A2")
    lam112 = InvariantMetric((1, 1, 2))
    assert classify_structure(lam112, A2_PLUS, ts) == frozenset(
        {
            StructureLabel.INTEGRABLE,
            StructureLabel.KAHLER,
            StructureLabel.QK,
            StructureLabel.G1,
        }
    )
    assert classify_structure(normal_metric(3), A2_MIXED, ts) == frozenset(
        {StructureLabel.QK, StructureLabel.G1}
    )
    assert classify_structure(lam112, A2_MIXED, ts) == frozenset({StructureLabel.QK})


def test_classify_structure_makes_one_one_sign_pass(monkeypatch):
    # integrability, the triple sums and the G1 test all read the same pass
    passes = []
    real = structures._one_sign

    def counted(signs, ts):
        passes.append(signs)
        return real(signs, ts)

    monkeypatch.setattr(structures, "_one_sign", counted)
    ts = full_ts("B3")
    structs = enumerate_iacs(ts)
    for j in structs:
        classify_structure(normal_metric(len(ts.positive)), j, ts)
    assert passes == [j.signs for j in structs]


def test_hierarchy_and_sign_flip_sweep():
    for name, f in desk_flags(2):
        ts = build_t_roots(f)
        s = len(ts.positive)
        metrics = [
            InvariantMetric(v) for v in product((Fraction(1), Fraction(2)), repeat=s)
        ]
        for j in enumerate_iacs(ts):
            flipped = IACS(tuple(-x for x in j.signs))
            for g in metrics:
                labels = classify_structure(g, j, ts)
                if StructureLabel.KAHLER in labels:
                    assert StructureLabel.QK in labels
                    assert StructureLabel.INTEGRABLE in labels
                if StructureLabel.INTEGRABLE in labels:
                    assert StructureLabel.G1 in labels
                assert classify_structure(g, flipped, ts) == labels


def test_metric_grid_and_normal():
    grid = list(metric_grid(2))
    assert len(grid) == 9
    assert grid[0].lambdas == (1, 1)
    assert all(all(v > 0 for v in g.lambdas) for g in grid)
    assert normal_metric(3).lambdas == (1, 1, 1)
    # a class count that is no positive int is the package's own error
    for bad in (-1, 0, 2.0, True):
        with pytest.raises(FlagclassError):
            list(metric_grid(bad))
        with pytest.raises(FlagclassError):
            normal_metric(bad)


def test_validation_errors():
    with pytest.raises(InvalidInputError):
        IACS((1, 0, 1))
    with pytest.raises(InvalidInputError):
        IACS(())
    with pytest.raises(InvalidInputError):
        InvariantMetric((1, 0))
    with pytest.raises(InvalidInputError):
        InvariantMetric((Fraction(-1), Fraction(2)))
    # only exact input reaches the rows: no floats, bools or other types
    for signs in ((1.0, 1, 1), (True, -1, 1)):
        with pytest.raises(InvalidInputError):
            IACS(signs)
    for lambdas in ((0.1,), ("x",), (None,), (True,)):
        with pytest.raises(InvalidInputError):
            InvariantMetric(lambdas)
    # a generator is read once, as IACS reads one
    assert InvariantMetric(x for x in (1, 2)).lambdas == (Fraction(1), Fraction(2))
    assert IACS(x for x in (1, -1)).signs == (1, -1)
    # a sign vector or metric of the wrong length is an error on A2 full (s = 3)
    f = make_flag(rs_for("A2"), frozenset())
    ts, sc = build_t_roots(f), sc_for("A2")
    tri = t_zero_sum_triples(ts)[0]
    g, t = normal_metric(3), ts.positive[2]
    for wrong in (IACS((1, 1, 1, 1)), IACS((1,))):
        for call in (
            lambda: wrong.sign(ts, t),
            lambda: classify_triple(wrong, tri, ts),
            lambda: is_integrable(wrong, ts),
            lambda: nijenhuis_oracle(f, sc, wrong),
            lambda: c_of_j(wrong, ts),
            lambda: is_g1(g, wrong, ts),
            lambda: g1_oracle(f, sc, g, wrong),
            lambda: triple_sum_row(wrong, tri, ts),
            lambda: qk_feasibility(wrong, ts),
            lambda: closed_metric_feasibility(wrong, ts),
            lambda: kahler_triple_sum(g, wrong, tri, ts),
            lambda: classify_structure(g, wrong, ts),
        ):
            with pytest.raises(DimensionMismatchError):
                call()
    # a Root, or a string, is not a t-root
    for bad in (Root((1, 1)), "11"):
        for call in (lambda: A2_PLUS.sign(ts, bad), lambda: g.value(ts, bad)):
            with pytest.raises(InvalidInputError):
                call()
    for wrong in (normal_metric(4), normal_metric(1)):
        for call in (
            lambda: wrong.value(ts, t),
            lambda: c_of_g(wrong, ts),
            lambda: is_g1(wrong, A2_PLUS, ts),
            lambda: g1_oracle(f, sc, wrong, A2_PLUS),
            lambda: kahler_triple_sum(wrong, A2_PLUS, tri, ts),
            lambda: classify_structure(wrong, A2_PLUS, ts),
        ):
            with pytest.raises(DimensionMismatchError):
                call()


def test_structure_arguments_of_the_wrong_type_are_usage_errors():
    # a plain tuple, None, a swapped j and g or a flag in place of its t-roots
    # is refused before any attribute is read (A2 full, s = 3)
    f = make_flag(rs_for("A2"), frozenset())
    ts, sc = build_t_roots(f), sc_for("A2")
    tri = t_zero_sum_triples(ts)[0]
    j, g = A2_PLUS, normal_metric(3)
    for call in (
        lambda: is_integrable((1, 1, 1), ts),
        lambda: qk_feasibility(None, ts),
        lambda: classify_structure(j, g, ts),
        lambda: c_of_j(j, None),
        lambda: nijenhuis_oracle(f, sc, (1, 1, 1)),
        lambda: is_g1(j, g, ts),
        lambda: g1_oracle(f, sc, j, g),
        lambda: c_of_g((1, 1, 1), ts),
        lambda: classify_triple(j, tri, f),
        lambda: triple_sum_row(g, tri, ts),
        lambda: closed_metric_feasibility(j, f),
        lambda: kahler_triple_sum(g, (1, 1, 1), tri, ts),
        lambda: j.sign(None, ts.positive[0]),
        lambda: g.value(f, ts.positive[0]),
    ):
        with pytest.raises(InvalidInputError):
            call()


def test_normal_metric_unique_a2():
    report = normal_metric_unique(make_flag(rs_for("A2"), frozenset()))
    assert report.holds
    assert len(report.witnesses) == 3
    for w in report.witnesses:
        assert len(w.chain.triples) == 1
        assert len(w.forcing) == 1
        w.chain.validate()


def test_normal_metric_unique_two_summand():
    f = make_flag(rs_for("B2"), frozenset({1}))
    report = normal_metric_unique(f)
    assert report.holds
    (w,) = report.witnesses
    members = w.chain.triples[0].members
    assert sorted(members) == [(-2,), (1,), (1,)]


def test_normal_metric_unique_vacuous_and_forcing():
    f = make_flag(rs_for("A3"), frozenset({2, 3}))
    report = normal_metric_unique(f)
    assert report.holds and report.witnesses == ()

    full = make_flag(rs_for("A3"), frozenset())
    ts = build_t_roots(full)
    rep = normal_metric_unique(full)
    assert rep.holds and len(rep.witnesses) == 15
    for w in rep.witnesses:
        for tri, j in zip(w.chain.triples, w.forcing):
            assert classify_triple(j, tri, ts) is TripleClass.ZERO_THREE


def test_normal_metric_unique_builds_one_forcing_structure_per_triple(monkeypatch):
    # the sweep and the chains of the 15 pairs of A3 full share their
    # triples; the sweep also forces triples that lie on no chain
    built = []
    real = structures._forcing_iacs

    def counted(ts, t):
        built.append(t)
        return real(ts, t)

    monkeypatch.setattr(structures, "_forcing_iacs", counted)
    rep = normal_metric_unique(make_flag(rs_for("A3"), frozenset()))
    used = {t for w in rep.witnesses for t in w.chain.triples}
    assert len(built) == len(set(built)) and set(built) >= used
    assert sum(len(w.chain.triples) for w in rep.witnesses) > len(used)


def test_normal_metric_unique_sweeps_at_most_one_structure_per_triple(monkeypatch):
    # one forcing structure per zero-sum triple, each one _one_sign pass,
    # decides what the 2^s sweep decides, F4 full (s = 24) included
    passes = []
    real = structures._one_sign

    def counted(signs, ts):
        passes.append(signs)
        return real(signs, ts)

    monkeypatch.setattr(structures, "_one_sign", counted)
    checked = 0
    for t in types_up_to(4):
        for theta in proper_subsets(t.rank):
            f = make_flag(rs_for(str(t)), theta)
            ts = build_t_roots(f)
            s = len(ts.positive)
            passes.clear()
            holds = normal_metric_unique(f).holds
            assert len(passes) <= len(t_zero_sum_triples(ts)), f.label()
            if t.rank <= 3:
                assert holds == uniqueness_sweep(ts), f.label()
                checked += 1
            assert holds, f.label()
    assert checked == 31


def test_normal_metric_unique_holds_past_the_structure_cap():
    # one forcing structure per zero-sum triple: E8 full (s = 120) is swept
    # and witnessed for every pair, far beyond what enumerate_iacs can list
    f = make_flag(rs_for("E8"), ())
    s = len(build_t_roots(f).positive)
    assert s == 120
    report = normal_metric_unique(f)
    assert report.holds and len(report.witnesses) == s * (s - 1) // 2
    with pytest.raises(TypeError):
        normal_metric_unique(f, cap=s)


def test_normal_metric_unique_desk():
    for name, f in desk_flags(3):
        assert normal_metric_unique(f).holds, f.label()


def _coordinate_triples(ts):
    """Signed members of every zero-sum triple, read off the coordinates alone.

    The class of a member m is the position of whichever of m and -m lies in
    ts.positive; the sign is +1 iff m itself does.  Triples come out as sorted
    member tuples in sorted order.
    """
    pos = [t.coords for t in ts.positive]
    vecs = sorted(pos + [tuple(-x for x in v) for v in pos])
    out = []
    for members in combinations_with_replacement(vecs, 3):
        if any(sum(col) for col in zip(*members)):
            continue
        signed = [
            (pos.index(m), 1) if m in pos else (pos.index(tuple(-x for x in m)), -1)
            for m in members
        ]
        out.append((members, signed))
    return out


@pytest.mark.parametrize(
    "name,theta", [("A2", ()), ("A3", ()), ("G2", ()), ("B2", (1,))]
)
def test_triple_consumers_match_coordinate_oracle(name, theta):
    """Rows, C(J), C(g) and G1 against an oracle that never calls ts.classify."""
    ts = build_t_roots(make_flag(rs_for(name), frozenset(theta)))
    s = len(ts.positive)
    pos = [t.coords for t in ts.positive]
    triples = _coordinate_triples(ts)
    if name == "B2":
        assert any(members[0] == members[1] for members, _ in triples)
    assert [members for members, _ in triples] == [
        t.members for t in t_zero_sum_triples(ts)
    ]
    grid = list(metric_grid(s))
    constant = {
        g.lambdas: [len({g.lambdas[i] for i, _ in signed}) == 1 for _, signed in triples]
        for g in grid
    }
    for g in grid:
        covered = {
            pos[i]
            for (_, signed), const in zip(triples, constant[g.lambdas])
            if const
            for i, _ in signed
        }
        assert {t.coords for t in c_of_g(g, ts)} == covered
    for j in enumerate_iacs(ts):
        one_sign, rows = [], []
        for _, signed in triples:
            one_sign.append(len({sgn * j.signs[i] for i, sgn in signed}) == 1)
            row = [Fraction(0)] * s
            for i, sgn in signed:
                row[i] += sgn * j.signs[i]
            rows.append(tuple(row))
        mixed = [row for row, one in zip(rows, one_sign) if not one]
        qk_rows = qk_feasibility(j, ts).equations
        closed_rows = closed_metric_feasibility(j, ts).equations
        assert qk_rows == tuple(mixed)
        assert closed_rows == tuple(rows)
        sum_rows = [triple_sum_row(j, t, ts) for t in t_zero_sum_triples(ts)]
        assert sum_rows == rows
        for row in (*qk_rows, *closed_rows, *sum_rows):
            assert all(type(c) is int for c in row), row
        expected_c_of_j = {
            pos[i] for (_, signed), one in zip(triples, one_sign) if one for i, _ in signed
        }
        assert {t.coords for t in c_of_j(j, ts)} == expected_c_of_j
        for g in grid:
            g1 = all(c for c, one in zip(constant[g.lambdas], one_sign) if one)
            assert is_g1(g, j, ts) == g1, (j.signs, g.lambdas)


def has_cone(beats: set[tuple[int, int]], vertices: int) -> bool:
    """Four vertices: a 3-cycle, and a fourth that beats all three or that all three beat."""
    for quad in combinations(range(vertices), 4):
        for apex in quad:
            a, b, c = (v for v in quad if v != apex)
            cycle = {(a, b), (b, c), (c, a)} <= beats or {(b, a), (c, b), (a, c)} <= beats
            if cycle and (
                all((apex, v) in beats for v in (a, b, c))
                or all((v, apex) in beats for v in (a, b, c))
            ):
                return True
    return False


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_qk_feasible_exactly_when_the_tournament_has_no_cone(rank):
    # On the full flag of A_n the root e_i - e_k (i < k) is alpha_i + ... + alpha_(k-1);
    # with sign +1 it is the edge i -> k of a tournament on the n + 1 vertices.
    ts = build_t_roots(make_flag(build_root_system(LieType("A", rank)), ()))
    edges = []
    for t in ts.positive:
        support = [i for i, a in enumerate(t.coords) if a]
        assert set(t.coords) <= {0, 1} and support == list(range(support[0], support[-1] + 1))
        edges.append((support[0], support[-1] + 1))
    assert sorted(edges) == list(combinations(range(rank + 1), 2))
    feasible = 0
    for signs in product((1, -1), repeat=len(edges)):
        beats = {(i, k) if sgn > 0 else (k, i) for (i, k), sgn in zip(edges, signs)}
        qk = qk_feasibility(IACS(signs), ts).feasible
        assert qk == (not has_cone(beats, rank + 1)), signs
        feasible += qk
    assert feasible == 2**rank * math.factorial(rank)
