"""Acceptance gate: one test per shipped claim, at the scale it is promised.

Every test re-derives its verdict from independent routes (closed forms,
brute-force replays, vectorized re-implementations over the full structure
space) and freezes exact counts, so a regression shows up as a concrete
disagreement rather than a drifting tolerance.  Tests are numbered; running
with -v yields one pass or fail line per claim.
"""
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from flagclass.chevalley import (
    ExtScalar,
    bracket_coefficient,
    compute_structure_constants,
    verify_jacobi,
)
from flagclass.cli import proper_subsets, types_up_to
from flagclass.errors import CapExceededError
from flagclass.feasibility import solve_positive_kernel
from flagclass.flag import TRoot, build_t_roots, make_flag, t_projection
from flagclass.rootsys import (
    LieType,
    Root,
    build_root_system,
    inner_product,
    root_string,
)
from flagclass.structures import (
    IACS,
    InvariantMetric,
    StructureLabel,
    TripleClass,
    classify_structure,
    classify_triple,
    closed_metric_feasibility,
    enumerate_iacs,
    g1_oracle,
    is_g1,
    is_integrable,
    nijenhuis_oracle,
    normal_metric,
    normal_metric_unique,
    qk_feasibility,
    t_chambers,
    t_zero_sum_triples,
)
from flagclass.tzs import (
    chain_between,
    connectivity,
    make_functional_set,
    zero_sum_triples,
)
from flagclass.weyl import a_theta, act_on_structure, generate_weyl, orbits, weyl_order
from oracles import pairs_integrable

_SYSTEMS = {}
_CONSTANTS = {}
_GROUPS = {}


def rs_for(name):
    if name not in _SYSTEMS:
        _SYSTEMS[name] = build_root_system(LieType.parse(name))
    return _SYSTEMS[name]


def sc_for(name):
    if name not in _CONSTANTS:
        _CONSTANTS[name] = compute_structure_constants(rs_for(name))
    return _CONSTANTS[name]


def group_for(name):
    if name not in _GROUPS:
        _GROUPS[name] = generate_weyl(rs_for(name))
    return _GROUPS[name]


def flags_up_to(max_rank):
    for t in types_up_to(max_rank):
        rs = rs_for(str(t))
        for theta in proper_subsets(t.rank):
            yield str(t), theta, make_flag(rs, theta)


def triple_refs(ts, triple):
    return tuple(ts.classify(TRoot(m)) for m in triple.members)


def sign_matrix(s):
    """All 2**s sign vectors as int8 rows, in enumeration (binary) order."""
    idx = np.arange(2**s, dtype=np.int64)
    out = np.empty((2**s, s), dtype=np.int8)
    for k in range(s):
        out[:, k] = 1 - 2 * ((idx >> (s - 1 - k)) & 1)
    return out


def eps_column(signs, ref):
    k, sg = ref
    return signs[:, k] * np.int8(sg)


# --- claim 1: root-level triples connect every root system up to rank 8 ---


def test_criterion_01_root_connectivity_rank8():
    start = time.monotonic()
    types = types_up_to(8)
    assert len(types) == 31
    assert {"E6", "E7", "E8", "F4", "G2", "A8", "B8", "C8", "D8"} <= {str(t) for t in types}
    for t in types:
        rs = rs_for(str(t))
        if str(t) == "E8":
            assert len(rs.all_roots) == 240
        fs = make_functional_set(rs.all_roots)
        assert connectivity(fs).connected, f"{t}: roots not triple-connected"
        positives = [r.coords for r in rs.positive_roots]
        if len(positives) < 2:
            continue
        rng = random.Random(101 + t.rank)
        for _ in range(50):
            a, b = rng.sample(positives, 2)
            chain = chain_between(fs, a, b)
            chain.validate()
            assert chain.triples[0].contains_class(a)
            assert chain.triples[-1].contains_class(b)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 1: 31 types incl. E8, 50 validated chains each, {elapsed:.1f}s")


# --- claim 2: t-root triples connect every flag up to rank 6 ---


def test_criterion_02_troot_connectivity_rank6():
    start = time.monotonic()
    count = 0
    for _, _, f in flags_up_to(6):
        ts = build_t_roots(f)
        report = connectivity(make_functional_set(ts.t_roots))
        assert report.connected, f"{f.label()}: t-roots not triple-connected"
        count += 1
    elapsed = time.monotonic() - start
    assert count == 545
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"criterion 2: {count} flags, {elapsed:.1f}s")


# --- claim 3: structure enumeration is complete and duplicate-free ---


def test_criterion_03_iacs_enumeration_exact():
    capped = []
    for name, theta, f in flags_up_to(4):
        ts = build_t_roots(f)
        s = len(ts.positive)
        if s > 20:
            capped.append((name, theta))
            with pytest.raises(CapExceededError):
                enumerate_iacs(ts)
            continue
        iacs = enumerate_iacs(ts, cap=s)
        assert len(iacs) == 2**s
        assert len({j.signs for j in iacs}) == 2**s
        assert iacs[0].signs == (1,) * s
        assert iacs[-1].signs == (-1,) * s
        if s >= 2:
            assert iacs[1].signs == (1,) * (s - 1) + (-1,)
    assert capped == [("F4", ())]
    print("criterion 3: exact 2**s count on 105 flags, F4 full capped as documented")


# --- claim 4: four integrability routes agree on every structure ---


def _four_way_at_scale(name, f, ts):
    """Vectorized replay of all four routes over every sign vector at once."""
    sc = sc_for(name)
    s = len(ts.positive)
    n = 2**s
    signs = sign_matrix(s)

    zero_three = np.zeros(n, dtype=bool)
    for tr in t_zero_sum_triples(ts):
        e1, e2, e3 = (eps_column(signs, r) for r in triple_refs(ts, tr))
        zero_three |= (e1 == e2) & (e2 == e3)
    triple_route = ~zero_three

    pair_fail = np.zeros(n, dtype=bool)
    troots = sorted(ts.t_roots, key=lambda t: t.coords)
    for i, d in enumerate(troots):
        for h in troots[i + 1 :]:
            total = d + h
            if total not in ts.t_roots:
                continue
            ed = eps_column(signs, ts.classify(d))
            eh = eps_column(signs, ts.classify(h))
            et = eps_column(signs, ts.classify(total))
            pair_fail |= (ed == eh) & (et != ed)
    pair_route = ~pair_fail

    torsion_fail = np.zeros(n, dtype=bool)
    root_set = frozenset(f.rs.all_roots)
    roots = sorted(f.r_m, key=lambda r: r.coords)
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            total = a + b
            if total not in root_set or total in f.r_theta:
                continue
            assert not bracket_coefficient(sc, a, b).is_zero()
            ea = eps_column(signs, ts.classify(t_projection(f, a)))
            eb = eps_column(signs, ts.classify(t_projection(f, b)))
            et = eps_column(signs, ts.classify(t_projection(f, total)))
            torsion_fail |= (ea == eb) & (et != ea)
    torsion_route = ~torsion_fail

    assert np.array_equal(triple_route, pair_route)
    assert np.array_equal(triple_route, torsion_route)

    chamber_set = {c.signs for c in t_chambers(ts)}
    realized = {
        tuple(int(x) for x in signs[i]) for i in np.flatnonzero(triple_route)
    }
    assert realized == chamber_set

    rng = random.Random(1009)
    probe = {0, n - 1, *(2**k for k in range(s)), *(rng.randrange(n) for _ in range(60))}
    for i in sorted(probe):
        j = IACS(tuple(int(x) for x in signs[i]))
        assert is_integrable(j, ts) == bool(triple_route[i])
        assert pairs_integrable(j, ts) == bool(pair_route[i])
        assert nijenhuis_oracle(f, sc, j) == bool(torsion_route[i])
    return n, zero_three, signs


def test_criterion_04_integrability_four_way():
    capped = []
    direct = vectorized = 0
    for name, theta, f in flags_up_to(4):
        ts = build_t_roots(f)
        s = len(ts.positive)
        if s > 20:
            capped.append((name, theta))
            with pytest.raises(CapExceededError):
                enumerate_iacs(ts)
            continue
        if s <= 12:
            sc = sc_for(name)
            chambers = {c.signs for c in t_chambers(ts)}
            for j in enumerate_iacs(ts, cap=s):
                routes = {
                    is_integrable(j, ts),
                    pairs_integrable(j, ts),
                    nijenhuis_oracle(f, sc, j),
                    j.signs in chambers,
                }
                assert len(routes) == 1, f"{f.label()} signs={j.signs}"
                direct += 1
        else:
            n, _, _ = _four_way_at_scale(name, f, ts)
            vectorized += n
    assert capped == [("F4", ())]
    print(
        f"criterion 4: {direct} structures direct, {vectorized} vectorized,"
        " zero disagreements"
    )


# --- claim 5: single-class flags are always integrable and G1 ---


def test_criterion_05_single_class_flags():
    found = 0
    for name, theta, f in flags_up_to(4):
        ts = build_t_roots(f)
        if len(ts.positive) != 1:
            continue
        found += 1
        sc = sc_for(name)
        iacs = enumerate_iacs(ts)
        assert {j.signs for j in iacs} == {(1,), (-1,)}
        chambers = {c.signs for c in t_chambers(ts)}
        assert chambers == {(1,), (-1,)}
        for j in iacs:
            assert is_integrable(j, ts)
            assert nijenhuis_oracle(f, sc, j)
            for lam in (1, 2, 3):
                g = InvariantMetric((Fraction(lam),))
                assert is_g1(g, j, ts)
                assert g1_oracle(f, sc, g, j)
                labels = classify_structure(g, j, ts)
                assert StructureLabel.KAHLER in labels
                assert StructureLabel.G1 in labels
    assert found == 18
    print(f"criterion 5: {found} single-class flags, all integrable and G1")


# --- claim 6: a doubled class with mixed signs is never integrable ---

TWO_SUMMAND_FLAGS = [
    ("B2", (1,)),
    ("G2", (1,)),
    ("B3", (1, 2)),
    ("B3", (1, 3)),
    ("C3", (1, 3)),
    ("C3", (2, 3)),
    ("B4", (1, 2, 3)),
    ("B4", (1, 2, 4)),
    ("B4", (1, 3, 4)),
    ("C4", (1, 2, 4)),
    ("C4", (1, 3, 4)),
    ("C4", (2, 3, 4)),
    ("D4", (1, 3, 4)),
    ("F4", (1, 2, 3)),
    ("F4", (2, 3, 4)),
]


def test_criterion_06_two_summand_flags():
    found = []
    for name, theta, f in flags_up_to(4):
        ts = build_t_roots(f)
        pos = ts.positive
        if len(pos) != 2 or pos[1].coords != tuple(2 * c for c in pos[0].coords):
            continue
        found.append((name, theta))
        sc = sc_for(name)
        doubled = IACS((-1, 1))
        assert not is_integrable(doubled, ts)
        assert not nijenhuis_oracle(f, sc, doubled)
        chambers = {c.signs for c in t_chambers(ts)}
        assert chambers == {(1, 1), (-1, -1)}
        assert doubled.signs not in chambers
        triples = t_zero_sum_triples(ts)
        assert len(triples) == 2
        assert classify_triple(doubled, triples[0], ts) is TripleClass.ZERO_THREE
    assert found == TWO_SUMMAND_FLAGS
    print(f"criterion 6: {len(found)} doubled-class flags, mixed signs never integrable")


# --- claim 7: almost Kahler forces Kahler ---


def _row_from_triple(refs, j_signs):
    row = [0] * len(j_signs)
    for k, sg in refs:
        row[k] += sg * j_signs[k]
    return row


def _ak_at_scale(f, ts):
    """Witness-row argument over every sign vector of a big flag.

    A sign vector with an all-equal-sign triple yields one equation whose
    nonzero coefficients share a sign; that single row is infeasible over
    positive metrics, hence so is the full all-triples system containing it.
    """
    s = len(ts.positive)
    n = 2**s
    signs = sign_matrix(s)
    triples = t_zero_sum_triples(ts)
    refs = [triple_refs(ts, tr) for tr in triples]
    owner = np.full(n, -1, dtype=np.int32)
    for ti, tr_refs in enumerate(refs):
        e1, e2, e3 = (eps_column(signs, r) for r in tr_refs)
        mask = (e1 == e2) & (e2 == e3) & (owner < 0)
        owner[mask] = ti
    hit = np.flatnonzero(owner >= 0)
    for i in hit:
        vec = tuple(int(x) for x in signs[i])
        row = _row_from_triple(refs[owner[i]], vec)
        nonzero = [c for c in row if c]
        assert nonzero
        assert all(c > 0 for c in nonzero) or all(c < 0 for c in nonzero)
    rng = random.Random(1013)
    for i in rng.sample(list(hit), 80):
        vec = tuple(int(x) for x in signs[i])
        row = _row_from_triple(refs[owner[i]], vec)
        res = solve_positive_kernel([tuple(Fraction(c) for c in row)], s)
        assert not res.feasible
        full = closed_metric_feasibility(IACS(vec), ts)
        assert not full.feasible
    return n, len(hit)


def test_criterion_07_almost_kahler_equals_kahler():
    capped = []
    direct = scaled = 0
    for name, theta, f in flags_up_to(4):
        ts = build_t_roots(f)
        s = len(ts.positive)
        if s > 20:
            capped.append((name, theta))
            continue
        triples = t_zero_sum_triples(ts)
        if s <= 12:
            for j in enumerate_iacs(ts, cap=s):
                has_zero_three = any(
                    classify_triple(j, tr, ts) is TripleClass.ZERO_THREE
                    for tr in triples
                )
                assert has_zero_three == (not is_integrable(j, ts))
                res = closed_metric_feasibility(j, ts)
                if has_zero_three:
                    assert not res.feasible
                    assert res.certificate is not None
                    combo = [Fraction(0)] * s
                    for y, row in zip(res.certificate, res.equations):
                        for k, c in enumerate(row):
                            combo[k] += y * c
                    assert all(c >= 0 for c in combo) and any(combo)
                else:
                    assert res.feasible
                    assert all(x > 0 for x in res.sample)
                    for row in res.equations:
                        assert sum(c * x for c, x in zip(row, res.sample)) == 0
                direct += 1
        else:
            n, _ = _ak_at_scale(f, ts)
            scaled += n
    assert capped == [("F4", ())]
    print(f"criterion 7: {direct} direct systems, {scaled} witness rows, AK = K holds")


# --- claim 8: the normal metric is the only one forced by every structure ---


def test_criterion_08_normal_metric_uniqueness():
    start = time.monotonic()
    checked = 0
    for name, theta, f in flags_up_to(4):
        ts = build_t_roots(f)
        s = len(ts.positive)
        if s < 2:
            continue
        rep = normal_metric_unique(f)
        assert rep.holds, f"{f.label()}"
        assert len(rep.witnesses) == s * (s - 1) // 2
        seen_pairs = set()
        for w in rep.witnesses:
            seen_pairs.add((w.pair[0].coords, w.pair[1].coords))
            w.chain.validate()
            assert len(w.forcing) == len(w.chain.triples)
            for forcing, link in zip(w.forcing, w.chain.triples):
                assert classify_triple(forcing, link, ts) is TripleClass.ZERO_THREE
        expected_pairs = {
            (ts.positive[i].coords, ts.positive[k].coords)
            for i in range(s)
            for k in range(i + 1, s)
        }
        assert seen_pairs == expected_pairs
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 88
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"criterion 8: {checked} flags incl. F4 full, all certificate chains valid, {elapsed:.1f}s")


# --- claim 9: the metric-side G1 test matches the torsion tensor oracle ---


def _g1_partitions(name, f, ts, j):
    """Class partitions forced by each route's family of constraining triples."""
    s = len(ts.positive)

    def close(parent, a, b):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)

    metric_side = list(range(s))
    for tr in t_zero_sum_triples(ts):
        if classify_triple(j, tr, ts) is TripleClass.ZERO_THREE:
            refs = triple_refs(ts, tr)
            for (k1, _), (k2, _) in zip(refs, refs[1:]):
                close(metric_side, k1, k2)

    tensor_side = list(range(s))
    fs_m = make_functional_set(f.r_m)
    for tr in zero_sum_triples(fs_m):
        members = [Root(m) for m in tr.members]
        eps = [j.sign(ts, t_projection(f, r)) for r in members]
        if len(set(eps)) == 1:
            ks = [ts.classify(t_projection(f, r))[0] for r in members]
            close(tensor_side, ks[0], ks[1])
            close(tensor_side, ks[1], ks[2])

    def blocks(parent):
        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        out = {}
        for k in range(s):
            out.setdefault(find(k), []).append(k)
        return frozenset(frozenset(b) for b in out.values())

    return blocks(metric_side), blocks(tensor_side)


def test_criterion_09_g1_routes_agree():
    for name, theta, f in flags_up_to(3):
        ts = build_t_roots(f)
        s = len(ts.positive)
        sc = sc_for(name)
        iacs = enumerate_iacs(ts, cap=s)
        rng = random.Random(1021)
        probe_iacs = iacs if len(iacs) <= 64 else rng.sample(iacs, 64)
        for j in iacs:
            metric_blocks, tensor_blocks = _g1_partitions(name, f, ts, j)
            assert metric_blocks == tensor_blocks, f"{f.label()} signs={j.signs}"
        for j in probe_iacs:
            metric_blocks, _ = _g1_partitions(name, f, ts, j)
            block_of = {}
            for bid, block in enumerate(sorted(metric_blocks, key=min)):
                for k in block:
                    block_of[k] = bid
            constant_on_blocks = InvariantMetric(
                tuple(Fraction(1 + block_of[k]) for k in range(s))
            )
            assert is_g1(constant_on_blocks, j, ts)
            assert g1_oracle(f, sc, constant_on_blocks, j)
            fat = next((b for b in metric_blocks if len(b) >= 2), None)
            if fat is not None:
                lams = [Fraction(1)] * s
                lams[max(fat)] = Fraction(2)
                broken = InvariantMetric(tuple(lams))
                assert not is_g1(broken, j, ts)
                assert not g1_oracle(f, sc, broken, j)
            for _ in range(2):
                g = InvariantMetric(tuple(Fraction(rng.randint(1, 3)) for _ in range(s)))
                assert is_g1(g, j, ts) == g1_oracle(f, sc, g, j)
        if s <= 3:
            for j in iacs:
                for combo in itertools.product((1, 2, 3), repeat=s):
                    g = InvariantMetric(tuple(Fraction(x) for x in combo))
                    assert is_g1(g, j, ts) == g1_oracle(f, sc, g, j)
    print("criterion 9: forced partitions identical, spot and small grids agree")


# --- claim 10: structure constants satisfy Jacobi and the string norm ---


def test_criterion_10_structure_constants_rank6():
    pairs = triples = 0
    for t in types_up_to(6):
        name = str(t)
        rs = rs_for(name)
        sc = sc_for(name)
        root_set = frozenset(rs.all_roots)
        assert verify_jacobi(sc).ok, name
        for (a, b), n in sc.table.items():
            p, _ = root_string(rs, a, b)
            la = inner_product(rs, a, a)
            lb = inner_product(rs, b, b)
            ls = inner_product(rs, a + b, a + b)
            expected = ExtScalar.from_rational((p + 1) ** 2 * la * lb / (2 * ls))
            assert n * n == expected, f"{name}: |n|^2 off at ({a}, {b})"
            pairs += 1
            c = -(a + b)
            if c in root_set:
                assert bracket_coefficient(sc, b, c) == n
                assert bracket_coefficient(sc, c, a) == n
                triples += 1
    print(f"criterion 10: {pairs} norms and {triples} cyclic identities at rank <= 6")


# --- claim 11: Weyl orders, stabilizer equivalence, orbit-constant labels ---

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


def test_criterion_11_weyl_action():
    for name, expected in CLOSED_FORM_ORDERS.items():
        assert weyl_order(LieType.parse(name)) == expected
        assert group_for(name).order == expected

    for name, theta, f in flags_up_to(4):
        rs = f.rs
        w = group_for(name)
        sub = a_theta(w, f)
        theta_set = set(f.r_theta)
        m_set = set(f.r_m)
        brute = []
        for e in w.elements:
            fixes_theta = all(e.apply(rs, r) in theta_set for r in f.r_theta)
            maps_m_inside = all(e.apply(rs, r) in m_set for r in f.r_m)
            assert fixes_theta == maps_m_inside, f"{f.label()}"
            if fixes_theta:
                brute.append(e)
        assert list(sub) == brute

    checked = 0
    for name, theta, f in flags_up_to(3):
        ts = build_t_roots(f)
        s = len(ts.positive)
        sub = a_theta(group_for(name), f)
        rng = random.Random(1031)
        probes = [normal_metric(s)] + [
            InvariantMetric(tuple(Fraction(rng.randint(1, 3)) for _ in range(s)))
            for _ in range(2)
        ]
        cache = {}

        def labels_of(g, j):
            key = (j.signs, g.lambdas)
            if key not in cache:
                cache[key] = classify_structure(g, j, ts)
            return cache[key]

        for j in enumerate_iacs(ts, cap=s):
            for g in probes:
                expected_labels = labels_of(g, j)
                for e in sub:
                    jj, gg = act_on_structure(e, f, j, g)
                    assert labels_of(gg, jj) == expected_labels, f"{f.label()}"
                    checked += 1
    print(f"criterion 11: orders match, stabilizers exhaustive, {checked} orbit moves label-stable")


# --- claim 12: the smallest full flag, end to end ---


def test_criterion_12_a2_end_to_end():
    rs = rs_for("A2")
    f = make_flag(rs, ())
    ts = build_t_roots(f)
    iacs = enumerate_iacs(ts)
    assert len(iacs) == 8

    integrable = [j for j in iacs if is_integrable(j, ts)]
    assert len(integrable) == 6

    w = group_for("A2")
    sub = a_theta(w, f)
    assert len(sub) == 6
    nm = normal_metric(3)
    parts = orbits(sub, f, [(j, nm) for j in iacs])
    assert sorted(len(p) for p in parts) == [2, 6]
    big = next(p for p in parts if len(p) == 6)
    small = next(p for p in parts if len(p) == 2)
    assert {iacs[i].signs for i in big} == {j.signs for j in integrable}
    assert all(not is_integrable(iacs[i], ts) for i in small)

    # class order is (0,1)=alpha2, (1,0)=alpha1, (1,1)=alpha1+alpha2
    all_plus = IACS((1, 1, 1))
    for combo in itertools.product((1, 2, 3, 4), repeat=3):
        g = InvariantMetric(tuple(Fraction(x) for x in combo))
        labels = classify_structure(g, all_plus, ts)
        additive = combo[2] == combo[0] + combo[1]
        assert (StructureLabel.KAHLER in labels) == additive
        assert (StructureLabel.QK in labels) == additive
    qk = qk_feasibility(all_plus, ts)
    assert qk.feasible and qk.sample == (1, 1, 2)

    mixed = IACS((1, 1, -1))
    for combo in itertools.product((1, 2, 3), repeat=3):
        g = InvariantMetric(tuple(Fraction(x) for x in combo))
        labels = classify_structure(g, mixed, ts)
        assert StructureLabel.INTEGRABLE not in labels
        assert StructureLabel.KAHLER not in labels
        assert StructureLabel.QK in labels
        constant = len(set(combo)) == 1
        assert (StructureLabel.G1 in labels) == constant
        assert is_g1(g, mixed, ts) == constant
        assert g1_oracle(f, sc_for("A2"), g, mixed) == constant
    print("criterion 12: A2 orbits {6,2}, Kahler family additive, mixed structure QK with G1 iff constant")
