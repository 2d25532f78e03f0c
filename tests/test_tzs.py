"""Zero-sum triple enumeration, connectivity, and chain certificates."""
import itertools
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagclass.errors import (
    InvalidInputError,
    InvariantViolationError,
    NotConnectedError,
)
from flagclass.flag import TRoot, build_t_roots, make_flag
from flagclass.rootsys import LieType, Root, build_root_system
from flagclass.tzs import (
    TzsChain,
    ZeroSumTriple,
    chain_between,
    connectivity,
    make_functional_set,
    pm_class_rep,
    zero_sum_triples,
)

DESK_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 3), ("D", 4),
    ("F", 4), ("G", 2),
]


def root_functionals(family, rank):
    return make_functional_set(build_root_system(LieType(family, rank)).all_roots)


def triple_oracle(vectors):
    """Cubic scan over all multisets of size three."""
    out = set()
    for a, b, c in itertools.combinations_with_replacement(sorted(vectors), 3):
        if all(x + y + z == 0 for x, y, z in zip(a, b, c)):
            out.add((a, b, c))
    return out


def component_oracle(s):
    """Union-find over sign classes, one union per triple member pair."""
    parent = {r: r for r in s.class_reps()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in zero_sum_triples(s):
        cls = sorted(t.classes())
        for a, b in zip(cls, cls[1:]):
            parent[find(a)] = find(b)
    groups = {}
    for r in parent:
        groups.setdefault(find(r), set()).add(r)
    return {frozenset(g) for g in groups.values()}


def test_a2_has_two_triples():
    triples = zero_sum_triples(root_functionals("A", 2))
    assert len(triples) == 2
    assert {t.members for t in triples} == {
        ((-1, -1), (0, 1), (1, 0)),
        ((-1, 0), (0, -1), (1, 1)),
    }


def test_a1_has_no_triples():
    assert zero_sum_triples(root_functionals("A", 1)) == ()


def test_doubled_functional_triple():
    s = make_functional_set([(1,), (-1,), (2,), (-2,)])
    triples = zero_sum_triples(s)
    assert {t.members for t in triples} == {
        ((-2,), (1,), (1,)),
        ((-1,), (-1,), (2,)),
    }


def test_triples_match_cubic_oracle():
    for family, rank in DESK_TYPES:
        s = root_functionals(family, rank)
        assert [t.members for t in zero_sum_triples(s)] == sorted(triple_oracle(s.vectors))


def test_triple_validation():
    ZeroSumTriple(((1, 0), (0, 1), (-1, -1)))
    with pytest.raises(InvalidInputError):
        ZeroSumTriple(((1, 0), (0, 1), (1, 1)))
    with pytest.raises(InvalidInputError):
        ZeroSumTriple(((0, 0), (1, 0), (-1, 0)))
    for members in (((0.5,), (0.5,), (-1,)), ((True,), (1,), (-2,))):
        with pytest.raises(InvalidInputError, match="not an int"):
            ZeroSumTriple(members)
    # members are read like make_functional_set's items: a list is refused,
    # anything carrying .coords is accepted
    with pytest.raises(InvalidInputError, match="integer vector"):
        ZeroSumTriple(([1, 0], [0, 1], [-1, -1]))
    t = ZeroSumTriple((TRoot((1, 0)), TRoot((0, 1)), (-1, -1)))
    assert t == ZeroSumTriple(((1, 0), (0, 1), (-1, -1)))
    assert hash(t) == hash(ZeroSumTriple(((1, 0), (0, 1), (-1, -1))))
    assert t.classes() == {(1, 1), (0, 1), (1, 0)}
    # the classes are kept from construction, and are no field
    assert t.classes() is t.classes()
    assert repr(t) == "ZeroSumTriple(members=((-1, -1), (0, 1), (1, 0)))"


def test_triple_members_canonically_sorted():
    t = ZeroSumTriple(((1, 0), (-1, -1), (0, 1)))
    assert t.members == ((-1, -1), (0, 1), (1, 0))
    assert t.classes() == {(1, 1), (0, 1), (1, 0)}


def test_functional_set_validation():
    with pytest.raises(InvalidInputError):
        make_functional_set([(1, 0)])
    with pytest.raises(InvalidInputError):
        make_functional_set([(0, 0)])
    # coordinates are ints on both the tuple path and the .coords path
    for items in (
        [(0.5,), (-0.5,), (1.0,), (-1.0,)],
        [(True,), (-1,)],
        [Root((1,)), Root((-1,)), SimpleNamespace(coords=(0.5,)), SimpleNamespace(coords=(-0.5,))],
    ):
        with pytest.raises(InvalidInputError, match="not an int"):
            make_functional_set(items)


def test_functional_set_accepts_coord_carriers():
    rs = build_root_system(LieType("A", 2))
    s = make_functional_set(rs.all_roots)
    assert (1, 1) in s
    ts = build_t_roots(make_flag(rs, {2}))
    st_roots = make_functional_set(ts.t_roots)
    assert (1,) in st_roots


def test_roots_connected_for_desk_types():
    for family, rank in DESK_TYPES:
        report = connectivity(root_functionals(family, rank))
        assert report.connected, (family, rank)
        assert len(report.components) == (0 if rank == 0 else 1)


def test_rank_one_vacuously_connected():
    report = connectivity(root_functionals("A", 1))
    assert report.connected
    assert report.components == (((1,),),)
    assert report.witness_chains == ()


def test_reducible_subsystem_disconnected():
    rs = build_root_system(LieType("A", 5))
    theta = {1, 3, 4}
    span = [r for r in rs.all_roots if r.support() <= theta]
    report = connectivity(make_functional_set(span))
    assert not report.connected
    assert len(report.components) == 2


def test_components_match_union_find_oracle():
    cases = [root_functionals("A", 3), root_functionals("B", 3)]
    rs = build_root_system(LieType("A", 5))
    cases.append(
        make_functional_set(r for r in rs.all_roots if r.support() <= {1, 3, 4})
    )
    for s in cases:
        report = connectivity(s)
        assert {frozenset(c) for c in report.components} == component_oracle(s)


def test_t_roots_connected_on_desk_flags():
    for family, rank in DESK_TYPES:
        rs = build_root_system(LieType(family, rank))
        for size in range(rank):
            for theta in itertools.combinations(range(1, rank + 1), size):
                ts = build_t_roots(make_flag(rs, theta))
                report = connectivity(make_functional_set(ts.t_roots))
                assert report.connected, (family, rank, theta)


def test_witness_chains_cover_components():
    s = root_functionals("B", 3)
    report = connectivity(s)
    for chain in report.witness_chains:
        chain.validate()
    targets = {chain.endpoints[1] for chain in report.witness_chains}
    bases = {chain.endpoints[0] for chain in report.witness_chains}
    assert bases == {report.components[0][0]}
    assert targets == set(report.class_reps) - bases


def test_chain_a2_single_triple():
    s = root_functionals("A", 2)
    chain = chain_between(s, (1, 0), (0, 1))
    assert len(chain.triples) == 1
    assert chain.triples[0].members == ((-1, -1), (0, 1), (1, 0))
    # endpoints that are not class representatives are kept as given
    flipped = chain_between(s, (-1, 0), (0, 1))
    assert flipped.endpoints == ((-1, 0), (0, 1))
    assert flipped.triples == chain.triples
    flipped.validate()


def test_chain_a3_two_steps():
    s = root_functionals("A", 3)
    chain = chain_between(s, (1, 0, 0), (0, 0, 1))
    assert len(chain.triples) == 2


def test_chain_b2_reaches_long_root():
    s = root_functionals("B", 2)
    chain = chain_between(s, (1, 0), (1, 2))
    assert ZeroSumTriple(((1, 1), (0, 1), (-1, -2))) in chain.triples


def test_chain_endpoint_validation():
    s = root_functionals("A", 2)
    with pytest.raises(InvalidInputError):
        chain_between(s, (1, 0), (-1, 0))
    with pytest.raises(InvalidInputError):
        chain_between(s, (5, 0), (0, 1))


def test_chain_disconnected_endpoints():
    rs = build_root_system(LieType("A", 5))
    s = make_functional_set(r for r in rs.all_roots if r.support() <= {1, 3, 4})
    with pytest.raises(NotConnectedError):
        chain_between(s, (1, 0, 0, 0, 0), (0, 0, 1, 0, 0))


def test_chain_validate_catches_corruption():
    s = root_functionals("A", 3)
    chain = chain_between(s, (1, 0, 0), (0, 0, 1))
    broken = TzsChain(chain.endpoints, chain.triples[:1])
    with pytest.raises(InvariantViolationError):
        broken.validate()
    with pytest.raises(InvariantViolationError):
        TzsChain(chain.endpoints, ()).validate()


def class_distances(s, base):
    """Breadth-first distances from `base` over classes that share a triple."""
    triples = triple_oracle(s.vectors)
    dist, frontier = {base: 0}, [base]
    while frontier:
        nxt = []
        for node in frontier:
            for members in triples:
                classes = {pm_class_rep(v) for v in members}
                if node in classes:
                    for other in classes - dist.keys():
                        dist[other] = dist[node] + 1
                        nxt.append(other)
        frontier = nxt
    return dist


def test_chains_are_shortest():
    s = root_functionals("B", 3)
    reps = s.class_reps()
    triples = zero_sum_triples(s)
    for a, b in itertools.combinations(reps, 2):
        chain = chain_between(s, a, b)
        chain.validate()
        if len(chain.triples) == 1:
            continue
        direct = any(t.contains_class(a) and t.contains_class(b) for t in triples)
        assert not direct, (a, b)
    for name, theta in (("B3", ()), ("D4", ()), ("C3", (2,))):
        rs = build_root_system(LieType.parse(name))
        fs = make_functional_set(build_t_roots(make_flag(rs, frozenset(theta))).t_roots)
        for a in fs.class_reps():
            dist = class_distances(fs, a)
            for b in fs.class_reps():
                if b != a:
                    assert len(chain_between(fs, a, b).triples) == dist[b], (name, a, b)


def test_chain_queries_share_one_enumeration_per_set():
    # a set no other test builds, so its first query is a cache miss
    s = make_functional_set(
        tuple(3 * x for x in r.coords) for r in build_root_system(LieType("A", 3)).all_roots
    )
    misses = zero_sum_triples.cache_info().misses
    report = connectivity(s)
    chains = [chain_between(s, a, b) for a, b in itertools.combinations(s.class_reps(), 2)]
    assert zero_sum_triples.cache_info().misses == misses + 1
    assert connectivity(s) is report  # one report per set, shared by its callers
    assert [chain_between(s, a, b) for a, b in itertools.combinations(s.class_reps(), 2)] == chains


def test_report_json_deterministic():
    s = root_functionals("B", 2)
    one = json.dumps(connectivity(s).to_json_dict(), sort_keys=True)
    two = json.dumps(connectivity(s).to_json_dict(), sort_keys=True)
    assert one == two
    assert '"connected": true' in one


@st.composite
def negation_closed_sets(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    raw = draw(
        st.sets(
            st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim),
            min_size=1,
            max_size=12,
        )
    )
    vecs = {v for v in raw if any(v)}
    vecs |= {tuple(-x for x in v) for v in vecs}
    return sorted(vecs)


@settings(max_examples=60, deadline=None)
@given(negation_closed_sets())
def test_triples_match_oracle_on_random_sets(vecs):
    s = make_functional_set(vecs)
    assert [t.members for t in zero_sum_triples(s)] == sorted(triple_oracle(s.vectors))


@settings(max_examples=60, deadline=None)
@given(negation_closed_sets())
def test_connectivity_matches_oracle_on_random_sets(vecs):
    s = make_functional_set(vecs)
    report = connectivity(s)
    assert {frozenset(c) for c in report.components} == component_oracle(s)
    assert report.connected == (len(report.components) <= 1)
    for chain in report.witness_chains:
        chain.validate()


def test_class_rep_is_lex_max():
    assert pm_class_rep((1, -2)) == (1, -2)
    assert pm_class_rep((-1, 2)) == (1, -2)
