"""Zero-sum triples and the connectivity relation they generate.

Functionals are plain integer tuples, so the same machinery serves the
roots of a root system and the t-roots of a flag.  A triple is a multiset:
{v, v, w} with 2v + w = 0 counts, which matters for flags whose t-roots
include both a functional and its double.  Connectivity is taken on
sign classes {v, -v}, two classes being adjacent when some triple meets
both.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvariantViolationError,
    NotConnectedError,
)

Vec = tuple[int, ...]


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def pm_class_rep(v: Vec) -> Vec:
    """Canonical representative of the sign class {v, -v}: the lex-larger one."""
    return max(v, _neg(v))


def _coerce(item) -> Vec:
    if isinstance(item, tuple):
        return item
    coords = getattr(item, "coords", None)
    if coords is None:
        raise InvalidInputError(f"cannot read {item!r} as an integer vector")
    return tuple(coords)


@dataclass(frozen=True)
class FunctionalSet:
    """A finite negation-closed set of nonzero integer vectors."""

    vectors: frozenset[Vec]

    def __contains__(self, v: Vec) -> bool:
        return v in self.vectors

    def class_reps(self) -> tuple[Vec, ...]:
        return tuple(sorted({pm_class_rep(v) for v in self.vectors}))


def make_functional_set(items) -> FunctionalSet:
    """Build a FunctionalSet from tuples or anything carrying `.coords`."""
    vectors = frozenset(_coerce(item) for item in items)
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed vector lengths {sorted(dims)}")
    for v in vectors:
        if not any(v):
            raise InvalidInputError("zero vector is not a functional")
        if _neg(v) not in vectors:
            raise InvalidInputError(f"{v} present without its negative")
    return FunctionalSet(vectors)


@dataclass(frozen=True)
class ZeroSumTriple:
    """A multiset of three functionals summing to zero, stored sorted."""

    members: tuple[Vec, Vec, Vec]

    def __post_init__(self):
        members = tuple(sorted(self.members))
        if len(members) != 3:
            raise InvalidInputError("a triple needs exactly three members")
        object.__setattr__(self, "members", members)
        dim = len(members[0])
        if any(len(v) != dim for v in members):
            raise DimensionMismatchError("triple members of mixed lengths")
        if any(not any(v) for v in members):
            raise InvalidInputError("zero vector inside a triple")
        if any(sum(col) != 0 for col in zip(*members)):
            raise InvalidInputError(f"members of {members} do not sum to zero")

    def classes(self) -> frozenset[Vec]:
        return frozenset(pm_class_rep(v) for v in self.members)

    def contains_class(self, v: Vec) -> bool:
        return pm_class_rep(v) in self.classes()

    def to_json_dict(self) -> list[list[int]]:
        return [list(v) for v in self.members]


def zero_sum_triples(s: FunctionalSet) -> tuple[ZeroSumTriple, ...]:
    """Every multiset {a, b, c} ⊆ s with a + b + c = 0, in canonical order."""
    vecs = sorted(s.vectors)
    found = set()
    for a, b in itertools.combinations_with_replacement(vecs, 2):
        c = _neg(tuple(x + y for x, y in zip(a, b)))
        if c >= b and c in s.vectors:
            found.add(ZeroSumTriple((a, b, c)))
    return tuple(sorted(found, key=lambda t: t.members))


@dataclass(frozen=True)
class TzsChain:
    """A path of pairwise-meeting zero-sum triples joining two functionals."""

    endpoints: tuple[Vec, Vec]
    triples: tuple[ZeroSumTriple, ...]

    def validate(self) -> None:
        if not self.triples:
            raise InvariantViolationError("empty chain")
        first, last = self.triples[0], self.triples[-1]
        if not first.contains_class(self.endpoints[0]):
            raise InvariantViolationError("first triple misses the start functional")
        if not last.contains_class(self.endpoints[1]):
            raise InvariantViolationError("last triple misses the end functional")
        for t, u in zip(self.triples, self.triples[1:]):
            if not (t.classes() & u.classes()):
                raise InvariantViolationError("consecutive triples do not meet")

    def to_json_dict(self) -> dict:
        return {
            "endpoints": [list(self.endpoints[0]), list(self.endpoints[1])],
            "triples": [t.to_json_dict() for t in self.triples],
        }


@dataclass(frozen=True)
class ConnectivityReport:
    """Sign-class components under the triple relation, with chain witnesses."""

    connected: bool
    class_reps: tuple[Vec, ...]
    components: tuple[tuple[Vec, ...], ...]
    triples: tuple[ZeroSumTriple, ...]
    witness_chains: tuple[TzsChain, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "connected": self.connected,
            "classes": [list(v) for v in self.class_reps],
            "components": [[list(v) for v in comp] for comp in self.components],
            "triples": [t.to_json_dict() for t in self.triples],
            "witness_chains": [c.to_json_dict() for c in self.witness_chains],
        }


def _adjacency(reps, triples):
    adj: dict[Vec, list[tuple[Vec, ZeroSumTriple]]] = {r: [] for r in reps}
    for t in triples:
        cls = sorted(t.classes())
        for a, b in itertools.combinations(cls, 2):
            adj[a].append((b, t))
            adj[b].append((a, t))
    return adj


def _bfs_tree(base: Vec, adj) -> dict[Vec, tuple[Vec, ZeroSumTriple]]:
    """Parent pointers (predecessor class, connecting triple) from `base`."""
    tree: dict[Vec, tuple[Vec, ZeroSumTriple]] = {}
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for node in frontier:
            for other, t in adj[node]:
                if other not in seen:
                    seen.add(other)
                    tree[other] = (node, t)
                    nxt.append(other)
        frontier = sorted(nxt)
    return tree


def _chain_from_tree(a: Vec, b: Vec, tree) -> TzsChain:
    """The chain from a to b, walking tree pointers from b's class to a's."""
    base, node = pm_class_rep(a), pm_class_rep(b)
    path = []
    while node != base:
        parent, t = tree[node]
        path.append(t)
        node = parent
    chain = TzsChain((a, b), tuple(reversed(path)))
    chain.validate()
    return chain


def connectivity(s: FunctionalSet) -> ConnectivityReport:
    """Partition the sign classes by the triple relation.

    Connected means at most one component; a lone class with no triples is
    connected vacuously.  Each non-base class of a component gets a witness
    chain from the component's first class.
    """
    reps = s.class_reps()
    triples = zero_sum_triples(s)
    adj = _adjacency(reps, triples)

    comps: list[tuple[Vec, ...]] = []
    chains: list[TzsChain] = []
    placed: set[Vec] = set()
    for base in reps:
        if base in placed:
            continue
        tree = _bfs_tree(base, adj)
        members = tuple(sorted([base, *tree]))
        placed.update(members)
        comps.append(members)
        for target in sorted(tree):
            chains.append(_chain_from_tree(base, target, tree))
    report = ConnectivityReport(
        connected=len(comps) <= 1,
        class_reps=reps,
        components=tuple(sorted(comps)),
        triples=triples,
        witness_chains=tuple(chains),
    )
    return report


def chain_between(s: FunctionalSet, a, b) -> TzsChain:
    """A shortest chain of meeting triples joining the classes of a and b."""
    a, b = _coerce(a), _coerce(b)
    if a not in s.vectors or b not in s.vectors:
        raise InvalidInputError("endpoints must belong to the functional set")
    if pm_class_rep(a) == pm_class_rep(b):
        raise InvalidInputError("endpoints lie in the same sign class")
    adj = _adjacency(s.class_reps(), zero_sum_triples(s))
    base, target = pm_class_rep(a), pm_class_rep(b)
    tree = _bfs_tree(base, adj)
    if target not in tree:
        raise NotConnectedError(f"{a} and {b} are not connected by zero-sum triples")
    return _chain_from_tree(a, b, tree)
