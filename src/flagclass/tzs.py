"""Zero-sum triples and the connectivity relation they generate.

Functionals are plain integer tuples, so the same machinery serves the
roots of a root system and the t-roots of a flag.  A triple is a multiset:
{v, v, w} with 2v + w = 0 counts, which matters for flags whose t-roots
include both a functional and its double.  Connectivity is taken on
sign classes {v, -v}, two classes being adjacent when some triple meets
both.
"""
from __future__ import annotations

import functools
import itertools
from operator import neg
from types import MappingProxyType

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvariantViolationError,
    NotConnectedError,
    _Frozen,
)

Vec = tuple[int, ...]


def _neg(v: Vec) -> Vec:
    return tuple(map(neg, v))


def pm_class_rep(v: Vec) -> Vec:
    """Canonical representative of the sign class {v, -v}: the lex-larger one.

    That is v when its first nonzero coordinate is positive, that is when v
    is lex-larger than the zero vector.
    """
    return v if v > (0,) * len(v) else _neg(v)


def _int_vec(v) -> Vec:
    if any(type(x) is not int for x in v):
        raise InvalidInputError(f"{v!r} has a coordinate that is not an int")
    return v


def _coerce(item) -> Vec:
    if isinstance(item, tuple):
        return _int_vec(item)
    coords = getattr(item, "coords", None)
    if coords is None:
        raise InvalidInputError(f"cannot read {item!r} as an integer vector")
    return _int_vec(tuple(coords))


class FunctionalSet(_Frozen):
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


class ZeroSumTriple(_Frozen):
    """A multiset of three functionals summing to zero, stored sorted, with its sign classes."""

    __slots__ = ("members", "_classes")
    members: tuple[Vec, Vec, Vec]

    def __init__(self, members: tuple[Vec, Vec, Vec]):
        members = tuple(sorted(_coerce(v) for v in members))
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
        object.__setattr__(self, "_classes", frozenset(pm_class_rep(v) for v in members))

    def classes(self) -> frozenset[Vec]:
        return self._classes

    def contains_class(self, v: Vec) -> bool:
        return pm_class_rep(v) in self.classes()

    def to_json_dict(self) -> list[list[int]]:
        return [list(v) for v in self.members]


@functools.lru_cache(maxsize=None)
def zero_sum_triples(s: FunctionalSet) -> tuple[ZeroSumTriple, ...]:
    """Every multiset {a, b, c} ⊆ s with a + b + c = 0, in canonical order.

    Members a <= b <= c come once, from the one pair (a, b), in lexicographic order.
    """
    vecs = sorted(s.vectors)
    out = []
    for a, b in itertools.combinations_with_replacement(vecs, 2):
        c = _neg(tuple(x + y for x, y in zip(a, b)))
        if c >= b and c in s.vectors:
            out.append(ZeroSumTriple((a, b, c)))
    return tuple(out)


class TzsChain(_Frozen):
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


class ConnectivityReport(_Frozen):
    """Sign-class components under the triple relation, with chain witnesses."""

    connected: bool
    class_reps: tuple[Vec, ...]
    components: tuple[tuple[Vec, ...], ...]
    triples: tuple[ZeroSumTriple, ...]
    witness_chains: tuple[TzsChain, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "connected": self.connected,
            "classes": [list(v) for v in self.class_reps],
            "components": [[list(v) for v in comp] for comp in self.components],
            "triples": [t.to_json_dict() for t in self.triples],
            "witness_chains": [c.to_json_dict() for c in self.witness_chains],
        }


@functools.lru_cache(maxsize=None)
def _adjacency(s: FunctionalSet) -> MappingProxyType:
    adj: dict[Vec, list[tuple[Vec, ZeroSumTriple]]] = {r: [] for r in s.class_reps()}
    for t in zero_sum_triples(s):
        cls = sorted(t.classes())
        for a, b in itertools.combinations(cls, 2):
            adj[a].append((b, t))
            adj[b].append((a, t))
    return MappingProxyType({r: tuple(pairs) for r, pairs in adj.items()})


@functools.lru_cache(maxsize=None)
def _bfs_tree(s: FunctionalSet, base: Vec) -> MappingProxyType:
    """Parent pointers (predecessor class, connecting triple) from `base`; one search per class."""
    adj = _adjacency(s)
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
    return MappingProxyType(tree)


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


@functools.lru_cache(maxsize=None)
def connectivity(s: FunctionalSet) -> ConnectivityReport:
    """Partition the sign classes by the triple relation.

    Connected means at most one component; a lone class with no triples is
    connected vacuously.  Each non-base class of a component gets a witness
    chain from the component's first class.  One report per set, shared by
    every caller that asks about it.
    """
    reps = s.class_reps()
    comps: list[tuple[Vec, ...]] = []
    chains: list[TzsChain] = []
    placed: set[Vec] = set()
    for base in reps:
        if base in placed:
            continue
        tree = _bfs_tree(s, base)
        members = tuple(sorted([base, *tree]))
        placed.update(members)
        comps.append(members)
        for target in sorted(tree):
            chains.append(_chain_from_tree(base, target, tree))
    return ConnectivityReport(
        len(comps) <= 1, reps, tuple(sorted(comps)), zero_sum_triples(s), tuple(chains)
    )


def chain_between(s: FunctionalSet, a, b) -> TzsChain:
    """A shortest chain of meeting triples joining the classes of a and b."""
    a, b = _coerce(a), _coerce(b)
    if a not in s.vectors or b not in s.vectors:
        raise InvalidInputError("endpoints must belong to the functional set")
    if pm_class_rep(a) == pm_class_rep(b):
        raise InvalidInputError("endpoints lie in the same sign class")
    base, target = pm_class_rep(a), pm_class_rep(b)
    tree = _bfs_tree(s, base)
    if target not in tree:
        raise NotConnectedError(f"{a} and {b} are not connected by zero-sum triples")
    return _chain_from_tree(a, b, tree)
