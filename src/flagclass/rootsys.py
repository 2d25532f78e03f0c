"""Irreducible root systems over exact rational arithmetic.

Roots are integer coordinate vectors over the simple basis in Bourbaki
numbering.  Inner products come from the Gram matrix of the simple roots,
normalized so that long roots have squared length 2, and held also as the
int matrix M * gram, M its least common denominator: a pairing is one int dot
product, which `inner_product` divides by M once; never a float.  The
Chevalley and Weyl layers read `RootSystem.root_table` instead: the sums,
lengths and simple reflections of all roots as positions and ints, built
once per system.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from functools import cached_property
from operator import add, mul

from .errors import (
    DimensionMismatchError,
    InvalidLieTypeError,
    RootArgumentError,
    _Frozen,
)

Q = Fraction

# family -> (min rank, max rank or None)
_RANK_RULES: dict[str, tuple[int, int | None]] = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def types_up_to(max_rank: int) -> list[LieType]:
    """Every simple type with rank at most max_rank, by rank then family."""
    return [
        LieType(family, rank)
        for rank in range(1, max_rank + 1)
        for family, (lo, hi) in sorted(_RANK_RULES.items())
        if rank >= lo and (hi is None or rank <= hi)
    ]


def proper_subsets(rank: int):
    """Painted sets in sweep order: by size, then lexicographically."""
    for size in range(rank):
        yield from itertools.combinations(range(1, rank + 1), size)


_TYPE_RE = re.compile(r"^([A-Ga-g])\s*(\d+)$")


class LieType(_Frozen):
    """A simple Lie type, e.g. LieType('A', 3)."""

    __slots__ = ("family", "rank")
    family: str
    rank: int

    def __init__(self, family: str, rank: int) -> None:
        fam = str(family).upper()
        if fam not in _RANK_RULES:
            raise InvalidLieTypeError(f"unknown family {fam!r}")
        lo, hi = _RANK_RULES[fam]
        if type(rank) is not int:
            raise InvalidLieTypeError(f"rank must be an int, got {rank!r}")
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidLieTypeError(f"rank {rank} out of bounds for family {fam}")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """Parse a combined label such as 'A3' or 'g2' (case-insensitive)."""
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise InvalidLieTypeError(f"cannot parse Lie type from {text!r}")
        return cls(m.group(1).upper(), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class _Coords(_Frozen):
    """An integer coordinate vector; the shared base of `Root` and `flag.TRoot`.

    Equality needs the same class, so a root never equals a t-root, and
    negation and addition return the class of the left operand.
    """

    __slots__ = ("coords",)
    coords: tuple[int, ...]

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", tuple(coords))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __neg__(self):
        return self.__class__(tuple(-a for a in self.coords))

    def __add__(self, other):
        return self.__class__(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def is_positive(self) -> bool:
        return any(self.coords) and all(a >= 0 for a in self.coords)


class Root(_Coords):
    """A root as its integer coefficient tuple over the simple basis."""

    __slots__ = ()

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def scaled(self, k: int) -> "Root":
        return Root(tuple(k * a for a in self.coords))

    @property
    def height(self) -> int:
        return sum(self.coords)

    def support(self) -> frozenset[int]:
        """1-based indices of the nonzero coefficients."""
        return frozenset(i + 1 for i, a in enumerate(self.coords) if a)


def _sort_key(r: Root) -> tuple[int, tuple[int, ...]]:
    return (r.height, r.coords)


def _gram_matrix(t: LieType) -> tuple[tuple[Q, ...], ...]:
    """Gram matrix of the simple roots, long roots normalized to length^2 = 2."""
    n = t.rank
    diag = [Q(2)] * n
    off: dict[tuple[int, int], Q] = {}

    def edge(i: int, j: int, val: Q) -> None:
        off[(i, j)] = val
        off[(j, i)] = val

    fam = t.family
    if fam == "A":
        for i in range(n - 1):
            edge(i, i + 1, Q(-1))
    elif fam == "B":
        diag[n - 1] = Q(1)
        for i in range(n - 1):
            edge(i, i + 1, Q(-1))
    elif fam == "C":
        for i in range(n - 1):
            diag[i] = Q(1)
        for i in range(n - 2):
            edge(i, i + 1, Q(-1, 2))
        edge(n - 2, n - 1, Q(-1))
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1, Q(-1))
        edge(n - 3, n - 1, Q(-1))
    elif fam == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 hangs off node 4.
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            edge(a, b, Q(-1))
        edge(1, 3, Q(-1))
    elif fam == "F":
        diag = [Q(2), Q(2), Q(1), Q(1)]
        edge(0, 1, Q(-1))
        edge(1, 2, Q(-1))
        edge(2, 3, Q(-1, 2))
    elif fam == "G":
        diag = [Q(2, 3), Q(2)]
        edge(0, 1, Q(-1))

    rows = []
    for i in range(n):
        rows.append(tuple(diag[i] if i == j else off.get((i, j), Q(0)) for j in range(n)))
    return tuple(rows)


class RootSystem(_Frozen, eq=False):
    """An irreducible root system; immutable after construction.

    `build_root_system` sorts all_roots by height, then coordinates, so the
    negative roots fill its lower half and the positive roots its upper half.
    """

    lie_type: LieType
    simple_roots: tuple[Root, ...]
    all_roots: tuple[Root, ...]
    gram: tuple[tuple[Q, ...], ...]

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @cached_property
    def root_set(self) -> frozenset[Root]:
        return frozenset(self.all_roots)

    @cached_property
    def index(self) -> dict[Root, int]:
        return {r: i for i, r in enumerate(self.all_roots)}

    @cached_property
    def int_gram(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(M, M * gram): the least positive M that makes the Gram matrix integral."""
        m = math.lcm(*(g.denominator for row in self.gram for g in row))
        return m, tuple(tuple(g.numerator * (m // g.denominator) for g in row) for row in self.gram)

    @cached_property
    def root_table(self) -> tuple[dict, tuple, tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(label, plus, length, reflect) on positions in `all_roots`, built in ints once.

        label maps coords to position; plus[i][j] is the position of root i +
        root j, len(all_roots) when the sum is 0 and None when it is no root;
        length[i] is M (r, r), M the `int_gram` scale; reflect[k][j] is the
        position of s_{k+1}(root j) = b - <b, alpha_{k+1}> alpha_{k+1}.
        """
        coords = [r.coords for r in self.all_roots]
        label = {c: i for i, c in enumerate(coords)}
        sums = {**label, (0,) * self.rank: len(coords)}
        plus = tuple(tuple(sums.get(tuple(map(add, a, b))) for b in coords) for a in coords)
        gram = self.int_gram[1]
        # pair[j][k] = M (root j, alpha_k): the Gram matrix is symmetric
        pair = [tuple(sum(map(mul, c, row)) for row in gram) for c in coords]
        length = tuple(sum(map(mul, c, p)) for c, p in zip(coords, pair))
        reflect = tuple(
            tuple(
                label[c[:k] + (c[k] - 2 * p[k] // gram[k][k],) + c[k + 1:]]
                for c, p in zip(coords, pair)
            )
            for k in range(self.rank)
        )
        return label, plus, length, reflect

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in self.all_roots if r.is_positive())

    def contains(self, r: Root) -> bool:
        return r in self.root_set

    def dynkin_edges(self) -> tuple[tuple[int, int], ...]:
        """1-based index pairs (i, j), i < j, of adjacent simple roots."""
        n = self.rank
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                if self.gram[i][j] != 0:
                    out.append((i + 1, j + 1))
        return tuple(out)


def _scaled_product(rs: RootSystem, a: Root, b: Root) -> int:
    """M (a, b), M the scale of `rs.int_gram`."""
    n = rs.rank
    if len(a.coords) != n or len(b.coords) != n:
        raise DimensionMismatchError(
            f"expected vectors of length {n}, got {len(a.coords)} and {len(b.coords)}"
        )
    rows = rs.int_gram[1]
    return sum(ai * sum(map(mul, rows[i], b.coords)) for i, ai in enumerate(a.coords) if ai)


def inner_product(rs: RootSystem, a: Root, b: Root) -> Q:
    """Exact bilinear form on integer coefficient vectors."""
    return Q(_scaled_product(rs, a, b), rs.int_gram[0])


def cartan_pairing(rs: RootSystem, b: Root, a: Root) -> int:
    """2(b,a)/(a,a); an integer whenever a is a root."""
    val, rem = divmod(2 * _scaled_product(rs, b, a), _scaled_product(rs, a, a))
    if rem:
        raise RootArgumentError(f"pairing of {b} against {a} is not integral")
    return val


@functools.lru_cache(maxsize=None)
def build_root_system(t: LieType) -> RootSystem:
    """Generate all roots from the Gram matrix by root-string closure.

    Positive roots are grown height by height: for each known root b and
    simple root a, the string count p (how far b - k*a stays a root) plus
    the pairing <b, a> decides whether b + a is a root.  Levels below the
    current height are always complete, so membership scans are sound.
    """
    gram = _gram_matrix(t)
    n = t.rank
    simple = tuple(Root(tuple(1 if j == i else 0 for j in range(n))) for i in range(n))
    shell = RootSystem(t, simple, simple, gram)  # enough for inner_product

    known: set[Root] = set(simple)
    level = list(simple)
    while level:
        grown: list[Root] = []
        for beta in level:
            for i, alpha in enumerate(simple):
                p = 0
                down = beta - alpha
                while down in known:
                    p += 1
                    down = down - alpha
                q = p - cartan_pairing(shell, beta, alpha)
                if q >= 1:
                    gamma = beta + alpha
                    if gamma not in known:
                        known.add(gamma)
                        grown.append(gamma)
        level = grown

    positives = sorted(known, key=_sort_key)
    everything = sorted([(-r) for r in positives] + positives, key=_sort_key)
    return RootSystem(t, simple, tuple(everything), gram)


def root_string(rs: RootSystem, a: Root, b: Root) -> tuple[int, int]:
    """(p, q) for the a-string through b: b - p*a, ..., b + q*a."""
    if a not in rs.root_set or b not in rs.root_set:
        raise RootArgumentError("root_string arguments must be roots")
    if b == a or b == -a:
        raise RootArgumentError("the string through b = +/-a is degenerate")
    p = 0
    cur = b - a
    while cur in rs.root_set:
        p += 1
        cur = cur - a
    q = 0
    cur = b + a
    while cur in rs.root_set:
        q += 1
        cur = cur + a
    if p - q != cartan_pairing(rs, b, a):
        raise RootArgumentError(f"broken string through {b} in direction {a}")
    return (p, q)


def simple_reflection(rs: RootSystem, i: int, b: Root) -> Root:
    """Image of root b under the reflection in the i-th simple root (1-based)."""
    if type(i) is not int or not 1 <= i <= rs.rank:
        raise RootArgumentError(f"simple root index {i!r} is no int in 1..{rs.rank}")
    if b not in rs.root_set:
        raise RootArgumentError(f"{b} is not a root")
    alpha = rs.simple_roots[i - 1]
    image = b - alpha.scaled(cartan_pairing(rs, b, alpha))
    if image not in rs.root_set:
        raise RootArgumentError(f"reflection left the root system at {b}")
    return image
