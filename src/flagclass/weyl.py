"""Weyl group elements and their action on invariant structures.

An element is stored as the permutation it induces on the canonical root
list, which makes composition a table lookup and equality a tuple
comparison.  The group is generated by the simple reflections under a
breadth-first sweep, so element order is deterministic: by word length,
then lexicographically by permutation.

For a painted diagram, the elements fixing the unpainted subsystem R_Theta
setwise also permute the fibers of the t-projection, hence act on sign
vectors and metrics by relabeling the positive classes.  The stabilizer is
checked against Howlett's factorization and the fiber permutation at the
point of use, rather than assumed.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property
from itertools import compress
from operator import itemgetter

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidInputError,
    InvariantViolationError,
    NotInSubgroupError,
    _Frozen,
)
from .flag import FlagSpec, build_t_roots
from .rootsys import LieType, Root, RootSystem, _check_roots, inner_product
from .structures import IACS, InvariantMetric, _check_cap, _check_lengths

WEYL_CAP = 10**6

_EXCEPTIONAL_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600}


def weyl_order(t: LieType) -> int:
    """Order of the Weyl group, from the classical closed forms."""
    n = t.rank
    if t.family == "A":
        return math.factorial(n + 1)
    if t.family in ("B", "C"):
        return 2**n * math.factorial(n)
    if t.family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    if t.family == "F":
        return 1152
    if t.family == "G":
        return 12
    return _EXCEPTIONAL_ORDERS[f"E{n}"]


class WeylElement(_Frozen):
    """A group element as a permutation of the canonical root list.

    perm[i] is the position of the image of the i-th root, so applying
    an element never leaves the root system by construction.  Linearity
    and inner-product invariance are inherited from the generating
    reflections; preserves_inner_products re-derives the latter from
    scratch when a test wants the claim checked rather than trusted.
    """

    __slots__ = ("perm",)
    perm: tuple[int, ...]

    def __init__(self, perm: tuple[int, ...]) -> None:
        if (
            not isinstance(perm, Sequence)
            or not set(map(type, perm)) <= {int}
            or sorted(perm) != list(range(len(perm)))
        ):
            raise InvalidInputError(f"perm is not a permutation of the root indices: {perm!r}")
        object.__setattr__(self, "perm", tuple(perm))

    def apply(self, rs: RootSystem, b: Root) -> Root:
        _check_roots(b)
        idx = rs.index.get(b)
        if idx is None:
            raise InvalidInputError(f"{b} is not a root of this system")
        if len(self.perm) != len(rs.all_roots):
            raise DimensionMismatchError(
                f"element acts on {len(self.perm)} roots, system has {len(rs.all_roots)}"
            )
        return rs.all_roots[self.perm[idx]]

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other."""
        if len(self.perm) != len(other.perm):
            raise DimensionMismatchError("cannot compose elements of different systems")
        return WeylElement(tuple(self.perm[j] for j in other.perm))

    @property
    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def preserves_inner_products(self, rs: RootSystem) -> bool:
        roots = rs.all_roots
        images = [roots[p] for p in self.perm]
        for i, a in enumerate(roots):
            for j in range(i, len(roots)):
                if inner_product(rs, a, roots[j]) != inner_product(rs, images[i], images[j]):
                    return False
        return True


class WeylGroup(_Frozen, eq=False):
    rs: RootSystem
    elements: tuple[WeylElement, ...]
    generators: tuple[WeylElement, ...]

    @cached_property
    def _simple_images(self) -> dict[int, bytes]:
        """images[a]: byte k is the position of the image under element k of the
        simple root at position a, read off this group's own elements.  A
        position fits in one byte: no system has more than 240 roots (E8)."""
        perms = [e.perm for e in self.elements]
        return {
            a: bytes(map(itemgetter(a), perms))
            for a in map(self.rs.index.__getitem__, self.rs.simple_roots)
        }

    @cached_property
    def _place(self) -> dict[tuple[int, ...], int]:
        """Each element's permutation -> its place in `elements`."""
        return {e.perm: k for k, e in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]


def generate_weyl(rs: RootSystem, cap: int = WEYL_CAP) -> WeylGroup:
    """Generate the full group from the simple reflections.

    The cap is checked against the closed-form order before any element is
    built, and the final count against the same formula afterwards."""
    _check_cap(cap)
    projected = weyl_order(rs.lie_type)
    if projected > cap:
        raise CapExceededError(
            f"Weyl group of {rs.lie_type} has order {projected}, over the cap of {cap}"
        )
    generators = tuple(WeylElement(perm) for perm in rs.root_table[3])
    # composites of checked generators are permutations: no check per element
    closure = _closure(rs, generators, range(1, rs.rank + 1), projected)
    elements = [_element(perm) for perm in closure]
    if len(elements) != projected:
        raise InvariantViolationError(
            f"generated {len(elements)} elements of {rs.lie_type}, closed form says {projected}"
        )
    return WeylGroup(rs, tuple(elements), generators)


def _element(perm: tuple[int, ...]) -> WeylElement:
    """A WeylElement on a tuple known to be a permutation, without WeylElement's check."""
    e = object.__new__(WeylElement)
    object.__setattr__(e, "perm", perm)
    return e


def _closure(rs: RootSystem, generators, indices, limit: int) -> list[tuple[int, ...]]:
    """Permutations generated by the simple reflections generators[i - 1], i in
    indices, by word length, then by permutation.

    w s_i is one longer than w exactly when w(alpha_i) is a positive root, so
    each level is the images of the one before under their ascents and meets
    no earlier level.  The sweep composes bare tuples: w after s is
    itemgetter(*s.perm)(w).  More than limit permutations means the
    generators are no simple reflections, an InvariantViolationError.
    """
    n = len(rs.all_roots)
    # all_roots is sorted by height: the positive roots are its upper half
    half = n // 2
    steps = [
        (rs.index[rs.simple_roots[i - 1]], itemgetter(*generators[i - 1].perm)) for i in indices
    ]
    out = frontier = [tuple(range(n))]
    while frontier:
        frontier = sorted({step(w) for w in frontier for a, step in steps if w[a] >= half})
        out.extend(frontier)
        if len(out) > limit:
            raise InvariantViolationError(f"generators of {rs.lie_type} give over {limit} elements")
    return out


def _a_theta_test(f: FlagSpec):
    """Positions of Delta_Theta and of R_Theta, and the membership test for A_Theta
    on permutations: w fixes R_Theta = R ∩ span(Delta_Theta) setwise iff
    w(Delta_Theta) ⊆ R_Theta, as w is linear and a bijection of R that maps
    R_Theta into itself fixes it."""
    index = f.rs.index
    simple = tuple(index[f.rs.simple_roots[i - 1]] for i in sorted(f.theta))
    theta = frozenset(index[r] for r in f.r_theta)
    return simple, theta, lambda perm: theta.issuperset(map(perm.__getitem__, simple))


def _kept(w: WeylGroup, simple, targets) -> bytes:
    """One byte per element of w, in group order: 1 when the element sends every
    position in simple to a position in targets, else 0.  Each simple root's
    byte column is translated by a 256-byte membership table of targets, and
    the columns are ANDed as ints."""
    table = bytearray(256)
    for r in targets:
        table[r] = 1
    order = len(w.elements)
    kept = int.from_bytes(b"\x01" * order, "big")
    for a in simple:
        kept &= int.from_bytes(w._simple_images[a].translate(table), "big")
    return kept.to_bytes(order, "big")


def a_theta(w: WeylGroup, f: FlagSpec) -> tuple[WeylElement, ...]:
    """Elements fixing the unpainted subsystem R_Theta setwise, in group order.

    Read off `_kept`, one byte per element from the elements of w itself,
    and checked against Howlett's A_Theta = W_Theta ⋊ N_Theta (J. London
    Math. Soc. 21, 1980): W_Theta, from Theta's reflections by
    generate_weyl's closure, lies inside, and N_Theta, the kept w with
    w(Delta_Theta) = Delta_Theta, fills the count."""
    if w.rs is not f.rs:
        raise InvalidInputError("group and flag were built from different root systems")
    simple, theta, _ = _a_theta_test(f)
    kept = _kept(w, simple, theta)
    place = w._place
    w_theta = _closure(f.rs, w.generators, sorted(f.theta), len(w.elements))
    inside = all((k := place.get(p)) is not None and kept[k] for p in w_theta)
    kept_count, n_theta = kept.count(1), _kept(w, simple, simple).count(1)
    if not inside or kept_count != len(w_theta) * n_theta:
        raise InvariantViolationError(
            f"kept {kept_count}, |W_Theta| = {len(w_theta)} (inside: {inside}),"
            f" |N_Theta| = {n_theta}"
        )
    return tuple(compress(w.elements, kept))


def act_on_structure(
    omega: WeylElement, f: FlagSpec, j: IACS, g: InvariantMetric
) -> tuple[IACS, InvariantMetric]:
    """Pull back a sign vector and metric along an element of A_Theta.

    The new value at the class of beta is the old value at the class of
    omega(beta), read from `root_class`; omega maps R_M onto itself, as it
    fixes R_Theta.  That is well defined only if omega permutes the fibers,
    which is re-derived here for every class instead of assumed: all roots
    of one fiber must land in a single class.
    """
    ts = build_t_roots(f)
    if len(omega.perm) != len(f.rs.all_roots):
        raise DimensionMismatchError("element and flag live on different root systems")
    _, _, member = _a_theta_test(f)
    if not member(omega.perm):
        raise NotInSubgroupError("element does not fix the unpainted subsystem R_Theta")
    _check_lengths(ts, j=j, g=g)
    new_signs = []
    new_lams = []
    for t in ts.positive:
        targets = {ts.root_class[omega.apply(f.rs, b)] for b in ts.fiber(t)}
        if len(targets) != 1:
            raise InvariantViolationError(
                f"fiber of {t} lands in {len(targets)} classes under the action"
            )
        ((idx, sgn),) = targets
        new_signs.append(sgn * j.signs[idx])
        new_lams.append(g.lambdas[idx])
    return IACS(tuple(new_signs)), InvariantMetric(tuple(new_lams))


def orbits(
    w_sub: tuple[WeylElement, ...], f: FlagSpec, structures
) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of (sign vector, metric) pairs under a subgroup.

    Returns index tuples into the input sequence, each sorted ascending,
    ordered by representative; the representative of an orbit is its
    minimal index.  The input must be closed under the action, and the
    elements must act as a group on it: each orbit holds its own seed and
    no two orbits meet.
    """
    pairs = list(structures)
    index_of = {}
    for i, (j, g) in enumerate(pairs):
        key = (j.signs, g.lambdas)
        if key in index_of:
            raise InvalidInputError(f"structures {index_of[key]} and {i} are duplicates")
        index_of[key] = i
    out = []
    visited = set()
    for i, (j, g) in enumerate(pairs):
        if i in visited:
            continue
        orbit = set()
        for elem in w_sub:
            jj, gg = act_on_structure(elem, f, j, g)
            hit = index_of.get((jj.signs, gg.lambdas))
            if hit is None:
                raise InvalidInputError(
                    f"image of structure {i} is missing: input is not closed under the action"
                )
            orbit.add(hit)
        if i not in orbit or not visited.isdisjoint(orbit):
            raise InvalidInputError(
                f"orbit of structure {i} is no partition block: the elements are not a group"
            )
        visited |= orbit
        out.append(tuple(sorted(orbit)))
    return tuple(out)
