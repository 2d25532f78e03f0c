"""Painted Dynkin diagrams and the restricted-root combinatorics they induce.

A flag is a root system together with a subset Theta of unpainted simple
nodes; the complementary painted nodes index the coordinates that survive
restriction to the center of the isotropy subalgebra.  Restricted
functionals (t-roots) are handled as the coefficient tuples over the
painted nodes.  The components of the painted part and the bridge roots
between them are read off the supports of the positive roots.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from functools import cached_property

from .errors import (
    InvalidInputError,
    InvariantViolationError,
    NotAFlagManifoldError,
    NotConnectedError,
    ProjectsToZeroError,
    RootArgumentError,
    _Frozen,
)
from .rootsys import Root, RootSystem, _check_roots, _Coords


class TRoot(_Coords):
    """A restricted functional as its coefficient tuple over the painted nodes."""

    __slots__ = ()


class FlagSpec(_Frozen):
    """A flag manifold datum: root system plus the unpainted-node subset Theta."""

    rs: RootSystem
    theta: frozenset[int]
    r_theta: frozenset[Root]
    r_m: frozenset[Root]
    sigma_m: tuple[int, ...]

    def label(self) -> str:
        idx = ",".join(str(i) for i in sorted(self.theta))
        return f"{self.rs.lie_type} theta={idx}"

    def paint_label(self) -> str:
        return f"{self.rs.lie_type} : paint {','.join(str(i) for i in self.sigma_m)}"


def make_flag(rs: RootSystem, theta) -> FlagSpec:
    """Build the flag for unpainted nodes `theta` (1-based simple root indices, ints)."""
    try:
        theta = tuple(theta)
    except TypeError:
        raise InvalidInputError(f"theta must be an iterable of ints, got {theta!r}") from None
    if any(type(i) is not int for i in theta):
        raise InvalidInputError(f"theta entries must be ints, got {theta!r}")
    theta_set = frozenset(theta)
    if not theta_set <= frozenset(range(1, rs.rank + 1)):
        raise InvalidInputError(f"theta {sorted(theta_set)} not within 1..{rs.rank}")
    if len(theta_set) == rs.rank:
        raise NotAFlagManifoldError("theta covers every node; no flag manifold remains")
    r_theta = frozenset(r for r in rs.all_roots if r.support() <= theta_set)
    r_m = frozenset(rs.all_roots) - r_theta
    sigma_m = tuple(i for i in range(1, rs.rank + 1) if i not in theta_set)
    return FlagSpec(rs, theta_set, r_theta, r_m, sigma_m)


def t_projection(f: FlagSpec, a: Root) -> TRoot:
    """Restriction of a root to the painted-node coordinates.

    Roots of R_Theta, the subsystem of the unpainted nodes, restrict to zero
    and are refused: they do not define t-roots.
    """
    _check_roots(a)
    if a not in f.rs.index:
        raise RootArgumentError(f"{a} is not a root")
    if a in f.r_theta:
        raise ProjectsToZeroError(f"{a} lies in the unpainted subsystem R_Theta")
    return TRoot(tuple(a.coords[i - 1] for i in f.sigma_m))


class TRootSystem(_Frozen, eq=False):
    """The t-roots of a flag with their fibers in R_M."""

    flag: FlagSpec
    t_roots: frozenset[TRoot]
    positive: tuple[TRoot, ...]
    fibers: dict[TRoot, frozenset[Root]]
    summand_dims: dict[TRoot, int]

    @cached_property
    def class_of(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """(index into positive order, sign) by coordinates, for the t-roots of either sign."""
        return {
            tuple(sign * a for a in t.coords): (i, sign)
            for sign in (1, -1)
            for i, t in enumerate(self.positive)
        }

    @cached_property
    def root_class(self) -> dict[Root, tuple[int, int]]:
        """(index into positive order, sign) of the t-root each root of R_M restricts to."""
        return {a: self.class_of[t.coords] for t, roots in self.fibers.items() for a in roots}

    def classify(self, t: TRoot) -> tuple[int, int]:
        """(index into positive order, sign) for a t-root of either sign."""
        got = self.class_of.get(t.coords) if isinstance(t, TRoot) else None
        if got is None:
            raise RootArgumentError(f"{t} is not a t-root of this flag")
        return got

    def fiber(self, t: TRoot) -> frozenset[Root]:
        got = self.fibers.get(t)
        if got is None:
            raise RootArgumentError(f"{t} is not a t-root of this flag")
        return got


@functools.lru_cache(maxsize=None)
def build_t_roots(f: FlagSpec) -> TRootSystem:
    """Group R_M by restriction; fibers partition R_M and are negation-symmetric."""
    fibers: dict[TRoot, set[Root]] = defaultdict(set)
    for a in f.r_m:
        fibers[t_projection(f, a)].add(a)
    frozen = {t: frozenset(roots) for t, roots in fibers.items()}
    t_roots = frozenset(frozen)
    positive = tuple(sorted((t for t in t_roots if t.is_positive()), key=lambda t: t.coords))
    dims = {t: len(roots) for t, roots in frozen.items()}
    if len(positive) * 2 != len(t_roots):
        raise InvariantViolationError("the t-roots are not split evenly by sign")
    return TRootSystem(f, t_roots, positive, frozen, dims)


def complement_components(f: FlagSpec) -> tuple[tuple[int, ...], ...]:
    """Connected components of the painted nodes in the Dynkin diagram.

    A root's support is connected, and the highest root of each painted
    component covers it, so the components are the maximal supports among
    the positive roots supported on painted nodes.  They are sorted by their
    smallest node and returned as 1-based node tuples; callers refer to them
    by 1-based position in this listing.
    """
    painted = frozenset(f.sigma_m)
    supports = {s for r in f.rs.positive_roots if (s := r.support()) <= painted}
    return tuple(sorted(tuple(sorted(s)) for s in supports if not any(s < o for o in supports)))


def bridge_root(f: FlagSpec, d1: int, d2: int) -> Root:
    """A root joining two painted components through unpainted nodes only.

    It is the least-height positive root whose support meets each component
    in exactly one node and otherwise lies in Theta.  A Dynkin diagram is a
    tree, so that root is the sum of the simple roots along the one path
    joining the two components, and it restricts to the sum of the two
    endpoint t-roots.
    """
    if type(d1) is not int or type(d2) is not int:
        raise InvalidInputError(f"component indices must be ints, got {d1!r} and {d2!r}")
    comps = complement_components(f)
    if len(comps) < 2:
        raise NotConnectedError("the painted part of the diagram has a single component")
    if d1 == d2 or not (1 <= d1 <= len(comps)) or not (1 <= d2 <= len(comps)):
        raise InvalidInputError(f"need two distinct component indices in 1..{len(comps)}")
    c1, c2 = frozenset(comps[d1 - 1]), frozenset(comps[d2 - 1])
    allowed = f.theta | c1 | c2
    for r in f.rs.positive_roots:  # ascending height
        s = r.support()
        if s <= allowed and len(s & c1) == len(s & c2) == 1:
            return r
    raise NotConnectedError(f"no unpainted path joins components {d1} and {d2}")
