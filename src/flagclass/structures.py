"""Invariant almost Hermitian structures on a flag manifold.

An almost complex structure is a sign vector over the positive t-roots and an
invariant metric is a positive rational vector over the same index set.  Every
geometric condition handled here (integrability, quasi-Kahler, Kahler, G1)
reduces to sign and equality patterns on zero-sum triples of t-roots, and each
reduced criterion is checked against an independent route: a tensor evaluation
on the Weyl basis or a cone realizability test.  The two routes must agree.
`verify` compares the integrability routes and reports a mismatch as a FAIL
line; elsewhere a mismatch raises an invariant violation instead of returning
a guess.  The exact solver is imported by the two solves that run it, so
`info` and `verify`, which solve nothing, never load `feasibility`.
"""
from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidInputError,
    InvariantViolationError,
    _Frozen,
)
from .flag import FlagSpec, TRoot, TRootSystem, build_t_roots
from .rootsys import Root
from .tzs import (
    TzsChain,
    ZeroSumTriple,
    chain_between,
    connectivity,
    make_functional_set,
    zero_sum_triples,
)

IACS_CAP = 20


def _as_troot(v) -> TRoot:
    if isinstance(v, TRoot):
        return v
    if isinstance(v, (tuple, list)) and all(type(c) is int for c in v):
        return TRoot(tuple(v))
    raise InvalidInputError(f"expected a t-root or a sequence of ints, got {v!r}")


class IACS(_Frozen):
    """Almost complex structure: one sign per positive t-root, in canonical order.

    The sign at a negative t-root is the negated stored sign.
    """

    __slots__ = ("signs",)
    signs: tuple[int, ...]

    def __init__(self, signs: tuple[int, ...]):
        signs = tuple(signs)
        if not signs or any(type(s) is not int or s not in (1, -1) for s in signs):
            raise InvalidInputError("signs must be a nonempty vector of ints over {+1, -1}")
        object.__setattr__(self, "signs", signs)

    def sign(self, ts: TRootSystem, t) -> int:
        _check_lengths(ts, self.signs)
        idx, sgn = ts.classify(_as_troot(t))
        return sgn * self.signs[idx]


class InvariantMetric(_Frozen):
    """Invariant metric: one positive rational per positive t-root.

    The value at a negative t-root equals the value at its opposite.
    """

    __slots__ = ("lambdas",)
    lambdas: tuple[Fraction, ...]

    def __init__(self, lambdas: tuple[Fraction, ...]):
        lambdas = tuple(lambdas)
        if any(type(x) is not int and not isinstance(x, Fraction) for x in lambdas):
            raise InvalidInputError("metric coefficients must be ints or Fractions")
        coerced = tuple(Fraction(x) for x in lambdas)
        if not coerced or any(x <= 0 for x in coerced):
            raise InvalidInputError("metric coefficients must be strictly positive")
        object.__setattr__(self, "lambdas", coerced)

    def value(self, ts: TRootSystem, t) -> Fraction:
        _check_lengths(ts, self.lambdas)
        idx, _ = ts.classify(_as_troot(t))
        return self.lambdas[idx]


def _class_count(s) -> int:
    """s, once checked to be a positive int: the number of positive t-roots."""
    if type(s) is not int or s < 1:
        raise InvalidInputError(f"a metric needs a positive int number of classes, got {s!r}")
    return s


def _check_cap(cap) -> None:
    """Refuse a cap that is not an int >= 0 (bools included)."""
    if type(cap) is not int or cap < 0:
        raise InvalidInputError(f"a cap must be an int >= 0, got {cap!r}")


def normal_metric(s: int) -> InvariantMetric:
    return InvariantMetric((Fraction(1),) * _class_count(s))


def metric_grid(s: int):
    """All metrics with coefficients in {1, 2, 3}; complete at the equality-pattern level."""
    s = _class_count(s)
    values = (Fraction(1), Fraction(2), Fraction(3))
    for combo in itertools.product(values, repeat=s):
        yield InvariantMetric(combo)


class TripleClass(Enum):
    ZERO_THREE = "ZeroThree"
    ONE_TWO = "OneTwo"


class StructureLabel(Enum):
    INTEGRABLE = "Integrable"
    KAHLER = "Kahler"
    QK = "QK"
    G1 = "G1"


def enumerate_iacs(ts: TRootSystem, cap: int = IACS_CAP) -> tuple[IACS, ...]:
    """All 2^s sign vectors in binary counting order, all-plus first.

    The list reversed is the list negated: entry 2^s - 1 - n is -j for
    entry n, so the first half gives class 0 the sign +1.
    """
    _check_cap(cap)
    s = len(ts.positive)
    if s > cap:
        raise CapExceededError(f"enumerating 2^{s} structures exceeds the cap 2^{cap}")
    return tuple(IACS(signs) for signs in itertools.product((1, -1), repeat=s))


@lru_cache(maxsize=None)
def t_zero_sum_triples(ts: TRootSystem) -> tuple[ZeroSumTriple, ...]:
    fs = make_functional_set(t.coords for t in ts.t_roots)
    return zero_sum_triples(fs)


def _signed_members(ts: TRootSystem, t: ZeroSumTriple) -> tuple[tuple[int, int], ...]:
    """(class index, sign) of each member of a triple, in member order."""
    return tuple(ts.classify(_as_troot(m)) for m in t.members)


@lru_cache(maxsize=None)
def _signed_triples(ts: TRootSystem) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The signed members of every zero-sum triple, in t_zero_sum_triples order."""
    cls = {t.coords: ts.classify(t) for t in ts.t_roots}
    return tuple(tuple(cls[m] for m in t.members) for t in t_zero_sum_triples(ts))


@lru_cache(maxsize=None)
def _signed_pairs(ts: TRootSystem):
    """(class index, sign) of d, e and d + e for each ordered pair with d + e in R_t.

    Built from t-root sums, never from the triples, so the pair route
    (`_pairs_list`) keeps data independent of `is_integrable`'s.
    """
    cls = {t.coords: ts.classify(t) for t in ts.t_roots}
    return tuple(
        (cls[d], cls[e], cls[t])
        for d in cls for e in cls
        if (t := tuple(map(add, d, e))) in cls
    )


def _check_lengths(ts: TRootSystem, *vectors: tuple) -> None:
    """Raise unless every sign or metric vector has one entry per positive t-root."""
    s = len(ts.positive)
    if any(len(v) != s for v in vectors):
        raise DimensionMismatchError(
            f"flag has {s} positive classes, got vectors of lengths {[len(v) for v in vectors]}"
        )


def _one_sign(signs: tuple[int, ...], ts: TRootSystem) -> tuple[bool, ...]:
    """Per triple, in t_zero_sum_triples order: do signs give all three members one sign?"""
    return tuple(
        a * signs[i] == b * signs[k] == c * signs[m]
        for (i, a), (k, b), (m, c) in _signed_triples(ts)
    )


def _signed_row(signs: tuple[int, ...], signed, s: int) -> tuple[int, ...]:
    row = [0] * s
    for idx, sgn in signed:
        row[idx] += sgn * signs[idx]
    return tuple(row)


def _metric_constant(g: InvariantMetric, signed) -> bool:
    return len({g.lambdas[idx] for idx, _ in signed}) == 1


def classify_triple(j: IACS, t: ZeroSumTriple, ts: TRootSystem) -> TripleClass:
    _check_lengths(ts, j.signs)
    # a member that is no t-root of ts raises in _signed_members
    one_sign = len({sgn * j.signs[idx] for idx, sgn in _signed_members(ts, t)}) == 1
    return TripleClass.ZERO_THREE if one_sign else TripleClass.ONE_TWO


# `classify` and `classify_structure` read one _one_sign pass per structure;
# these helpers give is_integrable, c_of_j and is_g1 from such a pass.


def _integrable(one: tuple[bool, ...]) -> bool:
    """The triple criterion: no zero-sum triple is one-signed."""
    return not any(one)


def _c_of(one: tuple[bool, ...], ts: TRootSystem) -> frozenset[TRoot]:
    """The positive representatives of the members of the one-signed triples."""
    return frozenset(
        ts.positive[idx]
        for signed in itertools.compress(_signed_triples(ts), one)
        for idx, _ in signed
    )


def _g1(g: InvariantMetric, one: tuple[bool, ...], ts: TRootSystem) -> bool:
    """is_g1 from a _one_sign pass: g is constant on every one-signed triple."""
    return all(_metric_constant(g, signed) for signed in itertools.compress(_signed_triples(ts), one))


def is_integrable(j: IACS, ts: TRootSystem) -> bool:
    """True iff no zero-sum triple of t-roots is all-equal-sign under j."""
    _check_lengths(ts, j.signs)
    return _integrable(_one_sign(j.signs, ts))


@lru_cache(maxsize=None)
def _nijenhuis_pairs(f: FlagSpec, sc: StructureConstants):
    """Per-pair data for the torsion tensor: n_{a,b} and the classes of a, b and a + b.

    One record per unordered pair of R_M whose sum lies in R_M, read off the
    keys of the constant table.  Pairs whose sum lies in R_Theta contribute
    nothing; the bracket lands in the isotropy subalgebra and the projection
    kills it.
    """
    cls = {r.coords: c for r, c in build_t_roots(f).root_class.items()}
    return tuple(
        (n, cls[a.coords], cls[b.coords], cls[t])
        for (a, b), n in sc.table.items()
        if a.coords < b.coords and a.coords in cls and b.coords in cls
        and (t := tuple(map(add, a.coords, b.coords))) in cls
    )


def nijenhuis_oracle(f: FlagSpec, sc: StructureConstants, j: IACS) -> bool:
    """True iff the torsion of j vanishes on every Weyl basis pair from R_M."""
    if sc.rs is not f.rs:
        raise InvalidInputError("flag and constants were built from different root systems")
    _check_lengths(build_t_roots(f), j.signs)
    for n, (ia, sa), (ib, sb), (it, st) in _nijenhuis_pairs(f, sc):
        ea = sa * j.signs[ia]
        eb = sb * j.signs[ib]
        et = st * j.signs[it]
        factor = ea * eb + 1 - et * (ea + eb)
        if factor != 0 and not n.is_zero():
            return False
    return True


def c_of_j(j: IACS, ts: TRootSystem) -> frozenset[TRoot]:
    """Positive representatives of t-roots lying on some all-equal-sign triple."""
    _check_lengths(ts, j.signs)
    return _c_of(_one_sign(j.signs, ts), ts)


def c_of_g(g: InvariantMetric, ts: TRootSystem) -> frozenset[TRoot]:
    """Positive representatives of t-roots lying on some constant-coefficient triple."""
    _check_lengths(ts, g.lambdas)
    return frozenset(
        ts.positive[idx]
        for signed in _signed_triples(ts)
        if _metric_constant(g, signed)
        for idx, _ in signed
    )


def is_g1(g: InvariantMetric, j: IACS, ts: TRootSystem) -> bool:
    """True iff the metric is constant on every all-equal-sign triple of j.

    Constancy on each such triple puts all of its members into c_of_g, so
    c_of_j is then contained in c_of_g.  The reverse containment decides
    nothing: a member can be covered by some other constant triple while its
    own all-equal-sign triple still carries two metric values, so only the
    direct per-triple test is authoritative.
    """
    _check_lengths(ts, j.signs, g.lambdas)
    return _g1(g, _one_sign(j.signs, ts), ts)


@lru_cache(maxsize=None)
def _root_zero_sum_triples(f: FlagSpec) -> tuple[tuple[Root, Root, Root], ...]:
    fs = make_functional_set(r.coords for r in f.r_m)
    return tuple(
        tuple(Root(m) for m in tri.members) for tri in zero_sum_triples(fs)
    )


@lru_cache(maxsize=None)
def _check_triple_lifts(f: FlagSpec) -> bool:
    """Every zero-sum triple of t-roots must come from a zero-sum triple of roots."""
    ts = build_t_roots(f)
    cls = ts.root_class
    liftable = {tuple(sorted(cls[r] for r in tri)) for tri in _root_zero_sum_triples(f)}
    for t, signed in zip(t_zero_sum_triples(ts), _signed_triples(ts)):
        if tuple(sorted(signed)) not in liftable:
            raise InvariantViolationError(
                f"t-root triple {t.members} on {f.label()} has no root-level lift"
            )
    return True


def g1_oracle(
    f: FlagSpec, sc: StructureConstants, g: InvariantMetric, j: IACS
) -> bool:
    """True iff the symmetrized torsion pairing vanishes on every Weyl basis triple.

    Each symmetrized value is summed term by term from the constant table,
    which holds every pair of a zero-sum root triple.
    """
    if sc.rs is not f.rs:
        raise InvalidInputError("flag and constants were built from different root systems")
    ts = build_t_roots(f)
    _check_lengths(ts, j.signs, g.lambdas)
    _check_triple_lifts(f)
    cls, table = ts.root_class, sc.table
    for tri in _root_zero_sum_triples(f):
        eps = {r: cls[r][1] * j.signs[cls[r][0]] for r in tri}
        lam = {r: g.lambdas[cls[r][0]] for r in tri}
        a, b, c = tri
        envelope = eps[a] * eps[b] + eps[a] * eps[c] + eps[b] * eps[c] + 1
        for first, middle, third in ((a, b, c), (b, c, a), (c, a, b)):
            t1 = table[first, middle] * (lam[third] * envelope)
            t2 = table[third, middle] * (lam[first] * envelope)
            if not (t1 + t2).is_zero():
                return False
    return True


def triple_sum_row(j: IACS, t: ZeroSumTriple, ts: TRootSystem) -> tuple[int, ...]:
    """Coefficient row of the signed metric sum over one triple."""
    _check_lengths(ts, j.signs)
    return _signed_row(j.signs, _signed_members(ts, t), len(ts.positive))


def qk_feasibility(j: IACS, ts: TRootSystem) -> QKFeasibility:
    """Decide whether some positive metric zeroes every mixed-sign triple sum."""
    from .feasibility import solve_positive_kernel

    _check_lengths(ts, j.signs)
    one = _one_sign(j.signs, ts)
    s = len(ts.positive)
    rows = [_signed_row(j.signs, signed, s) for signed, o in zip(_signed_triples(ts), one) if not o]
    return solve_positive_kernel(rows, s)


def closed_metric_feasibility(j: IACS, ts: TRootSystem) -> QKFeasibility:
    """Decide whether some positive metric zeroes every triple sum outright.

    Unlike the quasi-Kahler system this keeps the all-equal-sign triples,
    whose rows have coefficients of a single sign and so rule out positive
    solutions on their own: feasible here implies integrable.
    """
    from .feasibility import solve_positive_kernel

    _check_lengths(ts, j.signs)
    s = len(ts.positive)
    rows = [_signed_row(j.signs, signed, s) for signed in _signed_triples(ts)]
    return solve_positive_kernel(rows, s)


def kahler_triple_sum(
    g: InvariantMetric, j: IACS, t: ZeroSumTriple, ts: TRootSystem
) -> Fraction:
    """Signed metric sum over one triple; zero on every triple means closed form."""
    _check_lengths(ts, j.signs, g.lambdas)
    return _triple_sum(g, j.signs, _signed_members(ts, t))


def _triple_sum(g: InvariantMetric, signs: tuple[int, ...], signed) -> Fraction:
    return sum((sgn * signs[idx] * g.lambdas[idx] for idx, sgn in signed), start=Fraction(0))


def classify_structure(
    g: InvariantMetric, j: IACS, ts: TRootSystem
) -> frozenset[StructureLabel]:
    """Label set for one metric and structure pair.

    A closed form is integrable: on an all-equal-sign triple the signed sum
    is plus or minus a sum of three positive coefficients, never zero.  An
    integrable structure has no such triple, so it is G1 as well.
    """
    _check_lengths(ts, j.signs, g.lambdas)
    one = _one_sign(j.signs, ts)
    integrable = _integrable(one)
    sums = [(o, _triple_sum(g, j.signs, signed)) for signed, o in zip(_signed_triples(ts), one)]
    qk = all(v == 0 for one_sign, v in sums if not one_sign)
    closed = all(v == 0 for _, v in sums)
    labels = set()
    if integrable:
        labels.add(StructureLabel.INTEGRABLE)
    if qk:
        labels.add(StructureLabel.QK)
    if integrable and closed:
        labels.add(StructureLabel.KAHLER)
    if _g1(g, one, ts):
        labels.add(StructureLabel.G1)
    return frozenset(labels)


def _closes_a_triple(prefix: tuple[int, ...], certificates) -> bool:
    """Does the prefix give some certificate (i, a, m, b) of its newest class the signs a and b?"""
    return any(prefix[i] == a and prefix[m] == b for i, a, m, b in certificates)


def _koszul_columns(ts: TRootSystem) -> tuple[tuple[int, ...], ...]:
    """Per class k: M (alpha_i, w_k) over the painted simple roots alpha_i, M the int_gram scale.

    w_k is the sum of the fiber of pos_k.  A reflection in a simple root of
    Theta keeps each fiber, so w_k is orthogonal to the roots of Theta, and a
    root alpha of fiber k pairs with w as pos_k pairs with these columns.
    """
    rs = ts.flag.rs
    gram = [rs.int_gram[1][i - 1] for i in ts.flag.sigma_m]
    columns = []
    for t in ts.positive:
        w = [sum(c) for c in zip(*(a.coords for a in ts.fibers[t]))]
        columns.append(tuple(sum(map(mul, g, w)) for g in gram))
    return tuple(columns)


# one flag's chambers at a time: verify reads them twice per flag, and holding
# every flag's adds about 60 MiB to the peak of verify up to rank 6
@lru_cache(maxsize=1)
def _chamber_points(ts: TRootSystem) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(n, lambda) for each chamber on the + side of the first positive t-root.

    No elimination runs.  The candidates are the + half of `_pairs_list`.
    Each pair record (d, e, -(d + e)) is three signed rows that sum to zero,
    so a sign prefix that makes a record one-signed has no strictly positive
    point (Farkas weights of 1 or 2) and is dropped.  A leaf,
    structure n with signs j, counts as a chamber only once its Koszul point
    H is checked inside it: H pairs each painted simple root with v_J, the
    sum of the J-positive roots of R_M, in ints (the columns of
    `_koszul_columns` summed with the signs of j), and the metric lambda_k =
    j_k (pos_k . H) must be strictly positive.  For an integrable J, v_J
    lies in J's chamber (Koszul; Borel-Hirzebruch 1958), and the leaves left
    standing are the integrable structures.  A leaf without a witness is no
    chamber here, and the four-way check then reports it.  Only the + side
    is kept: if H realizes some signs, -H realizes their negation.  The
    chambers come in enumeration order, each with its metric lambda.
    """
    pos = [t.coords for t in ts.positive]
    s = len(pos)
    columns = _koszul_columns(ts)
    listed = _pairs_list(ts)
    points = []
    for n in listed[: len(listed) // 2]:
        signs = _signs(n, s)
        point = [sum(map(mul, signs, coordinate)) for coordinate in zip(*columns)]
        lam = tuple(j * sum(map(mul, p, point)) for j, p in zip(signs, pos))
        if min(lam) > 0:
            points.append((n, lam))
    return tuple(points)


def t_chambers(ts: TRootSystem) -> tuple[IACS, ...]:
    """Sign vectors realizable by a regular point: every t-root keeps a strict sign.

    These are the structures of `_chamber_list`, in enumeration order: each
    chamber of `_chamber_points`, found with a checked point inside it and
    no solve, and then its negation.
    """
    s = len(ts.positive)
    return tuple(IACS(_signs(n, s)) for n in _chamber_list(ts))


# Every structure of a flag at once.  Structure n, in enumerate_iacs order,
# gives class i the sign -1 iff bit s-1-i of n is set.  Each route below
# lists the n it calls integrable, ascending: an integrable structure is a
# chamber, so the list is short where 2^s is not.  Each route reads its own
# table, the chamber route the pair route's list; what they share is the search.


def _signs(n: int, s: int) -> tuple[int, ...]:
    """The signs of structure n of enumerate_iacs(ts) for a flag with s classes."""
    return tuple(-1 if n >> (s - 1 - i) & 1 else 1 for i in range(s))


def _avoiding(s: int, records) -> list[int]:
    """The structures, ascending, under which no record is one-signed.

    A record is three (class, sign) members, one-signed under j where the
    three sign * j_class agree.  Sorted by class to (i, a), (m, b), (k, e),
    it becomes the certificate (i, a, m, b) under class k and sign e, filed
    with its negation (i, -a, m, -b) under sign -e.  Here m may equal k, and
    a class met twice is read twice, so a record holding a class with both
    signs never closes.  Sign prefixes are searched depth first in class
    order, + before -, and dropped once `_closes_a_triple`, so the leaves
    come in enumeration order and the search costs about its output.
    Only the prefixes that give class 0 the sign + are searched: the filed
    certificates are closed under negation, so the - half is the + half
    negated (`_and_negations`).
    """
    closing = [{1: set(), -1: set()} for _ in range(s)]
    for record in records:
        (i, a), (m, b), (k, e) = sorted(record)
        closing[k][e].add((i, a, m, b))
        closing[k][-e].add((i, -a, m, -b))
    half = []

    def extend(prefix, n):
        k = len(prefix)
        if k == s:
            half.append(n)
            return
        for sign, bit in ((1, 0), (-1, 1)):
            signs = prefix + (sign,)
            if not _closes_a_triple(signs, closing[k][sign]):
                extend(signs, 2 * n + bit)

    if not _closes_a_triple((1,), closing[0][1]):
        extend((1,), 0)
    return _and_negations(half, s)


def _integrable_list(ts: TRootSystem) -> list[int]:
    """is_integrable on every structure: no zero-sum triple is one-signed."""
    return _avoiding(len(ts.positive), _signed_triples(ts))


def _pairs_list(ts: TRootSystem) -> list[int]:
    """The pair route on every structure: no summing pair has e_d = e_e != e_{d+e}.

    A member differs in sign from (t, st) where it agrees with (t, -st).  The
    condition is symmetric in d and e, and both orders of a pair give
    `_avoiding` one certificate.
    """
    return _avoiding(
        len(ts.positive), [(d, e, (t, -st)) for d, e, (t, st) in _signed_pairs(ts)]
    )


def _nijenhuis_list(f: FlagSpec, sc: StructureConstants) -> list[int]:
    """nijenhuis_oracle on every structure: no pair with n_{a,b} != 0 has e_a = e_b != e_{a+b}.

    Those are the pairs whose torsion factor e_a e_b + 1 - e_{a+b} (e_a + e_b)
    is nonzero.
    """
    if sc.rs is not f.rs:
        raise InvalidInputError("flag and constants were built from different root systems")
    return _avoiding(
        len(build_t_roots(f).positive),
        [(a, b, (t, -st)) for n, a, b, (t, st) in _nijenhuis_pairs(f, sc) if not n.is_zero()],
    )


def _and_negations(half: list[int], s: int) -> list[int]:
    """The + side structures given, ascending, then their negations: -(structure n) is (2^s - 1) ^ n."""
    top = (1 << s) - 1
    return half + [top ^ n for n in reversed(half)]


def _chamber_list(ts: TRootSystem) -> list[int]:
    """The structures realized by a regular point: each chamber of _chamber_points and its negation."""
    return _and_negations([n for n, _ in _chamber_points(ts)], len(ts.positive))


def _closed_witness_list(ts: TRootSystem) -> list[int]:
    """The structures given a closed metric by their chamber, each one checked.

    The chamber of j carries lambda_k = j_k (pos_k . H) for its Koszul
    point H, and the row of j on a triple is zero at lambda because the
    members sum to zero: the Borel-Hirzebruch metric, built in ints.  The
    chamber search kept lambda only where it is positive; it is checked
    again here, beside the closed rows, which the search never reads.  A
    structure is listed only once lambda is checked strictly positive and
    every closed row of j zero at it.  The same lambda serves -j, whose rows
    are those of j negated.

    This is the closed-metric decision, with no solve beside it.  A
    structure outside _integrable_list has a one-signed triple, whose closed
    row has nonzero coefficients of that one sign (no two members are v and
    -v, or the third would be 0), so no positive metric zeroes it.  So the
    witnessed structures lie in the feasible ones, which lie in the
    integrable ones, and witnessed == integrable proves feasible ==
    integrable.  An integrable structure left unwitnessed is reported, not
    solved: a wrong chamber metric fails the check.
    """
    s = len(ts.positive)
    triples = _signed_triples(ts)
    witnessed = []
    for n, lam in _chamber_points(ts):
        signs = _signs(n, s)
        if min(lam) > 0 and not any(
            a * signs[i] * lam[i] + b * signs[k] * lam[k] + c * signs[m] * lam[m]
            for (i, a), (k, b), (m, c) in triples
        ):
            witnessed.append(n)
    return _and_negations(witnessed, s)


class PairWitness(_Frozen):
    """Constructive equality certificate between two positive t-roots.

    Each chain link is a zero-sum triple together with a structure whose signs
    agree on all three members, forcing any metric compatible with every
    structure to be constant along the link.
    """

    pair: tuple[TRoot, TRoot]
    chain: TzsChain
    forcing: tuple[IACS, ...]


class VerificationReport(_Frozen):
    holds: bool
    witnesses: tuple[PairWitness, ...]


def _forcing_iacs(ts: TRootSystem, t: ZeroSumTriple) -> IACS:
    """A structure making the given triple all-equal-sign.

    Giving every member the sign of its own class representative works: a
    conflict would need a class and its opposite inside one triple, which
    forces the third member to vanish.
    """
    signs = [1] * len(ts.positive)
    for idx, sgn in _signed_members(ts, t):
        signs[idx] = sgn
    j = IACS(tuple(signs))
    if classify_triple(j, t, ts) is not TripleClass.ZERO_THREE:
        raise InvariantViolationError(f"signs {j.signs} do not make triple {t} one-signed")
    return j


def normal_metric_unique(f: FlagSpec) -> VerificationReport:
    """Check that only constant metrics stay G1 across every structure.

    A G1 metric is constant on each all-equal-sign triple of each structure,
    so sweep structures and merge the classes of each such triple; the
    surviving equality patterns are exactly the constant-per-component ones,
    so uniqueness means a single component.  Every triple is all-equal-sign
    under its own forcing structure (`_forcing_iacs`, which checks it), so
    one forcing structure per triple, in t_zero_sum_triples order, merges
    what all 2^s structures would.  The sweep stops as soon as everything is
    merged.  A constructive witness chain is emitted for every pair of
    positive t-roots.
    """
    ts = build_t_roots(f)
    s = len(ts.positive)

    # the sweep and the chains share triples: one forcing structure per distinct triple
    forcing_of = lru_cache(maxsize=None)(lambda t: _forcing_iacs(ts, t))
    parent = list(range(s))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = s
    for t in t_zero_sum_triples(ts):
        if components == 1:
            break
        signs = forcing_of(t).signs
        for signed in itertools.compress(_signed_triples(ts), _one_sign(signs, ts)):
            roots = {find(idx) for idx, _ in signed}
            anchor = roots.pop()
            for other in roots:
                parent[other] = anchor
                components -= 1
    holds = components == 1

    fs = make_functional_set(t.coords for t in ts.t_roots)
    report = connectivity(fs)
    if report.connected != holds:
        raise InvariantViolationError(
            f"uniqueness sweep disagrees with triple connectivity on {f.label()}"
        )
    if not holds:
        return VerificationReport(False, ())

    witnesses = []
    for i in range(s):
        for k in range(i + 1, s):
            chain = chain_between(fs, ts.positive[i], ts.positive[k])
            forcing = tuple(map(forcing_of, chain.triples))
            witnesses.append(
                PairWitness((ts.positive[i], ts.positive[k]), chain, forcing)
            )
    return VerificationReport(True, tuple(witnesses))
