"""Invariant almost Hermitian structures on a flag manifold.

An almost complex structure is a sign vector over the positive t-roots and an
invariant metric is a positive rational vector over the same index set.  Every
geometric condition handled here (integrability, quasi-Kahler, Kahler, G1)
reduces to sign and equality patterns on zero-sum triples of t-roots, and each
reduced criterion is checked against an independent route: a tensor evaluation
on the Weyl basis, a cone realizability test, or a set containment.  The two
routes must agree; a mismatch raises an invariant violation instead of
returning a guess.
"""
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .chevalley import StructureConstants, bracket_coefficient
from .errors import CapExceededError, InvalidInputError, InvariantViolationError
from .feasibility import StrictRow, solve_positive_kernel, solve_strict_rows
from .flag import FlagSpec, TRoot, TRootSystem, build_t_roots, t_projection
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
    return v if isinstance(v, TRoot) else TRoot(tuple(v))


@dataclass(frozen=True)
class IACS:
    """Almost complex structure: one sign per positive t-root, in canonical order.

    The sign at a negative t-root is the negated stored sign.
    """

    signs: tuple[int, ...]

    def __post_init__(self):
        if not self.signs or any(s not in (1, -1) for s in self.signs):
            raise InvalidInputError("signs must be a nonempty vector over {+1, -1}")

    def sign(self, ts: TRootSystem, t) -> int:
        idx, sgn = ts.classify(_as_troot(t))
        return sgn * self.signs[idx]


@dataclass(frozen=True)
class InvariantMetric:
    """Invariant metric: one positive rational per positive t-root.

    The value at a negative t-root equals the value at its opposite.
    """

    lambdas: tuple[Fraction, ...]

    def __post_init__(self):
        coerced = tuple(Fraction(x) for x in self.lambdas)
        if not coerced or any(x <= 0 for x in coerced):
            raise InvalidInputError("metric coefficients must be strictly positive")
        object.__setattr__(self, "lambdas", coerced)

    def value(self, ts: TRootSystem, t) -> Fraction:
        idx, _ = ts.classify(_as_troot(t))
        return self.lambdas[idx]


def normal_metric(s: int) -> InvariantMetric:
    return InvariantMetric((Fraction(1),) * s)


def metric_grid(s: int):
    """All metrics with coefficients in {1, 2, 3}; complete at the equality-pattern level."""
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
    """All 2^s sign vectors in binary counting order, all-plus first."""
    s = len(ts.positive)
    if s > cap:
        raise CapExceededError(f"enumerating 2^{s} structures exceeds the cap 2^{cap}")
    out = tuple(IACS(signs) for signs in itertools.product((1, -1), repeat=s))
    assert len(out) == 2 ** s
    return out


@lru_cache(maxsize=None)
def t_zero_sum_triples(ts: TRootSystem) -> tuple[ZeroSumTriple, ...]:
    fs = make_functional_set(t.coords for t in ts.t_roots)
    return zero_sum_triples(fs)


def classify_triple(j: IACS, t: ZeroSumTriple, ts: TRootSystem) -> TripleClass:
    values = {j.sign(ts, m) for m in t.members}
    return TripleClass.ZERO_THREE if len(values) == 1 else TripleClass.ONE_TWO


def is_integrable(j: IACS, ts: TRootSystem) -> bool:
    """Sign coherence over all summing pairs of t-roots.

    Two routes are evaluated: the pairwise vanishing criterion and the absence
    of any all-equal-sign triple.  They must agree.
    """
    pair_ok = True
    for d in ts.t_roots:
        for e in ts.t_roots:
            if d + e not in ts.t_roots:
                continue
            ed, ee = j.sign(ts, d), j.sign(ts, e)
            if ed * ee + 1 - j.sign(ts, d + e) * (ed + ee) != 0:
                pair_ok = False
                break
        if not pair_ok:
            break
    triple_ok = all(
        classify_triple(j, t, ts) is TripleClass.ONE_TWO for t in t_zero_sum_triples(ts)
    )
    if pair_ok != triple_ok:
        raise InvariantViolationError(
            f"integrability routes disagree on {ts.flag.label()}: "
            f"pairs={pair_ok} triples={triple_ok} signs={j.signs}"
        )
    return pair_ok


@lru_cache(maxsize=None)
def _nijenhuis_pairs(f: FlagSpec, sc: StructureConstants):
    """Per-pair data for the torsion tensor: constants and t-root positions.

    Pairs whose sum restricts to zero contribute nothing; the bracket lands in
    the isotropy subalgebra and the projection kills it.
    """
    ts = build_t_roots(f)
    roots = sorted(f.r_m, key=lambda r: r.coords)
    records = []
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            total = a + b
            if total not in f.rs.root_set or total in f.r_theta:
                continue
            n = bracket_coefficient(sc, a, b)
            records.append(
                (
                    n,
                    ts.classify(t_projection(f, a)),
                    ts.classify(t_projection(f, b)),
                    ts.classify(t_projection(f, total)),
                )
            )
    return tuple(records)


def nijenhuis_oracle(f: FlagSpec, sc: StructureConstants, j: IACS) -> bool:
    """True iff the torsion of j vanishes on every Weyl basis pair from R_M."""
    for n, (ia, sa), (ib, sb), (it, st) in _nijenhuis_pairs(f, sc):
        ea = sa * j.signs[ia]
        eb = sb * j.signs[ib]
        et = st * j.signs[it]
        factor = ea * eb + 1 - et * (ea + eb)
        if factor != 0 and not (n * factor).is_zero():
            return False
    return True


def _positive_rep(ts: TRootSystem, member) -> TRoot:
    idx, _ = ts.classify(_as_troot(member))
    return ts.positive[idx]


def c_of_j(j: IACS, ts: TRootSystem) -> frozenset[TRoot]:
    """Positive representatives of t-roots lying on some all-equal-sign triple."""
    out = set()
    for t in t_zero_sum_triples(ts):
        if classify_triple(j, t, ts) is TripleClass.ZERO_THREE:
            out.update(_positive_rep(ts, m) for m in t.members)
    return frozenset(out)


def c_of_g(g: InvariantMetric, ts: TRootSystem) -> frozenset[TRoot]:
    """Positive representatives of t-roots lying on some constant-coefficient triple."""
    out = set()
    for t in t_zero_sum_triples(ts):
        if len({g.value(ts, m) for m in t.members}) == 1:
            out.update(_positive_rep(ts, m) for m in t.members)
    return frozenset(out)


def is_g1(g: InvariantMetric, j: IACS, ts: TRootSystem) -> bool:
    """True iff the metric is constant on every all-equal-sign triple of j.

    Constancy on each such triple puts all of its members into c_of_g, so the
    containment of c_of_j in c_of_g is implied and asserted.  The reverse
    containment decides nothing: a member can be covered by some other
    constant triple while its own all-equal-sign triple still carries two
    metric values, so only the direct per-triple test is authoritative.
    """
    direct = all(
        len({g.value(ts, m) for m in t.members}) == 1
        for t in t_zero_sum_triples(ts)
        if classify_triple(j, t, ts) is TripleClass.ZERO_THREE
    )
    if direct and not c_of_j(j, ts) <= c_of_g(g, ts):
        raise InvariantViolationError(
            f"constant triples left a class uncovered on {ts.flag.label()}: "
            f"signs={j.signs}"
        )
    return direct


@lru_cache(maxsize=None)
def _root_zero_sum_triples(f: FlagSpec) -> tuple[tuple[Root, Root, Root], ...]:
    fs = make_functional_set(r.coords for r in f.r_m)
    return tuple(
        tuple(Root(m) for m in tri.members) for tri in zero_sum_triples(fs)
    )


@lru_cache(maxsize=None)
def _check_triple_lifts(f: FlagSpec) -> bool:
    """Every zero-sum triple of t-roots must come from a zero-sum triple of roots."""
    liftable = {
        tuple(sorted(t_projection(f, r).coords for r in tri))
        for tri in _root_zero_sum_triples(f)
    }
    ts = build_t_roots(f)
    for t in t_zero_sum_triples(ts):
        if tuple(sorted(t.members)) not in liftable:
            raise InvariantViolationError(
                f"t-root triple {t.members} on {f.label()} has no root-level lift"
            )
    return True


def g1_oracle(
    f: FlagSpec, sc: StructureConstants, g: InvariantMetric, j: IACS
) -> bool:
    """True iff the symmetrized torsion pairing vanishes on every Weyl basis triple.

    Each symmetrized value is assembled twice, once term by term from the
    constant table and once from the factored single-product form; the two
    must coincide.
    """
    ts = build_t_roots(f)
    _check_triple_lifts(f)
    all_vanish = True
    for tri in _root_zero_sum_triples(f):
        eps = {r: j.sign(ts, t_projection(f, r)) for r in tri}
        lam = {r: g.value(ts, t_projection(f, r)) for r in tri}
        a, b, c = tri
        envelope = eps[a] * eps[b] + eps[a] * eps[c] + eps[b] * eps[c] + 1
        for first, middle, third in ((a, b, c), (b, c, a), (c, a, b)):
            t1 = bracket_coefficient(sc, first, middle) * (lam[third] * envelope)
            t2 = bracket_coefficient(sc, third, middle) * (lam[first] * envelope)
            total = t1 + t2
            factored = bracket_coefficient(sc, first, middle) * (
                (lam[third] - lam[first]) * envelope
            )
            if total != factored:
                raise InvariantViolationError(
                    f"torsion pairing assembly mismatch on {f.label()} at {tri}"
                )
            if not total.is_zero():
                all_vanish = False
    return all_vanish


@dataclass(frozen=True)
class QKFeasibility:
    """Outcome of the quasi-Kahler linear system for one structure."""

    feasible: bool
    sample: tuple[Fraction, ...] | None
    equations: tuple[tuple[Fraction, ...], ...]
    certificate: tuple[Fraction, ...] | None


def triple_sum_row(j: IACS, t: ZeroSumTriple, ts: TRootSystem) -> tuple[Fraction, ...]:
    """Coefficient row of the signed metric sum over one triple."""
    row = [Fraction(0)] * len(ts.positive)
    for m in t.members:
        idx, sgn = ts.classify(_as_troot(m))
        row[idx] += sgn * j.signs[idx]
    return tuple(row)


def qk_feasibility(j: IACS, ts: TRootSystem) -> QKFeasibility:
    """Decide whether some positive metric zeroes every mixed-sign triple sum."""
    s = len(ts.positive)
    rows = [
        triple_sum_row(j, t, ts)
        for t in t_zero_sum_triples(ts)
        if classify_triple(j, t, ts) is TripleClass.ONE_TWO
    ]
    res = solve_positive_kernel(rows, s)
    return QKFeasibility(res.feasible, res.sample, tuple(rows), res.certificate)


def closed_metric_feasibility(j: IACS, ts: TRootSystem) -> QKFeasibility:
    """Decide whether some positive metric zeroes every triple sum outright.

    Unlike the quasi-Kahler system this keeps the all-equal-sign triples,
    whose rows have coefficients of a single sign and so rule out positive
    solutions on their own.  Feasible here and non-integrable there would be
    a closed non-integrable structure, which the classifier forbids.
    """
    s = len(ts.positive)
    rows = [triple_sum_row(j, t, ts) for t in t_zero_sum_triples(ts)]
    res = solve_positive_kernel(rows, s)
    return QKFeasibility(res.feasible, res.sample, tuple(rows), res.certificate)


def kahler_triple_sum(
    g: InvariantMetric, j: IACS, t: ZeroSumTriple, ts: TRootSystem
) -> Fraction:
    """Signed metric sum over one triple; zero on every triple means closed form."""
    return sum(
        (j.sign(ts, m) * g.value(ts, m) for m in t.members), start=Fraction(0)
    )


def classify_structure(
    g: InvariantMetric, j: IACS, ts: TRootSystem
) -> frozenset[StructureLabel]:
    """Label set for one metric and structure pair.

    A closed form without integrability would be an almost Kahler structure
    that is not Kahler; positivity of the metric rules that out, so hitting
    one is an internal contradiction rather than a label.
    """
    integrable = is_integrable(j, ts)
    triples = t_zero_sum_triples(ts)
    sums = [
        (classify_triple(j, t, ts), kahler_triple_sum(g, j, t, ts)) for t in triples
    ]
    qk = all(v == 0 for cls, v in sums if cls is TripleClass.ONE_TWO)
    closed = all(v == 0 for _, v in sums)
    if closed and not integrable:
        raise InvariantViolationError(
            f"closed non-integrable structure on {ts.flag.label()}: signs={j.signs} "
            f"lambdas={g.lambdas}"
        )
    g1 = is_g1(g, j, ts)
    if integrable and not g1:
        raise InvariantViolationError(
            f"integrable structure failing G1 on {ts.flag.label()}: signs={j.signs}"
        )
    labels = set()
    if integrable:
        labels.add(StructureLabel.INTEGRABLE)
    if qk:
        labels.add(StructureLabel.QK)
    if integrable and closed:
        labels.add(StructureLabel.KAHLER)
    if g1:
        labels.add(StructureLabel.G1)
    return frozenset(labels)


def t_chambers(ts: TRootSystem) -> tuple[IACS, ...]:
    """Sign vectors realizable by a regular point: every t-root keeps a strict sign.

    A point is parameterized by its pairings with the unpainted simple roots,
    so each positive t-root evaluates through its coordinate vector.  Sign
    prefixes are explored depth first and pruned by exact feasibility.
    """
    ambient = len(ts.flag.sigma_m)
    pos = ts.positive
    out = []

    def extend(rows, signs):
        if solve_strict_rows(rows, ambient) is None:
            return
        k = len(signs)
        if k == len(pos):
            out.append(IACS(tuple(signs)))
            return
        for sign in (1, -1):
            row = StrictRow(tuple(Fraction(sign * c) for c in pos[k].coords))
            extend(rows + [row], signs + [sign])

    extend([], [])
    return tuple(out)


@dataclass(frozen=True)
class PairWitness:
    """Constructive equality certificate between two positive t-roots.

    Each chain link is a zero-sum triple together with a structure whose signs
    agree on all three members, forcing any metric compatible with every
    structure to be constant along the link.
    """

    pair: tuple[TRoot, TRoot]
    chain: TzsChain
    forcing: tuple[IACS, ...]


@dataclass(frozen=True)
class VerificationReport:
    holds: bool
    witnesses: tuple[PairWitness, ...]


def _forcing_iacs(ts: TRootSystem, t: ZeroSumTriple) -> IACS:
    """A structure making the given triple all-equal-sign.

    Giving every member the sign of its own class representative works: a
    conflict would need a class and its opposite inside one triple, which
    forces the third member to vanish.
    """
    signs = [1] * len(ts.positive)
    for m in t.members:
        idx, sgn = ts.classify(_as_troot(m))
        signs[idx] = sgn
    j = IACS(tuple(signs))
    assert classify_triple(j, t, ts) is TripleClass.ZERO_THREE
    return j


def normal_metric_unique(f: FlagSpec, cap: int = IACS_CAP) -> VerificationReport:
    """Check that only constant metrics stay G1 across every structure.

    Brute force: sweep structures in enumeration order and merge the classes
    of each all-equal-sign triple; the surviving equality patterns are exactly
    the constant-per-component ones, so uniqueness means a single component.
    The sweep stops as soon as everything is merged.  A constructive witness
    chain is emitted for every pair of positive t-roots.
    """
    ts = build_t_roots(f)
    s = len(ts.positive)
    if s > cap:
        raise CapExceededError(f"sweeping 2^{s} structures exceeds the cap 2^{cap}")
    triples = t_zero_sum_triples(ts)

    parent = list(range(s))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = s
    for signs in itertools.product((1, -1), repeat=s):
        j = IACS(signs)
        for t in triples:
            if classify_triple(j, t, ts) is not TripleClass.ZERO_THREE:
                continue
            roots = {find(ts.classify(_as_troot(m))[0]) for m in t.members}
            anchor = roots.pop()
            for other in roots:
                parent[other] = anchor
                components -= 1
        if components == 1:
            break
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
            forcing = tuple(_forcing_iacs(ts, t) for t in chain.triples)
            witnesses.append(
                PairWitness((ts.positive[i], ts.positive[k]), chain, forcing)
            )
    return VerificationReport(True, tuple(witnesses))
