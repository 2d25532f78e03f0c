"""Exact homogeneous linear feasibility over the rationals.

Two problem shapes cover everything the classifier needs: strict sign
systems (is there a point with prescribed strict signs on a family of
functionals) and positive kernels (is there a strictly positive solution
of a homogeneous equality system).  Both are decided by one integer
Fourier-Motzkin elimination, whose equality rows are first removed by
substitution, so answers are exact and samples rational.  The run that
derives 0 > 0 returns checked Farkas weights on its input rows; for a
positive kernel, minus the weights on the equality rows is the dual
certificate, a combination of them that is nonnegative and nonzero.

Negating an equality row negates its certificate entry and changes nothing
else, so the positive-kernel run is cached on the rows with each one's sign
normalised; every answer, cached or not, is checked against the rows as given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidInputError,
    InvariantViolationError,
)

Row = tuple[int | Fraction, ...]

# Rows one elimination level may hold before combining; a level over it
# raises CapExceededError instead of growing without bound.  The largest
# level seen is 46 over the test suite, 23 over `verify --max-rank 4` and
# 245 on quasi-Kahler systems of the F4 full flag (s = 24).
FM_ROW_CAP = 10**5


@dataclass(frozen=True)
class StrictRow:
    """A homogeneous constraint coeffs . x > 0 (strict) or >= 0."""

    coeffs: Row
    strict: bool = True


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    sample: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None


def _combine(p, q, a: int, b: int):
    """The row (a p + b q) / g in lowest terms; a > 0, and b < 0 only when q is an equality."""
    coeffs = [a * pc + b * qc for pc, qc in zip(p[0], q[0])]
    g = math.gcd(*coeffs) or 1
    return tuple(c // g for c in coeffs), p[1] or q[1], (p, q, a, b, g)


def _substitute(p, q, k: int):
    """p with x_k removed by the equality row q, whose coefficient at k is nonzero."""
    if not p[0][k]:
        return p
    sign = 1 if q[0][k] > 0 else -1
    return _combine(p, q, sign * q[0][k], -sign * p[0][k])


def _eliminate(rows, n: int, equalities=()):
    """Fourier-Motzkin elimination: (sample, None) or (None, checked Farkas (W, c)).

    Each row as given (ints or Fractions) is rescaled to coprime ints once,
    on entry.  Rows are then (int coeffs, strict, origin), origin the input
    index (the equalities follow the rows) or (p, q, a, b, g) for the derived
    row (a p + b q) / g.  Each equality row in turn removes its lowest nonzero
    column, its pivot, from every later equality and every inequality; these
    are the pivots of the reduced row echelon form.  FM then takes the free
    variables from the highest index down; the rows recorded per variable
    drive the back substitution, each value picked deterministically inside
    its interval, and the pivots are filled last, in reverse order.
    """
    given = [(r.coeffs, bool(r.strict)) for r in rows] + [(e, None) for e in equalities]
    inputs, current, pending = [], [], []
    for i, (coeffs, strict) in enumerate(given):
        if len(coeffs) != n:
            raise DimensionMismatchError(f"row of length {len(coeffs)}, expected {n}")
        inputs.append((coeffs, strict))
        row = (scale_to_integers(coeffs), bool(strict), i)
        (current if strict is not None else pending).append(row)

    pivots = []
    while pending:
        q = pending.pop(0)
        k = next((j for j, c in enumerate(q[0]) if c), None)
        if k is not None:
            pivots.append((k, q))
            pending = [_substitute(r, q, k) for r in pending]
            current = [_substitute(r, q, k) for r in current]
    pivot_columns = {k for k, _ in pivots}

    levels = []
    for k in (k for k in range(n - 1, -1, -1) if k not in pivot_columns):
        keep, pos, neg = [], [], []
        for r in current:
            if r[0][k] == 0:
                keep.append(r)
            elif r[0][k] > 0:
                pos.append(r)
            else:
                neg.append(r)
        if len(keep) + len(pos) * len(neg) > FM_ROW_CAP:
            raise CapExceededError(
                f"Fourier-Motzkin level would hold {len(keep) + len(pos) * len(neg)} rows, "
                f"over the cap of {FM_ROW_CAP}"
            )
        levels.append((k, pos + neg))
        best = {}
        for r in keep + [_combine(p, q, -q[0][k], p[0][k]) for p in pos for q in neg]:
            if r[0] not in best or (r[1] and not best[r[0]][1]):
                best[r[0]] = r
        current = [best[c] for c in sorted(best) if any(c) or best[c][1]]
        if not all(any(r[0]) for r in current):
            break
    zero = next((r for r in current if r[1] and not any(r[0])), None)
    if zero is not None:
        return None, _farkas_weights(zero, inputs, n)

    x: list[Fraction | None] = [None] * n
    for k, involved in reversed(levels):
        lower: tuple[Fraction, bool] | None = None
        upper: tuple[Fraction, bool] | None = None
        for coeffs, strict, _ in involved:
            rest = sum((coeffs[j] * x[j] for j in range(k) if coeffs[j]), Fraction(0))
            bound = -rest / coeffs[k]
            if coeffs[k] > 0:
                if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                    lower = (bound, strict)
            else:
                if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                    upper = (bound, strict)
        if lower is None and upper is None:
            x[k] = Fraction(0)
        elif lower is None:
            x[k] = upper[0] - 1
        elif upper is None:
            x[k] = lower[0] + 1
        else:
            if lower[0] > upper[0] or (lower[0] == upper[0] and (lower[1] or upper[1])):
                raise InvariantViolationError("elimination left an empty interval")
            x[k] = (lower[0] + upper[0]) / 2
    for k, q in reversed(pivots):
        rest = sum((c * x[j] for j, c in enumerate(q[0]) if c and j != k), Fraction(0))
        x[k] = -rest / q[0][k]
    return tuple(x), None


def _farkas_weights(zero_row, inputs, n: int) -> tuple[list[int], int]:
    """Checked (W, c) with sum W_i row_i = 0 on the rows as given, positive on a strict row.

    Every row carries int weights W and an int scale c > 0, in lowest terms,
    with sum W_i input_i = c row, so the weights on the inputs are W / c.
    W >= 0 except on the equality rows, which may take either sign.  Parents
    are shared: memoise by identity.
    """
    memo: dict[int, tuple[list[int], int]] = {}

    def weights(r) -> tuple[list[int], int]:
        if id(r) not in memo:
            if isinstance(r[2], int):
                scale = next((Fraction(s) / c for s, c in zip(r[0], inputs[r[2]][0]) if c), Fraction(1))
                w = [0] * len(inputs)
                w[r[2]] = scale.numerator
                memo[id(r)] = w, scale.denominator
            else:
                p, q, a, b, g = r[2]
                (wp, cp), (wq, cq) = weights(p), weights(q)
                lcm = math.lcm(cp, cq)
                a, b = a * (lcm // cp), b * (lcm // cq)
                w = [a * u + b * v for u, v in zip(wp, wq)]
                c = g * lcm
                d = math.gcd(c, *w)
                memo[id(r)] = ([u // d for u in w], c // d) if d > 1 else (w, c)
        return memo[id(r)]

    w, c = weights(zero_row)
    combo = [sum(wi * row[j] for wi, (row, _) in zip(w, inputs) if wi) for j in range(n)]
    if (
        any(wi < 0 for wi, (_, strict) in zip(w, inputs) if strict is not None)
        or any(combo)
        or not any(wi and strict for wi, (_, strict) in zip(w, inputs))
    ):
        raise InvariantViolationError("Farkas weights of an infeasible system fail verification")
    return w, c


def solve_strict_rows(rows, n: int) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every homogeneous row, or None after checked Farkas weights."""
    return _eliminate(rows, n)[0]


def scale_to_integers(vec) -> tuple[int, ...]:
    """Positive rescale of a vector of ints or Fractions to coprime integer entries."""
    try:
        lcm = math.lcm(*(x.denominator for x in vec))
        ints = [x.numerator * (lcm // x.denominator) for x in vec]
    except AttributeError:
        raise InvalidInputError(f"row entries must be ints or Fractions, got {vec!r}") from None
    g = math.gcd(*ints) or 1
    return tuple(i // g for i in ints)


def solve_positive_kernel(eq_rows, n: int) -> FeasibilityResult:
    """Decide E x = 0 with x strictly positive, exactly.

    The fast path rejects any equality whose nonzero coefficients share a
    sign.  Otherwise each row is negated if its first nonzero entry is
    negative, and `_kernel_elimination` answers the normalised system; its
    certificate is negated back on the flipped rows.  The sample or the
    certificate is then checked as ints against the rows as given.
    """
    rows = list(eq_rows)
    for r in rows:
        if len(r) != n:
            raise DimensionMismatchError(f"row of length {len(r)}, expected {n}")
        if not set(map(type, r)) <= {int, Fraction}:
            raise InvalidInputError(f"row entries must be ints or Fractions, got {r!r}")
    flipped = []
    for i, r in enumerate(rows):
        nonzero = [c for c in r if c != 0]
        if nonzero and (all(c > 0 for c in nonzero) or all(c < 0 for c in nonzero)):
            cert = [Fraction(0)] * len(rows)
            cert[i] = Fraction(1) if nonzero[0] > 0 else Fraction(-1)
            return FeasibilityResult(False, None, tuple(cert))
        flipped.append(bool(nonzero) and nonzero[0] < 0)

    x, cert = _kernel_elimination(
        tuple(tuple(-c for c in r) if f else tuple(r) for r, f in zip(rows, flipped)), n
    )
    if x is None:
        y, c = cert
        y = [-u if f else u for u, f in zip(y, flipped)]
        combo = [sum(yr * row[j] for yr, row in zip(y, rows) if yr) for j in range(n)]
        if any(v < 0 for v in combo) or not any(combo):
            raise InvariantViolationError("dual certificate fails verification")
        return FeasibilityResult(False, None, tuple(Fraction(u, c) for u in y))
    for r in rows:
        if sum(c * v for c, v in zip(r, x)) != 0:
            raise InvariantViolationError("kernel sample violates an equality row")
    if any(v <= 0 for v in x):
        raise InvariantViolationError("kernel sample is not strictly positive")
    return FeasibilityResult(True, tuple(map(Fraction, x)), None)


# one entry per conjugate pair (j, -j) of the 2^12 structures at the default --iacs-cap
@lru_cache(maxsize=2**11)
def _kernel_elimination(rows: tuple[Row, ...], n: int):
    """One elimination of x_k > 0 for every k, subject to E x = 0.

    Its sample rescaled to small integers, or (y, c) with y / c the
    certificate: the elimination's weights u on the equality rows have
    -u^T E equal to its weights on x > 0, which are nonnegative and nonzero.
    The caller checks either answer against the rows it was given.
    """
    positivity = [StrictRow(tuple(int(j == k) for j in range(n))) for k in range(n)]
    x, weights = _eliminate(positivity, n, rows)
    if x is None:
        w, c = weights
        return None, (tuple(-u for u in w[n:]), c)
    return scale_to_integers(x), None
