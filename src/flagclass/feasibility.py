"""Exact homogeneous linear feasibility over the rationals.

Both questions the classifier asks are strict: a point where every row, a
plain coefficient tuple, is > 0, and a strictly positive solution of E x = 0,
answered as one `QKFeasibility`.  Both are decided by one integer
Fourier-Motzkin elimination, whose equality rows are first removed by
substitution, so answers are exact and samples rational.  Inside, rows are
coprime ints and a point is ints X over one common denominator D > 0; only
the samples and certificates callers receive are Fractions.  The run that
derives 0 > 0 returns checked Farkas weights on its input rows; for a
positive kernel, minus the weights on the equality rows is the dual
certificate, a combination of them that is nonnegative and nonzero.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidInputError,
    InvariantViolationError,
    _Frozen,
)

Row = tuple[int | Fraction, ...]

# Rows one elimination level may hold before combining; a level over it
# raises CapExceededError instead of growing without bound.  The largest
# level seen is 46 over the test suite, 23 over `verify --max-rank 4` and
# 245 on quasi-Kahler systems of the F4 full flag (s = 24).
FM_ROW_CAP = 10**5


class QKFeasibility(_Frozen):
    """Answer to E x = 0 with x > 0: a checked sample or certificate, and E as given."""

    feasible: bool
    sample: tuple[Fraction, ...] | None
    equations: tuple[Row, ...]
    certificate: tuple[Fraction, ...] | None


def _check_rows(rows, n: int) -> tuple[Row, ...]:
    """rows as a tuple, refused unless each has n int or Fraction entries (no bools).

    The count n must itself be an int >= 0; a bool is refused there too.
    """
    if type(n) is not int or n < 0:
        raise InvalidInputError(f"the variable count must be an int >= 0, got {n!r}")
    rows = tuple(rows)
    for r in rows:
        if len(r) != n:
            raise DimensionMismatchError(f"row of length {len(r)}, expected {n}")
        if not set(map(type, r)) <= {int, Fraction}:
            raise InvalidInputError(f"row entries must be ints or Fractions, got {r!r}")
    return rows


def _combine(p, q, a: int, b: int):
    """The row (a p + b q) / g in lowest terms; a > 0, and b < 0 only when q is an equality."""
    coeffs = [a * pc + b * qc for pc, qc in zip(p[0], q[0])]
    g = math.gcd(*coeffs) or 1
    return tuple(c // g for c in coeffs), (p, q, a, b, g)


def _substitute(p, q, k: int):
    """p with x_k removed by the equality row q, whose coefficient at k is nonzero."""
    if not p[0][k]:
        return p
    sign = 1 if q[0][k] > 0 else -1
    return _combine(p, q, sign * q[0][k], -sign * p[0][k])


def _eliminate(rows, n: int, equalities=()):
    """Fourier-Motzkin elimination: (X, D, None) or (None, None, checked Farkas (W, c)).

    A row means coeffs . x > 0 and an equality coeffs . x = 0.  Each as given
    (ints or Fractions, checked by the caller) is rescaled to coprime ints
    once, on entry.  Rows are then (int coeffs, origin), origin the input
    index (the equalities follow the rows) or (p, q, a, b, g) for the derived
    row (a p + b q) / g.  Each equality row in turn removes its lowest nonzero
    column, its pivot, from every later equality and every > 0 row; these
    are the pivots of the reduced row echelon form.  FM then takes the free
    variables from the highest index down; the rows recorded per variable
    drive the back substitution, each value picked deterministically inside
    its interval, and the pivots are filled last, in reverse order.  The
    sample is X / D, D its least common denominator; no bound is divided out.
    """
    inputs = [*rows, *equalities]
    current = [(scale_to_integers(c), i) for i, c in enumerate(rows)]
    pending = [(scale_to_integers(c), i) for i, c in enumerate(equalities, len(rows))]

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
            best.setdefault(r[0], r)
        current = [best[c] for c in sorted(best)]
        if not all(any(r[0]) for r in current):
            break
    zero = next((r for r in current if not any(r[0])), None)
    if zero is not None:
        return None, None, _farkas_weights(zero, inputs, len(rows), n)

    x, d = [0] * n, 1  # the point is x / d; an entry not yet set is 0

    def put(k: int, p: int, q: int) -> None:
        # x_k = p / (q d) with q nonzero; d stays the least common denominator
        nonlocal d
        g = math.gcd(p, q * d) * (1 if q > 0 else -1)
        p, q = p // g, q * d // g
        m = q // math.gcd(d, q)
        if m > 1:
            x[:] = [v * m for v in x]
            d *= m
        x[k] = p * (d // q)

    for k, involved in reversed(levels):
        lower = upper = None  # a bound (a, b), b > 0, is x_k > a / (b d) or x_k < a / (b d)
        for coeffs, _ in involved:
            c, rest = coeffs[k], sum(map(mul, coeffs, x))
            if c > 0:
                if lower is None or -rest * lower[1] > lower[0] * c:
                    lower = -rest, c
            elif upper is None or rest * upper[1] < -upper[0] * c:
                upper = rest, -c
        if lower is None:
            put(k, *((0, 1) if upper is None else (upper[0] - upper[1] * d, upper[1])))
        elif upper is None:
            put(k, lower[0] + lower[1] * d, lower[1])
        elif lower[0] * upper[1] < upper[0] * lower[1]:
            put(k, lower[0] * upper[1] + upper[0] * lower[1], 2 * lower[1] * upper[1])
        else:
            raise InvariantViolationError("elimination left an empty interval")
    for k, q in reversed(pivots):
        put(k, -sum(map(mul, q[0], x)), q[0][k])
    return tuple(x), d, None


def _farkas_weights(zero_row, inputs, m: int, n: int) -> tuple[list[int], int]:
    """Checked (W, c): sum W_i input_i = 0, and W >= 0 and nonzero on the first m inputs, the rows.

    Every row carries int weights W and an int scale c > 0, in lowest terms,
    with sum W_i input_i = c row, so the weights on the inputs are W / c.
    The equalities, after the rows, may take either sign.  Parents are
    shared: memoise by identity.
    """
    memo: dict[int, tuple[list[int], int]] = {}

    def weights(r) -> tuple[list[int], int]:
        if id(r) not in memo:
            if isinstance(r[1], int):
                scale = next((Fraction(s) / c for s, c in zip(r[0], inputs[r[1]]) if c), Fraction(1))
                w = [0] * len(inputs)
                w[r[1]] = scale.numerator
                memo[id(r)] = w, scale.denominator
            else:
                p, q, a, b, g = r[1]
                (wp, cp), (wq, cq) = weights(p), weights(q)
                lcm = math.lcm(cp, cq)
                a, b = a * (lcm // cp), b * (lcm // cq)
                w = [a * u + b * v for u, v in zip(wp, wq)]
                c = g * lcm
                d = math.gcd(c, *w)
                memo[id(r)] = ([u // d for u in w], c // d) if d > 1 else (w, c)
        return memo[id(r)]

    w, c = weights(zero_row)
    combo = [sum(wi * row[j] for wi, row in zip(w, inputs) if wi) for j in range(n)]
    if any(wi < 0 for wi in w[:m]) or any(combo) or not any(w[:m]):
        raise InvariantViolationError("Farkas weights of an infeasible system fail verification")
    return w, c


def solve_strict_rows(rows, n: int) -> tuple[Fraction, ...] | None:
    """A rational point x with every row . x > 0, checked, or None after checked Farkas weights."""
    rows = _check_rows(rows, n)
    x, d, _ = _eliminate(rows, n)
    if x is None:
        return None
    if any(sum(map(mul, r, x)) <= 0 for r in rows):
        raise InvariantViolationError("strict-rows sample violates a row")
    return tuple(Fraction(v, d) for v in x)


def scale_to_integers(vec) -> tuple[int, ...]:
    """Positive rescale of a vector of ints or Fractions to coprime integer entries."""
    ints = vec
    if not all(type(x) is int for x in vec):
        try:
            lcm = math.lcm(*(x.denominator for x in vec))
            ints = [x.numerator * (lcm // x.denominator) for x in vec]
        except AttributeError:
            raise InvalidInputError(f"row entries must be ints or Fractions, got {vec!r}") from None
    g = math.gcd(*ints)
    return tuple(i // g for i in ints) if g > 1 else tuple(ints)


def solve_positive_kernel(eq_rows, n: int) -> QKFeasibility:
    """Decide E x = 0 with x strictly positive, exactly.

    The fast path rejects an equality whose nonzero coefficients share a
    sign.  Otherwise one elimination of x_k > 0 for every k, subject to
    E x = 0, gives a sample, rescaled to small integers, or weights u on the
    equality rows with -u^T E its nonnegative, nonzero weights on x > 0.
    Either is checked as ints against the rows as given.  Negating a row
    changes neither its pivot nor the substitution, so it keeps the sample
    and flips only that row's certificate entry.
    """
    rows = _check_rows(eq_rows, n)
    for i, r in enumerate(rows):
        lo, hi = min(r, default=0), max(r, default=0)
        if (lo < 0) != (hi > 0):
            cert = [Fraction(0)] * len(rows)
            cert[i] = Fraction(1 if hi > 0 else -1)
            return QKFeasibility(False, None, rows, tuple(cert))

    positivity = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    x, _, weights = _eliminate(positivity, n, rows)
    if x is None:
        w, c = weights
        y = [-u for u in w[n:]]
        combo = [sum(yr * row[j] for yr, row in zip(y, rows) if yr) for j in range(n)]
        if any(v < 0 for v in combo) or not any(combo):
            raise InvariantViolationError("dual certificate fails verification")
        return QKFeasibility(False, None, rows, tuple(Fraction(u, c) for u in y))
    x = scale_to_integers(x)
    if any(sum(map(mul, r, x)) for r in rows):
        raise InvariantViolationError("kernel sample violates an equality row")
    if any(v <= 0 for v in x):
        raise InvariantViolationError("kernel sample is not strictly positive")
    return QKFeasibility(True, tuple(map(Fraction, x)), rows, None)
