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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, InvalidInputError, InvariantViolationError

Row = tuple[int | Fraction, ...]


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
    """Fourier-Motzkin elimination: (sample, None) or (None, Farkas weights).

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
            assert lower[0] < upper[0] or (
                lower[0] == upper[0] and not (lower[1] or upper[1])
            ), "elimination left an empty interval"
            x[k] = (lower[0] + upper[0]) / 2
    for k, q in reversed(pivots):
        rest = sum((c * x[j] for j, c in enumerate(q[0]) if c and j != k), Fraction(0))
        x[k] = -rest / q[0][k]
    return tuple(x), None


def _farkas_weights(zero_row, inputs, n: int) -> tuple[Fraction, ...]:
    """Checked w with sum w_i row_i = 0 on the rows as given, positive on a strict row.

    w >= 0 except on the equality rows, which may take either sign.  Input
    rescale factors are folded back in.  Parents are shared: memoise by identity.
    """
    memo: dict[int, list[Fraction]] = {}

    def weights(r) -> list[Fraction]:
        if id(r) not in memo:
            if isinstance(r[2], int):
                scale = next((Fraction(s) / c for s, c in zip(r[0], inputs[r[2]][0]) if c), Fraction(1))
                memo[id(r)] = [Fraction(0)] * len(inputs)
                memo[id(r)][r[2]] = scale
            else:
                p, q, a, b, g = r[2]
                memo[id(r)] = [(a * u + b * v) / g for u, v in zip(weights(p), weights(q))]
        return memo[id(r)]

    w = weights(zero_row)
    combo = [sum(wi * row[j] for wi, (row, _) in zip(w, inputs)) for j in range(n)]
    if (
        any(wi < 0 for wi, (_, strict) in zip(w, inputs) if strict is not None)
        or any(combo)
        or not any(wi and strict for wi, (_, strict) in zip(w, inputs))
    ):
        raise InvariantViolationError("Farkas weights of an infeasible system fail verification")
    return tuple(w)


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
    sign.  Otherwise one elimination of x_k > 0 for every k, subject to
    E x = 0: its sample is rescaled to small integers, or its weights u on
    the equality rows have -u^T E equal to its weights on x > 0, so y = -u
    is the certificate.
    """
    rows = list(eq_rows)
    for r in rows:
        if len(r) != n:
            raise DimensionMismatchError(f"row of length {len(r)}, expected {n}")
        if not set(map(type, r)) <= {int, Fraction}:
            raise InvalidInputError(f"row entries must be ints or Fractions, got {r!r}")
    for i, r in enumerate(rows):
        nonzero = [c for c in r if c != 0]
        if nonzero and (all(c > 0 for c in nonzero) or all(c < 0 for c in nonzero)):
            cert = [Fraction(0)] * len(rows)
            cert[i] = Fraction(1) if nonzero[0] > 0 else Fraction(-1)
            return FeasibilityResult(False, None, tuple(cert))

    positivity = [StrictRow(tuple(int(j == k) for j in range(n))) for k in range(n)]
    x, w = _eliminate(positivity, n, rows)
    if x is None:
        y = tuple(-u for u in w[n:])
        combo = [sum(yr * row[j] for yr, row in zip(y, rows)) for j in range(n)]
        if any(c < 0 for c in combo) or not any(combo):
            raise InvariantViolationError("dual certificate fails verification")
        return FeasibilityResult(False, None, y)
    x = scale_to_integers(x)
    for r in rows:
        if sum(c * v for c, v in zip(r, x)) != 0:
            raise InvariantViolationError("kernel sample violates an equality row")
    if any(v <= 0 for v in x):
        raise InvariantViolationError("kernel sample is not strictly positive")
    return FeasibilityResult(True, tuple(map(Fraction, x)), None)
