"""Exact homogeneous linear feasibility over the rationals.

Two problem shapes cover everything the classifier needs: strict sign
systems (is there a point with prescribed strict signs on a family of
functionals) and positive kernels (is there a strictly positive solution
of a homogeneous equality system).  Both are decided by one integer
Fourier-Motzkin elimination, so answers are exact and samples rational.
The run that derives 0 > 0 returns checked Farkas weights on its input
rows.  For an infeasible positive kernel they are turned into a dual
certificate, a combination of the equality rows that is nonnegative and
nonzero, by one reduction of [E | I], made for infeasible kernels only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, InvariantViolationError

Row = tuple[Fraction, ...]


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


def _as_fractions(row) -> Row:
    return tuple(Fraction(x) for x in row)


def _combine(p, q, k: int):
    """Positive combination of p (coeff at k > 0) and q (< 0) killing x_k, in lowest terms."""
    a, b = -q[0][k], p[0][k]
    coeffs = [a * pc + b * qc for pc, qc in zip(p[0], q[0])]
    g = math.gcd(*coeffs) or 1
    return tuple(c // g for c in coeffs), p[1] or q[1], (p, q, a, b, g)


def _eliminate(rows, n: int):
    """Fourier-Motzkin elimination: (sample, None) or (None, Farkas weights).

    Rows are (int coeffs, strict, origin), origin the input index or
    (p, q, a, b, g) for the derived row (a p + b q) / g.  Variables go from
    the highest index down; the rows recorded per variable drive the back
    substitution, each value picked deterministically inside its interval.
    """
    inputs, current = [], []
    for i, r in enumerate(rows):
        coeffs = _as_fractions(r.coeffs)
        if len(coeffs) != n:
            raise DimensionMismatchError(f"row of length {len(coeffs)}, expected {n}")
        inputs.append((coeffs, r.strict))
        current.append((tuple(map(int, scale_to_integers(coeffs))), r.strict, i))

    levels = []
    for k in range(n - 1, -1, -1):
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
        for r in keep + [_combine(p, q, k) for p in pos for q in neg]:
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
    return tuple(x), None


def _farkas_weights(zero_row, inputs, n: int) -> tuple[Fraction, ...]:
    """Checked w >= 0, positive on a strict row, with sum w_i row_i = 0 on the rows as given.

    Input rescale factors are folded back in.  Parents are shared: memoise by identity.
    """
    memo: dict[int, list[Fraction]] = {}

    def weights(r) -> list[Fraction]:
        if id(r) not in memo:
            if isinstance(r[2], int):
                scale = next((s / c for s, c in zip(r[0], inputs[r[2]][0]) if c), Fraction(1))
                memo[id(r)] = [Fraction(0)] * len(inputs)
                memo[id(r)][r[2]] = scale
            else:
                p, q, a, b, g = r[2]
                memo[id(r)] = [(a * u + b * v) / g for u, v in zip(weights(p), weights(q))]
        return memo[id(r)]

    w = weights(zero_row)
    combo = [sum(wi * row[j] for wi, (row, _) in zip(w, inputs)) for j in range(n)]
    if min(w) < 0 or any(combo) or not any(wi and strict for wi, (_, strict) in zip(w, inputs)):
        raise InvariantViolationError("Farkas weights of an infeasible system fail verification")
    return tuple(w)


def solve_strict_rows(rows, n: int) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every homogeneous row, or None after checked Farkas weights."""
    return _eliminate(rows, n)[0]


def rref(rows: list[Row], n: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form and its pivot columns."""
    mat = [list(_as_fractions(r)) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [c * inv for c in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return [tuple(r) for r in mat[:rank]], pivots


def null_space_basis(rows: list[Row], n: int) -> list[Row]:
    """Basis of {x : row . x = 0 for all rows}, one vector per free column."""
    reduced, pivots = rref(rows, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            vec[p] = -r[f]
        basis.append(tuple(vec))
    return basis


def scale_to_integers(vec) -> tuple[Fraction, ...]:
    """Positive rescale of a vector of ints or Fractions to coprime integer entries."""
    lcm = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * lcm) for x in vec]
    g = math.gcd(*ints) or 1
    return tuple(Fraction(i // g) for i in ints)


def _positive_combination_certificate(eq_rows: list[Row], n: int, z: Row) -> Row:
    """Multipliers y with y^T E = z, for z >= 0 and nonzero in the row space of E.

    Reducing [E | I], pivoting in the first n columns, gives rows [B_i | T_i]
    with B_i = T_i . E in reduced echelon form, so y = sum of z[p_i] T_i.
    """
    m_rows = len(eq_rows)
    augmented = [(*row, *(int(r == k) for r in range(m_rows))) for k, row in enumerate(eq_rows)]
    reduced, pivots = rref(augmented, n)
    y = [sum(z[p] * t[n + r] for t, p in zip(reduced, pivots)) for r in range(m_rows)]
    combo = [sum(yr * row[j] for yr, row in zip(y, eq_rows)) for j in range(n)]
    if any(c < 0 for c in combo) or not any(combo):
        raise InvariantViolationError("recovered dual certificate fails verification")
    return tuple(y)


def solve_positive_kernel(eq_rows, n: int) -> FeasibilityResult:
    """Decide E x = 0 with x strictly positive, exactly.

    The fast path rejects any equality whose nonzero coefficients share a
    sign.  Otherwise positivity on a kernel basis goes to one elimination:
    its sample is rescaled to small integers, or its weights z >= 0 are
    orthogonal to the kernel, hence a combination of the equality rows.
    """
    rows = [_as_fractions(r) for r in eq_rows]
    for r in rows:
        if len(r) != n:
            raise DimensionMismatchError(f"row of length {len(r)}, expected {n}")
    for i, r in enumerate(rows):
        nonzero = [c for c in r if c != 0]
        if nonzero and (all(c > 0 for c in nonzero) or all(c < 0 for c in nonzero)):
            cert = [Fraction(0)] * len(rows)
            cert[i] = Fraction(1) if nonzero[0] > 0 else Fraction(-1)
            return FeasibilityResult(False, None, tuple(cert))

    basis = null_space_basis(rows, n)
    positivity = [StrictRow(tuple(b[i] for b in basis)) for i in range(n)]
    w, z = _eliminate(positivity, len(basis))
    if w is None:
        return FeasibilityResult(False, None, _positive_combination_certificate(rows, n, z))
    x = scale_to_integers([sum(wj * b[i] for wj, b in zip(w, basis)) for i in range(n)])
    for r in rows:
        if sum(c * v for c, v in zip(r, x)) != 0:
            raise InvariantViolationError("kernel sample violates an equality row")
    if any(v <= 0 for v in x):
        raise InvariantViolationError("kernel sample is not strictly positive")
    return FeasibilityResult(True, x, None)
