"""Exact homogeneous linear feasibility over the rationals.

Two problem shapes cover everything the classifier needs: strict sign
systems (is there a point with prescribed strict signs on a family of
functionals) and positive kernels (is there a strictly positive solution
of a homogeneous equality system).  Both are decided by Fourier-Motzkin
elimination with Fraction arithmetic, so answers are exact and samples
are rational.  Infeasible positive-kernel instances come with a dual
certificate: a combination of the equality rows that is nonnegative and
nonzero, which no strictly positive vector can annihilate.  Its
multipliers come from the same single reduction of [E | I] that yields
the row-space basis searched for that combination.
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


def _dedupe(rows: list[StrictRow]) -> list[StrictRow]:
    strictness: dict[Row, bool] = {}
    for r in rows:
        strictness[r.coeffs] = strictness.get(r.coeffs, False) or r.strict
    return [StrictRow(c, s) for c, s in sorted(strictness.items())]


def _combine(p: StrictRow, q: StrictRow, k: int) -> StrictRow:
    """Positive combination of p (coeff at k > 0) and q (< 0) killing x_k, in lowest terms."""
    a, b = -q.coeffs[k], p.coeffs[k]
    coeffs = [a * pc + b * qc for pc, qc in zip(p.coeffs, q.coeffs)]
    return StrictRow(scale_to_integers(coeffs), p.strict or q.strict)


def solve_strict_rows(rows, n: int) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every homogeneous row, or None.

    Variables are eliminated from the highest index down; the recorded
    per-variable rows drive the back substitution, each value picked
    deterministically inside its interval.
    """
    current: list[StrictRow] = []
    for r in rows:
        coeffs = _as_fractions(r.coeffs)
        if len(coeffs) != n:
            raise DimensionMismatchError(f"row of length {len(coeffs)}, expected {n}")
        current.append(StrictRow(scale_to_integers(coeffs), r.strict))

    levels: list[tuple[int, list[StrictRow]]] = []
    for k in range(n - 1, -1, -1):
        keep, pos, neg = [], [], []
        for r in current:
            if r.coeffs[k] == 0:
                keep.append(r)
            elif r.coeffs[k] > 0:
                pos.append(r)
            else:
                neg.append(r)
        levels.append((k, pos + neg))
        derived = [_combine(p, q, k) for p in pos for q in neg]
        current = []
        for r in _dedupe(keep + derived):
            if any(r.coeffs):
                current.append(r)
            elif r.strict:
                return None
    for r in current:
        if r.strict:
            return None

    x: list[Fraction | None] = [None] * n
    for k, involved in reversed(levels):
        lower: tuple[Fraction, bool] | None = None
        upper: tuple[Fraction, bool] | None = None
        for r in involved:
            rest = -sum(
                (r.coeffs[j] * x[j] for j in range(k) if r.coeffs[j] != 0),
                Fraction(0),
            )
            bound = rest / r.coeffs[k]
            if r.coeffs[k] > 0:
                if lower is None or bound > lower[0] or (bound == lower[0] and r.strict):
                    lower = (bound, r.strict)
            else:
                if upper is None or bound < upper[0] or (bound == upper[0] and r.strict):
                    upper = (bound, r.strict)
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
    return tuple(x)


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


def _positive_combination_certificate(eq_rows: list[Row], n: int) -> tuple[Fraction, ...]:
    """Multipliers y with y^T E >= 0 and != 0, witnessing infeasibility.

    One reduction of [E | I], pivoting in the first n columns, gives rows
    [B_i | T_i] with B_i = T_i . E and the B_i a row-space basis.  The
    search finds w with z = w . B >= 0 componentwise and a strictly
    positive total; then y = w . T.
    """
    m_rows = len(eq_rows)
    augmented = [
        (*row, *(int(r == k) for r in range(m_rows))) for k, row in enumerate(eq_rows)
    ]
    reduced, _ = rref(augmented, n)
    m = len(reduced)
    cols = [[reduced[i][j] for i in range(m)] for j in range(n)]
    rows = [StrictRow(tuple(col), strict=False) for col in cols]
    total = tuple(sum(col[i] for col in cols) for i in range(m))
    w = solve_strict_rows([*rows, StrictRow(total, strict=True)], m)
    if w is None:
        raise InvariantViolationError(
            "positive-kernel instance infeasible but no dual certificate exists"
        )
    y = [sum(w[i] * reduced[i][n + r] for i in range(m)) for r in range(m_rows)]
    combo = [
        sum(y[r] * Fraction(eq_rows[r][j]) for r in range(m_rows)) for j in range(n)
    ]
    if any(c < 0 for c in combo) or not any(combo):
        raise InvariantViolationError("recovered dual certificate fails verification")
    return tuple(y)


def solve_positive_kernel(eq_rows, n: int) -> FeasibilityResult:
    """Decide E x = 0 with x strictly positive, exactly.

    The fast path rejects any equality whose nonzero coefficients share a
    sign: no positive vector can satisfy it.  Otherwise the kernel is
    parameterized and positivity is handed to the strict solver; samples
    are rescaled to small integers.
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
    if not basis:
        if n == 0:
            return FeasibilityResult(True, (), None)
        return FeasibilityResult(False, None, _positive_combination_certificate(rows, n))
    positivity = [
        StrictRow(tuple(basis[j][i] for j in range(len(basis))), strict=True)
        for i in range(n)
    ]
    w = solve_strict_rows(positivity, len(basis))
    if w is None:
        return FeasibilityResult(False, None, _positive_combination_certificate(rows, n))
    x = scale_to_integers(
        tuple(sum(w[j] * basis[j][i] for j in range(len(basis))) for i in range(n))
    )
    for r in rows:
        if sum(c * v for c, v in zip(r, x)) != 0:
            raise InvariantViolationError("kernel sample violates an equality row")
    if any(v <= 0 for v in x):
        raise InvariantViolationError("kernel sample is not strictly positive")
    return FeasibilityResult(True, x, None)
