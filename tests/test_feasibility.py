"""Exact Fourier-Motzkin solver: strict sign systems and positive kernels."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagclass import feasibility
from flagclass.errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidInputError,
    InvariantViolationError,
)
from flagclass.feasibility import (
    scale_to_integers,
    solve_positive_kernel,
    solve_strict_rows,
)
from flagclass.flag import build_t_roots, make_flag
from flagclass.rootsys import build_root_system, proper_subsets, types_up_to
from flagclass.structures import (
    IACS,
    closed_metric_feasibility,
    enumerate_iacs,
    qk_feasibility,
)


def check_strict(rows, x):
    for r in rows:
        assert sum(Fraction(c) * v for c, v in zip(r, x)) > 0, (r, x)


def check_certificate(eq_rows, cert):
    m = len(eq_rows)
    combo = [
        sum(Fraction(cert[i]) * Fraction(eq_rows[i][j]) for i in range(m))
        for j in range(len(eq_rows[0]))
    ]
    assert all(c >= 0 for c in combo)
    assert any(combo)


def test_single_variable():
    x = solve_strict_rows([(Fraction(1),)], 1)
    assert x is not None and x[0] > 0
    assert solve_strict_rows([(Fraction(1),), (Fraction(-1),)], 1) is None


def test_plane_cone():
    rows = [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(-1)),
    ]
    x = solve_strict_rows(rows, 2)
    check_strict(rows, x)


def test_strict_samples_are_pinned():
    # the free variables go from the highest index down; each value is the
    # midpoint of the largest lower and the smallest upper bound, or one past
    # the only side that has a bound, or 0 when neither has one
    for rows, n, sample in [
        ([(1, 0), (0, 1), (1, -1)], 2, (1, Fraction(1, 2))),
        ([(1, 1), (-1, 1), (2, -1), (3, -1)], 2, (1, Fraction(3, 2))),
        ([(0, 1)], 2, (0, 1)),
        ([(-1, 0, 1), (0, -1, 1)], 3, (0, 0, 1)),
        # a row and its double bound x_1 from above by the same x_0
        ([(1, -1), (2, -2), (0, 1)], 2, (1, Fraction(1, 2))),
        # at x = (1, 1/2), x_2 < x_1 and x_2 < x_0 - x_1 give the same upper bound
        (
            [(1, -1, 0), (0, 1, 0), (0, 1, -1), (1, -1, -1), (0, 0, 1)],
            3,
            (1, Fraction(1, 2), Fraction(1, 4)),
        ),
        # x_1 is bounded from above only, by x_1 < x_0 / 2
        ([(1, 0), (1, -2)], 2, (1, Fraction(-1, 2))),
        # x_0 = -1, then x_1 is the midpoint of -2 < x_1 < 1
        ([(-1, 0), (-2, 1), (-1, -1)], 2, (-1, Fraction(-1, 2))),
        # the same with Fraction entries: -6 < x_1 < 1
        ([(Fraction(-1, 2), 0), (-2, Fraction(1, 3)), (-1, -1)], 2, (-1, Fraction(-5, 2))),
    ]:
        x = solve_strict_rows(rows, n)
        assert x == sample, rows
        assert all(type(v) is Fraction for v in x)
        check_strict(rows, x)


def test_kernel_samples_are_pinned():
    # pivots with coefficients 2 and 3: x_0 and x_1 get denominators 2 and 3,
    # or 6 when the second pivot feeds the first; samples are rescaled to coprime ints
    for rows, n, sample in [
        ([(2, -3, 0)], 3, (3, 2, 2)),
        ([(2, 0, -1), (0, 3, -1)], 3, (3, 2, 6)),
        ([(2, -1, 0), (0, 3, -1)], 3, (1, 2, 6)),
        ([(0, 3, -2, -1), (2, -3, 0, 0)], 4, (3, 2, 2, 2)),
        ([(Fraction(2, 5), 0, -1), (0, 3, Fraction(-1, 7))], 3, (105, 2, 42)),
    ]:
        result = solve_positive_kernel(rows, n)
        assert result.feasible and result.sample == sample, rows
        assert all(type(v) is Fraction for v in result.sample)
        for r in rows:
            assert sum(Fraction(c) * v for c, v in zip(r, result.sample)) == 0


def test_strict_sample_is_checked(monkeypatch):
    # a point that the elimination got wrong is refused, not returned; the
    # elimination hands back its point as ints X over one denominator D, here -1 / 1
    monkeypatch.setattr(feasibility, "_eliminate", lambda rows, n: ((-1,), 1, None))
    with pytest.raises(InvariantViolationError, match="violates a row"):
        solve_strict_rows([(1,)], 1)


def test_row_length_checked():
    with pytest.raises(DimensionMismatchError):
        solve_strict_rows([(Fraction(1),)], 2)


@pytest.mark.parametrize("entry", [1.0, 0.5, "x", None, True])
def test_row_entries_must_be_exact(entry):
    # scale_to_integers reads a bool as an int; the solvers' row guard refuses it
    if entry is not True:
        with pytest.raises(InvalidInputError):
            scale_to_integers((entry, 1))
    with pytest.raises(InvalidInputError):
        solve_strict_rows([(entry, 1)], 2)


def test_kernel_row_entries_must_be_exact():
    # the row has both signs, so it passes the fast path and reaches the elimination
    with pytest.raises(InvalidInputError):
        solve_positive_kernel([(1.0, -1)], 2)
    # single-signed rows, which the fast path would answer without the elimination
    for rows in ([(1.0, 2.0)], [("x", -1)], [(None, 1)], [(True, 1)]):
        with pytest.raises(InvalidInputError):
            solve_positive_kernel(rows, 2)


def test_scale_to_integers():
    for vec, expected in [
        ((Fraction(1, 2), Fraction(1, 3)), (3, 2)),
        ((Fraction(2), Fraction(4)), (1, 2)),
        ((6, -9, 0), (2, -3, 0)),
        ((4, Fraction(-2, 3)), (6, -1)),
        ((0, 0), (0, 0)),
        ((Fraction(0), 0), (0, 0)),
        ((), ()),
    ]:
        got = scale_to_integers(vec)
        assert got == expected
        assert all(type(i) is int for i in got)


def test_kernel_single_equation():
    res = solve_positive_kernel([(1, 1, -1)], 3)
    assert res.feasible
    assert all(v > 0 for v in res.sample)
    assert sum(c * v for c, v in zip((1, 1, -1), res.sample)) == 0
    assert all(v.denominator == 1 for v in res.sample)
    assert all(type(v) is Fraction for v in res.sample)


def test_kernel_same_sign_row_rejected_fast():
    res = solve_positive_kernel([(1, 2, 3)], 3)
    assert not res.feasible
    assert res.certificate == (1,)
    res = solve_positive_kernel([(0, -1, -2)], 3)
    assert not res.feasible
    assert res.certificate == (-1,)


def test_kernel_forced_zero_coordinate():
    rows = [(1, 1, -1), (1, -1, 1)]
    res = solve_positive_kernel(rows, 3)
    assert not res.feasible
    check_certificate(rows, res.certificate)


def test_kernel_certificate_is_exact_on_rescaled_int_rows():
    # no row has a single sign, so the system reaches the elimination, and
    # both rows rescale by a factor other than 1 on the way in
    res = solve_positive_kernel([(2, -4), (-6, 3)], 2)
    assert not res.feasible
    assert res.certificate == (Fraction(-1, 12), Fraction(-1, 9))
    assert all(type(c) is Fraction for c in res.certificate)


@pytest.mark.parametrize("n", [-1, -2, True, False, 1.0, "2", None])
def test_variable_count_must_be_a_nonnegative_int(n):
    # with no rows, a bad count would otherwise get a vacuous answer
    for rows in ([], [(1, 1)]):
        with pytest.raises(InvalidInputError, match="variable count"):
            solve_positive_kernel(rows, n)
        with pytest.raises(InvalidInputError, match="variable count"):
            solve_strict_rows(rows, n)


def test_kernel_no_equations_vacuous():
    res = solve_positive_kernel([], 4)
    assert res.feasible
    assert res.sample == (1, 1, 1, 1)
    res = solve_positive_kernel([], 0)
    assert res.feasible
    assert res.sample == ()


def test_kernel_full_rank_infeasible():
    # the last two systems have no single-signed row, so they pass the fast
    # path; the last one is rank-deficient, so its certificate is not unique
    for rows in ([(1, 0), (0, 1)], [(1, -1), (1, -2)], [(1, 1, -1), (1, -1, 1), (2, 2, -2)]):
        res = solve_positive_kernel(rows, len(rows[0]))
        assert not res.feasible
        check_certificate(rows, res.certificate)


def test_kernel_deterministic():
    rows = [(1, 2, -1, 0), (0, 1, 1, -1)]
    assert solve_positive_kernel(rows, 4) == solve_positive_kernel(rows, 4)
    # x3 and x4 are free; the sample is the one fixed by the elimination
    # order, and a dependent row (the sum of the two) must not move it
    for system in (rows, [*rows, (1, 3, 0, -1)]):
        res = solve_positive_kernel(system, 4)
        assert res.feasible
        assert res.sample == (2, 1, 4, 5)


small_int = st.integers(min_value=-4, max_value=4)


@st.composite
def exact_row(draw, n):
    """n small entries times a common factor, as ints, Fractions or a mix of both."""
    factor = draw(st.integers(min_value=1, max_value=3))
    den = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    row = []
    for _ in range(n):
        c = factor * draw(small_int)
        as_fraction = kind == "fraction" or (kind == "mixed" and draw(st.booleans()))
        row.append(Fraction(c, den) if as_fraction else c)
    return tuple(row)


@st.composite
def rows_with_known_point(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    point = tuple(
        Fraction(draw(st.integers(min_value=1, max_value=5))) for _ in range(n)
    )
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        coeffs = draw(exact_row(n))
        val = sum(c * p for c, p in zip(coeffs, point))
        if val <= 0:
            # flip so the known point satisfies the row strictly, or skip zeros
            if val == 0:
                continue
            coeffs = tuple(-c for c in coeffs)
        rows.append(coeffs)
    return rows, n


@settings(max_examples=80, deadline=None)
@given(rows_with_known_point())
def test_strict_solver_finds_known_feasible(case):
    rows, n = case
    x = solve_strict_rows(rows, n)
    assert x is not None
    check_strict(rows, x)


@st.composite
def gordan_infeasible_rows(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    rows = [draw(exact_row(n)) for _ in range(m)]
    weights = [draw(st.integers(min_value=1, max_value=3)) for _ in rows]
    last = tuple(
        -sum(w * r[j] for w, r in zip(weights, rows)) for j in range(n)
    )
    return [*rows, last], n


@settings(max_examples=80, deadline=None)
@given(gordan_infeasible_rows())
def test_strict_solver_rejects_zero_combinations(case):
    # a positive combination of the rows vanishes, so no point can
    # satisfy all of them strictly
    rows, n = case
    assert solve_strict_rows(rows, n) is None


@st.composite
def random_kernel_instances(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = [tuple(draw(small_int) for _ in range(n)) for _ in range(m)]
    # sometimes append a dependent row, so that E is rank-deficient and the
    # certificate multipliers are not unique
    extra = draw(st.sampled_from(["none", "sum", "multiple"]))
    if extra == "sum":
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(tuple(x + y for x, y in zip(a, b)))
    elif extra == "multiple":
        k = draw(st.integers(min_value=-3, max_value=3))
        rows.append(tuple(k * x for x in draw(st.sampled_from(rows))))
    return rows, n


@settings(max_examples=120, deadline=None)
@given(random_kernel_instances())
def test_kernel_answers_always_carry_proof(case):
    rows, n = case
    res = solve_positive_kernel(rows, n)
    if res.feasible:
        assert all(v > 0 for v in res.sample)
        for r in rows:
            assert sum(c * v for c, v in zip(r, res.sample)) == 0
    else:
        check_certificate(rows, res.certificate)


@st.composite
def kernel_with_positive_solution(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    point = [Fraction(draw(st.integers(min_value=1, max_value=4))) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        coeffs = [Fraction(draw(small_int)) for _ in range(n)]
        # orthogonalize against the chosen positive point
        overlap = sum(c * p for c, p in zip(coeffs, point))
        norm = sum(p * p for p in point)
        rows.append(tuple(c - p * overlap / norm for c, p in zip(coeffs, point)))
    return rows, n


@settings(max_examples=80, deadline=None)
@given(kernel_with_positive_solution())
def test_kernel_never_misses_positive_solutions(case):
    rows, n = case
    assert solve_positive_kernel(rows, n).feasible


@settings(max_examples=150, deadline=None)
@given(random_kernel_instances(), st.data())
def test_kernel_flipped_rows_keep_sample_and_flip_certificate(case, data):
    # negating rows changes neither pivot nor substitution: the sample stays
    # and only the flipped rows' certificate entries change sign
    rows, n = case
    flips = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    flipped = [tuple(-c for c in r) if f else r for r, f in zip(rows, flips)]
    base = solve_positive_kernel(rows, n)
    other = solve_positive_kernel(flipped, n)
    assert other.feasible == base.feasible
    assert other.sample == base.sample
    if not base.feasible:
        assert other.certificate == tuple(
            -y if f else y for y, f in zip(base.certificate, flips)
        )
        check_certificate(flipped, other.certificate)


def test_conjugate_structures_share_one_answer():
    # -j negates every row of both systems of j and keeps their sign pattern
    for t in types_up_to(3):
        rs = build_root_system(t)
        for theta in proper_subsets(t.rank):
            ts = build_t_roots(make_flag(rs, theta))
            if len(ts.positive) > 7:
                continue
            for j in enumerate_iacs(ts):
                if j.signs[0] < 0:
                    continue
                conj = IACS(tuple(-v for v in j.signs))
                for system in (qk_feasibility, closed_metric_feasibility):
                    a, b = system(j, ts), system(conj, ts)
                    assert b.equations == tuple(tuple(-c for c in r) for r in a.equations)
                    assert b.feasible == a.feasible and b.sample == a.sample
                    if not a.feasible:
                        assert b.certificate == tuple(-y for y in a.certificate)


def test_elimination_row_cap(monkeypatch):
    # x_2 goes first: two rows with a positive and two with a negative
    # coefficient there make a level of four combined rows
    rows = [(1, 1), (-1, 1), (2, -1), (3, -1)]
    monkeypatch.setattr(feasibility, "FM_ROW_CAP", 4)
    check_strict(rows, solve_strict_rows(rows, 2))
    monkeypatch.setattr(feasibility, "FM_ROW_CAP", 3)
    with pytest.raises(CapExceededError, match="would hold 4 rows, over the cap of 3"):
        solve_strict_rows(rows, 2)
    # the kernel run goes through the same elimination
    monkeypatch.setattr(feasibility, "FM_ROW_CAP", 1)
    with pytest.raises(CapExceededError):
        solve_positive_kernel([(1, -1, 1, -1)], 4)
