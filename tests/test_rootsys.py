"""Root system construction against closed-form and brute-force oracles."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagclass.errors import (
    DimensionMismatchError,
    InvalidLieTypeError,
    RootArgumentError,
)
from flagclass.flag import TRoot
from flagclass.rootsys import (
    LieType,
    Root,
    build_root_system,
    cartan_pairing,
    inner_product,
    root_string,
    simple_reflection,
    types_up_to,
)

Q = Fraction


def root_count_oracle(t: LieType) -> int:
    """Closed-form |R| per family, independent of the generator."""
    n = t.rank
    if t.family == "A":
        return n * (n + 1)
    if t.family in ("B", "C"):
        return 2 * n * n
    if t.family == "D":
        return 2 * n * (n - 1)
    if t.family == "E":
        return {6: 72, 7: 126, 8: 240}[n]
    if t.family == "F":
        return 48
    return 12  # G2


def all_desk_types(max_rank: int) -> list[LieType]:
    out = []
    for fam, lo, hi in (("A", 1, max_rank), ("B", 2, max_rank), ("C", 3, max_rank),
                        ("D", 4, max_rank), ("E", 6, min(8, max_rank)),
                        ("F", 4, 4), ("G", 2, 2)):
        for n in range(lo, hi + 1):
            if n <= max_rank:
                out.append(LieType(fam, n))
    return out


def test_root_counts_match_closed_forms():
    for t in all_desk_types(8):
        rs = build_root_system(t)
        assert len(rs.all_roots) == root_count_oracle(t), str(t)
        assert len(rs.positive_roots) * 2 == len(rs.all_roots)


def test_roots_closed_under_negation_and_distinct():
    for t in all_desk_types(6):
        rs = build_root_system(t)
        seen = set(rs.all_roots)
        assert len(seen) == len(rs.all_roots)
        for r in rs.all_roots:
            assert -r in seen


def test_canonical_order_is_height_then_lex():
    rs = build_root_system(LieType("B", 3))
    keys = [(r.height, r.coords) for r in rs.all_roots]
    assert keys == sorted(keys)


def test_a3_contains_the_full_chain_root():
    rs = build_root_system(LieType("A", 3))
    assert rs.contains(Root((1, 1, 1)))
    assert rs.contains(Root((0, 1, 1)))
    assert not rs.contains(Root((1, 0, 1)))


def test_gram_normalization_a2():
    rs = build_root_system(LieType("A", 2))
    a1, a2 = rs.simple_roots
    assert inner_product(rs, a1, a1) == 2
    assert inner_product(rs, a1, a2) == -1


# Cartan matrices in Bourbaki numbering, a_ij = <alpha_i, alpha_j> =
# 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), as tabulated by Bourbaki
# (Lie Groups and Lie Algebras, Ch. VI, Plates) and Humphreys (Sec. 11.4).
EXCEPTIONAL_CARTAN = {
    "G2": """
         2 -1
        -3  2""",
    "F4": """
         2 -1  0  0
        -1  2 -2  0
         0 -1  2 -1
         0  0 -1  2""",
    "E6": """
         2  0 -1  0  0  0
         0  2  0 -1  0  0
        -1  0  2 -1  0  0
         0 -1 -1  2 -1  0
         0  0  0 -1  2 -1
         0  0  0  0 -1  2""",
    "E7": """
         2  0 -1  0  0  0  0
         0  2  0 -1  0  0  0
        -1  0  2 -1  0  0  0
         0 -1 -1  2 -1  0  0
         0  0  0 -1  2 -1  0
         0  0  0  0 -1  2 -1
         0  0  0  0  0 -1  2""",
    "E8": """
         2  0 -1  0  0  0  0  0
         0  2  0 -1  0  0  0  0
        -1  0  2 -1  0  0  0  0
         0 -1 -1  2 -1  0  0  0
         0  0  0 -1  2 -1  0  0
         0  0  0  0 -1  2 -1  0
         0  0  0  0  0 -1  2 -1
         0  0  0  0  0  0 -1  2""",
}


def classical_cartan(family: str, n: int) -> list[list[int]]:
    """The textbook A_n, B_n, C_n and D_n Cartan matrices.

    A_n is 2 on the diagonal and -1 beside it.  B_n has a_{n-1,n} = -2 and
    C_n has a_{n,n-1} = -2.  D_n forks at node n-2: nodes n-1 and n both
    join n-2, and not each other.
    """
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    if family == "B":
        a[n - 2][n - 1] = -2
    elif family == "C":
        a[n - 1][n - 2] = -2
    elif family == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    return a


def cartan_oracle(t: LieType) -> list[list[int]]:
    if str(t) in EXCEPTIONAL_CARTAN:
        lines = EXCEPTIONAL_CARTAN[str(t)].strip().splitlines()
        return [[int(x) for x in line.split()] for line in lines]
    return classical_cartan(t.family, t.rank)


def test_cartan_matrices_match_bourbaki_up_to_rank_8():
    checked = 0
    for t in types_up_to(8):
        rs = build_root_system(t)
        gram, n, oracle = rs.gram, t.rank, cartan_oracle(t)
        cartan = [[2 * gram[i][j] / gram[j][j] for j in range(n)] for i in range(n)]
        assert cartan == oracle, str(t)
        # the Dynkin edges are the pairs i < j with a_ij != 0, 1-based
        edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if oracle[i][j]]
        assert rs.dynkin_edges() == tuple(edges), str(t)
        checked += 1
    assert checked == 31


def roots_by_strings(t: LieType) -> list[tuple[int, ...]]:
    """All roots of t as coordinate tuples, grown height by height from
    cartan_oracle(t) by root strings, sorted by (height, coords).

    For a positive root b and a simple root a_j, p counts how far b - k a_j
    stays a root, and b + a_j is a root iff p - <b, a_j> >= 1, where
    <b, a_j> = sum_i b_i a_ij.  Lower levels are complete when a level is
    grown, so the scans below are sound.
    """
    a, n = cartan_oracle(t), t.rank
    known = {tuple(int(i == j) for i in range(n)) for j in range(n)}
    level = sorted(known)
    while level:
        grown = []
        for b in level:
            for j in range(n):
                p = 0
                while b[:j] + (b[j] - p - 1,) + b[j + 1:] in known:
                    p += 1
                up = b[:j] + (b[j] + 1,) + b[j + 1:]
                if p - sum(b[i] * a[i][j] for i in range(n)) >= 1 and up not in known:
                    known.add(up)
                    grown.append(up)
        level = grown
    roots = list(known) + [tuple(-x for x in c) for c in known]
    return sorted(roots, key=lambda c: (sum(c), c))


@pytest.mark.parametrize("t", types_up_to(8), ids=str)
def test_roots_match_root_string_growth(t):
    # the Weyl orbit of the simple roots against the root-string derivation
    assert [r.coords for r in build_root_system(t).all_roots] == roots_by_strings(t)


def test_cartan_oracle_spot_checks():
    # the classical forms at small rank, written out, pin the oracle itself
    assert classical_cartan("B", 3) == [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert classical_cartan("C", 3) == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    assert classical_cartan("D", 4) == [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ]


def test_gram_long_roots_have_length_two():
    for t in all_desk_types(4):
        rs = build_root_system(t)
        longest = max(inner_product(rs, r, r) for r in rs.all_roots)
        assert longest == 2, str(t)


def test_gram_positive_definite_via_leading_minors():
    for t in all_desk_types(6):
        rs = build_root_system(t)
        n = rs.rank
        m = [list(row) for row in rs.gram]
        # exact fraction-free-ish Gaussian elimination, tracking minor signs
        for k in range(n):
            pivot = m[k][k]
            assert pivot > 0, str(t)
            for i in range(k + 1, n):
                factor = m[i][k] / pivot
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]


def test_root_string_examples():
    a2 = build_root_system(LieType("A", 2))
    r1, r2 = a2.simple_roots
    assert root_string(a2, r1, r2) == (0, 1)
    assert root_string(a2, r1, r1 + r2) == (1, 0)
    b2 = build_root_system(LieType("B", 2))
    b1, bshort = b2.simple_roots
    assert root_string(b2, bshort, b1) == (0, 2)


def brute_string(rs, a, b):
    """Membership-scan oracle for the string counts."""
    p = 0
    while (Root(tuple(x - (p + 1) * y for x, y in zip(b.coords, a.coords)))) in rs.root_set:
        p += 1
    q = 0
    while (Root(tuple(x + (q + 1) * y for x, y in zip(b.coords, a.coords)))) in rs.root_set:
        q += 1
    return p, q


def test_root_string_against_brute_force_everywhere():
    for t in (LieType("G", 2), LieType("B", 3), LieType("A", 3), LieType("C", 3)):
        rs = build_root_system(t)
        for a in rs.all_roots:
            for b in rs.all_roots:
                if b == a or b == -a:
                    continue
                assert root_string(rs, a, b) == brute_string(rs, a, b)


def test_string_lengths_bounded_by_four():
    rs = build_root_system(LieType("G", 2))
    for a in rs.all_roots:
        for b in rs.all_roots:
            if b in (a, -a):
                continue
            p, q = root_string(rs, a, b)
            assert p + q <= 3


def test_simple_reflection_examples():
    a2 = build_root_system(LieType("A", 2))
    a1, a2root = a2.simple_roots
    assert simple_reflection(a2, 1, a1) == -a1
    assert simple_reflection(a2, 1, a2root) == a1 + a2root
    assert simple_reflection(a2, 2, a1 + a2root) == a1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(all_desk_types(4)), st.data())
def test_simple_reflection_is_an_involution(t, data):
    rs = build_root_system(t)
    i = data.draw(st.integers(1, rs.rank))
    b = data.draw(st.sampled_from(rs.all_roots))
    assert simple_reflection(rs, i, simple_reflection(rs, i, b)) == b


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(all_desk_types(4)), st.data())
def test_reflection_preserves_lengths(t, data):
    rs = build_root_system(t)
    i = data.draw(st.integers(1, rs.rank))
    b = data.draw(st.sampled_from(rs.all_roots))
    image = simple_reflection(rs, i, b)
    assert inner_product(rs, image, image) == inner_product(rs, b, b)


def test_pairing_integrality_everywhere():
    for t in all_desk_types(4):
        rs = build_root_system(t)
        for a in rs.all_roots:
            for b in rs.all_roots:
                assert isinstance(cartan_pairing(rs, b, a), int)


def test_inner_product_equals_a_fraction_sum_over_the_gram_matrix():
    # every type up to rank 4, G2 and F4 among them
    for t in all_desk_types(4):
        rs = build_root_system(t)
        for a in rs.all_roots:
            for b in rs.all_roots:
                want = sum(
                    (Q(ai * bj) * rs.gram[i][j]
                     for i, ai in enumerate(a.coords) for j, bj in enumerate(b.coords)),
                    start=Q(0),
                )
                got = inner_product(rs, a, b)
                assert type(got) is Fraction and got == want, (t, a, b)


def test_non_integral_pairing_is_refused():
    # (a2, 2 a1) = -2 and (2 a1, 2 a1) = 8: the pairing would be -1/2
    rs = build_root_system(LieType("A", 2))
    with pytest.raises(RootArgumentError, match="not integral"):
        cartan_pairing(rs, Root((0, 1)), Root((2, 0)))


def test_type_parsing_and_bounds():
    assert LieType.parse("a3") == LieType("A", 3)
    assert str(LieType.parse(" G2 ")) == "G2"
    with pytest.raises(InvalidLieTypeError):
        LieType("B", 1)
    with pytest.raises(InvalidLieTypeError):
        LieType("E", 9)
    for rank in (True, 2.0, "2"):
        with pytest.raises(InvalidLieTypeError, match="must be an int"):
            LieType("A", rank)
    with pytest.raises(InvalidLieTypeError):
        LieType.parse("H4")
    with pytest.raises(InvalidLieTypeError):
        LieType("F", 5)


def test_typed_errors():
    rs = build_root_system(LieType("A", 2))
    a1 = rs.simple_roots[0]
    with pytest.raises(RootArgumentError):
        root_string(rs, a1, a1)
    with pytest.raises(RootArgumentError):
        root_string(rs, a1, -a1)
    with pytest.raises(RootArgumentError):
        simple_reflection(rs, 3, a1)
    with pytest.raises(RootArgumentError):
        simple_reflection(rs, 1, Root((2, 0)))
    # True == 1 and 1.0 == 1, but neither names a simple root
    for index in (True, 1.0):
        with pytest.raises(RootArgumentError):
            simple_reflection(rs, index, a1)
    with pytest.raises(DimensionMismatchError):
        inner_product(rs, Root((1, 0, 0)), a1)
    # a list, a tuple or a t-root names no root, whatever its coordinates
    for bad in ([1, 0], (1, 0), TRoot((1, 0))):
        for call in (
            lambda: root_string(rs, bad, a1),
            lambda: root_string(rs, a1, bad),
            lambda: simple_reflection(rs, 1, bad),
            lambda: cartan_pairing(rs, bad, a1),
            lambda: cartan_pairing(rs, a1, bad),
            lambda: inner_product(rs, bad, a1),
            lambda: inner_product(rs, a1, bad),
        ):
            with pytest.raises(RootArgumentError):
                call()
    # pairing against the zero vector divides by (0, 0)
    with pytest.raises(RootArgumentError):
        cartan_pairing(rs, a1, Root((0, 0)))
    # a Root off the system is still an integer vector to both forms
    assert inner_product(rs, Root((3, 5)), a1) == 1
    assert cartan_pairing(rs, Root((3, 5)), a1) == 1


def test_build_is_deterministic_and_cached():
    rs1 = build_root_system(LieType("D", 4))
    rs2 = build_root_system(LieType("D", 4))
    assert rs1 is rs2
    assert rs1.all_roots == build_root_system(LieType("D", 4)).all_roots


@pytest.mark.parametrize("t", types_up_to(6), ids=str)
def test_root_table_matches_root_arithmetic(t):
    """The int table that the Lie layers read agrees with the public helpers:
    labels with positions, sums with Root addition (the sentinel len(all_roots)
    for 0, None off the roots), lengths with M (r, r), and each reflection
    permutation with b -> simple_reflection(rs, i, b)."""
    rs = build_root_system(t)
    label, plus, length, reflect = rs.root_table
    roots = rs.all_roots
    m = rs.int_gram[0]
    zero = Root((0,) * t.rank)
    assert label == {r.coords: i for i, r in enumerate(roots)}
    assert length == tuple(inner_product(rs, r, r) * m for r in roots)
    assert plus == tuple(
        tuple(len(roots) if a + b == zero else rs.index.get(a + b) for b in roots)
        for a in roots
    )
    assert reflect == tuple(
        tuple(rs.index[simple_reflection(rs, i, b)] for b in roots)
        for i in range(1, t.rank + 1)
    )
    # the table is built once per system
    assert rs.root_table is rs.root_table
