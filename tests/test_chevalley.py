"""Structure constant identities, checked against string-count oracles."""
from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from flagclass.chevalley import (
    ExtScalar,
    JacobiReport,
    StructureConstants,
    bracket_coefficient,
    compute_structure_constants,
    verify_jacobi,
)
from flagclass.errors import CartanBracketError, InvalidInputError, RootArgumentError
from flagclass.rootsys import (
    LieType,
    Root,
    build_root_system,
    inner_product,
    root_string,
    types_up_to,
)

Q = Fraction


def ext(a=0, b=0, c=0, d=0):
    return ExtScalar(Q(a), Q(b), Q(c), Q(d))


class TestExtScalar:
    def test_multiplication_table(self):
        s2, s3, s6 = ext(b=1), ext(c=1), ext(d=1)
        assert s2 * s2 == ext(a=2)
        assert s3 * s3 == ext(a=3)
        assert s6 * s6 == ext(a=6)
        assert s2 * s3 == s6
        assert s2 * s6 == ext(c=2)
        assert s3 * s6 == ext(b=3)

    def test_sqrt_rational(self):
        assert ExtScalar.sqrt_rational(Q(1, 2)) == ext(b=Q(1, 2))
        assert ExtScalar.sqrt_rational(Q(1, 3)) == ext(c=Q(1, 3))
        assert ExtScalar.sqrt_rational(Q(9, 4)) == ext(a=Q(3, 2))
        assert ExtScalar.sqrt_rational(Q(2, 3)) == ext(d=Q(1, 3))  # sqrt(2/3)=s6/3
        # sqrt(s * (p/q)^2) = (p/q) * sqrt(s), in the slot of sqrt(s)
        for slot, s in enumerate((1, 2, 3, 6)):
            for p in range(1, 13):
                for q in range(1, 13):
                    coeffs = [0, 0, 0, 0]
                    coeffs[slot] = Q(p, q)
                    assert ExtScalar.sqrt_rational(s * Q(p, q) ** 2) == ext(*coeffs)
        with pytest.raises(ValueError):
            ExtScalar.sqrt_rational(Q(5))

    def test_scalar_mixed_ops(self):
        x = ext(a=1, b=1)
        assert 2 * x == ext(a=2, b=2)
        assert (x - x).is_zero()
        assert x * Q(1, 2) == ext(a=Q(1, 2), b=Q(1, 2))

    def test_float_component_is_refused(self):
        # Fraction(0.1) would store 3602879701896397/36028797018963968
        with pytest.raises(InvalidInputError):
            ExtScalar(0.1, 0, 0, 0)
        with pytest.raises(InvalidInputError):
            ExtScalar(0, 0, 0, 0.5)
        with pytest.raises(InvalidInputError):
            ExtScalar.from_rational(0.5)

    def test_bool_component_is_refused(self):
        with pytest.raises(InvalidInputError):
            ExtScalar(True, 0, 0, 0)
        with pytest.raises(InvalidInputError):
            ExtScalar(0, False, 0, 0)

    def test_sqrt_rational_takes_only_exact_input(self):
        for bad in (2.0, "9/4", True):
            with pytest.raises(InvalidInputError):
                ExtScalar.sqrt_rational(bad)
        assert ExtScalar.sqrt_rational(2) == ext(b=1)

    def test_product_with_a_float_is_a_type_error(self):
        x = ext(a=1)
        assert x.__mul__(0.5) is NotImplemented
        assert x.__mul__(True) is NotImplemented
        with pytest.raises(TypeError):
            x * 0.5
        with pytest.raises(TypeError):
            0.5 * x
        # ints and Fractions still scale, from either side
        assert x * 3 == 3 * x == ext(a=3)
        assert Q(1, 2) * x == ext(a=Q(1, 2))

    def test_sum_with_a_number_is_a_type_error(self):
        # the field's elements add only to each other, not to a bare number
        x = ext(a=1)
        for other in (1, Q(1, 2), 0.5):
            assert x.__add__(other) is NotImplemented
            assert x.__sub__(other) is NotImplemented
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                other - x


def sq(x: ExtScalar) -> ExtScalar:
    return x * x


def magnitude_oracle(rs, a: Root, b: Root) -> ExtScalar:
    """|n_{a,b}|^2 from the string count and the length-ratio factor alone."""
    p, _ = root_string(rs, a, b)
    la = inner_product(rs, a, a)
    lb = inner_product(rs, b, b)
    ls = inner_product(rs, a + b, a + b)
    return ExtScalar.from_rational((p + 1) ** 2 * la * lb / (2 * ls))


DESK_TYPES = [LieType("A", 2), LieType("A", 3), LieType("B", 2), LieType("B", 3),
              LieType("C", 3), LieType("G", 2), LieType("D", 4)]


def test_a2_base_constant_is_unit():
    rs = build_root_system(LieType("A", 2))
    sc = compute_structure_constants(rs)
    a1, a2 = rs.simple_roots
    n = bracket_coefficient(sc, a1, a2)
    assert sq(n) == ExtScalar.from_rational(1)


def test_b2_short_pair_constant():
    rs = build_root_system(LieType("B", 2))
    sc = compute_structure_constants(rs)
    a1, a2 = rs.simple_roots  # a1 long, a2 short
    n = bracket_coefficient(sc, a2, a1 + a2)
    # p = 1 string scaled by the short-short-to-long length factor
    assert sq(n) == magnitude_oracle(rs, a2, a1 + a2)
    assert sq(n) == ExtScalar.from_rational(1)


def test_zero_when_sum_not_a_root():
    rs = build_root_system(LieType("A", 2))
    sc = compute_structure_constants(rs)
    a1, a2 = rs.simple_roots
    assert bracket_coefficient(sc, a1 + a2, a2).is_zero()


def test_cartan_direction_raises():
    rs = build_root_system(LieType("A", 2))
    sc = compute_structure_constants(rs)
    a1 = rs.simple_roots[0]
    with pytest.raises(CartanBracketError):
        bracket_coefficient(sc, a1, -a1)
    with pytest.raises(RootArgumentError):
        bracket_coefficient(sc, Root((2, 0)), a1)


@pytest.mark.parametrize("t", DESK_TYPES, ids=str)
def test_antisymmetry_and_negation(t):
    rs = build_root_system(t)
    sc = compute_structure_constants(rs)
    for (a, b), n in sc.table.items():
        assert sc.table[(b, a)] == -n
        assert sc.table[(-a, -b)] == -n


@pytest.mark.parametrize("t", DESK_TYPES, ids=str)
def test_cyclic_identity_on_zero_sum_triples(t):
    rs = build_root_system(t)
    sc = compute_structure_constants(rs)
    for a in rs.all_roots:
        for b in rs.all_roots:
            c = -(a + b)
            if c in rs.root_set and (a, b) in sc.table:
                assert sc.table[(a, b)] == sc.table[(b, c)] == sc.table[(c, a)]


@pytest.mark.parametrize("t", DESK_TYPES, ids=str)
def test_magnitude_law(t):
    rs = build_root_system(t)
    sc = compute_structure_constants(rs)
    for (a, b), n in sc.table.items():
        assert sq(n) == magnitude_oracle(rs, a, b), (t, a, b)


@pytest.mark.parametrize("t", DESK_TYPES + [LieType("F", 4)], ids=str)
def test_extraspecial_pairs_are_positive(t):
    """The sign convention: for each positive gamma that is a sum of two positive
    roots, the pair (alpha, gamma - alpha) with alpha lowest in root order has
    a positive constant."""
    rs = build_root_system(t)
    sc = compute_structure_constants(rs)
    pos = rs.positive_roots
    posset = set(pos)
    pairs = []
    for gamma in pos:
        alpha = next((a for a in pos if gamma - a in posset), None)
        if alpha is not None:
            pairs.append((alpha, gamma - alpha))
    # every positive root but the simple ones is a sum of two positive roots
    assert len(pairs) == len(pos) - rs.rank
    for a, b in pairs:
        n = sc.table[(a, b)]
        # nonzero with no negative coordinate on 1, sqrt2, sqrt3, sqrt6: positive
        assert not n.is_zero() and min(n.a, n.b, n.c, n.d) >= 0, (t, a, b, n)


def _jacobi_oracle(sc: StructureConstants) -> JacobiReport:
    """Jacobi on every root c for every bracketable pair, in ExtScalar arithmetic.

    No grading is used: triples whose sum is neither a root nor zero are
    evaluated too, and each product is a full ExtScalar product.
    """
    rs = sc.rs
    roots = rs.all_roots
    zero = Root(tuple(0 for _ in range(rs.rank)))
    table = sc.table

    def term(x: Root, y: Root, z: Root) -> ExtScalar:
        # coefficient of X_{x+y+z} contributed by [[X_x, X_y], X_z]
        s = x + y
        if s == zero:
            return ExtScalar.from_rational(inner_product(rs, z, x))
        n1 = table.get((x, y))
        if n1 is None:
            return ext()
        n2 = table.get((s, z))
        if n2 is None:
            return ext()
        return n1 * n2

    pairs = []
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            s = a + b
            if s == zero or s in rs.root_set:
                pairs.append((a, b))

    seen: set[tuple[Root, Root, Root]] = set()
    for a, b in pairs:
        for c in roots:
            if c == a or c == b:
                continue
            key = tuple(sorted((a, b, c), key=lambda r: r.coords))
            if key in seen:
                continue
            seen.add(key)
            x, y, z = key
            if x + y + z == zero:
                # residue is a Cartan vector: n_{x,y} z + n_{y,z} x + n_{z,x} y
                nxy, nyz, nzx = table[(x, y)], table[(y, z)], table[(z, x)]
                for i in range(rs.rank):
                    resid = nxy * z.coords[i] + nyz * x.coords[i] + nzx * y.coords[i]
                    if not resid.is_zero():
                        return JacobiReport(False, (x, y, z))
            else:
                total = term(x, y, z) + term(y, z, x) + term(z, x, y)
                if not total.is_zero():
                    return JacobiReport(False, (x, y, z))
    return JacobiReport(True, None)


SINGLE_ENTRY_FAULTS = {
    "negate": lambda n: -n,
    "double": lambda n: n + n,
    "times-sqrt2": lambda n: n * ext(b=1),
    "times-sqrt3": lambda n: n * ext(c=1),
    "plus-one": lambda n: n + ext(a=1),
    # non-integral faults: verify_jacobi scales by the lcm of the table's
    # denominators, which are 1 on these types but G2 (3) and C3 (2); so 5
    # and 7 are new on every type, and 3 on all but G2
    "plus-one-third": lambda n: n + ext(a=Q(1, 3)),
    "times-two-fifths": lambda n: n * Q(2, 5),
    "plus-sqrt6-over-7": lambda n: n + ext(d=Q(-1, 7)),
}


@pytest.mark.parametrize(
    "t", [LieType.parse(name) for name in ("A2", "B2", "G2", "A3", "B3", "C3")], ids=str
)
def test_jacobi_matches_oracle_on_single_entry_faults(t):
    """Each table with one entry faulted gets the oracle's verdict and first failing triple."""
    rs = build_root_system(t)
    table = compute_structure_constants(rs).table
    for key, n in table.items():
        for name, fault in SINGLE_ENTRY_FAULTS.items():
            sc = StructureConstants(rs, {**table, key: fault(n)})
            got, want = verify_jacobi(sc), _jacobi_oracle(sc)
            assert (got.ok, got.counterexample) == (want.ok, want.counterexample), (key, name)


@pytest.mark.parametrize("t", DESK_TYPES + [LieType("F", 4)], ids=str)
def test_jacobi_holds(t):
    rs = build_root_system(t)
    sc = compute_structure_constants(rs)
    report = verify_jacobi(sc)
    assert report.ok, report.counterexample


def test_jacobi_detects_injected_fault():
    rs = build_root_system(LieType("A", 2))
    sc = compute_structure_constants(rs)
    broken = dict(sc.table)
    key = next(iter(broken))
    broken[key] = -broken[key]
    report = verify_jacobi(StructureConstants(rs, broken))
    assert not report.ok
    assert report.counterexample is not None


def test_table_is_deterministic():
    rs = build_root_system(LieType("B", 3))
    t1 = compute_structure_constants(rs).table
    compute_structure_constants.cache_clear()
    t2 = compute_structure_constants(build_root_system(LieType("B", 3))).table
    assert t1 == t2


def test_table_covers_exactly_bracketable_pairs():
    """The keys are exactly the pairs with a + b a root, so the graded Jacobi
    check, which reads only those, skips no entry of the table."""
    for t in DESK_TYPES + [LieType("F", 4)]:
        rs = build_root_system(t)
        sc = compute_structure_constants(rs)
        expected = {
            (a, b)
            for a in rs.all_roots
            for b in rs.all_roots
            if (a + b) in rs.root_set
        }
        assert set(sc.table) == expected, t


# sha256 of each type's constant table, items in iteration order: the coords of
# both keys and the four ExtScalar components.  Recorded from the construction
# on Root objects, root_string and inner_product, so the int table must give
# the same entries in the same order.
TABLE_DIGESTS = {
    "A1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "A2": "52348d3bde3551da514c80bf4b0348bc94ed0299c685a1a1c474df88a200d897",
    "B2": "d5c380b73ca09352a713ec85f230a39b28e4011b4ce5f10f89b9e2fbab5d46d9",
    "G2": "db678f2589786356d3fdf5b158b3ee6150dbdfcdbb1df9afbb5e612cd5f55f42",
    "A3": "41c70640c5ede76c5d02fc243507f60237180c8ad33ef1d71c1c60ccdc6ec379",
    "B3": "bf6faeaafb782748ae23a186e6be1003b5de9e911165cff4bd14708c92280338",
    "C3": "1df2e723b8a1f1467436b3fdb538ae06b368975e0ca4de6dbbfc77cbe1c758f0",
    "A4": "5d1ce0c5b9128321e1d96dfe1b53f8ef6764a368483d578d8a3f045b0c27f81a",
    "B4": "33cb672392d1204529cd1fb5648a8ce2e773e9812610c53ea438c81e49a425af",
    "C4": "3dfc980904b7b53779b7face51324a24f6f8440295af7ad8785fc95eefa2fe4b",
    "D4": "0fea1c478aaffced666ea05a15e41bc22343237b02961f9218aa4b77a92c35f5",
    "F4": "27289c0c31158315239bf014cbf8b16c94cb68287e9f06f7d250707522add54d",
    "E6": "20bd1aa465b59b1bc6bab29245dfe707a5c81f29800472e0f5ee3a85d592b7c0",
}


def table_digest(table) -> str:
    h = hashlib.sha256()
    for (a, b), v in table.items():
        row = (a.coords, b.coords, str(v.a), str(v.b), str(v.c), str(v.d))
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


def test_digests_cover_every_type_to_rank_4_and_e6():
    assert list(TABLE_DIGESTS) == [str(t) for t in types_up_to(4)] + ["E6"]


@pytest.mark.parametrize("name", TABLE_DIGESTS)
def test_constant_table_is_pinned(name):
    table = compute_structure_constants(build_root_system(LieType.parse(name))).table
    assert table_digest(table) == TABLE_DIGESTS[name]
