"""Structure constants on a Weyl-normalized root-vector basis.

The integer Chevalley constants on positive pairs are built first, with the
sign convention that extraspecial pairs get a positive constant.  Rescaling
each root vector by scale(a) = sqrt((a,a)/2) then makes the invariant form
pair X_a against X_{-a} to 1, which is the normalization the classification
formulas need.  A positive pair (x, y) has its constant multiplied by
scale(x) * scale(y) / scale(x+y) = sqrt((x,x)(y,y) / (2(x+y,x+y))): one
square root of one rational, equal because every factor is positive, so no
division in the field is needed.  Because the form pairs every X_a with
X_{-a} to the same 1, its invariance reads n_{a,b} = n_{b,c} = n_{c,a} on
each zero-sum triple a + b + c = 0, with none of the length ratios the
integer constants carry; that identity, antisymmetry and n_{-a,-b} = -n_{a,b}
give every other pair.  The constants live in the real field
Q(sqrt2, sqrt3); no floats.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import (
    CartanBracketError,
    InvalidInputError,
    InvariantViolationError,
    RootArgumentError,
    _Frozen,
)
from .rootsys import Root, RootSystem, _check_roots

Q = Fraction


def _exact(x) -> Fraction:
    """x as a Fraction when it is an int (not a bool) or a Fraction; no float or string."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    raise InvalidInputError(f"ExtScalar components must be ints or Fractions, got {x!r}")


class ExtScalar(_Frozen):
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational components."""

    __slots__ = ("a", "b", "c", "d")
    a: Q
    b: Q
    c: Q
    d: Q

    def __init__(self, a: Q, b: Q, c: Q, d: Q) -> None:
        object.__setattr__(self, "a", a if type(a) is Fraction else _exact(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else _exact(b))
        object.__setattr__(self, "c", c if type(c) is Fraction else _exact(c))
        object.__setattr__(self, "d", d if type(d) is Fraction else _exact(d))

    @classmethod
    def from_rational(cls, r) -> "ExtScalar":
        return cls(r, 0, 0, 0)

    @classmethod
    def sqrt_rational(cls, r) -> "ExtScalar":
        """Exact square root of a positive rational, when it lies in the field.

        The root lies in the field exactly when r/s is a rational square for
        one s in (1, 2, 3, 6).  With r = n/den in lowest terms that means
        n * den = s * k^2, and then sqrt(r) = (k/den) * sqrt(s).
        """
        r = _exact(r)
        if r <= 0:
            raise InvalidInputError(f"need a positive rational, got {r}")
        m = r.numerator * r.denominator
        for slot, s in enumerate((1, 2, 3, 6)):
            k = math.isqrt(m // s)
            if s * k * k == m:
                coeffs = [Q(0)] * 4
                coeffs[slot] = Q(k, r.denominator)
                return cls(*coeffs)
        raise InvalidInputError(f"sqrt({r}) is not in Q(sqrt2, sqrt3)")

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def __add__(self, o: "ExtScalar") -> "ExtScalar":
        if type(o) is not ExtScalar:
            return NotImplemented
        return ExtScalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "ExtScalar") -> "ExtScalar":
        if type(o) is not ExtScalar:
            return NotImplemented
        return ExtScalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self) -> "ExtScalar":
        return ExtScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o):
        if type(o) is int or type(o) is Fraction:
            return ExtScalar(self.a * o, self.b * o, self.c * o, self.d * o)
        if type(o) is not ExtScalar:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return ExtScalar(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        parts = []
        for coeff, tag in ((self.a, ""), (self.b, "*s2"), (self.c, "*s3"), (self.d, "*s6")):
            if coeff:
                parts.append(f"{coeff}{tag}")
        return "ExtScalar(" + (" + ".join(parts) if parts else "0") + ")"


EXT_ZERO = ExtScalar.from_rational(0)


class StructureConstants(_Frozen, eq=False):
    """Bracket coefficients n_{a,b} for every ordered root pair with a+b a root."""

    rs: RootSystem
    table: dict[tuple[Root, Root], ExtScalar]


def _chevalley_positive_table(rs: RootSystem) -> dict[tuple[int, int], int]:
    """Integer constants on ordered pairs of positive roots, by position in
    `all_roots`, extraspecial signs positive.

    Non-extraspecial special pairs are resolved through the Jacobi identity
    on (X_{-a}, X_xi, X_eta), whose mixed-sign constants reduce, via
    invariance of the form, to positive pairs of strictly smaller height sum.
    Lengths are the M (r, r) of `rs.root_table`, whose scale M cancels in
    every ratio, and string counts are walks down its sum table.
    """
    _, plus, length, _ = rs.root_table
    n = len(plus)
    neg = [row.index(n) for row in plus]
    # all_roots is sorted by height, so the positive roots are its upper half
    first = n // 2
    pos = range(first, n)
    # every positive pair in root order, filed under its sum
    pairs: dict[int, list[tuple[int, int]]] = {}
    for x in pos:
        for y in range(x + 1, n):
            s = plus[x][y]
            if s is not None:
                pairs.setdefault(s, []).append((x, y))
    table: dict[tuple[int, int], int] = {}

    def n_pos(x: int, y: int) -> int:
        # constant for two positive roots, from the pair stored in root order
        return table[(x, y)] if x < y else -table[(y, x)]

    for gamma in pos:
        if gamma not in pairs:
            continue
        (alpha, beta), *rest = pairs[gamma]
        # p + 1, p the length of the alpha-string below beta
        n_ab, down = 1, plus[beta][neg[alpha]]
        while down is not None:
            n_ab, down = n_ab + 1, plus[down][neg[alpha]]
        table[(alpha, beta)] = n_ab
        for xi, eta in rest:
            # N(gamma, -alpha) = -(beta,beta)/(gamma,gamma) * N(alpha, beta), and
            # N(-alpha, xi) = -(d1,d1)/(xi,xi) * N(d1, alpha) for d1 = xi - alpha,
            # N(eta, -alpha) = +(d2,d2)/(eta,eta) * N(d2, alpha) for d2 = eta - alpha;
            # acc is (xi,xi)(eta,eta) times their Jacobi sum
            acc = 0
            d1 = plus[xi][neg[alpha]]
            if d1 is not None and d1 >= first:
                acc -= length[d1] * length[eta] * n_pos(d1, alpha) * n_pos(d1, eta)
            d2 = plus[eta][neg[alpha]]
            if d2 is not None and d2 >= first:
                acc += length[d2] * length[xi] * n_pos(d2, alpha) * n_pos(d2, xi)
            num, den = acc * length[gamma], length[xi] * length[eta] * length[beta] * n_ab
            val, rem = divmod(num, den)
            if val == 0 or rem:
                roots = rs.all_roots
                raise InvariantViolationError((roots[xi], roots[eta], Q(num, den)))
            table[(xi, eta)] = val
    return table


@functools.lru_cache(maxsize=None)
def compute_structure_constants(rs: RootSystem) -> StructureConstants:
    """Full Weyl-normalized constant table for every bracketable root pair.

    Each positive pair (x, y) with x + y = s fills the six ordered pairs of
    the zero-sum triple (x, y, -s) and the six of its negation.  The factor
    sqrt((x,x)(y,y) / (2(s,s))) and the constant are one ExtScalar and its
    negation per (lengths, constant), shared by every pair that has them.
    """
    _, plus, length, _ = rs.root_table
    m = rs.int_gram[0]
    roots = rs.all_roots
    neg = [roots[row.index(len(plus))] for row in plus]
    signed: dict[tuple[int, int, int, int], tuple[ExtScalar, ExtScalar]] = {}
    table: dict[tuple[Root, Root], ExtScalar] = {}
    for (x, y), chev in _chevalley_positive_table(rs).items():
        s = plus[x][y]
        key = (length[x], length[y], length[s], chev)
        if key not in signed:
            # the M-scaled lengths give (x,x)(y,y) / (2(s,s)) = lx ly / (2 M ls)
            n = ExtScalar.sqrt_rational(Q(key[0] * key[1], 2 * m * key[2])) * chev
            signed[key] = (n, -n)
        n, minus_n = signed[key]
        a, b, c = roots[x], roots[y], neg[s]
        na, nb, nc = neg[x], neg[y], roots[s]
        for u, v, nu, nv in ((a, b, na, nb), (b, c, nb, nc), (c, a, nc, na)):
            table[(u, v)], table[(v, u)] = n, minus_n
            table[(nu, nv)], table[(nv, nu)] = minus_n, n
    return StructureConstants(rs, table)


def bracket_coefficient(sc: StructureConstants, a: Root, b: Root) -> ExtScalar:
    """n_{a,b} with [X_a, X_b] = n_{a,b} X_{a+b}; zero when a+b is not a root."""
    rs = sc.rs
    _check_roots(a, b)
    if a not in rs.root_set or b not in rs.root_set:
        raise RootArgumentError("bracket_coefficient arguments must be roots")
    if a + b == Root(tuple(0 for _ in range(rs.rank))):
        raise CartanBracketError("a + b = 0 lands in the Cartan subalgebra")
    return sc.table.get((a, b), EXT_ZERO)


# ExtScalar's components a, b, c, d are the coefficients of these radicals
_RADICALS = (1, 2, 3, 6)


class JacobiReport(_Frozen):
    ok: bool
    counterexample: tuple[Root, Root, Root] | None


def verify_jacobi(sc: StructureConstants) -> JacobiReport:
    """Check the Jacobi identity on every root triple with a bracketable pair.

    [[X_x, X_y], X_z] lies in g_{x+y+z}, which is zero unless x + y + z is a
    root or zero (the root-space grading).  So for each bracketable pair
    (a, b) only the roots c with a + b + c in R or 0 are visited, in root
    order: on every other triple all three terms vanish.  Cartan directions
    are tracked through the coefficient vectors: with the normalization
    here, [X_r, X_{-r}] corresponds to the functional r itself, and
    [H, X_r] multiplies X_r by the pairing (r, h).

    Each entry is split once into its nonzero (radical, rational) terms on
    the radicals 1, sqrt2, sqrt3 and sqrt6.  They are square-free, so products
    follow sqrt(r1) * sqrt(r2) = g * sqrt(r1 r2 / g^2) with g = gcd(r1, r2),
    and sums are kept per radical.  The four radicals are linearly
    independent over Q, so a sum is zero exactly when each radical's part is
    zero.  All of it is in ints: the rationals are scaled by L, the lcm of
    the table's denominators, and the Gram matrix by its own M, so a Jacobi
    sum is kept scaled by L^2 M and a Cartan residue, linear in the
    constants, by L.
    """
    rs = sc.rs
    # roots are labelled by their position in all_roots; the zero vector is
    # len(all_roots), the sentinel of the sum table
    label, plus, _, _ = rs.root_table
    roots = rs.all_roots
    zero = len(roots)
    coords = [r.coords for r in roots]
    # compute_structure_constants shares one ExtScalar among all entries of
    # equal value, so each distinct object is split once; sc.table keeps
    # every one alive, so their ids stay distinct
    values = {id(v): v for v in sc.table.values()}
    lcm = math.lcm(*(q.denominator for v in values.values() for q in (v.a, v.b, v.c, v.d)))
    split = {
        key: tuple(
            (r, q.numerator * (lcm // q.denominator))
            for r, q in zip(_RADICALS, (v.a, v.b, v.c, v.d))
            if q
        )
        for key, v in values.items()
    }
    # terms[x][y]: the split entry of the pair (x, y), None off the table
    terms: list[list] = [[None] * zero for _ in range(zero)]
    for (a, b), v in sc.table.items():
        terms[label[a.coords]][label[b.coords]] = split[id(v)]
    m, gram = rs.int_gram
    # each root times M * Gram, so M (z, x) is one short dot product
    gram_rows = [[sum(c * g for c, g in zip(r, col) if c) for col in zip(*gram)] for r in coords]
    product = {
        (r1, r2): (r1 * r2 // math.gcd(r1, r2) ** 2, math.gcd(r1, r2) * m)
        for r1 in _RADICALS
        for r2 in _RADICALS
    }

    def add_term(acc: dict[int, int], x: int, y: int, z: int) -> None:
        # adds L^2 M times the coefficient of X_{x+y+z} contributed by [[X_x, X_y], X_z]
        s = plus[x][y]
        if s == zero:
            p = sum(g * c for g, c in zip(gram_rows[z], coords[x]) if c)
            acc[1] = acc.get(1, 0) + lcm * lcm * p
            return
        t1 = terms[x][y]
        t2 = None if s is None else terms[s][z]
        if t1 is None or t2 is None:
            return
        for r1, q1 in t1:
            for r2, q2 in t2:
                r, k = product[(r1, r2)]
                acc[r] = acc.get(r, 0) + k * q1 * q2

    # A triple is reached from each of its bracketable pairs, all with the
    # same sum a + b + c; it is checked at the first of them in visiting
    # order, so a pair (a, b) skips c when (a, c), or (c, a) or (c, b) for
    # c < a, is a bracketable pair visited before it.
    partners: dict[int, list[int]] = {zero: range(zero)}
    for a in range(zero):
        for b in range(a + 1, zero):
            s = plus[a][b]
            if s is None:
                continue
            if s not in partners:
                partners[s] = [c for c, t in enumerate(plus[s]) if t is not None]
            for c in partners[s]:
                if c < b:
                    if c > a:
                        if plus[a][c] is not None:
                            continue
                    elif c == a or plus[c][a] is not None or plus[c][b] is not None:
                        continue
                elif c == b:
                    continue
                # read the triple sorted by coordinates
                x, y, z = sorted((a, b, c), key=coords.__getitem__)
                if s != zero and plus[s][c] == zero:
                    # residue is a Cartan vector: n_{x,y} z + n_{y,z} x + n_{z,x} y
                    resid: dict[int, list[int]] = {}
                    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
                        for r, q in terms[u][v]:
                            vec = resid.setdefault(r, [0] * rs.rank)
                            for j, wj in enumerate(coords[w]):
                                vec[j] += q * wj
                    failed = any(any(vec) for vec in resid.values())
                else:
                    acc: dict[int, int] = {}
                    add_term(acc, x, y, z)
                    add_term(acc, y, z, x)
                    add_term(acc, z, x, y)
                    failed = any(acc.values())
                if failed:
                    return JacobiReport(False, (roots[x], roots[y], roots[z]))
    return JacobiReport(True, None)
