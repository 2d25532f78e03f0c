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
from operator import add

from .errors import CartanBracketError, InvariantViolationError, RootArgumentError, _Frozen
from .rootsys import Root, RootSystem, inner_product, root_string

Q = Fraction


class ExtScalar(_Frozen):
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational components."""

    __slots__ = ("a", "b", "c", "d")
    a: Q
    b: Q
    c: Q
    d: Q

    def __init__(self, a: Q, b: Q, c: Q, d: Q) -> None:
        object.__setattr__(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        object.__setattr__(self, "b", b if isinstance(b, Fraction) else Fraction(b))
        object.__setattr__(self, "c", c if isinstance(c, Fraction) else Fraction(c))
        object.__setattr__(self, "d", d if isinstance(d, Fraction) else Fraction(d))

    @classmethod
    def from_rational(cls, r) -> "ExtScalar":
        return cls(Q(r), Q(0), Q(0), Q(0))

    @classmethod
    def sqrt_rational(cls, r) -> "ExtScalar":
        """Exact square root of a positive rational, when it lies in the field.

        The root lies in the field exactly when r/s is a rational square for
        one s in (1, 2, 3, 6).  With r = n/den in lowest terms that means
        n * den = s * k^2, and then sqrt(r) = (k/den) * sqrt(s).
        """
        r = Q(r)
        if r <= 0:
            raise ValueError(f"need a positive rational, got {r}")
        m = r.numerator * r.denominator
        for slot, s in enumerate((1, 2, 3, 6)):
            k = math.isqrt(m // s)
            if s * k * k == m:
                coeffs = [Q(0)] * 4
                coeffs[slot] = Q(k, r.denominator)
                return cls(*coeffs)
        raise ValueError(f"sqrt({r}) is not in Q(sqrt2, sqrt3)")

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def __add__(self, o: "ExtScalar") -> "ExtScalar":
        return ExtScalar(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "ExtScalar") -> "ExtScalar":
        return ExtScalar(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self) -> "ExtScalar":
        return ExtScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            q = Q(o)
            return ExtScalar(self.a * q, self.b * q, self.c * q, self.d * q)
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


def _length(rs: RootSystem, r: Root) -> Q:
    return inner_product(rs, r, r)


def _n_pos(table, order, x: Root, y: Root) -> Q:
    """Constant for two positive roots, from the pair stored in root order."""
    if order[x] < order[y]:
        return table[(x, y)]
    return -table[(y, x)]


def _chevalley_positive_table(rs: RootSystem) -> dict[tuple[Root, Root], Q]:
    """Integer constants on ordered pairs of positive roots, extraspecial signs positive.

    Non-extraspecial special pairs are resolved through the Jacobi identity
    on (X_{-a}, X_xi, X_eta), whose mixed-sign constants reduce, via
    invariance of the form, to positive pairs of strictly smaller height sum.
    """
    pos = rs.positive_roots
    posset = set(pos)
    order = {r: i for i, r in enumerate(pos)}
    table: dict[tuple[Root, Root], Q] = {}

    for gamma in pos:
        pairs = []
        for x in pos:
            y = gamma - x
            if y in posset and order[x] < order[y]:
                pairs.append((x, y))
        if not pairs:
            continue
        pairs.sort(key=lambda xy: order[xy[0]])
        alpha, beta = pairs[0]
        table[(alpha, beta)] = Q(root_string(rs, alpha, beta)[0] + 1)
        # N(gamma, -alpha) = -(beta,beta)/(gamma,gamma) * N(alpha, beta)
        denom = -(_length(rs, beta) / _length(rs, gamma)) * table[(alpha, beta)]
        for xi, eta in pairs[1:]:
            acc = Q(0)
            d1 = xi - alpha
            if d1 in posset:
                # N(-alpha, xi) = -(d1,d1)/(xi,xi) * N(d1, alpha)
                acc += (
                    -(_length(rs, d1) / _length(rs, xi)) * _n_pos(table, order, d1, alpha)
                ) * _n_pos(table, order, d1, eta)
            d2 = eta - alpha
            if d2 in posset:
                # N(eta, -alpha) = +(d2,d2)/(eta,eta) * N(d2, alpha)
                acc += (
                    (_length(rs, d2) / _length(rs, eta)) * _n_pos(table, order, d2, alpha)
                ) * _n_pos(table, order, d2, xi)
            val = -acc / denom
            if val == 0 or val.denominator != 1:
                raise InvariantViolationError((xi, eta, val))
            table[(xi, eta)] = val
    return table


@functools.lru_cache(maxsize=None)
def compute_structure_constants(rs: RootSystem) -> StructureConstants:
    """Full Weyl-normalized constant table for every bracketable root pair.

    Each positive pair (x, y) with x + y = s fills the six ordered pairs of
    the zero-sum triple (x, y, -s) and the six of its negation.
    """
    table: dict[tuple[Root, Root], ExtScalar] = {}
    for (x, y), chev in _chevalley_positive_table(rs).items():
        s = x + y
        n = ExtScalar.sqrt_rational(_length(rs, x) * _length(rs, y) / (2 * _length(rs, s))) * chev
        for a, b in ((x, y), (y, -s), (-s, x)):
            table[(a, b)], table[(b, a)] = n, -n
            table[(-a, -b)], table[(-b, -a)] = -n, n
    return StructureConstants(rs, table)


def bracket_coefficient(sc: StructureConstants, a: Root, b: Root) -> ExtScalar:
    """n_{a,b} with [X_a, X_b] = n_{a,b} X_{a+b}; zero when a+b is not a root."""
    rs = sc.rs
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
    # label roots by their place in coordinate order, so a sorted label
    # triple is the triple sorted by coordinates; the zero vector comes last
    ordered = sorted(rs.all_roots, key=lambda r: r.coords)
    zero = len(ordered)
    label = {r.coords: i for i, r in enumerate(ordered)}
    label[(0,) * rs.rank] = zero
    plus = [[label.get(tuple(map(add, a.coords, b.coords))) for b in ordered] for a in ordered]
    visit = [label[r.coords] for r in rs.all_roots]
    lcm = math.lcm(*(q.denominator for v in sc.table.values() for q in (v.a, v.b, v.c, v.d)))
    terms = {
        (label[a.coords], label[b.coords]): tuple(
            (r, q.numerator * (lcm // q.denominator))
            for r, q in zip(_RADICALS, (v.a, v.b, v.c, v.d))
            if q
        )
        for (a, b), v in sc.table.items()
    }
    m, gram = rs.int_gram
    # each root times M * Gram, so M (z, x) is one short dot product
    gram_rows = [
        [sum(c * g for c, g in zip(r.coords, col) if c) for col in zip(*gram)] for r in ordered
    ]
    product = {
        (r1, r2): (r1 * r2 // math.gcd(r1, r2) ** 2, math.gcd(r1, r2) * m)
        for r1 in _RADICALS
        for r2 in _RADICALS
    }

    def add_term(acc: dict[int, int], x: int, y: int, z: int) -> None:
        # adds L^2 M times the coefficient of X_{x+y+z} contributed by [[X_x, X_y], X_z]
        s = plus[x][y]
        if s == zero:
            p = sum(g * c for g, c in zip(gram_rows[z], ordered[x].coords) if c)
            acc[1] = acc.get(1, 0) + lcm * lcm * p
            return
        t1 = terms.get((x, y))
        t2 = terms.get((s, z))
        if t1 is None or t2 is None:
            return
        for r1, q1 in t1:
            for r2, q2 in t2:
                r, k = product[(r1, r2)]
                acc[r] = acc.get(r, 0) + k * q1 * q2

    partners: dict[int, list[int]] = {zero: visit}
    seen: set[tuple[int, ...]] = set()
    for i, a in enumerate(visit):
        for b in visit[i + 1:]:
            s = plus[a][b]
            if s is None:
                continue
            if s not in partners:
                partners[s] = [c for c in visit if plus[s][c] is not None]
            for c in partners[s]:
                if c == a or c == b:
                    continue
                key = tuple(sorted((a, b, c)))
                if key in seen:
                    continue
                seen.add(key)
                x, y, z = key
                if s != zero and plus[s][c] == zero:
                    # residue is a Cartan vector: n_{x,y} z + n_{y,z} x + n_{z,x} y
                    resid: dict[int, list[int]] = {}
                    for pair, w in (((x, y), z), ((y, z), x), ((z, x), y)):
                        for r, q in terms[pair]:
                            vec = resid.setdefault(r, [0] * rs.rank)
                            for j, wj in enumerate(ordered[w].coords):
                                vec[j] += q * wj
                    failed = any(any(vec) for vec in resid.values())
                else:
                    acc: dict[int, int] = {}
                    add_term(acc, x, y, z)
                    add_term(acc, y, z, x)
                    add_term(acc, z, x, y)
                    failed = any(acc.values())
                if failed:
                    return JacobiReport(False, (ordered[x], ordered[y], ordered[z]))
    return JacobiReport(True, None)
