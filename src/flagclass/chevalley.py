"""Structure constants on a Weyl-normalized root-vector basis.

The integer Chevalley constants are built first, with the sign convention
that extraspecial pairs get a positive constant.  Rescaling each root
vector by sqrt((a,a)/2) then makes the invariant form pair X_a against
X_{-a} to 1, which is the normalization the classification formulas need.
The rescaled constants live in the real field Q(sqrt2, sqrt3); no floats.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import CartanBracketError, RootArgumentError
from .rootsys import Root, RootSystem, inner_product, root_string

Q = Fraction


@dataclass(frozen=True)
class ExtScalar:
    """An element a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational components."""

    a: Q
    b: Q
    c: Q
    d: Q

    def __post_init__(self) -> None:
        for name in "abcd":
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))

    @classmethod
    def from_rational(cls, r) -> "ExtScalar":
        return cls(Q(r), Q(0), Q(0), Q(0))

    @classmethod
    def zero(cls) -> "ExtScalar":
        return cls(Q(0), Q(0), Q(0), Q(0))

    @classmethod
    def sqrt_rational(cls, r) -> "ExtScalar":
        """Exact square root of a positive rational, when it lies in the field.

        Writes r = (k/den)^2 * s with s squarefree; s must be 1, 2, 3 or 6.
        """
        r = Q(r)
        if r <= 0:
            raise ValueError(f"need a positive rational, got {r}")
        m = r.numerator * r.denominator
        s, k = 1, 1
        f = 2
        while f * f <= m:
            while m % (f * f) == 0:
                m //= f * f
                k *= f
            if m % f == 0:
                m //= f
                s *= f
            f += 1
        s *= m
        coeff = Q(k, r.denominator)
        if s == 1:
            return cls(coeff, Q(0), Q(0), Q(0))
        if s == 2:
            return cls(Q(0), coeff, Q(0), Q(0))
        if s == 3:
            return cls(Q(0), Q(0), coeff, Q(0))
        if s == 6:
            return cls(Q(0), Q(0), Q(0), coeff)
        raise ValueError(f"sqrt({r}) is not in Q(sqrt2, sqrt3)")

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

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

    def _conj2(self) -> "ExtScalar":
        return ExtScalar(self.a, -self.b, self.c, -self.d)

    def _conj3(self) -> "ExtScalar":
        return ExtScalar(self.a, self.b, -self.c, -self.d)

    def inverse(self) -> "ExtScalar":
        if self.is_zero():
            raise ZeroDivisionError("ExtScalar inverse of zero")
        z = self * self._conj2()          # lands in Q(sqrt3)
        norm = z * z._conj3()             # rational
        assert norm.is_rational() and norm.a != 0
        return self._conj2() * z._conj3() * (Q(1) / norm.a)

    def __truediv__(self, o: "ExtScalar") -> "ExtScalar":
        return self * o.inverse()

    def __repr__(self) -> str:
        parts = []
        for coeff, tag in ((self.a, ""), (self.b, "*s2"), (self.c, "*s3"), (self.d, "*s6")):
            if coeff:
                parts.append(f"{coeff}{tag}")
        return "ExtScalar(" + (" + ".join(parts) if parts else "0") + ")"


EXT_ZERO = ExtScalar.from_rational(0)


@dataclass(frozen=True, eq=False)
class StructureConstants:
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
            assert val != 0 and val.denominator == 1, (xi, eta, val)
            table[(xi, eta)] = val
    return table


def _chevalley_value(rs: RootSystem, table, order, a: Root, b: Root) -> Q:
    """Constant for an arbitrary ordered root pair, from the positive table."""
    apos, bpos = a.is_positive(), b.is_positive()
    if apos and bpos:
        return _n_pos(table, order, a, b)
    if not apos and not bpos:
        return -_chevalley_value(rs, table, order, -a, -b)
    if not apos:
        return -_chevalley_value(rs, table, order, b, a)
    # a positive, b negative
    c = a + b
    if c.is_positive():
        # invariance on the zero-sum triple (a, b, -c)
        return -(_length(rs, c) / _length(rs, a)) * _n_pos(table, order, -b, c)
    return -(_length(rs, c) / _length(rs, b)) * _n_pos(table, order, a, -c)


@functools.lru_cache(maxsize=None)
def compute_structure_constants(rs: RootSystem) -> StructureConstants:
    """Full Weyl-normalized constant table for every bracketable root pair."""
    postable = _chevalley_positive_table(rs)
    order = {r: i for i, r in enumerate(rs.positive_roots)}
    scale: dict[Root, ExtScalar] = {}
    for r in rs.all_roots:
        scale[r] = ExtScalar.sqrt_rational(inner_product(rs, r, r) / 2)

    table: dict[tuple[Root, Root], ExtScalar] = {}
    for a in rs.all_roots:
        for b in rs.all_roots:
            s = a + b
            if s not in rs.root_set:
                continue
            chev = _chevalley_value(rs, postable, order, a, b)
            value = (scale[a] * scale[b] / scale[s]) * chev
            assert not value.is_zero()
            table[(a, b)] = value
    return StructureConstants(rs, table)


def bracket_coefficient(sc: StructureConstants, a: Root, b: Root) -> ExtScalar:
    """n_{a,b} with [X_a, X_b] = n_{a,b} X_{a+b}; zero when a+b is not a root."""
    rs = sc.rs
    if a not in rs.root_set or b not in rs.root_set:
        raise RootArgumentError("bracket_coefficient arguments must be roots")
    if a + b == Root(tuple(0 for _ in range(rs.rank))):
        raise CartanBracketError("a + b = 0 lands in the Cartan subalgebra")
    return sc.table.get((a, b), EXT_ZERO)


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    counterexample: tuple[Root, Root, Root] | None


def verify_jacobi(sc: StructureConstants) -> JacobiReport:
    """Check the Jacobi identity on every root triple with a bracketable pair.

    Cartan directions are tracked through the coefficient vectors: with the
    normalization here, [X_r, X_{-r}] corresponds to the functional r itself,
    and [H, X_r] multiplies X_r by the pairing (r, h).
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
            return EXT_ZERO
        n2 = table.get((s, z))
        if n2 is None:
            return EXT_ZERO
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
