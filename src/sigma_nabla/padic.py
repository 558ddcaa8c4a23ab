"""Scalar arithmetic: capped-relative p-adic numbers, an unramified
extension model, integer polynomials, and Newton-polygon utilities.

A ``PadicNumber`` is one of three things:

* an exact zero (valuation ``+inf``),
* a regular value ``p^val * unit`` with ``unit`` a unit known modulo
  ``p^prec`` (``1 <= prec <= nrel``), or
* an inexact zero ``O(p^floor)``: indistinguishable from zero, known only
  to have valuation ``>= floor``.

``nrel`` caps the relative precision.  Arithmetic never claims more digits
than the inputs support; subtraction of nearly equal values degrades
``prec`` and may collapse to an inexact zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .errors import AmbiguousValuation, DivisionByZero, NumericalFailure

INF = math.inf
_ONE = (0, 1, INF)      # the cell of the exact 1

# three-valued comparison results
EQUAL = "equal"
UNEQUAL = "unequal"
INDISTINGUISHABLE = "indistinguishable"


def is_prime(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return n >= 2


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        # strip the largest p^(2^j) dividing n: O(log^2 v) divisions
        q, k = p, 1
        while n % (q * q) == 0:
            q, k = q * q, 2 * k
        n //= q
        v += k
    return v


class _Powers(dict):
    """{k: p^k} for the prime ``p``, each power computed at its first use."""

    def __missing__(self, k):
        x = self[k] = self.p ** k
        return x


_POWERS = {}


def powers(p):
    """The table of the powers of p, kept across calls: a cell's residue
    is taken modulo one of a few powers, over and over."""
    table = _POWERS.get(p)
    if table is None:
        table = _POWERS[p] = _Powers()
        table.p = p
    return table


class PadicNumber:
    """A capped-relative p-adic number: see the module docstring.

    ``+``, ``*`` and ``/`` are each one ``cell_dot`` over the operands'
    cells at the smaller of their nrel (``/`` multiplies by the cell of
    the divisor's inverse), so ``cell_at_floor`` and ``cell_dot`` hold the
    one precision rule that the series kernel follows too.
    """

    __slots__ = ("p", "nrel", "val", "unit", "prec")

    def __init__(self, p, nrel, val, unit, prec):
        # raw constructor; use the classmethods or _make for normalisation
        self.p = p
        self.nrel = nrel
        self.val = val        # int, or None for exact zero
        self.unit = unit      # unit mod p^prec, or None for zeros
        self.prec = prec      # known relative digits, or None for zeros

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p, nrel):
        return cls(p, nrel, None, None, None)

    @classmethod
    def inexact_zero(cls, p, nrel, floor):
        return cls(p, nrel, int(floor), None, None)

    @classmethod
    def _make(cls, p, nrel, val, raw, prec):
        """Normalise ``p^val * raw`` known to ``prec`` relative digits."""
        if prec > nrel:
            prec = nrel
        if prec <= 0:
            return cls.inexact_zero(p, nrel, val)
        return cls(p, nrel, *cell_at_floor(p, val, raw, val + prec))

    @classmethod
    def from_cell(cls, p, nrel, cell):
        """The number of the cell (val, unit, prec): val None for the exact
        zero, unit None for the inexact zero O(p^val)."""
        val, unit, prec = cell
        if val is None:
            return cls.zero(p, nrel)
        if unit is None:
            return cls.inexact_zero(p, nrel, val)
        return cls(p, nrel, val, unit, prec)

    @classmethod
    def from_int(cls, p, nrel, n):
        if n == 0:
            return cls.zero(p, nrel)
        v = vp_int(n, p)
        return cls._make(p, nrel, v, n // p ** v, nrel)

    @classmethod
    def from_rational(cls, p, nrel, q) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return cls.zero(p, nrel)
        num, den = q.numerator, q.denominator
        vn = vp_int(num, p)
        vd = vp_int(den, p)
        un = num // p ** vn
        ud = den // p ** vd
        inv = pow(ud, -1, p ** nrel)
        return cls._make(p, nrel, vn - vd, un * inv, nrel)

    # -- predicates ----------------------------------------------------

    @property
    def is_exact_zero(self):
        return self.val is None

    @property
    def is_zero_at_precision(self):
        """Exact zero or inexact zero: no provable nonzero digit."""
        return self.unit is None

    @property
    def is_regular(self):
        return self.unit is not None

    @property
    def valuation(self):
        """Valuation; +inf for an exact zero, the floor for an inexact one."""
        if self.is_exact_zero:
            return INF
        return self.val

    @property
    def abs_floor(self):
        """The value is known modulo p^abs_floor; +inf when exact."""
        if self.is_exact_zero:
            return INF
        if self.unit is None:
            return self.val
        return self.val + self.prec

    # -- arithmetic ----------------------------------------------------

    def _fold(self, other, pairs):
        """The number ``cell_dot`` makes of ``pairs`` of cells at the
        smaller nrel of the operands."""
        if self.p != other.p:
            raise ValueError("mixed primes %d and %d" % (self.p, other.p))
        nrel = min(self.nrel, other.nrel)
        return PadicNumber.from_cell(self.p, nrel,
                                     cell_dot(self.p, nrel, pairs))

    def __add__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return self._fold(other, [((self.val, self.unit, self.prec), _ONE),
                                  ((other.val, other.unit, other.prec), _ONE)])

    def __neg__(self):
        if self.unit is None:
            return self
        return PadicNumber(self.p, self.nrel, self.val,
                           (-self.unit) % self.p ** self.prec, self.prec)

    def __sub__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return self._fold(other, [((self.val, self.unit, self.prec),
                                   (other.val, other.unit, other.prec))])

    def __truediv__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if other.unit is None:
            raise DivisionByZero(
                "divisor is zero at working precision"
                if not other.is_exact_zero else "division by exact zero")
        inv = pow(other.unit, -1, other.p ** other.prec)
        return self._fold(other, [((self.val, self.unit, self.prec),
                                   (-other.val, inv, other.prec))])

    # -- comparisons ----------------------------------------------------

    def compare(self, other):
        """Three-valued comparison: EQUAL / UNEQUAL / INDISTINGUISHABLE."""
        d = self - other
        if d.is_exact_zero:
            return EQUAL
        if d.unit is None:
            return INDISTINGUISHABLE
        return UNEQUAL

    def agrees(self, other):
        """Not provably different at the shared working precision."""
        return self.compare(other) != UNEQUAL

    def __repr__(self):
        return cell_text(self.p, (self.val, self.unit, self.prec))

    def to_rational(self):
        """Exact rational p^val * unit of the stored representative."""
        if self.is_exact_zero:
            return Fraction(0)
        if self.unit is None:
            raise ValueError("inexact zero has no representative")
        return Fraction(self.unit) * Fraction(self.p) ** self.val


def cell_at_floor(p, base, raw, floor):
    """The cell (val, unit, prec) of ``p^base * raw`` modulo ``p^floor``:
    the inexact zero (floor, None, None) when no digit survives."""
    if floor > base:
        raw %= p ** (floor - base)
        if raw:
            t = vp_int(raw, p)
            return (base + t, raw // p ** t, floor - base - t)
    return (floor, None, None)


def cell_text(p, cell):
    """The text of a cell: "0", "O(p^val)" or "p^val*unit mod p^prec"."""
    val, unit, prec = cell
    if val is None:
        return "0"
    if unit is None:
        return f"O({p}^{val})"
    return f"{p}^{val}*{unit} mod {p}^{prec}"


def cell_dot(p, nrel, pairs):
    """Sum of the products x * y over ``pairs`` of cells (val, unit, prec)
    at relative precision cap nrel, as one such cell: val None for an
    exact zero, unit and prec None for the inexact zero O(p^val).

    The sum is kept as one integer over a common valuation and normalised
    once: it is the canonical form of the exact sum modulo p^F, F the
    smallest absolute floor of the products, in any order.
    """
    floor = INF             # absolute floor of the sum
    base = None
    raw = 0                 # the sum is p^base * raw mod p^floor
    for (xv, xu, xp), (yv, yu, yp) in pairs:
        if xv is None or yv is None:
            continue            # an exact zero term
        v = xv + yv
        if xu is None or yu is None:
            if v < floor:
                floor = v
            continue
        top = v + min(xp, yp, nrel)
        if top < floor:
            floor = top
        u = xu * yu
        if base is None:
            base, raw = v, u
        elif v >= base:
            raw += u * p ** (v - base)
        else:
            raw = raw * p ** (base - v) + u
            base = v
    if floor is INF:
        return (None, None, None)
    if base is None:
        return (floor, None, None)
    return cell_at_floor(p, base, raw, floor)


# ---------------------------------------------------------------------------
# Unramified extension Q_q / Q_p of degree f, with the canonical Frobenius.
# ---------------------------------------------------------------------------


def _mulmod(a, b, g, m):
    """The product of a and b in (Z/m)[x]/(g), g monic of degree f: its f
    coefficients, each in [0, m)."""
    f = len(g) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for k in range(len(out) - 1, f - 1, -1):
        lead = out[k] % m
        if lead:
            for i in range(f):
                out[k - f + i] -= lead * g[i]
    return [c % m for c in out[:f]] + [0] * (f - len(out))


def _powmod(a, e, g, m):
    """a^e in (Z/m)[x]/(g) by square and multiply."""
    result = [1] + [0] * (len(g) - 2)
    while e:
        if e & 1:
            result = _mulmod(result, a, g, m)
        e >>= 1
        if e:
            a = _mulmod(a, a, g, m)
    return result


def _is_irreducible(g, p):
    """Monic g irreducible over F_p: x^(p^f) = x and x^(p^d) != x for the
    proper divisors d of f."""
    f = len(g) - 1
    x = y = _powmod([0, 1], 1, g, p)
    for d in range(1, f):
        y = _powmod(y, p, g, p)            # x^(p^d)
        if f % d == 0 and y == x:
            return False
    return _powmod(y, p, g, p) == x


def find_irreducible(p, f):
    """Small monic irreducible of degree f over F_p, deterministic: the
    first candidate with coefficients in [-bound, bound], constant term
    varying fastest, for bound = 1, 2, ..."""
    if f == 1:
        return [0, 1]
    bound = 1
    while True:
        for tail in product(range(-bound, bound + 1), repeat=f):
            g = [c % p for c in reversed(tail)] + [1]
            if g[0] and _is_irreducible(g, p):
                return g
        bound += 1


class UnramifiedField:
    """Q_q = Q_p[x]/(g) with q = p^f and the canonical Frobenius lift.

    The Frobenius is computed by Hensel-lifting the root x^p of g mod p to
    a root of g in Z_p[x]/(g); its matrix in the power basis is stored as
    exact integers modulo p^kwork.
    """

    def __init__(self, p, f, nrel):
        self.p = p
        self.f = f
        self.nrel = nrel
        self.kwork = nrel + 2
        self.modulus = find_irreducible(p, f)  # integer coefficients, monic
        self.frob_matrix = self._lift_frobenius()
        # the same integers as PadicNumbers, built once for every product
        # and Frobenius (a PadicNumber is never mutated, so they are shared)
        self.modulus_padic = [PadicNumber.from_int(p, nrel, c)
                              for c in self.modulus]
        self.frob_padic = [[PadicNumber.from_int(p, nrel, c) for c in row]
                           for row in self.frob_matrix]

    def _lift_frobenius(self):
        """The columns r^0 .. r^(f-1) for the root r of g lifting x^p, by
        one Newton loop r <- r - g(r) v that lifts v = g'(r)^-1 alongside,
        from its value modulo p, by v <- v (2 - g'(r) v)."""
        p, f, g = self.p, self.f, self.modulus
        pk = p ** self.kwork
        r = _powmod([0, 1], p, g, p)
        known, v = 1, None
        while True:
            powers = [[1] + [0] * (f - 1)]          # r^0 .. r^f
            for _ in range(f):
                powers.append(_mulmod(powers[-1], r, g, pk))
            if known >= self.kwork:
                break
            dgr = [sum(i * g[i] * powers[i - 1][k] for i in range(1, f + 1))
                   for k in range(f)]
            if v is None:
                v = _powmod(dgr, p ** f - 2, g, p)
            else:
                dv = _mulmod(dgr, v, g, pk)
                v = _mulmod(v, [2 - dv[0]] + [-c for c in dv[1:]], g, pk)
            gr = [sum(g[i] * powers[i][k] for i in range(f + 1))
                  for k in range(f)]
            r = [(a - b) % pk for a, b in zip(r, _mulmod(gr, v, g, pk))]
            known = min(2 * known, self.kwork)
        # row-major matrix: frob(x^j) = r^j = sum_i M[i][j] x^i
        return [[powers[j][i] for j in range(f)] for i in range(f)]

    # -- scalar factory ------------------------------------------------

    def scalar(self, coords):
        coords = list(coords)
        if len(coords) != self.f:
            raise ValueError("expected %d coordinates" % self.f)
        out = []
        for c in coords:
            if isinstance(c, PadicNumber):
                out.append(c)
            else:
                out.append(PadicNumber.from_rational(self.p, self.nrel, c))
        return UnramifiedScalar(self, out)

    def from_int(self, n):
        return self.scalar([n] + [0] * (self.f - 1))

    def zero(self):
        return self.scalar([0] * self.f)

    def one(self):
        return self.from_int(1)

    def gen(self):
        return self.scalar([0, 1] + [0] * (self.f - 2))


class UnramifiedScalar:
    """Element of Q_q in the power basis, coordinates are PadicNumbers."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = list(coords)

    def _check(self, other):
        if self.field is not other.field:
            raise ValueError("mixed unramified fields")

    def __add__(self, other):
        self._check(other)
        return UnramifiedScalar(
            self.field, [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return UnramifiedScalar(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field.f
        p, nrel = self.field.p, self.field.nrel
        prod = [PadicNumber.zero(p, nrel) for _ in range(2 * f - 1)]
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                prod[i + j] = prod[i + j] + a * b
        # reduce by the monic modulus with exact integer coefficients
        g = self.field.modulus_padic
        for k in range(2 * f - 2, f - 1, -1):
            lead = prod[k]
            if lead.is_exact_zero:
                continue
            for i in range(f):
                prod[k - f + i] = prod[k - f + i] - lead * g[i]
        return UnramifiedScalar(self.field, prod[:f])

    def frobenius(self, power=1):
        """Apply the canonical lift of x -> x^p, ``power`` times."""
        p, nrel = self.field.p, self.field.nrel
        out = self
        m = self.field.frob_padic
        for _ in range(power % self.field.f):
            coords = []
            for i in range(self.field.f):
                acc = PadicNumber.zero(p, nrel)
                for j in range(self.field.f):
                    acc = acc + m[i][j] * out.coords[j]
                coords.append(acc)
            out = UnramifiedScalar(self.field, coords)
        return out

    def inverse(self):
        """Inverse via the multiplication-by-self matrix M: column 0 of
        M^-1, the solution x of M x = e_0, the coordinates of 1."""
        # imported here: linalg imports this module
        from .linalg import mat_identity, mat_inv
        basis = mat_identity(self.field.f,
                             PadicNumber.zero(self.field.p, self.field.nrel))
        cols = [(self * UnramifiedScalar(self.field, e)).coords for e in basis]
        mat = [list(row) for row in zip(*cols)]
        x = mat_inv(mat, error=DivisionByZero)
        return UnramifiedScalar(self.field, [row[0] for row in x])

    def agrees(self, other):
        return all(a.agrees(b) for a, b in zip(self.coords, other.coords))

    def __repr__(self):
        return "UnramifiedScalar(%s)" % ", ".join(repr(c) for c in self.coords)


# ---------------------------------------------------------------------------
# Integer polynomials and archimedean root data.
# ---------------------------------------------------------------------------


class IntPolynomial:
    """Polynomial with exact integer (or rational) coefficients.

    ``coeffs[i]`` is the coefficient of t^i; trailing zeros are stripped so
    the leading coefficient of a nonzero polynomial is nonzero.  An integral
    coefficient is stored as an ``int``, any other as a ``Fraction``.  The
    polynomial is immutable, so its hash is computed once.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs):
        coeffs = [c if type(c) is int else exact_rational(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        self.coeffs = tuple(coeffs)
        self._hash = hash(self.coeffs)

    @property
    def degree(self):
        if self.is_zero:
            return 0
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            out[i] += a
        for i, b in enumerate(other.coeffs):
            out[i] += b
        return IntPolynomial(out)

    def __repr__(self):
        return "IntPolynomial(%s)" % (list(self.coeffs),)


def horner(coeffs, x):
    """sum(coeffs[i] * x^i), by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def exact_rational(c):
    """``c`` as an ``int`` when integral, else as a ``Fraction``."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def complex_root_magnitudes(poly: IntPolynomial):
    """Magnitudes of the reciprocal roots of ``poly``, sorted ascending.

    For a local factor det(1 - t*F) with constant term 1 these are the
    archimedean absolute values of the Frobenius eigenvalues.  Computed in
    floating point: in closed form up to degree 2, by the Aberth-Ehrlich
    iteration from degree 3.  The tests hold them to a relative 1e-9 of
    the companion-matrix eigenvalues at degrees 1 to 12, on integer
    polynomials with simple roots.  The product of the returned magnitudes
    is |leading/constant|.  Raises ``NumericalFailure`` when the iteration
    does not converge.
    """
    if poly.is_zero:
        raise ValueError("zero polynomial has no roots")
    c = poly.coeffs
    if c[0] == 0:
        raise ValueError("constant term must be nonzero (reciprocal roots)")
    if poly.degree == 0:
        return []
    if poly.degree == 1:
        return [float(abs(c[1] / c[0]))]
    if poly.degree == 2:
        # the reciprocal roots solve c0 x^2 + c1 x + c2 = 0; the sign of the
        # exact discriminant tells a conjugate pair from two real roots
        if c[1] == 0 or c[1] * c[1] <= 4 * c[0] * c[2]:
            return [math.sqrt(abs(c[2] / c[0]))] * 2
        s = abs(c[1]) + math.sqrt(c[1] * c[1] - 4 * c[0] * c[2])
        return sorted([abs(2 * c[2]) / s, s / abs(2 * c[0])])
    # the reciprocal roots of P(t) are the roots of t^deg * P(1/t)
    return sorted(map(abs, _aberth_roots([float(x) for x in reversed(c)])))


def _aberth_roots(a):
    """All complex roots of sum(a[i] * x^i), a[0] and a[-1] nonzero, by the
    Aberth-Ehrlich iteration in Gauss-Seidel order (Bini, "Numerical
    computation of polynomial zeros by means of Aberth's method", Numer.
    Algorithms 13, 1996).  A root is final once |p(z)| is within Horner's
    rounding bound at z, so a multiple root ends at its attainable
    accuracy instead of iterating on rounding noise."""
    n = len(a) - 1
    # Horner's running error bound (Bini's s(|z|)) times the machine epsilon
    err = [math.ulp(1.0) * abs(x) * (4 * i + 1) for i, x in enumerate(a)]
    z = _aberth_start(a)
    done = [False] * n
    for _ in range(100 + 10 * n):
        for k, zk in enumerate(z):
            if done[k]:
                continue
            p, dp, bound, r = a[n], 0.0, err[n], abs(zk)
            for i in range(n - 1, -1, -1):
                dp = dp * zk + p
                p = p * zk + a[i]
                bound = bound * r + err[i]
            if abs(p) <= bound:
                done[k] = True
                continue
            try:
                ratio = p / dp
                z[k] = zk - ratio / (1 - ratio * sum(
                    1 / (zk - zj) for j, zj in enumerate(z) if j != k))
            except ZeroDivisionError:
                raise NumericalFailure("Aberth correction divided by "
                                       "zero") from None
        if all(done):
            return z
    raise NumericalFailure(f"Aberth iteration did not converge at degree {n}")


def _aberth_start(a):
    """Bini's starting radii: the upper convex hull of the points
    (i, log|a[i]|) puts as many points as an edge is long on the circle
    whose radius the edge's slope gives.  The n points take n distinct
    angles, so no two of them coincide."""
    n = len(a) - 1
    hull = _lower_hull([(i, -math.log(abs(x))) for i, x in enumerate(a) if x])
    radii = [math.exp((yj - yi) / (j - i))
             for (i, yi), (j, yj) in zip(hull, hull[1:]) for _ in range(i, j)]
    angles = [2 * math.pi * k / n + 0.7 for k in range(n)]
    return [r * complex(math.cos(t), math.sin(t))
            for r, t in zip(radii, angles)]


# ---------------------------------------------------------------------------
# Newton polygons.
# ---------------------------------------------------------------------------


class NewtonPolygon:
    """Slopes (as root valuations) with multiplicities, plus the offset of
    the lowest provably nonzero coefficient."""

    def __init__(self, slopes, offset):
        self.slopes = tuple(sorted(slopes))   # list of (Fraction, int)
        self.offset = offset

    @property
    def unit_root(self):
        """Every root is a unit: offset and all slopes zero."""
        return self.offset == 0 and all(s == 0 for s, _ in self.slopes)

    def multiset(self):
        out = []
        for s, m in self.slopes:
            out.extend([s] * m)
        return out

    def __eq__(self, other):
        return (isinstance(other, NewtonPolygon)
                and self.slopes == other.slopes and self.offset == other.offset)

    def __repr__(self):
        return f"NewtonPolygon(slopes={list(self.slopes)}, offset={self.offset})"


def newton_polygon(coeffs):
    """Newton polygon of sum(coeffs[i] * T^i) from coefficient valuations.

    Returns root valuations: the negated slopes of the lower convex hull of
    the points (i, v_p(a_i)).  Coefficients that are exact zeros are
    skipped; a coefficient that is merely zero at working precision raises
    ``AmbiguousValuation`` whenever its valuation floor could affect the
    hull.
    """
    pts = []
    indeterminate = []
    for i, c in enumerate(coeffs):
        if isinstance(c, PadicNumber):
            if c.is_exact_zero:
                continue
            if c.unit is None:
                indeterminate.append((i, c.val))
            else:
                pts.append((i, Fraction(c.val)))
        else:
            raise TypeError("newton_polygon expects PadicNumber coefficients")
    if not pts:
        raise AmbiguousValuation("no coefficient has a determined valuation")
    pts.sort()
    hull = _lower_hull(pts)
    i_lo, i_hi = pts[0][0], pts[-1][0]

    def hull_value(x):
        for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * Fraction(x - x0, x1 - x0)
        return None

    for i, floor in indeterminate:
        if i < i_lo or i > i_hi:
            raise AmbiguousValuation(
                f"coefficient {i} is zero only at precision and would extend "
                "the polygon")
        if Fraction(floor) < hull_value(i):
            raise AmbiguousValuation(
                f"coefficient {i} has undetermined valuation below the hull")

    slopes = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        s = -Fraction(y1 - y0, x1 - x0)
        slopes.append((s, x1 - x0))
    # merge equal slopes
    merged = {}
    for s, m in slopes:
        merged[s] = merged.get(s, 0) + m
    return NewtonPolygon(sorted(merged.items()), i_lo)


def _lower_hull(pts):
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull
