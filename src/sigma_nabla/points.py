"""Point-level F-isocrystal algebra: twisted Frobenius iterates, projector
averaging, block-companion matrices, Newton slopes, an exact purity
verdict and the characteristic-polynomial coefficient map.

Matrices here are plain scalar matrices; entries may be Fractions (exact
paths), PadicNumbers, or UnramifiedScalars (semilinear case, where sigma
acts on entries through the field's Frobenius).  The characteristic
polynomial of a rational matrix runs on integers over one common
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional

from .errors import (
    CocycleViolated,
    PreconditionFailed,
    SingularFrobenius,
)
from .linalg import _dot, _inverse, _ring_int, mat_agree, mat_identity, \
    mat_inv, mat_map, mat_mul
from .padic import (
    IntPolynomial,
    PadicNumber,
    UnramifiedScalar,
    complex_root_magnitudes,
    exact_rational,
    horner,
    newton_polygon,
)


def _sigma_entrywise(mat, power=1):
    """Entrywise Frobenius twist; trivial unless entries are unramified."""
    if power == 0:
        return mat
    sample = mat[0][0]
    if isinstance(sample, UnramifiedScalar):
        return mat_map(mat, lambda x: x.frobenius(power))
    return mat


def frob_iterate(mat, n):
    """The n-th twisted iterate F * sigma(F) * ... * sigma^(n-1)(F).

    n = 0 gives the identity; negative n the inverse of the |n|-th
    iterate.  For scalars fixed by sigma this is the plain matrix power.
    """
    if n == 0:
        return mat_identity(len(mat), mat[0][0])
    if n < 0:
        return mat_inv(frob_iterate(mat, -n), error=SingularFrobenius)
    acc = mat
    for k in range(1, n):
        acc = mat_mul(acc, _sigma_entrywise(mat, k))
    return acc


# ---------------------------------------------------------------------------
# Projector averaging.
# ---------------------------------------------------------------------------


def _check_projector(pi):
    if not mat_agree(mat_mul(pi, pi), pi):
        raise PreconditionFailed(
            "pi_not_idempotent", "pi * pi differs from pi at precision")


def average_projector(pi, frob, n):
    """(1/n) sum of F^[i] sigma^i(pi) F^[-i] for 0 <= i < n.

    Checked hypotheses, each named on failure:
      * pi is idempotent;
      * pi commutes with the n-th iterate (it is an endomorphism of the
        n-th power object);
      * the image of pi is Frobenius-stable for each 0 <= i < n.
    The output is idempotent, has the same image as pi, and is fixed by
    conjugation with the Frobenius.
    """
    _check_projector(pi)
    # the iterates by frob_iterate's left fold, each built once
    fi = [mat_identity(len(frob), frob[0][0]), frob]
    for i in range(2, n + 1):
        fi.append(mat_mul(fi[i - 1], _sigma_entrywise(frob, i - 1)))
    fi_inv = fi[:1] + [mat_inv(f, error=SingularFrobenius) for f in fi[1:]]
    twisted = [_sigma_entrywise(pi, i) for i in range(n + 1)]
    conj_n = mat_mul(mat_mul(fi[n], twisted[n]), fi_inv[n])
    if not mat_agree(conj_n, pi):
        raise PreconditionFailed(
            "pi_not_endomorphism_of_iterate",
            "pi does not commute with the n-th Frobenius iterate")
    return _stable_mean(
        pi, ((i, mat_mul(mat_mul(fi[i], twisted[i]), fi_inv[i]))
             for i in range(n)),
        "F^[{}] does not carry the image of pi into itself")


def _stable_mean(pi, conjugates, unstable):
    """The mean of the (label, conjugate) pairs, in the ring of pi's
    entries, each checked to keep the image of pi (pi fixes the
    conjugate's image); a failure names its label in ``unstable``."""
    acc = None
    for count, (label, conj) in enumerate(conjugates, 1):
        if not mat_agree(mat_mul(pi, conj), conj):
            raise PreconditionFailed("image_not_stable",
                                     unstable.format(label))
        acc = conj if acc is None else \
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(acc, conj)]
    inv_n = _inverse(_ring_int(count, pi[0][0]))
    return [[x * inv_n for x in row] for row in acc]


def average_projector_group(pi, cocycle, group_table):
    """Group-descent averaging: (1/|G|) sum of iota_g pi iota_g^-1.

    ``cocycle`` is a list of (label, matrix); ``group_table`` maps pairs of
    labels to their product.  The cocycle law iota_h iota_g = iota_hg is
    checked for every pair.
    """
    labels = [g for g, _ in cocycle]
    mats = dict(cocycle)
    for h in labels:
        for g in labels:
            lhs = mat_mul(mats[h], mats[g])
            hg = group_table[(h, g)]
            if not mat_agree(lhs, mats[hg]):
                raise CocycleViolated(g, h)
    _check_projector(pi)
    inv = {g: mat_inv(mats[g]) for g in labels}
    return _stable_mean(
        pi, ((g, mat_mul(mat_mul(mats[g], pi), inv[g])) for g in labels),
        "iota_{} does not preserve the image of pi")


# ---------------------------------------------------------------------------
# Block companion matrices.
# ---------------------------------------------------------------------------


def block_companion(f_g, n):
    """The n*r block matrix with identity blocks on the superdiagonal and
    f_g in the lower-left corner; its n-th twisted iterate is block
    diagonal with sigma-twists of f_g on the diagonal."""
    if n < 1:
        raise ValueError("n must be at least 1")
    r = len(f_g)
    ident = mat_identity(n * r, f_g[0][0])
    # rows r.. of the identity, then f_g padded by zeros (row i < r of the
    # identity is zero from column r on)
    return ident[r:] + [list(f_g[i]) + ident[i][r:] for i in range(r)]


# ---------------------------------------------------------------------------
# Slopes, purity, characteristic polynomial.
# ---------------------------------------------------------------------------


def char_coeffs(mat):
    """Coefficients of det(T*I - F), leading first: (1, c_{n-1}, ..., c_0).

    Berkowitz's division-free algorithm (``_berkowitz``).  A rational
    matrix (int and Fraction entries) runs on Python integers over one
    common denominator d: the coefficient of T^(n-k) for F is that for
    d*F divided by d^k, and every coefficient comes back a Fraction.  Other
    entries (PadicNumber, UnramifiedScalar) run in their own ring through
    the left fold ``linalg._dot``, which keeps their precision bookkeeping.
    """
    coeffs = _rational_char_coeffs(mat)
    if coeffs is not None:
        return [Fraction(c) for c in coeffs]
    like = mat[0][0]
    return _berkowitz(mat, _ring_int(0, like), _ring_int(1, like), _dot)


def _rational_char_coeffs(mat):
    """``char_coeffs`` of a rational matrix with each integral coefficient
    an int; None for other entries."""
    if not all(isinstance(x, (int, Fraction)) for row in mat for x in row):
        return None
    ratios = [[x.as_integer_ratio() for x in row] for row in mat]
    d = lcm(*(den for row in ratios for _, den in row))
    ints = [[num * (d // den) for num, den in row] for row in ratios]
    poly = _berkowitz(ints, 0, 1, lambda xs, ys: sum(map(mul, xs, ys)))
    if d == 1:
        return poly
    return [Fraction(c, d ** k) if c % d ** k else c // d ** k
            for k, c in enumerate(poly)]


def _berkowitz(mat, zero, one, dot):
    """det(T*I - mat) leading first, by Berkowitz's algorithm: O(n^4) ring
    operations, only +, * and zero - x.  Write the leading (r+1) x (r+1)
    block as [[M, C], [R, a]]; its characteristic polynomial is the
    lower-triangular Toeplitz matrix with first column
    (1, -a, -R C, -R M C, ..., -R M^(r-1) C) applied to that of M.
    ``dot(xs, ys)`` is the sum of x * y over zip(xs, ys).
    """
    poly = [one]
    for r in range(len(mat)):
        m_cols = [[mat[i][j] for i in range(r)] for j in range(r)]
        c = [mat[i][r] for i in range(r)]
        rm = mat[r][:r]                         # R M^k
        toeplitz = [one, zero - mat[r][r]]
        for k in range(r):
            if k:
                rm = [dot(rm, col) for col in m_cols]
            toeplitz.append(zero - dot(rm, c))
        poly = [dot(toeplitz[i::-1], poly) for i in range(r + 2)]
    return poly


def newton_slopes_frob(mat):
    """Newton slopes of det(T*I - F): ascending coefficient order is what
    newton_polygon expects, so the list is reversed."""
    coeffs = char_coeffs(mat)
    sample = mat[0][0]
    if isinstance(sample, PadicNumber):
        asc = list(reversed(coeffs))
    else:
        raise TypeError("newton_slopes_frob expects PadicNumber entries")
    return newton_polygon(asc)


@dataclass(frozen=True)
class PurityVerdict:
    pure: bool
    expected: float
    magnitudes: tuple
    witness: Optional[float] = None

    def __bool__(self):
        return self.pure


def purity_check(local_poly: IntPolynomial, q, deg, w) -> PurityVerdict:
    """All reciprocal roots of det(1 - t^deg Frob) of size q^(w*deg/2)?

    The polynomial must be supported on powers of t^deg (it is a
    polynomial in t^deg); its reciprocal roots in that variable are the
    Frobenius eigenvalues.  The verdict is exact (``_is_weil_polynomial``);
    the magnitudes are numerical and only reported, and the witness of an
    impure factor is the magnitude farthest from q^(w*deg/2).
    """
    if local_poly.coeffs[0] != 1:
        raise ValueError("local factor must have constant term 1")
    compressed = []
    for i, c in enumerate(local_poly.coeffs):
        if i % deg == 0:
            compressed.append(c)
        elif c != 0:
            raise ValueError(
                f"coefficient of t^{i} nonzero; polynomial is not in t^{deg}")
    e = w * deg
    if e != int(e):
        raise ValueError(f"weight {w} at degree {deg}: q^(w*deg) must be "
                         f"an integral power of q")
    e = int(e)
    poly = IntPolynomial(compressed)
    mags = complex_root_magnitudes(poly)
    expected = float(q) ** (e / 2.0)
    if _is_weil_polynomial(poly.coeffs,
                           q ** e if e >= 0 else Fraction(1, q ** -e)):
        return PurityVerdict(True, expected, tuple(mags))
    worst = max(mags, key=lambda m: abs(m - expected))
    return PurityVerdict(False, expected, tuple(mags), worst)


def _is_weil_polynomial(c, Q):
    """Is |alpha|^2 = Q for every reciprocal root alpha of sum(c[i] t^i),
    c[0] = 1?  Decided on exact rationals by the root-unitary test of
    Kedlaya, "Search techniques for root-unitary polynomials" (Contemp.
    Math. 463, 2008), scaled from the unit circle to the circle of radius
    sqrt(Q).  Sage's ``Polynomial.is_weil_polynomial`` asks the same.
    Polynomials here are ascending coefficient lists."""
    n = len(c) - 1
    # |alpha|^2 = Q makes alpha -> Q/alpha (complex conjugation) permute the
    # roots; it does iff the functional equation c_k Q^(n-k) = c_n c_(n-k)
    if any(c[k] * Q ** (n - k) != c[n] * c[n - k] for k in range(n + 1)):
        return False
    # the roots themselves, monic; then divide out every copy of the roots
    # alpha = +-sqrt(Q), which pair with themselves: r = a x + b mod x^2 - Q
    # has both as roots when a = b = 0, and one, x0 = -b/a, when b^2 = a^2 Q
    r = c[::-1]
    while len(r) > 1:
        b, a = horner(r[0::2], Q), horner(r[1::2], Q)
        if a == b == 0:
            r = _divmod(r, [-Q, 0, 1])[0]
        elif b * b == a * a * Q:
            r = _divmod(r, [exact_rational(Fraction(b) / a), 1])[0]
        else:
            break
    # the rest pair off as alpha != Q/alpha: r(x) = x^m u(x + Q/x), through
    # x^j + Q^j x^-j = D_j(x + Q/x), D_0 = 2, D_1 = y,
    # D_(j+1) = y D_j - Q D_(j-1)
    m = len(r) // 2
    u, prev, cur = [r[m]] + [0] * m, [2], [0, 1]
    for j in range(1, m + 1):
        for i, d in enumerate(cur):
            u[i] += r[m + j] * d
        nxt = [0] + cur
        for i, d in enumerate(prev):
            nxt[i] -= Q * d
        prev, cur = cur, nxt
    # the pair is on the circle iff y = alpha + Q/alpha is real in
    # [-2 sqrt(Q), 2 sqrt(Q)], so iff y^2 is a root in [0, 4Q] of v, where
    # v(y^2) = u(y) u(-y) = even(y^2)^2 - y^2 odd(y^2)^2; a root y^2 = 0 is
    # inside, and 4Q is none, since the roots +-sqrt(Q) are gone
    even, odd = IntPolynomial(u[0::2]), IntPolynomial(u[1::2] or [0])
    v = list((even * even + IntPolynomial([0, -1]) * odd * odd).coeffs)
    while v[0] == 0:
        del v[0]
    # Sturm: the distinct roots of v in (0, 4Q) are V(0) - V(4Q), and the
    # sequence ends at gcd(v, v'), so v has deg v - deg gcd distinct roots
    seq = [v, [i * d for i, d in enumerate(v)][1:]]
    while len(seq[-1]) > 1:
        seq.append([-d for d in _divmod(seq[-2], seq[-1])[1]])
    if not seq[-1]:
        seq.pop()
    inside = (_sign_changes([s[0] for s in seq]) -
              _sign_changes([horner(s, 4 * Q) for s in seq]))
    return inside == len(v) - len(seq[-1])


def _divmod(a, b):
    """Quotient and remainder of a by b (nonzero leading coefficient), with
    the remainder's trailing zeros stripped: [] is the zero polynomial."""
    rem, lead, shift = list(a), b[-1], len(b) - 1
    quo = [0] * max(len(a) - shift, 0)
    for i in range(len(a) - 1 - shift, -1, -1):
        quo[i] = d = rem[i + shift] if lead == 1 else \
            Fraction(rem[i + shift]) / lead
        for j, e in enumerate(b):
            rem[i + j] -= d * e
    del rem[shift:]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _sign_changes(values):
    signs = [x > 0 for x in values if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@dataclass
class PointFrobenius:
    """Frobenius of a pulled-back isocrystal at a closed point."""

    q: int
    deg: int
    matrix: list

    def local_polynomial(self) -> IntPolynomial:
        """det(1 - t^deg * F) as a polynomial in t with constant term 1.

        Entries must be exact rationals for the L-function pipeline.
        """
        coeffs = _rational_char_coeffs(self.matrix)     # leading first
        if coeffs is None:
            raise TypeError("local polynomials need exact rational entries")
        # det(1 - sF) has s^k coefficient equal to the T^(n-k) coefficient
        expanded = []
        for k, c in enumerate(coeffs):
            expanded.extend([c] + [0] * (self.deg - 1))
        return IntPolynomial(expanded[:len(coeffs) * self.deg -
                                      (self.deg - 1)])
