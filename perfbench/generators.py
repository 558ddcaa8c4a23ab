"""Seeded input generators for the benchmark workloads.

These are adapted from the test suite's shared generators rather than
imported from them on purpose: a later edit to a test helper must not
silently change what a benchmark workload runs, or two commits would be
measured on different inputs.  Every function takes a ``random.Random``
and draws from it in a fixed order, so one seed gives one input set.
"""

from dataclasses import replace
from fractions import Fraction

from sigma_nabla.lfunctions import CharPolyTable
from sigma_nabla.linalg import smat_identity, smat_mul
from sigma_nabla.modules import SigmaNablaModule, basis_transform
from sigma_nabla.padic import IntPolynomial, PadicNumber
from sigma_nabla.series import LaurentSeries, RingLabel


def series(p, nrel, terms):
    return LaurentSeries.from_terms(p, nrel, terms)


def _unit(rng, p, bound):
    c = rng.randrange(1, bound)
    while c % p == 0:
        c = rng.randrange(1, bound)
    return c


def rand_series(rng, p, nrel, emin, emax, vmin, vmax, nterms):
    terms = {}
    for _ in range(nterms):
        e = rng.randint(emin, emax)
        v = rng.randint(vmin, vmax)
        unit = _unit(rng, p, p ** 4)
        terms[e] = Fraction(unit * p ** v)
    return series(p, nrel, terms.items())


# ---------------------------------------------------------------------------
# Invertible matrices with exact inverses.
# ---------------------------------------------------------------------------


def strict_inverse(tri, p, nrel):
    """Inverse of I + S with S strictly triangular: finite Neumann sum."""
    n = len(tri)
    ident = smat_identity(n, p, nrel)
    s = [[tri[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    acc = smat_identity(n, p, nrel)
    term = smat_identity(n, p, nrel)
    for _ in range(n - 1):
        term = smat_mul(term, [[-x for x in row] for row in s])
        acc = [[acc[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    return acc


def rand_gamma_invertible(rng, p, nrel, n, inverse=True):
    """Random matrix invertible over Gamma, with its exact inverse (None
    unless ``inverse``; the draws from ``rng`` are the same either way).

    Built as P * L * D * U with L, U unit-triangular (entries of two terms
    on exponents -2..2, valuations 1..3) and D a diagonal of Gamma-unit
    monomials c * u^a.
    """
    lower = smat_identity(n, p, nrel)
    upper = smat_identity(n, p, nrel)
    for i in range(n):
        for j in range(n):
            if i > j:
                lower[i][j] = rand_series(rng, p, nrel, -2, 2, 1, 3, 2)
            elif i < j:
                upper[i][j] = rand_series(rng, p, nrel, -2, 2, 1, 3, 2)
    diag = smat_identity(n, p, nrel)
    diag_inv = smat_identity(n, p, nrel)
    for i in range(n):
        a = rng.randint(-2, 2)
        c = _unit(rng, p, p ** 3)
        diag[i][i] = series(p, nrel, [(a, c)])
        diag_inv[i][i] = series(p, nrel, [(-a, Fraction(1, c))])
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[series(p, nrel, [(0, 1)] if perm[i] == j else [])
           for j in range(n)] for i in range(n)]
    pm_inv = [[series(p, nrel, [(0, 1)] if perm[j] == i else [])
               for j in range(n)] for i in range(n)]
    y = smat_mul(smat_mul(pm, lower), smat_mul(diag, upper))
    if not inverse:
        return y, None
    y_inv = smat_mul(smat_mul(strict_inverse(upper, p, nrel), diag_inv),
                     smat_mul(strict_inverse(lower, p, nrel), pm_inv))
    return y, y_inv


def _fr_mul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n))
             for j in range(n)] for i in range(n)]


def _fr_tri_inverse(t):
    n = len(t)
    out = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    s = [[t[i][j] - Fraction(i == j) for j in range(n)] for i in range(n)]
    term = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n - 1):
        term = _fr_mul(term, [[-x for x in row] for row in s])
        out = [[out[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    return out


def rand_const_invertible(rng, p, n):
    """Random constant matrix invertible over O[1/p], with exact inverse."""
    lower = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    upper = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j:
                lower[i][j] = Fraction(rng.randint(-4, 4))
            elif i < j:
                upper[i][j] = Fraction(rng.randint(-4, 4))
    diag = [Fraction(p) ** rng.randint(-1, 1) *
            rng.choice([1, -1, 2 if p != 2 else 1]) for _ in range(n)]
    dmat = [[diag[i] if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    z0 = _fr_mul(_fr_mul(lower, dmat), upper)
    dinv = [[1 / diag[i] if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    z0_inv = _fr_mul(_fr_mul(_fr_tri_inverse(upper), dinv),
                     _fr_tri_inverse(lower))
    return z0, z0_inv


def const_series_matrix(mat, p, nrel):
    return [[series(p, nrel, [(0, c)] if c else []) for c in row]
            for row in mat]


def gamma_product(rng, p, nrel, n):
    """X = Y0 * Z0 with Y0 invertible over Gamma and Z0 constant: the
    construction of the factorization round-trip acceptance batch."""
    y0, _ = rand_gamma_invertible(rng, p, nrel, n, inverse=False)
    z0, _ = rand_const_invertible(rng, p, n)
    return smat_mul(y0, const_series_matrix(z0, p, nrel))


# ---------------------------------------------------------------------------
# Modules for descent, gluing, horizontal sections and the probe.
# ---------------------------------------------------------------------------


def rand_eplus_module(rng, p, nrel, n, with_b=False):
    """(sigma, nabla)-module over E-plus satisfying the compatibility law,
    built from a constant diagonal by an exactly invertible basis change."""
    diag = smat_identity(n, p, nrel)
    for i in range(n):
        a = rng.randint(0, 1) if with_b else rng.randint(0, 2)
        c = _unit(rng, p, p ** 2)
        diag[i][i] = series(p, nrel, [(0, c * p ** a)])
    zero = [[series(p, nrel, []) for _ in range(n)] for _ in range(n)]
    bmat = None
    if with_b:
        bmat = smat_identity(n, p, nrel)
        for i in range(n):
            c0 = diag[i][i].coefficient(0)
            bmat[i][i] = series(p, nrel,
                                [(0, Fraction(p) / c0.to_rational())])
    mod = SigmaNablaModule(RingLabel("EPlus"), p, diag, zero, bmat)
    # unit-triangular change of basis with entries in u * Gamma_plus
    tri = smat_identity(n, p, nrel)
    for i in range(n):
        for j in range(n):
            if i < j:
                tri[i][j] = rand_series(rng, p, nrel, 1, 3, 0, 2, 2)
    return basis_transform(mod, tri, strict_inverse(tri, p, nrel))


def rand_robba_regime_x(rng, p, nrel, n, in_regime=True):
    """X = Y0 * Z0 with Y0 = D * (I + strictly lower minus part) and
    Z0 = I + strictly upper plus part.  The minus part has valuation 1..2,
    which is the contraction regime of the Robba factorization; with
    ``in_regime`` false it has valuation 0, which the factorization must
    refuse (for n >= 2)."""
    minus = smat_identity(n, p, nrel)
    for i in range(n):
        for j in range(n):
            if i > j:
                e = rng.randint(-3, -1)
                v = rng.randint(1, 2) if in_regime else 0
                c = _unit(rng, p, p ** 2)
                minus[i][j] = series(p, nrel, [(e, c * p ** v)])
    plus = smat_identity(n, p, nrel)
    for i in range(n):
        for j in range(n):
            if i < j:
                plus[i][j] = rand_series(rng, p, nrel, 1, 3, 0, 2, 2)
    dmon = smat_identity(n, p, nrel)
    dmon_inv = smat_identity(n, p, nrel)
    for i in range(n):
        a = rng.randint(-2, 2)
        c = _unit(rng, p, p ** 2)
        dmon[i][i] = series(p, nrel, [(a, c)])
        dmon_inv[i][i] = series(p, nrel, [(-a, Fraction(1, c))])
    y0 = smat_mul(dmon, minus)
    y0_inv = smat_mul(strict_inverse(minus, p, nrel), dmon_inv)
    return smat_mul(y0, plus), y0, y0_inv


def descent_instance(rng, p, nrel, n):
    """An E-dagger module carried outward from E-plus, and the X whose
    Robba factorization brings it back (descent round trip)."""
    mod = rand_eplus_module(rng, p, nrel, n)
    x, y0, y0_inv = rand_robba_regime_x(rng, p, nrel, n)
    outward = basis_transform(replace(mod, ring=RingLabel("EDagger")),
                              y0_inv, y0)
    return outward, x


def glue_instance(rng, p, nrel, n):
    """Dieudonne modules over Gamma and E-plus that glue through the
    constant-Z factorization of X (gluing round trip)."""
    m_plus = replace(rand_eplus_module(rng, p, nrel, n, with_b=True),
                     ring=RingLabel("GammaPlus"))
    y0, y0_inv = rand_gamma_invertible(rng, p, nrel, n)
    z0, z0_inv = rand_const_invertible(rng, p, n)
    x = smat_mul(y0, const_series_matrix(z0, p, nrel))
    m1 = basis_transform(replace(m_plus, ring=RingLabel("Gamma")),
                         y0_inv, y0)
    m2 = replace(basis_transform(m_plus, const_series_matrix(z0, p, nrel),
                                 const_series_matrix(z0_inv, p, nrel)),
                 ring=RingLabel("EPlus"))
    return m1, m2, x


def horizontal_module(rng, p, nrel, n, k_max):
    """Module over R-plus whose connection N = -A (I + uA)^-1 has the
    horizontal basis H = I + uA, with A a random integer matrix."""
    a_const = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    a_mat = [[series(p, nrel, [(0, a_const[i][j])] if a_const[i][j] else [])
              for j in range(n)] for i in range(n)]
    ua = [[a_mat[i][j].shift_exp(1) for j in range(n)] for i in range(n)]
    cap = k_max + 8
    acc = smat_identity(n, p, nrel)
    term = smat_identity(n, p, nrel)
    for _ in range(cap):
        term = smat_mul(term, [[-x for x in row] for row in ua],
                        out_window=(0, cap))
        acc = [[acc[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    nmat = smat_mul([[-x for x in row] for row in a_mat], acc,
                    out_window=(0, cap))
    mod = SigmaNablaModule(RingLabel("RPlus"), p, smat_identity(n, p, nrel),
                           nmat)
    return mod, a_const


def corrupt_connection(mod, rng):
    """The module with a unit constant added to one entry of N, which
    breaks the compatibility law."""
    n = mod.rank
    i, j = rng.randrange(n), rng.randrange(n)
    nmat = [row[:] for row in mod.nmat]
    nmat[i][j] = nmat[i][j] + series(mod.p, mod.nrel,
                                     [(0, _unit(rng, mod.p, mod.p ** 2))])
    return replace(mod, nmat=nmat)


def _conjugated_diagonal(rng, diag):
    """G * diag * G^-1 with G a random unit upper-triangular integer
    matrix: its eigenvalues are the diagonal entries."""
    n = len(diag)
    g = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[i][j] = Fraction(rng.randint(-3, 3))
    dmat = [[diag[i] if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    return _fr_mul(_fr_mul(g, dmat), _fr_tri_inverse(g))


def slopes_matrix(rng, p, nrel, n):
    """Scalar Frobenius with eigenvalues c_i p^a_i over Z_p, so its Newton
    slopes are the a_i exactly."""
    vals = [rng.randint(0, 2) for _ in range(n)]
    f = _conjugated_diagonal(
        rng, [Fraction(_unit(rng, p, p ** 2) * p ** a) for a in vals])
    mat = [[PadicNumber.from_rational(p, nrel, x) for x in row] for row in f]
    return mat, vals


# ---------------------------------------------------------------------------
# Point-level data: L-function tables, local polynomials, pole orders.
# ---------------------------------------------------------------------------


def mobius(n):
    out, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


def closed_points(q, d, removed=()):
    """Closed points of degree d on the affine line over F_q minus the
    points of the given degrees, by Moebius inversion of the counts."""
    def n_m(m):
        return q ** m - sum(e for e in removed if m % e == 0)
    total = sum(mobius(d // e) * n_m(e) for e in range(1, d + 1)
                if d % e == 0)
    return total // d


def affine_line_table(q, truncation):
    """The rank-1 trivial system on the affine line: one local factor
    (1 - t^d) per closed point.  Its Euler product is 1 / (1 - q t)."""
    points, polys, pid = [], {}, 0
    for d in range(1, truncation + 1):
        for _ in range(closed_points(q, d)):
            points.append((pid, d))
            coeffs = [0] * (d + 1)
            coeffs[0], coeffs[d] = 1, -1
            polys[("p", pid)] = IntPolynomial(coeffs)
            pid += 1
    return CharPolyTable(q, ["p"], points, polys)


def lefschetz_instance(rng, truncation, q):
    """Synthetic compatible-system data from chosen Frobenius eigenvalues:
    a rank-r geometrically constant twist on the affine line minus a few
    closed points.  Returns (table, (P0, P1, P2))."""
    rank = rng.randint(1, 4)
    twists = [rng.choice([1, -1, 2, -2, 3]) for _ in range(rank)]
    removed = [d for d in (1, 1, 2) if rng.random() < 0.5]
    while removed.count(1) > q:
        removed.remove(1)
    points, polys, pid = [], {}, 0
    for d in range(1, truncation + 1):
        local = IntPolynomial([1])
        for c in twists:
            factor = [0] * (d + 1)
            factor[0], factor[d] = 1, -(c ** d)
            local = local * IntPolynomial(factor)
        for _ in range(closed_points(q, d, removed)):
            points.append((pid, d))
            polys[("p", pid)] = local
            pid += 1
    table = CharPolyTable(q, ["p"], points, polys)
    p1 = IntPolynomial([1])
    for c in twists:
        for e in removed:
            factor = [0] * (e + 1)
            factor[0], factor[e] = 1, -(c ** e)
            p1 = p1 * IntPolynomial(factor)
    p2 = IntPolynomial([1])
    for c in twists:
        p2 = p2 * IntPolynomial([1, -q * c])
    return table, (IntPolynomial([1]), p1, p2)


def weight_one_table(rng, places=("a", "b")):
    """Weight-1 local factors 1 - a t^d + q^d t^(2d) with a^2 <= 4 q^d,
    duplicated across places, so every factor is pure of weight 1."""
    q = rng.choice([2, 3, 4, 5])
    points, polys = [], {}
    for pid in range(rng.randint(3, 7)):
        d = rng.randint(1, 3)
        bound = int(2 * (q ** d) ** 0.5)
        a = rng.randint(-bound, bound)
        while a * a > 4 * q ** d:
            a = rng.randint(-bound, bound)
        points.append((pid, d))
        coeffs = [0] * (2 * d + 1)
        coeffs[0], coeffs[d], coeffs[2 * d] = 1, -a, q ** d
        for place in places:
            polys[(place, pid)] = IntPolynomial(coeffs)
    return CharPolyTable(q, list(places), points, polys)


def conjugated_frobenius(rng, rank):
    """A rational Frobenius with integer eigenvalues lam_i, and its
    expected local polynomial prod(1 - lam_i t) as ascending Fractions."""
    lams = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 4, 5]))
            for _ in range(rank)]
    f = _conjugated_diagonal(rng, lams)
    expected = [Fraction(1)]
    for lam in lams:
        nxt = expected + [Fraction(0)]
        for k in range(len(expected)):
            nxt[k + 1] -= lam * expected[k]
        expected = nxt
    return f, expected


def pole_polynomial(rng, q, d, k):
    """(1 - q^d t)^k times one extra linear factor that is not a pole at
    t = q^-d, so the pole order there is exactly k."""
    poly = IntPolynomial([1])
    for _ in range(k):
        poly = poly * IntPolynomial([1, -q ** d])
    extra = rng.randint(1, 6)
    if extra == q ** d:
        extra += 1
    return poly * IntPolynomial([1, -extra])
