"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library code paths they check:
exact Fraction Laurent polynomials for series arithmetic, brute-force
polynomial enumeration for point counts, integer lattice enumeration for
intersections, and the Lefschetz expansion for synthetic L-data.
"""

import contextlib
import io
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import pytest

from sigma_nabla.kernel import MAX_WIDTH
from sigma_nabla.linalg import smat_identity, smat_mul
from sigma_nabla.padic import INF, PadicNumber
from sigma_nabla.series import (
    AgreementVerdict,
    LaurentSeries,
    RingLabel,
    residual_verdict,
    series_sum,
)


# ---------------------------------------------------------------------------
# Series constructors.
# ---------------------------------------------------------------------------


def series(p, nrel, terms, window=None):
    return LaurentSeries.from_terms(p, nrel, terms, window)


def padic_series(p, nrel, coeffs, window, tail_free, base_floor):
    """The series with PadicNumber coefficients ``coeffs`` on ``window``."""
    cells = {e: (c.val, c.unit, c.prec) for e, c in coeffs.items()}
    return LaurentSeries.from_cells(p, nrel, cells, window, tail_free,
                                    base_floor)


def integer_form(s):
    return (s.nrel, s.base, s.terms, s.floors, s.window, s.tail_free,
            s.base_floor)


def assert_canonical(s):
    """``s`` holds its integer form as ``series._settle`` writes it, which
    the constructor takes unchecked: base is at most every stored floor,
    and each stored residue lies in [0, p^(floor - base)) for its own
    floor, the stored one or min(base_floor, valuation + nrel)."""
    p, base, bf, floors = s.p, s.base, s.base_floor, s.floors
    assert all(e in s.terms for e in floors), floors
    for e, raw in s.terms.items():
        f = floors.get(e)
        if f is None:
            assert raw, (e, s.terms)
            r, t = raw, 0
            while not r % p:
                r, t = r // p, t + 1
            f = base + t + s.nrel
            if bf is not None and bf < f:
                f = bf
        assert base <= f, (e, base, f)
        assert 0 <= raw < p ** (f - base), (e, raw, base, f)


def rand_series(rng, p, nrel, emin=-4, emax=4, vmin=0, vmax=3, nterms=4,
                window=None, nonzero=False):
    terms = {}
    for _ in range(nterms):
        e = rng.randint(emin, emax)
        v = rng.randint(vmin, vmax)
        unit = rng.randrange(1, p ** 4)
        while unit % p == 0:
            unit = rng.randrange(1, p ** 4)
        terms[e] = Fraction(unit * p ** v) if v >= 0 else \
            Fraction(unit, p ** (-v))
    if nonzero and not terms:
        terms[0] = Fraction(1)
    return series(p, nrel, terms.items(), window)


def rand_unit_series(rng, p, nrel, emin=-3, emax=3, nterms=3, window=None):
    """A Gamma-unit: valuation-zero coefficient present, all vals >= 0."""
    s = rand_series(rng, p, nrel, emin, emax, 1, 3, nterms, window)
    e0 = rng.randint(emin, emax)
    unit = rng.randrange(1, p ** 3)
    while unit % p == 0:
        unit = rng.randrange(1, p ** 3)
    extra = series(p, nrel, [(e0, unit)], window)
    return s + extra


# ---------------------------------------------------------------------------
# Exact Laurent-polynomial oracle over Q.
# ---------------------------------------------------------------------------


def oracle_from_series(s):
    """Extract the exact rational Laurent polynomial of a tail-free series
    built from exact data."""
    return {e: c.to_rational() for e, c in s.coeffs.items()
            if c.unit is not None}


def oracle_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def oracle_matches(oracle, s, p, nrel):
    """Every oracle coefficient agrees with the series at precision on the
    series window; library coefficients outside the oracle must be zero at
    precision."""
    lo, hi = s.window
    for e, c in oracle.items():
        if lo <= e <= hi:
            got = s.coefficient(e)
            want = PadicNumber.from_rational(p, nrel, c)
            if not got.agrees(want):
                return False
    for e, c in s.coeffs.items():
        if c.unit is not None and e not in oracle:
            return False
    return True


# ---------------------------------------------------------------------------
# Reference verdicts, from built residual series.
# ---------------------------------------------------------------------------


def reference_verdict(residuals):
    """The verdicts on rows of residual series, scanned in row-major order,
    one ``residual_verdict`` per entry: the worst floor, or the first
    failure with its (row, column)."""
    floor, window = INF, None
    for i, row in enumerate(residuals):
        for j, d in enumerate(row):
            v = residual_verdict(d)
            if not v.holds:
                return replace(v, position=(i, j))
            if v.floor is not None and v.floor < floor:
                floor = v.floor
            window = v.window if window is None else window
    return AgreementVerdict(True, None if floor is INF else int(floor),
                            window or (0, 0))


def entry_terms(a, b, i, j, plus):
    return list(zip(a[i], (row[j] for row in b))) + (
        [] if plus is None else [plus[i][j]])


def reference_product_agree(a, b, x, out_window=None, plus=None):
    """Each residual series built by ``series_sum`` (every entry, before
    the scan), and the residuals themselves."""
    residuals = [[series_sum(entry_terms(a, b, i, j, plus), out_window,
                             minus=x[i][j]) for j in range(len(x[0]))]
                 for i in range(len(x))]
    return reference_verdict(residuals), residuals


def tail_free_zero(s):
    return s.is_exact_zero and s.tail_free


def reference_pairs(a, b):
    """The pairs of a * b that each entry's kernel fold keeps, a and b at
    one prime: the pairs without the tail-free exact zero, or the first
    pair when no other is left."""
    cols = list(zip(*b))
    return [[[(x, y) for x, y in zip(row, col)
              if not tail_free_zero(x) and not tail_free_zero(y)]
             or [(row[0], col[0])] for col in cols] for row in a]


def takes_constant_path(a, b):
    """Whether ``smat_product_agree(a, b, x)`` weights a by b's exact
    constants (``kernel.constant_term``): a and b are not empty, every
    entry of a is at a's prime p with a support hull of at most
    ``MAX_WIDTH`` exponents, and every entry of b is at p and is either
    the tail-free exact zero or an exact constant (tail-free, no floor,
    one cell, a unit at exponent 0) of at least a's largest nrel, each
    column of b holding a constant."""
    if not a or not b:
        return False
    p = a[0][0].p
    entries = [s for row in a for s in row]
    if any(s.p != p or s.support_hull
           and s.support_hull[1] - s.support_hull[0] >= MAX_WIDTH
           for s in entries):
        return False
    nrel = max(s.nrel for s in entries)

    def constant(c):
        return (c.tail_free and c.base_floor is None and not c.floors
                and list(c.terms) == [0] and c.terms[0] % p != 0
                and c.nrel >= nrel)

    return all(all(c.p == p and (tail_free_zero(c) or constant(c))
                   for c in col)
               and not all(tail_free_zero(c) for c in col)
               for col in zip(*b))


# ---------------------------------------------------------------------------
# Random invertible matrices with exact inverses.
# ---------------------------------------------------------------------------


def _strict_inverse(tri, p, nrel):
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


def rand_gamma_invertible(rng, p, nrel, n, entry_fn=None, monomials=True):
    """Random invertible matrix over Gamma together with its exact inverse.

    Built as P * L * D * U with L, U unit-triangular and D diagonal
    monomials c * u^a (Gamma-units), so the inverse is computed exactly.
    """
    if entry_fn is None:
        def entry_fn():
            return rand_series(rng, p, nrel, -2, 2, 1, 3, 2)
    lower = smat_identity(n, p, nrel)
    upper = smat_identity(n, p, nrel)
    for i in range(n):
        for j in range(n):
            if i > j:
                lower[i][j] = entry_fn()
            elif i < j:
                upper[i][j] = entry_fn()
    diag = smat_identity(n, p, nrel)
    diag_inv = smat_identity(n, p, nrel)
    for i in range(n):
        a = rng.randint(-2, 2) if monomials else 0
        c = rng.randrange(1, p ** 3)
        while c % p == 0:
            c = rng.randrange(1, p ** 3)
        diag[i][i] = series(p, nrel, [(a, c)])
        diag_inv[i][i] = series(p, nrel, [(-a, Fraction(1, c))])
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[series(p, nrel, [(0, 1)] if perm[i] == j else [])
           for j in range(n)] for i in range(n)]
    pm_inv = [[series(p, nrel, [(0, 1)] if perm[j] == i else [])
               for j in range(n)] for i in range(n)]
    y = smat_mul(smat_mul(pm, lower), smat_mul(diag, upper))
    y_inv = smat_mul(smat_mul(_strict_inverse(upper, p, nrel), diag_inv),
                     smat_mul(_strict_inverse(lower, p, nrel), pm_inv))
    return y, y_inv


def rand_const_invertible(rng, p, nrel, n, pmin=-1, pmax=1):
    """Random constant matrix invertible over O[1/p], with exact inverse."""
    lower = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    upper = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j:
                lower[i][j] = Fraction(rng.randint(-4, 4))
            elif i < j:
                upper[i][j] = Fraction(rng.randint(-4, 4))
    diag = [Fraction(p) ** rng.randint(pmin, pmax) *
            rng.choice([1, -1, 2 if p != 2 else 1]) for _ in range(n)]

    def fr_mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n))
                 for j in range(n)] for i in range(n)]

    z0 = fr_mul(lower, [[diag[i] if i == j else Fraction(0)
                         for j in range(n)] for i in range(n)])
    z0 = fr_mul(z0, upper)

    def tri_inv(t):
        out = [[Fraction(i == j) for j in range(n)] for i in range(n)]
        s = [[t[i][j] - Fraction(i == j) for j in range(n)]
             for i in range(n)]
        term = [[Fraction(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n - 1):
            term = fr_mul(term, [[-x for x in row] for row in s])
            out = [[out[i][j] + term[i][j] for j in range(n)]
                   for i in range(n)]
        return out

    dinv = [[1 / diag[i] if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    z0_inv = fr_mul(fr_mul(tri_inv(upper), dinv), tri_inv(lower))
    return z0, z0_inv


def const_series_matrix(mat, p, nrel):
    return [[series(p, nrel, [(0, c)] if c else []) for c in row]
            for row in mat]


# ---------------------------------------------------------------------------
# Module generators for descent and gluing roundtrips.
# ---------------------------------------------------------------------------


def rand_eplus_module(rng, p, nrel, n, with_b=False):
    """(sigma, nabla)-module over E-plus satisfying the compatibility law,
    built from a constant diagonal by an exactly-invertible basis change."""
    from sigma_nabla.modules import SigmaNablaModule, basis_transform

    diag = smat_identity(n, p, nrel)
    for i in range(n):
        a = rng.randint(0, 1) if with_b else rng.randint(0, 2)
        c = rng.randrange(1, p ** 2)
        while c % p == 0:
            c = rng.randrange(1, p ** 2)
        diag[i][i] = series(p, nrel, [(0, c * p ** a)])
    zero = [[series(p, nrel, []) for _ in range(n)] for _ in range(n)]
    bmat = None
    if with_b:
        bmat = smat_identity(n, p, nrel)
        for i in range(n):
            c0 = diag[i][i].coefficient(0)
            bmat[i][i] = series(
                p, nrel,
                [(0, Fraction(p) / c0.to_rational())])
    from sigma_nabla.series import RingLabel
    mod = SigmaNablaModule(RingLabel("EPlus"), p, diag, zero, bmat)
    # unit-triangular change of basis with entries in u * Gamma_plus
    tri = smat_identity(n, p, nrel)
    for i in range(n):
        for j in range(n):
            if i < j:
                tri[i][j] = rand_series(rng, p, nrel, 1, 3, 0, 2, 2)
    tri_inv = _strict_inverse(tri, p, nrel)
    return basis_transform(mod, tri, tri_inv)


def rand_gammaplus_dieudonne(rng, p, nrel, n):
    """Dieudonne module over Gamma-plus: FV = p, compatible connection."""
    mod = rand_eplus_module(rng, p, nrel, n, with_b=True)
    from dataclasses import replace

    from sigma_nabla.series import RingLabel
    return replace(mod, ring=RingLabel("GammaPlus"))


def rand_robba_regime_x(rng, p, nrel, n):
    """X = Y0 * Z0 in the contraction regime, with exact inverses.

    Y0 = D * (I + strictly-triangular minus part of valuation >= 1),
    Z0 = I + strictly-triangular plus part.
    """
    minus = smat_identity(n, p, nrel)
    for i in range(n):
        for j in range(n):
            if i > j:
                e = rng.randint(-3, -1)
                v = rng.randint(1, 2)
                c = rng.randrange(1, p ** 2)
                while c % p == 0:
                    c = rng.randrange(1, p ** 2)
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
        c = rng.randrange(1, p ** 2)
        while c % p == 0:
            c = rng.randrange(1, p ** 2)
        dmon[i][i] = series(p, nrel, [(a, c)])
        dmon_inv[i][i] = series(p, nrel, [(-a, Fraction(1, c))])
    y0 = smat_mul(dmon, minus)
    y0_inv = smat_mul(_strict_inverse(minus, p, nrel), dmon_inv)
    z0 = plus
    z0_inv = _strict_inverse(plus, p, nrel)
    x = smat_mul(y0, z0)
    return x, y0, y0_inv, z0, z0_inv


# ---------------------------------------------------------------------------
# Finite-field point counting (brute force; the trusted oracle).
# ---------------------------------------------------------------------------


def _poly_mod_mul(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


import functools


@functools.lru_cache(maxsize=None)
def count_monic_irreducibles(q, d):
    """Enumerate all monic polynomials of degree d over F_q and count the
    irreducible ones by checking every proper monic factorization."""
    if d == 1:
        return q
    reducible = set()
    for e in range(1, d // 2 + 1):
        for tail_a in itertools.product(range(q), repeat=e):
            a = list(tail_a) + [1]
            for tail_b in itertools.product(range(q), repeat=d - e):
                b = list(tail_b) + [1]
                prod = tuple(_poly_mod_mul(a, b, q))
                reducible.add(prod)
    return q ** d - len(reducible)


def mobius(n):
    out, m, pp = 1, n, 2
    while pp * pp <= m:
        if m % pp == 0:
            m //= pp
            if m % pp == 0:
                return 0
            out = -out
        pp += 1
    if m > 1:
        out = -out
    return out


def affine_line_table(q, truncation, count_fn):
    """The rank-1 trivial system on the affine line: one local factor
    (1 - t^d) per closed point, with per-degree point counts supplied by
    ``count_fn`` (the oracle)."""
    from sigma_nabla.lfunctions import CharPolyTable
    from sigma_nabla.padic import IntPolynomial

    points, polys, pid = [], {}, 0
    for d in range(1, truncation + 1):
        for _ in range(count_fn(q, d)):
            points.append((pid, d))
            coeffs = [0] * (d + 1)
            coeffs[0], coeffs[d] = 1, -1
            polys[("p", pid)] = IntPolynomial(coeffs)
            pid += 1
    return CharPolyTable(q, ["p"], points, polys)


def lefschetz_instance(rng, truncation, q=None):
    """Synthetic compatible-system data from chosen Frobenius eigenvalues.

    A rank-r geometrically constant twist on the affine line minus a few
    rational points: the generator derives point counts from the
    eigenvalue data by the Lefschetz expansion and Moebius inversion, and
    returns (table, (P0, P1, P2)).
    """
    from sigma_nabla.lfunctions import CharPolyTable
    from sigma_nabla.padic import IntPolynomial

    if q is None:
        q = rng.choice([2, 3]) if truncation <= 10 else 2
    rank = rng.randint(1, 4)
    twists = [rng.choice([1, -1, 2, -2, 3]) for _ in range(rank)]
    removed = []
    for d in (1, 1, 2):
        if rng.random() < 0.5:
            removed.append(d)
    while removed.count(1) > q:
        removed.remove(1)

    # counts over the open curve: N_m = q^m - sum over removed of e [e | m]
    def n_m(m):
        return q ** m - sum(e for e in removed if m % e == 0)

    counts = {}
    for d in range(1, truncation + 1):
        total = sum(mobius(d // e) * n_m(e)
                    for e in range(1, d + 1) if d % e == 0)
        assert total % d == 0
        counts[d] = total // d
        assert counts[d] >= 0

    points, polys, pid = [], {}, 0
    for d, cnt in counts.items():
        for _ in range(cnt):
            points.append((pid, d))
            local = IntPolynomial([1])
            for c in twists:
                factor = [0] * (d + 1)
                factor[0], factor[d] = 1, -(c ** d)
                local = local * IntPolynomial(factor)
            polys[("p", pid)] = local
            pid += 1
    table = CharPolyTable(q, ["p"], points, polys)

    p0 = IntPolynomial([1])
    p1 = IntPolynomial([1])
    for c in twists:
        for e in removed:
            factor = [0] * (e + 1)
            factor[0], factor[e] = 1, -(c ** e)
            p1 = p1 * IntPolynomial(factor)
    p2 = IntPolynomial([1])
    for c in twists:
        p2 = p2 * IntPolynomial([1, -q * c])
    return table, (p0, p1, p2)


def elliptic_style_table(rng, places=("a", "b")):
    """Weight-1 local factors 1 - a_x t^d + q^d t^(2d) with |a_x| below the
    purity bound, duplicated across places."""
    from sigma_nabla.lfunctions import CharPolyTable
    from sigma_nabla.padic import IntPolynomial

    q = rng.choice([2, 3, 4, 5])
    points, polys = [], {}
    for pid in range(rng.randint(3, 7)):
        d = rng.randint(1, 3)
        bound = int(2 * (q ** d) ** 0.5)
        a = rng.randint(-bound, bound)
        # keep the discriminant nonpositive so both roots share a magnitude
        while a * a > 4 * q ** d:
            a = rng.randint(-bound, bound)
        points.append((pid, d))
        coeffs = [0] * (2 * d + 1)
        coeffs[0], coeffs[d], coeffs[2 * d] = 1, -a, q ** d
        local = IntPolynomial(coeffs)
        for place in places:
            polys[(place, pid)] = local
    return CharPolyTable(q, list(places), points, polys)


# ---------------------------------------------------------------------------
# In-process command-line runner.
# ---------------------------------------------------------------------------


class _Tee(io.StringIO):
    """A captured stream that also writes to the shared ``both``."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str         # stdout and stderr, interleaved as written
    exception: Optional[BaseException]  # SystemExit on a nonzero exit

    @property
    def stdout_bytes(self):
        return self.stdout.encode("utf-8")


class CliRunner:
    """Runs a console entry point ``main(argv)`` in process, as the shell
    would: it exits by ``SystemExit``, and any other exception is kept."""

    def invoke(self, main, args):
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        exception = None
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                main(args)
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
                if code:
                    exception = exc
            except Exception as exc:
                code, exception = 1, exc
        return CliResult(code, out.getvalue(), err.getvalue(),
                         both.getvalue(), exception)


# ---------------------------------------------------------------------------
# Pytest fixtures.
# ---------------------------------------------------------------------------


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture(autouse=True)
def canonical_series(monkeypatch):
    """Every series a test builds is checked as it is constructed: the
    constructor takes its integer form unchecked, so ``assert_canonical``
    runs inside each ``LaurentSeries.__init__``."""
    init = LaurentSeries.__init__

    def checked(self, *args):
        init(self, *args)
        assert_canonical(self)

    monkeypatch.setattr(LaurentSeries, "__init__", checked)
