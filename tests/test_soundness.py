"""Soundness of the series layer, of ``char_coeffs`` on p-adic matrices,
and of ``lattice_smith``, ``matfact_gamma``, ``matfact_robba`` and
``horizontal_basis``, at two precisions.

Each operation runs twice on the same exact-rational inputs: once at a
relative precision nrel, once at 2*nrel + 4 with every absolute floor of
the inputs raised by the same nrel + 4 digits.  The high inputs refine the
low ones (they admit fewer exact completions), so whatever the low run
claims must hold for the high run's values too:

* every cell of the low result agrees with the high result modulo the
  smaller of their two absolute floors (when the high floor is the larger,
  this is the low run's whole claim), and
* the low window lies inside the high window.  A product shrinks its
  window by its partner's stored support, which more digits can widen, so
  windows are compared only where the supports that shape them are the
  same in both runs: a single operation on operands whose stored supports
  agree.  (A coefficient dropped at the floor is O(p^floor), and every
  coefficient of a series, in its window or not, has valuation at least
  its min valuation; the product floor covers both, so the low run's
  wider window is no overclaim.)

Inputs are exact Laurent polynomials and their truncations: stored cells
cut to an absolute floor (inexact zeros among them), a base floor, and
``tail_free`` False; matrix entries are exact rationals and their
truncations.  The Smith form and the constant-Z factorization take the
seeded Gamma-invertible matrices of ``tests/conftest.py``, and the Robba
factorization its contraction-regime products, drawn at both precisions
from one seed.
"""

import random
from fractions import Fraction

from conftest import (
    assert_canonical,
    const_series_matrix,
    padic_series,
    rand_const_invertible,
    rand_eplus_module,
    rand_gamma_invertible,
    rand_robba_regime_x,
)
from sigma_nabla import series as series_mod
from sigma_nabla.errors import (
    NotAUnit,
    NotConverged,
    PrecisionExhausted,
    SingularInput,
    WindowOverflow,
)
from sigma_nabla.factor import matfact_gamma, matfact_robba
from sigma_nabla.horizontal import horizontal_basis
from sigma_nabla.lattice import lattice_smith
from sigma_nabla.linalg import smat_det, smat_inv, smat_mul
from sigma_nabla.padic import INF, PadicNumber, cell_dot, vp_int
from sigma_nabla.points import char_coeffs
from sigma_nabla.series import LaurentSeries, series_dot

P = 3


def lift_of(nrel):
    """Extra digits of the high run: it works at nrel + lift = 2*nrel + 4."""
    return nrel + 4


def rand_value(rng, vmin=-1, vmax=3):
    unit = rng.randrange(1, 81)
    while unit % P == 0:
        unit = rng.randrange(1, 81)
    den = rng.choice((1, 1, 2, 5, 7))
    return rng.choice((1, -1)) * Fraction(unit, den) * \
        Fraction(P) ** rng.randint(vmin, vmax)


def rand_spec(rng, unit=False, tail=False):
    """(terms, window, tail_free, base floor, cell floors): exact rational
    terms, and the floors a truncation of them is known to; with ``unit``,
    a Gamma-unit up to a power of p, with a valuation-zero term, and with
    ``tail`` also 3 to 8 terms of valuation 1 to 3 up to 8 exponents above
    it, so that its inverse decays over a long plus tail."""
    if unit:
        v0 = rng.randint(-1, 1)
        e0 = rng.randint(-2, 2)
        terms = {e0: rand_value(rng, 0, 0) * Fraction(P) ** v0}
        for _ in range(rng.randint(0, 3)):
            terms.setdefault(rng.randint(-3, 3),
                             rand_value(rng, 1, 3) * Fraction(P) ** v0)
        for _ in range(rng.randint(3, 8) if tail else 0):
            terms.setdefault(e0 + rng.randint(1, 8),
                             rand_value(rng, 1, 3) * Fraction(P) ** v0)
    else:
        terms = {rng.randint(-4, 4): rand_value(rng)
                 for _ in range(rng.randint(0, 4))}
    support = list(terms) or [0]
    tail_free = rng.random() < 0.4
    pad = (0, 2) if tail_free else (2, 12)
    window = (min(support) - rng.randint(*pad),
              max(support) + rng.randint(*pad))
    base_floor = None if rng.random() < 0.4 else rng.randint(-1, 6)
    floors = {}
    for _ in range(rng.choice((0, 0, 1, 2))):
        floors[rng.randint(*window)] = rng.randint(-1, 5)
    return terms, window, tail_free, base_floor, floors


def build(spec, nrel, lift=0):
    """The series of ``spec`` at ``nrel``, every floor raised by ``lift``."""
    terms, window, tail_free, base_floor, floors = spec
    if not floors and base_floor is None and tail_free:
        return LaurentSeries.from_terms(P, nrel, terms, window)
    cells = {}
    for e in set(terms) | set(floors):
        c = PadicNumber.from_rational(P, nrel, terms.get(e, 0))
        f = floors[e] + lift if e in floors else INF
        if c.is_exact_zero or c.val >= f:
            cells[e] = (int(f), None, None)      # O(p^f)
        else:
            cells[e] = (c.val, c.unit, min(c.prec, f - c.val))
    return LaurentSeries.from_cells(
        P, nrel, cells, window, tail_free,
        None if base_floor is None else base_floor + lift)


def pair(spec, nrel):
    return build(spec, nrel), build(spec, nrel + lift_of(nrel),
                                    lift_of(nrel))


def representative(c):
    return Fraction(0) if c.unit is None else c.to_rational()


class Tally:
    """Cells compared, and those where the high run checks the whole low
    claim (its floor is at least the low floor); and the runs skipped
    because the low run or the high run raised."""

    def __init__(self):
        self.cells = self.full = self.results = 0
        self.low_skips = self.high_skips = 0


def check(low, high, tally, what, windows=True):
    """Compare the low result with the high one on their common window,
    and with ``windows`` the windows themselves."""
    if windows:
        assert high.window[0] <= low.window[0] <= low.window[1] \
            <= high.window[1], (what, low.window, high.window)
    assert low.nrel <= high.nrel, what
    tally.results += 1
    lo = max(low.window[0], high.window[0])
    hi = min(low.window[1], high.window[1])
    for e in range(lo, hi + 1):
        check_cell(low.coefficient(e), high.coefficient(e), tally,
                   (what, e, low, high))


def check_cell(a, b, tally, what, floor=None):
    """The low number ``a`` agrees with the high one ``b`` modulo the
    smaller of their absolute floors, ``a``'s being ``floor`` when given
    (a claim made for ``a`` elsewhere)."""
    fa, fb = a.abs_floor if floor is None else floor, b.abs_floor
    diff = representative(a) - representative(b)
    tally.cells += 1
    tally.full += fb >= fa
    if diff:
        f = min(fa, fb)
        assert f is not INF and vp_int(diff.numerator, P) - \
            vp_int(diff.denominator, P) >= f, (what, a, b)


def assert_strong(tally, least=0.9):
    """The high run checks most claims in full, so the harness is not
    vacuous; and it ran on enough results."""
    assert tally.results >= 50, tally.results
    assert tally.full >= least * tally.cells, (tally.full, tally.cells)


def assert_skips(tally, low, high):
    """The runs skipped at each precision, at most today's counts: a fix
    may lower them, and nothing may raise them."""
    assert tally.low_skips <= low, tally.low_skips
    assert tally.high_skips <= high, tally.high_skips


def hulls(operands):
    return [s.support_hull for s in operands]


def runs(rng, op, n_specs, trials=400, unit=False, windows=True,
         nrels=(3, 4, 6), tail=False):
    """Run ``op`` on fresh specs at both precisions; an error the low run
    raises (precision too low for a unit, a window cap) is no claim.  The
    tally counts the runs skipped at each precision.  Each trial takes its
    draws, the state ``op`` reads included, before either run, so no
    trial's inputs depend on an earlier trial's outcome."""
    tally = Tally()
    for t in range(trials):
        nrel = rng.choice(nrels)
        specs = [rand_spec(rng, unit, tail) for _ in range(n_specs)]
        lows, highs = zip(*(pair(s, nrel) for s in specs))
        same = hulls(lows) == hulls(highs)
        state = rng.getstate()
        rng.random()
        try:
            low = op(state, nrel, *lows)
        except (NotAUnit, WindowOverflow):
            tally.low_skips += 1
            continue
        try:
            high = op(state, nrel + lift_of(nrel), *highs)
        except WindowOverflow:
            # more stored digits widen a support, and with it shrink a
            # product's provable window: here to nothing
            tally.high_skips += 1
            continue
        check(low, high, tally, (op.__name__, t, specs), windows and same)
    return tally


def test_sum_and_difference():
    rng = random.Random(101)
    for op, skips in ((lambda _s, _n, a, b: a + b, (3, 0)),
                      (lambda _s, _n, a, b: a - b, (3, 0))):
        tally = runs(rng, op, 2)
        assert_strong(tally)
        assert_skips(tally, *skips)


def test_product():
    tally = runs(random.Random(102), lambda _s, _n, a, b: a * b, 2)
    assert_strong(tally)
    assert_skips(tally, 6, 0)


def test_series_dot_with_output_window():
    def dot(state, _nrel, *ops):
        r = random.Random()
        r.setstate(state)
        pairs = list(zip(ops[::2], ops[1::2]))
        lo = r.randint(-8, 2)
        out_window = None if r.random() < 0.3 else (lo, lo + r.randint(0, 12))
        return series_dot(pairs, out_window)

    rng = random.Random(103)
    for k, skips in ((1, (25, 2)), (2, (60, 7)), (3, (94, 8))):
        tally = runs(rng, dot, 2 * k, trials=300)
        assert_strong(tally)
        assert_skips(tally, *skips)


def test_invert():
    def invert(state, _nrel, a):
        r = random.Random()
        r.setstate(state)
        lo = r.randint(-12, 0)
        return a.invert((lo, lo + r.randint(0, 16)))

    tally = runs(random.Random(104), invert, 1, unit=True)
    assert_strong(tally, 0.75)
    assert_skips(tally, 78, 0)


def test_invert_at_the_working_floor(monkeypatch):
    # Gamma-units with long plus tails at nrel 12, on targets as wide as
    # lattice_smith's working window: the recursion for the inverse of
    # 1 + g_plus drops the cells it reaches at valuation >= nrel
    cut, dropped = [], {12: 0, 28: 0}

    def watched(p, nrel, pairs):
        c = cell_dot(p, nrel, pairs)
        cut.append(c[0] is not None and c[0] >= nrel)
        return c

    def invert(state, nrel, a):
        r = random.Random()
        r.setstate(state)
        lo = r.randint(-80, -20)
        del cut[:]
        b = a.invert((lo, lo + r.randint(80, 160)))
        dropped[nrel] += any(cut)
        return b

    monkeypatch.setattr(series_mod, "cell_dot", watched)
    tally = runs(random.Random(112), invert, 1, trials=120, unit=True,
                 nrels=(12,), tail=True)
    assert_strong(tally, 0.75)
    assert_skips(tally, 19, 0)
    # the low run drops cells of the recursion in most draws
    assert dropped[12] >= 75, dropped


def test_invert_keeps_the_neumann_terms_past_the_working_window():
    # at nrel 28 the 23rd Neumann term reaches the working window's low
    # end; cut there, it must stay a polynomial surrogate, or the next
    # product's provable window collapses, the terms of valuation 23 to 28
    # are lost and the multiply-back check raises NotAUnit
    spec = ({1: Fraction(5, 3), -1: Fraction(-79, 5), -3: 3, 2: 93, 4: 84,
             5: Fraction(477, 2), 10: Fraction(387, 7), 11: Fraction(43, 5),
             12: -70}, (-10, 24), False, None, {})
    low, high = (a.invert((-17, 95)) for a in pair(spec, 12))
    tally = Tally()
    check(low, high, tally, "invert")
    assert tally.full == tally.cells == 113


def test_invert_of_a_truncation_is_monotone_in_precision():
    # more digits widen the inverse's stored support; the multiply-back
    # check must not shrink its window with it, or the high run raises
    # WindowOverflow
    spec = ({0: -891, -1: -240, -3: Fraction(1917, 7), 1: -144}, (-9, 3),
            False, 4, {-9: 3})
    for nrel in (3, 4, 6, 12):
        tally = Tally()
        low, high = (a.invert((-6, 2)) for a in pair(spec, nrel))
        check(low, high, tally, ("invert", nrel))
        assert tally.cells == 9


def test_invert_of_a_truncation_claims_no_more_than_its_floor():
    # 1 + 3u^-1 known modulo 3^5: its inverse sum (-3)^k u^-k is known
    # only modulo 3^5, though the input's terms have 12 relative digits
    one = PadicNumber.from_int(P, 12, 1)
    three = PadicNumber.from_int(P, 12, 3)
    a = padic_series(P, 12, {0: one, -1: three}, (-20, 20), False, 5)
    b = a.invert()
    assert b.base_floor <= 5
    assert b.abs_floor() <= 5
    for k in range(20):
        assert b.coefficient(-k).agrees(
            PadicNumber.from_int(P, 12, (-3) ** k))


def test_frobenius_derivative_and_scale():
    def scale(state, nrel, a):
        r = random.Random()
        r.setstate(state)
        return a.scale(PadicNumber.from_rational(P, nrel, rand_value(r)))

    rng = random.Random(105)
    for op in (lambda _s, _n, a: a.frobenius(1),
               lambda _s, _n, a: a.frobenius(2),
               lambda _s, _n, a: a.derivative(), scale):
        tally = runs(rng, op, 1)
        assert_strong(tally)
        assert_skips(tally, 0, 0)


def matrix(ops, n):
    return [list(ops[i * n:(i + 1) * n]) for i in range(n)]


def test_determinant():
    # minors are products of products: windows are not compared; at n = 3,
    # trials 13, 52, 152, 157, 199 and 202 skip because an operand is a
    # truncated exact zero, whose products make no claim past their windows
    rng = random.Random(106)
    for n, trials, skips in ((2, 400, (34, 3)), (3, 250, (169, 28))):
        tally = runs(rng, lambda _s, _n, *ops: smat_det(matrix(ops, n)),
                     n * n, trials=trials, windows=False)
        assert_strong(tally)
        assert_skips(tally, *skips)


def spec_valuation(spec):
    """The smallest valuation of the spec's exact terms."""
    return min(vp_int(c.numerator, P) - vp_int(c.denominator, P)
               for c in spec[0].values())


def shifted(spec, floors_by, terms_by, reach):
    """The spec with its terms multiplied by p^terms_by, its base floor and
    cell floors raised by ``floors_by``, and its window widened by
    ``reach`` on each side."""
    terms, (lo, hi), tail_free, base_floor, floors = spec
    return ({e: c * Fraction(P) ** terms_by for e, c in terms.items()},
            (lo - reach, hi + reach), tail_free,
            None if base_floor is None else base_floor + floors_by,
            {e: f + floors_by for e, f in floors.items()})


def unit_det_specs(rng):
    """The entries a, b, c, d of a 2x2 matrix whose determinant is p^(va +
    vd) times a Gamma-unit at working precision.  a and d are Gamma-units
    up to p^va and p^vd, their truncations' floors (drawn from -1 up)
    raised by v + 2, so that their unit cells are known; b and c are p^s
    times any truncated spec, floors included, with s such that b * c and
    its floors lie above p^(va + vd).  Each window reaches twice the span
    of every stored exponent past its own, at either precision, so that
    each product's window holds det's unit cell."""
    specs = [rand_spec(rng, unit=i in (0, 3)) for i in range(4)]
    va, vd = spec_valuation(specs[0]), spec_valuation(specs[3])
    # each of b and c then has valuation and floors >= s - 1
    s = -(-(va + vd + 3) // 2)
    stored = set().union(*(set(x[0]) | set(x[4]) for x in specs))
    reach = 2 * (max(stored) - min(stored))
    return [shifted(x, by, k, reach) for x, by, k in
            zip(specs, (va + 2, s, s, vd + 2), (0, s, s, 0))]


def test_inverse():
    def inverse(state, _nrel, *ops):
        return smat_inv(matrix(ops, 2), (-6, 6))

    tally = Tally()
    rng = random.Random(107)
    for t in range(200):
        nrel = rng.choice((3, 4))
        specs = unit_det_specs(rng)
        lows, highs = zip(*(pair(s, nrel) for s in specs))
        try:
            low = inverse(None, nrel, *lows)
        except (NotAUnit, WindowOverflow):
            tally.low_skips += 1
            continue
        try:
            high = inverse(None, nrel + lift_of(nrel), *highs)
        except (NotAUnit, WindowOverflow):
            tally.high_skips += 1
            continue
        for i in range(2):
            for j in range(2):
                check(low[i][j], high[i][j], tally, ("inverse", t, specs),
                      False)
    assert_strong(tally, 0.75)
    # the low skips are WindowOverflow: an entry's stored support, inexact
    # zeros included, leaves cof * det^-1 no provable window in (-6, 6)
    assert_skips(tally, 23, 0)


def test_char_coeffs():
    # Berkowitz on p-adic entries: exact rationals (some exact zeros), one
    # in four cut to an absolute floor, which the high run raises by the
    # lift like every other floor
    def entry(x, floor, nrel, lift=0):
        c = PadicNumber.from_rational(P, nrel, x)
        if floor is None:
            return c
        return c + PadicNumber.inexact_zero(P, nrel, floor + lift)

    tally = Tally()
    rng = random.Random(108)
    for t in range(150):
        nrel = rng.choice((3, 4, 6))
        n = rng.randint(1, 5)
        spec = [(0 if rng.random() < 0.15 else rand_value(rng),
                 rng.randint(-1, 5) if rng.random() < 0.25 else None)
                for _ in range(n * n)]
        low = char_coeffs(matrix([entry(x, f, nrel) for x, f in spec], n))
        high = char_coeffs(matrix(
            [entry(x, f, nrel + lift_of(nrel), lift_of(nrel))
             for x, f in spec], n))
        tally.results += 1
        for k, (a, b) in enumerate(zip(low, high)):
            check_cell(a, b, tally, ("char_coeffs", t, spec, k))
    assert_strong(tally)


def seeded_pair(build_at, rng):
    """``build_at(random.Random(seed), nrel)`` at a drawn nrel and at
    2*nrel + 4, from one drawn seed: the same exact rationals at both
    precisions."""
    nrel = rng.choice((3, 4, 6))
    seed = rng.randrange(1 << 30)
    return [build_at(random.Random(seed), k)
            for k in (nrel, nrel + lift_of(nrel))]


def check_matrices(low, high, tally, what, windows=True):
    for name, a, b in zip(("left", "right"), low, high):
        for i, (row_a, row_b) in enumerate(zip(a, b)):
            for j, (x, y) in enumerate(zip(row_a, row_b)):
                check(x, y, tally, (what, name, i, j), windows)


def test_lattice_smith():
    # Gamma-invertible inputs at ranks 2 and 3: the same exponents at both
    # precisions, and U, W and their inverses agree on the inputs' window.
    # Cut to (-4, 4), the inputs leave the working margin to decide what
    # reaches that window (a copy with margin 0 fails here)
    def gamma_invertible(r, nrel, n, window):
        a, _ = rand_gamma_invertible(r, P, nrel, n)
        return [[s.on_window(window or s.window) for s in row] for row in a]

    tally = Tally()
    for seed, trials, window in ((109, 12, None), (111, 16, (-4, 4))):
        rng = random.Random(seed)
        for t in range(trials):
            n = 2 + t % 2
            low_a, high_a = seeded_pair(
                lambda r, k: gamma_invertible(r, k, n, window), rng)
            smith_pair(low_a, high_a, tally, ("smith", seed, t))
    assert_strong(tally)
    assert_skips(tally, 0, 0)


def smith_pair(low_a, high_a, tally, what):
    try:
        low = lattice_smith(low_a)
    except (NotAUnit, PrecisionExhausted):
        tally.low_skips += 1
        return
    high = lattice_smith(high_a)
    assert low.exponents == high.exponents, what
    check_matrices((low.u, low.w), (high.u, high.w), tally, what)
    check_matrices((low.u_inv, low.w_inv), (high.u_inv, high.w_inv), tally,
                   what)


def test_matfact_gamma():
    # X = Y0 * Z0 with Y0 Gamma-invertible and Z0 constant over O[1/p]
    # (diagonal p-powers from p^-1), ranks 1 to 4: Y and Z agree
    def product(r, nrel, n):
        y0, _ = rand_gamma_invertible(r, P, nrel, n)
        z0, _ = rand_const_invertible(r, P, nrel, n, pmin=-1)
        return smat_mul(y0, const_series_matrix(z0, P, nrel))

    tally = Tally()
    rng = random.Random(110)
    for t in range(24):
        n = 1 + t % 4
        low_x, high_x = seeded_pair(lambda r, k: product(r, k, n), rng)
        try:
            low = matfact_gamma(low_x)
        except (PrecisionExhausted, SingularInput):
            tally.low_skips += 1
            continue
        high = matfact_gamma(high_x)
        for s in sum(low.y + low.z + high.y + high.z, []):
            assert_canonical(s)
        # the product Y0 * Z0 caps each window at the width around its
        # stored support, which more digits can widen
        same = hulls(sum(low_x, [])) == hulls(sum(high_x, []))
        check_matrices((low.y, low.z), (high.y, high.z), tally, ("gamma", t),
                       same)
    assert_strong(tally)
    assert_skips(tally, 0, 0)


def test_matfact_robba():
    # X = Y0 * Z0 in the contraction regime, ranks 1 to 3: Y, Z and Y^-1
    # agree; the closing product check reads its verdict from the fold
    tally = Tally()
    rng = random.Random(112)
    for t in range(30):
        n = 1 + t % 3
        low_x, high_x = seeded_pair(
            lambda r, k: rand_robba_regime_x(r, P, k, n)[0], rng)
        try:
            low = matfact_robba(low_x)
        except NotConverged:
            tally.low_skips += 1
            continue
        high = matfact_robba(high_x)
        same = hulls(sum(low_x, [])) == hulls(sum(high_x, []))
        check_matrices((low.y, low.z), (high.y, high.z), tally,
                       ("robba", t), same)
        check_matrices((low.y_inv,), (high.y_inv,), tally, ("robba", t),
                       same)
    assert_strong(tally)
    assert_skips(tally, 0, 0)


def eplus_spec(rng):
    """An entry of a connection over E-plus, as a spec: exact rational
    terms of valuation 0 to 3 at exponents 0 to 12, tail-free or known on
    (0, top) only, and cut to a base floor and cell floors (inexact zeros
    among them) or not."""
    terms = {rng.randint(0, 12): rand_value(rng, 0, 3)
             for _ in range(rng.randint(0, 4))}
    tail_free = rng.random() < 0.5
    top = max(terms, default=0) if tail_free else rng.randint(2, 12)
    base_floor = None if rng.random() < 0.5 else rng.randint(1, 6)
    floors = {rng.randint(0, top): rng.randint(0, 5)
              for _ in range(rng.choice((0, 0, 1, 2)))}
    return terms, (0, top), tail_free, base_floor, floors


def known_further(spec):
    """The spec of a truncated entry known on (0, 12): the terms past its
    window, which a truncation drops, are the ones its completion has."""
    terms, window, tail_free, base_floor, floors = spec
    return terms, window if tail_free else (0, 12), tail_free, base_floor, \
        floors


def check_horizontal(low, high, tally, what):
    """Each cell of the low basis holds for the high one at its own floor,
    and each cell of its top degree at the floor reported for that degree.
    (The basis is cut at the top degree's floor, so a lower degree's
    reported floor is checked by a run that stops at that degree.)"""
    assert low.degree_achieved <= high.degree_achieved, what
    tally.results += 1
    top = low.degree_achieved
    for i, row in enumerate(low.h):
        for j, s in enumerate(row):
            for k in range(top + 1):
                a, b = s.coefficient(k), high.h[i][j].coefficient(k)
                check_cell(a, b, tally, (what, k, i, j))
            check_cell(a, b, tally, (what, top, i, j, "floor"),
                       low.floors[top])


def test_horizontal_basis():
    # N over E-plus of rank 1 to 3, from k_max = 1 up to 12: the seeded
    # modules of tests/conftest.py, exact, and matrices of truncated
    # entries, which the high run knows on (0, 12); a run stops at the
    # drawn k_max or where N's windows or its digits run out
    def connection(state, nrel, lift):
        r = random.Random()
        r.setstate(state)
        n = r.randint(1, 3)
        if r.random() < 0.3:
            return rand_eplus_module(r, P, nrel, n).nmat
        specs = [eplus_spec(r) for _ in range(n * n)]
        if lift:
            specs = [known_further(s) for s in specs]
        return matrix([build(s, nrel, lift) for s in specs], n)

    tally = Tally()
    rng = random.Random(113)
    for t in range(100):
        nrel = rng.choice((3, 4, 6))
        k_top = rng.randint(1, 12)
        state = rng.getstate()
        rng.random()
        low_n = connection(state, nrel, 0)
        high_n = connection(state, nrel + lift_of(nrel), lift_of(nrel))
        for k_max in range(1, k_top + 1):
            low = horizontal_basis(low_n, k_max)
            high = horizontal_basis(high_n, k_max)
            check_horizontal(low, high, tally, ("horizontal", t, k_max))
            if low.degree_achieved < k_max:
                break
    # no run raises, so none is skipped
    assert_strong(tally)
    assert_skips(tally, 0, 0)
