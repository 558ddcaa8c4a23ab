import copy
import math
import random
from fractions import Fraction
from functools import partial

import pytest

from conftest import (
    integer_form,
    oracle_add,
    oracle_from_series,
    oracle_matches,
    oracle_mul,
    padic_series,
    rand_gamma_invertible,
    rand_series,
    rand_unit_series,
    series,
)
from sigma_nabla import kernel
from sigma_nabla import series as series_mod
from sigma_nabla.errors import NotAUnit, WindowOverflow
from sigma_nabla.lattice import lattice_smith
from sigma_nabla.linalg import smat_mul, smat_product_agree
from sigma_nabla.padic import INF, PadicNumber, cell_dot, vp_int
from sigma_nabla.series import (
    RING_KINDS,
    LaurentSeries,
    RingLabel,
    log_p,
    membership,
    residual_verdict,
    series_dot,
    series_sum,
)

P, N = 3, 12


def S(terms, **kw):
    return series(P, N, terms, **kw)


def agrees(a, b):
    return residual_verdict(a - b).holds


# ---------------------------------------------------------------------------
# Arithmetic.
# ---------------------------------------------------------------------------


def test_polynomial_identity():
    prod = S([(1, 1), (0, P)]) * S([(1, 1), (0, -P)])
    assert agrees(prod, S([(2, 1), (0, -P * P)]))


def test_unit_pair():
    assert agrees(S([(-1, 1)]) * S([(1, 1)]), S([(0, 1)]))


def test_distributivity_against_rational_oracle(rng):
    for _ in range(30):
        a = rand_series(rng, P, N)
        b = rand_series(rng, P, N)
        c = rand_series(rng, P, N)
        lhs = (a + b) * c
        rhs = a * c + b * c
        assert agrees(lhs, rhs)
        oracle = oracle_mul(oracle_add(oracle_from_series(a),
                                       oracle_from_series(b)),
                            oracle_from_series(c))
        assert oracle_matches(oracle, lhs, P, N)


def test_sum_window_is_intersection():
    a = S([(0, 1)], window=(-4, 10))
    b = S([(1, 1)], window=(-10, 4))
    assert (a + b).window == (-4, 4)


def test_sum_with_a_truncated_exact_zero_is_truncated():
    # an exact zero that makes no claim outside (0, 0): the sum is known
    # only there, whatever the other operand's window
    zero = padic_series(P, N, {}, (0, 0), False, None)
    x = S([(0, 1), (5, 1)], window=(0, 5))
    for s in (x + zero, zero + x, x - zero, zero - x):
        assert (s.window, s.tail_free, s.base_floor, sorted(s.terms)) == (
            (0, 0), False, None, [0])
    x5 = S([(5, 1)], window=(0, 5))
    for verdict in (residual_verdict(x5 - zero), residual_verdict(zero - x5)):
        assert verdict.holds and verdict.window == (0, 0)


def test_product_with_a_truncated_exact_zero_is_truncated():
    # zero on (-5, 5) and unknown outside: so is its product with 1, and a
    # sum with u^10 claims nothing at 10, as a sum with the zero itself
    zero = padic_series(P, N, {}, (-5, 5), False, None)
    one, u10 = S([(0, 1)]), S([(10, 1)])
    for prod in (zero * one, one * zero, zero.mul(one, (-3, 8)),
                 series_dot(((zero, one), (one, zero)))):
        assert not prod.tail_free and prod.is_exact_zero
    assert (zero * one).window == (-5, 5)
    for s in (zero * one + u10, zero + u10,
              series_sum(((zero, one), u10))):
        assert (s.window, s.tail_free, s.terms) == ((-5, 5), False, {})
    # a product with a tail-free zero is zero everywhere
    assert (S([]) * zero).tail_free


def rand_truncated(rng, nrel):
    """A truncation of random exact terms: a window around the support,
    tail_free False, a uniform floor; plus the exact terms it was cut from."""
    while True:
        s = rand_series(rng, P, nrel, -4, 4, -1, 3, rng.randint(1, 5))
        lo = min(s.coeffs) - rng.randint(10, 20)
        hi = max(s.coeffs) + rng.randint(10, 20)
        t = padic_series(P, nrel, s.coeffs, (lo, hi), False,
                         rng.randint(1, 6))
        if t.coeffs:
            return t, oracle_from_series(s)


def completion(rng, s, terms):
    """Exact terms consistent with a truncated operand: anything inside its
    window may move by a multiple of p^floor."""
    out = dict(terms)
    for _ in range(3):
        e = rng.randint(*s.window)
        out[e] = out.get(e, Fraction(0)) + rng.randint(-9, 9) * \
            Fraction(P) ** s.base_floor
    return {e: c for e, c in out.items() if c}


def product_floor(a, b):
    """min(floor(a) + minval(b), floor(b) + minval(a)), each read off the
    stored terms and the base floor of nonzero operands."""
    def summary(s):
        vals = [c.val for c in s.coeffs.values()]
        floors = [c.val + (c.prec or 0) for c in s.coeffs.values()]
        if s.base_floor is not None:
            vals.append(s.base_floor)
            floors.append(s.base_floor)
        return min(vals), min(floors)
    (mva, fla), (mvb, flb) = summary(a), summary(b)
    return min(fla + mvb, flb + mva)


def scanned_valuation(s):
    """Smallest val over the provably nonzero stored terms, by a scan."""
    vals = [c.val for c in s.coeffs.values() if c.unit is not None]
    return min(vals) if vals else None


def test_truncated_operands_against_rational_oracle(rng):
    # nrel exceeds every floor, so each claim is bounded by a floor and
    # every completion of the operands must agree with the result
    nrel = 30
    for trial in range(60):
        a, ta = rand_truncated(rng, nrel)
        if trial % 2:
            b, tb = rand_truncated(rng, nrel)
        else:
            b = rand_series(rng, P, nrel, -3, 3, 0, 2, 3)
            tb = oracle_from_series(b)
        total = a + b
        assert total.window == (max(a.window[0], b.window[0]),
                                min(a.window[1], b.window[1]))
        assert not total.tail_free
        assert total.base_floor == min(f for f in (a.base_floor, b.base_floor)
                                       if f is not None)
        prod = a * b
        hb = (min(b.coeffs), max(b.coeffs))
        ha = (min(a.coeffs), max(a.coeffs))
        lo, hi = a.window[0] + hb[1], a.window[1] + hb[0]
        if not b.tail_free:
            lo = max(lo, b.window[0] + ha[1])
            hi = min(hi, b.window[1] + ha[0])
        assert prod.window == (lo, hi)
        assert not prod.tail_free
        assert prod.base_floor == product_floor(a, b)
        cut = (lo + rng.randint(0, 4), hi - rng.randint(0, 4))
        clipped = a.mul(b, out_window=cut)
        assert clipped.window == cut
        assert not clipped.tail_free
        assert clipped.base_floor == prod.base_floor
        # without a base floor an inexact zero is stored; it is no witness
        noise = PadicNumber.inexact_zero(P, nrel, rng.randint(-3, 1))
        noisy = padic_series(
            P, nrel, {**b.coeffs, rng.randint(*hb): noise}, b.window,
            b.tail_free, None)
        floor_only = padic_series(P, nrel, {}, a.window, False,
                                  a.base_floor)
        for s in (a, b, total, prod, clipped, noisy, noisy + a, noisy * a,
                  floor_only, floor_only * b):
            assert s.valuation() == scanned_valuation(s)
            assert s.is_zero_at_precision == (s.valuation() is None)
        for _ in range(3):
            ca = completion(rng, a, ta)
            cb = tb if b.tail_free else completion(rng, b, tb)
            assert oracle_matches(oracle_add(ca, cb), total, P, nrel)
            assert oracle_matches(oracle_mul(ca, cb), prod, P, nrel)
            assert oracle_matches(oracle_mul(ca, cb), clipped, P, nrel)


def test_polynomial_product_with_output_window_against_oracle(rng):
    for _ in range(40):
        a = rand_series(rng, P, N, -6, 6, -1, 3, 5)
        b = rand_series(rng, P, N, -6, 6, -1, 3, 5)
        want = oracle_mul(oracle_from_series(a), oracle_from_series(b))
        full = a * b
        assert full.tail_free
        assert full.base_floor == product_floor(a, b)
        assert oracle_matches(want, full, P, N)
        support = (min(a.coeffs) + min(b.coeffs),
                   max(a.coeffs) + max(b.coeffs))
        cut = (rng.randint(-12, 0), rng.randint(0, 12))
        clipped = a.mul(b, out_window=cut)
        assert clipped.window == cut
        assert clipped.base_floor == full.base_floor
        assert clipped.tail_free == (cut[0] <= support[0]
                                     and support[1] <= cut[1])
        assert oracle_matches({e: c for e, c in want.items()
                               if cut[0] <= e <= cut[1]}, clipped, P, N)


def test_product_window_overflow():
    # u^0 and u^400 populate the square: no 256-exponent window holds both
    a = S([(0, 1), (200, 1)], window=(0, 200))
    with pytest.raises(WindowOverflow):
        a.mul(a)


def test_product_on_an_output_window_is_exact_past_the_cap():
    # (1 + u^150)^2 asked for on (0, 300): the whole square, uncapped, and
    # tail-free because its support lies in the window; like every product
    # of nrel-digit operands it is known modulo p^nrel
    a = S([(0, 1), (150, 1)])
    got = a.mul(a, (0, 300))
    assert (got.window, got.tail_free, got.base_floor, got.base, got.terms,
            got.floors) == ((0, 300), True, N, 0, {0: 1, 150: 2, 300: 1}, {})


def test_inexact_zero_below_the_floor_is_kept():
    # 3 + O(3^3) and its negative cancel to O(3^3), a weaker claim than the
    # base floor 10: the sum is known only modulo 3^3 there
    x = PadicNumber._make(P, N, 1, 1, 2)
    one = padic_series(P, N, {1: x}, (-5, 5), False, 10)
    total = one + padic_series(P, N, {1: -x}, (-5, 5), False, 10)
    assert total.coefficient(1).abs_floor == 3
    assert total.abs_floor() == 3
    assert total.valuation() is None
    assert total.min_valuation() == 3
    # (1 + 9u^2 + O(3^12)) * O(3^2) is O(3^2) + O(3^4) u^2 + O(3^14)
    s = padic_series(P, N, {0: PadicNumber.from_int(P, N, 1),
                            2: PadicNumber.from_int(P, N, 9)},
                     (-4, 4), False, 12)
    scaled = s.scale(PadicNumber.inexact_zero(P, N, 2))
    assert scaled.base_floor == 14
    assert scaled.abs_floor() == 2
    assert scaled.valuation() is None
    assert scaled.min_valuation() == 2


# ---------------------------------------------------------------------------
# The multiply-accumulate kernel.
# ---------------------------------------------------------------------------


def rand_coefficient(rng, nrel, inexact=True):
    if inexact and rng.random() < 0.1:
        return PadicNumber.inexact_zero(P, nrel, rng.randint(-2, 4))
    prec = nrel if rng.random() < 0.5 else rng.randint(1, nrel)
    unit = rng.randrange(1, P ** prec)
    while unit % P == 0:
        unit = rng.randrange(1, P ** prec)
    return PadicNumber._make(P, nrel, rng.randint(-2, 4), unit, prec)


def rand_operand(rng, nrel):
    """An exact zero, a pure floor, a truncation, or a tail-free polynomial
    whose window hugs its support, so that sums of products widen."""
    kind = rng.choice(("zero", "zero", "floor", "truncated", "truncated",
                       "polynomial", "polynomial", "polynomial", "surrogate"))
    if kind == "zero":
        # tail-free, or making no claim outside its window
        return padic_series(P, nrel, {}, (-rng.randint(0, 9),
                                          rng.randint(0, 9)),
                            rng.random() < 0.5, None)
    if kind == "floor":
        return padic_series(P, nrel, {}, (-rng.randint(0, 12),
                                          rng.randint(0, 12)),
                            False, rng.randint(0, 8))
    truncated = kind == "truncated"
    terms = {rng.randint(-6, 6): rand_coefficient(rng, nrel, not truncated)
             for _ in range(rng.randint(1, 4))}
    lo, hi = min(terms), max(terms)
    if truncated:
        return padic_series(P, nrel, terms, (lo - rng.randint(6, 16),
                                             hi + rng.randint(6, 16)),
                            False, rng.randint(1, 12))
    return padic_series(P, nrel, terms, (lo - rng.randint(0, 2),
                                         hi + rng.randint(0, 2)),
                        True, rng.randint(1, 12) if kind == "surrogate"
                        else None)


def no_product_window(a, b):
    """The provable window of a * b is empty: a truncation's window
    shrinks by its partner's support hull."""
    ha, hb = a.support_hull or (0, 0), b.support_hull or (0, 0)
    lo, hi = -INF, INF
    if not a.tail_free:
        lo, hi = a.window[0] + hb[1], a.window[1] + hb[0]
    if not b.tail_free:
        lo, hi = max(lo, b.window[0] + ha[1]), min(hi, b.window[1] + ha[0])
    return lo > hi


def rand_pair(rng, nrel):
    """Two operands; four in five pairs whose product has no provable
    window are drawn again, so that most draws compare values."""
    a = rand_operand(rng, nrel or rng.choice((6, 10)))
    b = rand_operand(rng, nrel or rng.choice((6, 10)))
    while no_product_window(a, b) and rng.random() < 0.8:
        b = rand_operand(rng, nrel or rng.choice((6, 10)))
    return a, b


def at_nrel(s, nrel):
    """The same series with every coefficient capped at nrel."""
    zero = PadicNumber.zero(P, nrel)
    return padic_series(P, nrel, {e: c + zero
                                  for e, c in s.coeffs.items()},
                        s.window, s.tail_free, s.base_floor)


class Folded:
    """A sum of series folded cell by cell with ``PadicNumber.__add__``,
    apart from the integer kernel: adding the tail-free exact zero returns
    the other side; else windows intersect, a sum of two polynomials
    widens its window to the stored exponents, the base floor is the
    smaller one and every cell is cut at it, and a cell outside the window
    is dropped, after which the sum is no longer tail-free."""

    def __init__(self, s):
        self.nrel, self.window = s.nrel, s.window
        self.tail_free, self.base_floor = s.tail_free, s.base_floor
        self.coeffs = dict(s.items())

    def coefficient(self, e):
        if e in self.coeffs:
            return self.coeffs[e]
        lo, hi = self.window
        if self.base_floor is not None and lo <= e <= hi:
            return PadicNumber.inexact_zero(P, self.nrel, self.base_floor)
        return PadicNumber.zero(P, self.nrel)

    def __neg__(self):
        out = copy.copy(self)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def is_zero(self):
        return self.tail_free and not self.coeffs and self.base_floor is None

    def __add__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        out = copy.copy(self)
        nrel = out.nrel = min(self.nrel, other.nrel)
        lo = max(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        cells = {e: self.coefficient(e) + other.coefficient(e)
                 for e in self.coeffs.keys() | other.coeffs.keys()}
        out.tail_free = self.tail_free and other.tail_free
        if out.tail_free and cells:
            lo, hi = min(lo, *cells), max(hi, *cells)
        if lo > hi:
            raise WindowOverflow("empty exponent window")
        floors = [f for f in (self.base_floor, other.base_floor)
                  if f is not None]
        bf = out.base_floor = min(floors, default=None)
        out.window, out.coeffs = (lo, hi), {}
        for e, c in cells.items():
            if not lo <= e <= hi:
                out.tail_free = False
                continue
            if bf is not None:
                c = c + PadicNumber.inexact_zero(P, nrel, bf)
                if c.val >= bf:
                    continue
            out.coeffs[e] = c
        return out


def reference_sum(terms, out_window=None):
    """``series_sum``'s terms folded by ``Folded``: each a series, or a pair
    (a, b) multiplied by ``a.mul(b, out_window)``."""
    acc = None
    for t in terms:
        if isinstance(t, tuple):
            t = t[0].mul(t[1], out_window)
        acc = Folded(t) if acc is None else acc + Folded(t)
    return acc


def outcome(fn, *args):
    try:
        s = fn(*args)
    except WindowOverflow as exc:
        return f"{type(exc).__name__}: {exc}"
    items = s.coeffs.items() if isinstance(s, Folded) else s.items()
    return (s.window, s.tail_free, s.base_floor, s.nrel,
            sorted((e, repr(c), c.nrel) for e, c in items))


def fold_draws(rng, count=1500):
    """Sums of products, as (pairs, out_window, mixed): ``mixed`` has some
    pairs replaced by their first series."""
    for _ in range(count):
        if rng.random() < 0.2:
            # a product at nrel 10, a higher-valuation one at nrel 6, then
            # the first negated: the lower nrel caps the cancelled cell
            a, b = (series(P, 10, [(rng.randint(-4, 4), rng.randint(1, 99))
                                   for _ in range(3)], window=(-9, 9))
                    for _ in range(2))
            c = rand_operand(rng, 6).shift_val(3)
            pairs = [(a, b), (c, rand_operand(rng, 6)), (-a, b)]
        else:
            nrel = rng.choice((6, 10, None))
            pairs = [rand_pair(rng, nrel) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                a, b = pairs[0]
                pairs.append((at_nrel(-a, 6), at_nrel(b, 6)))
            if rng.random() < 0.1:
                # supports at -60..-80 and 60..80: a product at most 256
                # exponents wide is cut to the cap, a wider one overflows
                pairs.append(tuple(
                    series(P, nrel or 10, [(-rng.randint(60, 80), 1),
                                           (rng.randint(60, 80), 1)])
                    for _ in range(2)))
            pairs = [(-a if rng.random() < 0.25 else a, b) for a, b in pairs]
        out_window = None
        if rng.random() < 0.25:
            lo = -rng.randint(0, 10)
            out_window = (lo, lo + rng.randint(0, 20))
        yield pairs, out_window, [a if rng.random() < 0.5 else (a, b)
                                  for a, b in pairs]


def test_series_dot_matches_the_fold_of_products():
    seen = dict(widened=0, overflow=0, window_cap=0, kept_zero=0, capped=0)
    for pairs, out_window, mixed in fold_draws(random.Random(5023)):
        want = outcome(reference_sum, pairs, out_window)
        assert outcome(series_dot, pairs, out_window) == want
        # products and series mixed, and a - b
        assert (outcome(series_sum, mixed, out_window)
                == outcome(reference_sum, mixed, out_window))
        a, b = pairs[0]
        assert outcome(lambda: a - b) == outcome(
            lambda: Folded(a) + -Folded(b))
        assert outcome(lambda: b + a) == outcome(
            lambda: Folded(b) + Folded(a))
        if isinstance(want, str):
            seen["overflow"] += 1
            try:
                series_dot(pairs, out_window)
            except WindowOverflow as exc:
                seen["window_cap"] += "window cap" in str(exc)
            continue
        total = series_dot(pairs, out_window)
        windows = [a.mul(b, out_window).window for a, b in pairs]
        if total.window != (max(w[0] for w in windows),
                            min(w[1] for w in windows)):
            seen["widened"] += 1
        if any(c.unit is None for c in total.coeffs.values()):
            seen["kept_zero"] += 1
        if len({a.nrel for a, _ in pairs}) > 1:
            seen["capped"] += 1
    # every order-dependent step of the fold was exercised
    assert min(seen.values()) >= 10, seen



def assert_rebuilds(s):
    """``from_cells`` on the cells of ``s`` gives ``s`` back, which the
    kernel can subtract from ``s``."""
    r = LaurentSeries.from_cells(
        s.p, s.nrel, {e: (v, u, pr) for e, v, u, pr in s.cells()},
        s.window, s.tail_free, s.base_floor)
    assert (r.cells(), r.valuation(), r.min_valuation(), r.abs_floor(),
            r.window, r.tail_free, r.base_floor) == \
        (s.cells(), s.valuation(), s.min_valuation(), s.abs_floor(),
         s.window, s.tail_free, s.base_floor)
    assert residual_verdict(r - s).holds


def test_from_cells_rebuilds_every_result():
    # the operands, each product, the sums and a - b
    rebuilt = 0
    for pairs, out_window, mixed in fold_draws(random.Random(5023)):
        results = [s for pair in pairs for s in pair]
        for make in ([partial(series_dot, pairs, out_window),
                      partial(series_sum, mixed, out_window),
                      partial(pairs[0][0].__sub__, pairs[0][1])]
                     + [partial(a.mul, b, out_window) for a, b in pairs]):
            try:
                results.append(make())
            except WindowOverflow:
                pass
        for s in results:
            assert_rebuilds(s)
        rebuilt += len(results)
    assert rebuilt > 10000


@pytest.mark.parametrize("cells, base_floor, want", [
    # a unit divisible by p, a negative unit, a unit >= p^prec, prec <= 0,
    # prec > nrel with a unit >= p^nrel, an exact zero; a cell outside
    # the window is dropped
    ({0: (1, 6, 4), 1: (0, -1, 3), 2: (-2, 100, 2), 3: (2, 5, 0),
      4: (0, 7 + 5 * 3 ** 6, 20), 5: (None, None, None), 9: (0, 1, 3)},
     None, [(0, 2, 2, 3), (1, 0, 26, 3), (2, -2, 1, 2), (3, 2, None, None),
            (4, 0, 7, 6)]),
    # each cell cut at p^3: one to fewer digits, one to a zero at the base
    # floor (dropped), one at it; zeros below it are kept
    ({-1: (-1, 2, -3), 0: (1, 1, 6), 1: (3, 1, 2), 2: (0, 9, 6),
      3: (0, 27, 6), 4: (1, None, None), 5: (4, None, None)},
     3, [(-1, -1, None, None), (0, 1, 1, 2), (2, 2, 1, 1),
         (4, 1, None, None)]),
])
def test_from_cells_normalises_hand_written_cells(cells, base_floor, want):
    s = LaurentSeries.from_cells(P, 6, cells, (-5, 5), True, base_floor)
    assert s.cells() == want
    assert s.tail_free == (9 not in cells)
    assert_rebuilds(s)


def test_zero_and_one_are_the_from_terms_forms():
    # written directly, each is the series from_terms settles, field for
    # field: on the default window, on windows with 0 (a list among them)
    # and on windows without it, where 1 is the empty truncation
    seen = set()
    for p, nrel in ((3, 12), (5, 1), (2, 7)):
        for window in (None, (-3, 5), [0, 0], (0, 300), (2, 9), (-9, -1)):
            for make, terms in ((LaurentSeries.zero, []),
                                (LaurentSeries.one, [(0, 1)])):
                got = make(p, nrel, window)
                want = LaurentSeries.from_terms(p, nrel, terms, window)
                assert (got.p, *integer_form(got)) == \
                    (want.p, *integer_form(want)), (p, nrel, window, terms)
                assert all(type(e) is int for e in got.window)
                seen.add((bool(terms), got.tail_free))
    assert seen == {(False, True), (True, True), (True, False)}


def rand_dense(rng, nrel, lo):
    """An exact Laurent polynomial dense enough to be packed: 16 to 24
    cells from exponent ``lo`` on fewer than twice as many exponents, on a
    window that hugs them.  Each value is p^v times a unit of either sign,
    v one of the entry's two valuations (-1 to 3), and a third of the units
    are within 6 of p^nrel, so that sums of products come close to the
    slot bound.  Returns the exact terms and the series."""
    count = rng.randint(16, 24)
    exps = [lo] + rng.sample(range(lo + 1, lo + 2 * count), count - 1)
    v = rng.randint(-1, 2)
    terms = {}
    for e in exps:
        unit = (P ** nrel - rng.randint(1, 6) if rng.random() < 0.3
                else rng.randrange(1, P ** nrel))
        while unit % P == 0:
            unit -= 1
        terms[e] = (rng.choice((1, -1)) * Fraction(unit)
                    * Fraction(P) ** (v + rng.choice((0, 0, 1))))
    return terms, series(P, nrel, terms, (min(exps), max(exps)))


def claim_holds(s, exact):
    """Every coefficient of ``s`` in its window is the exact one, ``exact``
    (exponent: Fraction), modulo the floor ``s`` reports for it."""
    for e in range(s.window[0], s.window[1] + 1):
        c = s.coefficient(e)
        diff = exact.get(e, 0) - (0 if c.unit is None else c.to_rational())
        if not diff:
            continue
        if c.is_exact_zero:
            return False
        floor = c.val if c.unit is None else c.val + c.prec
        if vp_int(diff.numerator, P) - vp_int(diff.denominator, P) < floor:
            return False
    return True


def test_dense_products_are_packed_exactly(monkeypatch):
    """Dense matrix products take the packed path (one product of packed
    integers per pair, one unpack per entry) and give the exact product at
    every floor they report, and the same integers and verdicts as the
    pair loop.  Entries of mixed nrel make the fold unpack before the nrel
    cap; windows that hug staggered supports make it widen, and unpack
    before the key scan; a clipped output window keeps the pair loop."""
    rng = random.Random(8191)

    def pair_loop(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(kernel, "PACK_CELLS", 10 ** 9)
            return fn(*args)

    seen = dict(packed=0, clipped=0, capped=0, widened=0)
    for draw in range(24):
        n = 2 + draw % 2
        mixed = draw % 3 == 0
        clipped = draw % 4 == 3
        spread = 3 if clipped else 8
        top = 24 if draw % 4 == 1 else 12      # slots of two words or more
        nrels = [[rng.choice((8, top)) if mixed else top for _ in range(n)]
                 for _ in range(2 * n)]
        da = [[rand_dense(rng, nrels[i][k], rng.randint(-spread, spread))
               for k in range(n)] for i in range(n)]
        db = [[rand_dense(rng, nrels[n + k][j], rng.randint(-spread, spread))
               for j in range(n)] for k in range(n)]
        a = [[s for _, s in row] for row in da]
        b = [[s for _, s in row] for row in db]
        exact = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    exact[i][j] = oracle_add(
                        exact[i][j], oracle_mul(da[i][k][0], db[k][j][0]))
        out_window = None
        if clipped:
            # strictly inside every product's support: none is whole
            windows = [x.mul(y).window for row in a for x in row
                       for col in zip(*b) for y in col]
            out_window = (max(w[0] for w in windows) + 1,
                          min(w[1] for w in windows) - 1)
            seen["clipped"] += 1
        for i in range(n):
            for k in range(n):
                term = kernel.product_term((a[i][k], b[k][0]), out_window)
                assert (term[13] is None) == (out_window is not None)
        got = smat_mul(a, b, out_window)
        want = pair_loop(smat_mul, a, b, out_window)
        for i in range(n):
            for j in range(n):
                assert integer_form(got[i][j]) == integer_form(want[i][j])
                assert claim_holds(got[i][j], exact[i][j]), (draw, i, j)
                windows = [a[i][k].mul(b[k][j], out_window).window
                           for k in range(n)]
                if got[i][j].window != (max(w[0] for w in windows),
                                        min(w[1] for w in windows)):
                    seen["widened"] += 1
                if len({min(nrels[i][k], nrels[n + k][j])
                        for k in range(n)}) > 1:
                    seen["capped"] += 1
        seen["packed"] += out_window is None
        # the product check on the exact product, and on one cell moved
        x = [[series(P, 12, exact[i][j]) for j in range(n)]
             for i in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        e = rng.choice(sorted(exact[i][j]))
        moved = dict(exact[i][j])
        moved[e] += 1
        x_moved = [row[:] for row in x]
        x_moved[i][j] = series(P, 12, moved)
        holds = smat_product_agree(a, b, x)
        fails = smat_product_agree(a, b, x_moved)
        assert holds == pair_loop(smat_product_agree, a, b, x)
        assert fails == pair_loop(smat_product_agree, a, b, x_moved)
        assert holds.holds
        assert not fails.holds and fails.position == (i, j)
    assert min(seen.values()) >= 5, seen


def rand_weighted_operand(rng, p, nrel):
    """A series at prime ``p``: an exact zero, a pure floor, a truncation
    with a base floor, or a tail-free polynomial (with a base floor, a
    surrogate), whose cells include inexact zeros and cells known to fewer
    than nrel digits, on a window shifted by up to 3 exponents either way
    from its cells, so that a sum's windows intersect, widen or empty."""
    kind = rng.choice(("zero", "floor", "truncated", "truncated",
                       "polynomial", "polynomial", "surrogate"))
    if kind in ("zero", "floor"):
        lo = rng.randint(-8, 4)
        return padic_series(p, nrel, {}, (lo, lo + rng.randint(0, 8)),
                            kind == "zero" and rng.random() < 0.5,
                            rng.randint(-1, 8) if kind == "floor" else None)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        val = rng.randint(-2, 4)
        if rng.random() < 0.15:
            c = PadicNumber.inexact_zero(p, nrel, val)
        else:
            prec = nrel if rng.random() < 0.5 else rng.randint(1, nrel)
            c = PadicNumber._make(p, nrel, val, rng.randrange(1, p ** prec),
                                  prec)
        terms[rng.randint(-5, 5)] = c
    lo, hi = min(terms) + rng.randint(-3, 3), max(terms) + rng.randint(-3, 3)
    lo, hi = min(lo, hi), max(lo, hi)
    if kind == "truncated":
        return padic_series(p, nrel, terms, (lo - rng.randint(0, 6),
                                             hi + rng.randint(0, 6)),
                            False, rng.randint(0, 10))
    return padic_series(p, nrel, terms, (lo, hi), True,
                        rng.randint(0, 10) if kind == "surrogate" else None)


def test_weighted_fold_matches_scale_then_sum():
    # sum_t k_t * s_t with units k_t as one kernel fold, each series read
    # with its weight (kernel.series_term), against scaling each series by
    # k_t and summing the copies; one term in three draws is at a lower
    # nrel, and either both raise the same error or both give the same
    # integer form
    def outcome(fn):
        try:
            return integer_form(fn())
        except Exception as exc:
            return type(exc).__name__, str(exc)

    rng = random.Random(2029)
    seen = dict(raised=0, lower_nrel=0, weight_above_2=0, inexact=0)
    for draw in range(2400):
        p = (2, 3, 5, 7)[draw % 4]
        nrel = rng.choice((4, 8))
        terms = [rand_weighted_operand(rng, p, nrel)
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 1 / 3:
            k = rng.randrange(len(terms))
            terms[k] = rand_weighted_operand(rng, p, rng.randint(1, nrel - 1))
            seen["lower_nrel"] += 1
        weights = [rng.randint(1, p - 1) for _ in terms]
        got = outcome(lambda: LaurentSeries(*kernel.accumulate(
            [kernel.series_term(s, k) for s, k in zip(terms, weights)])))
        want = outcome(lambda: series_sum(
            [s.scale(PadicNumber.from_int(p, s.nrel, k))
             for s, k in zip(terms, weights)]))
        assert got == want, (draw, p, weights)
        seen["raised"] += isinstance(want[0], str)
        seen["weight_above_2"] += max(weights) > 2
        seen["inexact"] += any(not r for s in terms for r in s.terms.values())
    assert min(seen.values()) >= 50, seen


def test_shift_val_carries_the_summary_a_fresh_series_computes():
    # shift_val hands a computed summary over, moved by m; it must be the
    # summary that the shifted integer form gives when computed afresh, on
    # the operands and sums of fold_draws, with and without the source's
    # summary computed first
    def fresh(s):
        return LaurentSeries(s.p, *integer_form(s))

    def summary(s):
        val, mv, af, hull, cells = s.summary()
        return (val, mv, af, hull, list(cells), s.valuation(),
                s.min_valuation(), s.abs_floor(), s.support_hull)

    seen = dict(exact_zero=0, inexact_zero=0, base_floor=0, truncated=0,
                zero_at_precision=0)
    for pairs, out_window, mixed in fold_draws(random.Random(5023), 400):
        draws = [s for pair in pairs for s in pair]
        try:
            draws.append(series_sum(mixed, out_window))
        except WindowOverflow:
            pass
        for s in draws:
            for m in range(-3, 4):
                for computed in (False, True):
                    source = fresh(s)
                    if computed:
                        source.summary()
                    shifted = source.shift_val(m)
                    assert (shifted._stats is not None) == computed
                    got = summary(shifted)
                    want = summary(fresh(shifted))
                    assert got == want, (s, m)
                    # INF stays INF itself, which the library tests by
                    # identity
                    assert [x is INF for x in got[:3]] == \
                        [x is INF for x in want[:3]]
            seen["exact_zero"] += s.is_exact_zero
            seen["inexact_zero"] += any(not r for r in s.terms.values())
            seen["base_floor"] += s.base_floor is not None
            seen["truncated"] += not s.tail_free
            seen["zero_at_precision"] += (s.valuation() is None
                                          and not s.is_exact_zero)
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# Inversion.
# ---------------------------------------------------------------------------


def test_invert_monomial():
    inv = S([(1, 1)]).invert(target_window=(-4, 4))
    assert agrees(inv, S([(-1, 1)], window=(-4, 4)))


def test_invert_geometric():
    # (1 - pu)^-1 = sum p^n u^n
    a = S([(0, 1), (1, -P)])
    b = a.invert(target_window=(0, 14))
    for k in range(10):
        want = PadicNumber.from_rational(P, N, Fraction(P ** k))
        assert b.coefficient(k).agrees(want)
    assert agrees(a * b, S([(0, 1)]))


def test_invert_u_plus_p():
    # (u + p)^-1 = sum (-p)^n u^(-n-1)
    a = S([(1, 1), (0, P)])
    b = a.invert(target_window=(-13, 2))
    for k in range(8):
        want = PadicNumber.from_rational(P, N, Fraction((-P) ** k))
        assert b.coefficient(-k - 1).agrees(want)
    assert agrees(a * b, S([(0, 1)]))


def test_invert_roundtrip_random(rng):
    for _ in range(15):
        a = rand_unit_series(rng, P, N)
        b = a.invert(target_window=(-24, 24))
        assert agrees(a * b, S([(0, 1)]))


def test_invert_rejects_non_unit():
    with pytest.raises(NotAUnit):
        S([]).invert()
    with pytest.raises(NotAUnit):
        padic_series(P, N, {}, (-4, 4), False, 5).invert()


def exact_recursion_invert(a, target_window=None):
    """``invert`` with the one-sided inverse h of 1 + g_plus computed
    exactly, the reference for the recursion modulo p^nrel: every h[k] out
    to the working window's top, h a polynomial surrogate with no base
    floor, and no re-wrap of a Neumann product cut at the working window
    (the cases compared here do not depend on it)."""
    p, nrel = a.p, a.nrel
    vmin = a.valuation()
    if vmin is None:
        raise NotAUnit("series is zero at working precision")
    a1 = a.shift_val(-vmin)
    ordl = min(e for e, raw in a1.terms.items()
               if raw and a1.base + vp_int(raw, p) == 0)
    cinv = PadicNumber.from_int(p, nrel, 1) / a1.coefficient(ordl)
    a3 = a1.shift_exp(-ordl).scale(cinv)
    if (a3.coefficient(0) - PadicNumber.from_int(p, nrel, 1)).unit \
            is not None:
        raise NotAUnit("normalised constant term is not 1")
    if target_window is None:
        target_window = a.window
    hull = a.support_hull
    span = hull[1] - hull[0]
    wide_target = (target_window[0] - span, target_window[1] + span)
    tw = (wide_target[0] + ordl, wide_target[1] + ordl)
    g = [cell for cell in a3.cells() if cell[2] is not None]
    minus = {e: v for e, v, _, _ in g if e < 0}
    pad = max((-((nrel + 1) * e // v) for e, v in minus.items()), default=0)
    wlo, whi = min(tw[0], 0) - pad, max(tw[1], 0) + pad
    gp = [(e, (v, -unit, prec)) for e, v, unit, prec in g if e > 0]
    h = {0: (0, 1, nrel)}
    for k in range(1, whi + 1):
        pairs = [(x, h[k - j]) for j, x in gp if k - j in h]
        if pairs:
            h[k] = cell_dot(p, nrel, pairs)
    hs = LaurentSeries.from_cells(p, nrel, h, (wlo, whi), True, None)
    hfull = hs
    if minus:
        gm = a3.recast((min(minus), max(minus)), True, None,
                       lambda e, raw: e < 0 and raw)
        terms = [hs]
        term = hs
        for _ in range(nrel + 1):
            term = series_dot(((gm, term),), (wlo, whi))
            term = series_dot(((term, hs),), (wlo, whi))
            term = -term.on_window((wlo, whi))
            if term.min_valuation() > nrel:
                break
            terms.append(term)
        hfull = series_sum(terms)
    b = hfull.restrict(tw).scale(cinv).shift_exp(-ordl).shift_val(-vmin)
    floor = int(min(b.min_valuation() + nrel, nrel - vmin,
                    a.abs_floor() - 2 * vmin))
    b_wide = b.recast(wide_target, False, floor)
    residual = a.on_window(a.window).mul(b_wide, wide_target) - \
        LaurentSeries.one(p, nrel, window=wide_target)
    if any(residual.terms.values()):
        raise NotAUnit("inverse failed to converge")
    return b_wide.restrict(target_window)


def inverse_outcome(inv, a, target_window=None):
    try:
        b = inv(a, target_window)
    except NotAUnit:
        return "NotAUnit"
    return b.window, b.tail_free, b.base_floor, b.cells()


def smith_pivots(a):
    """The (series, target window) pairs ``lattice_smith(a)`` inverts."""
    seen = []
    invert = LaurentSeries.invert

    def record(s, target_window=None):
        seen.append((s, target_window))
        return invert(s, target_window)

    LaurentSeries.invert = record
    try:
        lattice_smith(a)
    finally:
        LaurentSeries.invert = invert
    return seen


def test_invert_matches_the_exact_recursion():
    # h modulo p^nrel gives the window, tail_free, base floor and cells the
    # exact recursion gives: on the entries of seeded Gamma-invertible
    # matrices, the pivots lattice_smith inverts (among them a 97-term
    # pivot at nrel 28), and the draws of test_invert_roundtrip_random
    cases = []
    for nrel, seeds in ((12, range(1, 6)), (48, (1, 2)), (28, [51])):
        for seed in seeds:
            a, _ = rand_gamma_invertible(random.Random(seed), P, nrel, 3)
            cases += [(s, None) for row in a for s in row]
            cases += smith_pivots(a)
    rng = random.Random(20260808)
    cases += [(rand_unit_series(rng, P, N), (-24, 24)) for _ in range(15)]
    units = 0
    for a, target in cases:
        want = inverse_outcome(exact_recursion_invert, a, target)
        assert inverse_outcome(LaurentSeries.invert, a, target) == want
        units += want != "NotAUnit"
    assert units >= 100, units


def test_invert_recursion_stops_at_the_working_floor(monkeypatch):
    # the pivots of rand_gamma_invertible(Random(51), 3, 28, 3): the exact
    # recursion makes one cell_dot per exponent up to the working window's
    # top (391, 481 and 336 calls); modulo p^28, h keeps few cells
    calls = []

    def counted(*args):
        calls.append(1)
        return cell_dot(*args)

    a, _ = rand_gamma_invertible(random.Random(51), P, 28, 3)
    pivots = smith_pivots(a)
    monkeypatch.setattr(series_mod, "cell_dot", counted)
    for s, target in pivots:
        s.invert(target)
    assert len(pivots) == 3
    assert len(calls) <= 100, len(calls)


def test_invert_sums_its_minus_part_by_squares(monkeypatch):
    # 1 + 3u^-2 + 3u^-1 + 3u: x = -g_minus h has valuation 1, so the
    # Neumann sum h * sum_j x^j takes k = ceil(log2(nrel + 1)) squarings of
    # x and k - 1 partial products, beside the product that forms x, the
    # closing r h and the multiply-back check; summed term by term it
    # took two products per term, about 2 nrel
    products = []
    product_term = kernel.product_term

    def counting(pair, out_window):
        products.append(pair)
        return product_term(pair, out_window)

    units = {nrel: series(P, nrel, [(-2, 3), (-1, 3), (0, 1), (1, 3)])
             for nrel in (12, 24, 48)}
    monkeypatch.setattr(kernel, "product_term", counting)
    monkeypatch.setattr(series_mod, "product_term", counting)
    for nrel, a in units.items():
        del products[:]
        b = a.invert()
        k = math.ceil(math.log2(nrel + 1))
        assert len(products) <= 2 * k + 2, (nrel, len(products))
        assert b.valuation() == 0


# ---------------------------------------------------------------------------
# Frobenius and differentials.
# ---------------------------------------------------------------------------


def test_sigma_scales_exponents():
    assert agrees(S([(2, 1)]).frobenius(), S([(6, 1)]))


def test_sigma_fixes_constants():
    c = S([(0, Fraction(7, 5))])
    assert agrees(c.frobenius(), c)


def test_sigma_termwise():
    got = S([(-1, 1), (1, P)]).frobenius()
    assert agrees(got, S([(-3, 1), (3, P)]))


def test_sigma_is_ring_hom(rng):
    for _ in range(15):
        a = rand_series(rng, P, N, -3, 3)
        b = rand_series(rng, P, N, -3, 3)
        assert agrees((a + b).frobenius(), a.frobenius() + b.frobenius())
        assert agrees((a * b).frobenius(), a.frobenius() * b.frobenius())


def test_derivative_basics():
    assert agrees(S([(2, 1)]).derivative(), S([(1, 2)]))
    assert agrees(S([(-1, 1)]).derivative(), S([(-2, -1)]))


def test_leibniz(rng):
    for _ in range(15):
        a = rand_series(rng, P, N)
        b = rand_series(rng, P, N)
        lhs = (a * b).derivative()
        rhs = a * b.derivative() + b * a.derivative()
        assert agrees(lhs, rhs)


def twisted(g, q):
    """q * u^(q-1) * sigma(g): the du-coefficient of the twisted
    differential of g du."""
    uq = LaurentSeries.monomial(g.p, g.nrel, q, q - 1)
    return g.frobenius(log_p(q, g.p)) * uq


def test_twisted_differential_examples():
    # q = p = 3 here; the q=2 example needs p=2
    out = twisted(series(2, 10, [(1, 1)]), 2)
    assert agrees(out, series(2, 10, [(3, 2)]))
    # j = 0 term: du twists to p u^(p-1) du
    assert agrees(twisted(S([(0, 1)]), P), S([(P - 1, P)]))


def test_twisted_differential_chain_rule(rng):
    # d(sigma(a)) = q * u^(q-1) * sigma(d(a))
    for _ in range(15):
        a = rand_series(rng, P, N, -3, 3)
        lhs = twisted(a.derivative(), P)
        rhs = a.frobenius().derivative()
        assert agrees(lhs, rhs)


def test_log_p_rejects_q_not_a_power_of_p():
    with pytest.raises(ValueError, match=r"^q=12 is not a power of p=2$"):
        log_p(12, 2)
    with pytest.raises(ValueError, match="q must be at least p"):
        log_p(1, 2)


# ---------------------------------------------------------------------------
# Membership.
# ---------------------------------------------------------------------------


def test_membership_examples():
    r = membership(S([(-1, 1)]), RingLabel("GammaPlus"))
    assert not r.consistent and r.witness == -1
    r2 = membership(S([(0, Fraction(1, P))]), RingLabel("Gamma"))
    assert not r2.consistent and r2.witness == 0
    dag = RingLabel("GammaDagger", Fraction(1, 2), Fraction(0))
    s = S([(-i, Fraction(P ** i)) for i in range(1, 9)])
    assert membership(s, dag).consistent


def test_membership_monotone_along_lattice(rng):
    labels = {k: RingLabel(k) for k in RING_KINDS}
    for _ in range(40):
        s = rand_series(rng, P, N, -4, 4, 0, 3)
        for a in RING_KINDS:
            for b in RING_KINDS:
                if labels[a].included_in(labels[b]):
                    if membership(s, labels[a]).consistent:
                        assert membership(s, labels[b]).consistent, (a, b)


# the witness (None when consistent) of each seeded series below under
# every kind, then GammaDagger, EDagger and R with (lam, c) = (1/3, 1)
MEMBERSHIP_WITNESSES = [
    [-5, 2, 2, -5, None, None, -5, None, 2, None, None],
    [-1, None, -1, -1, None, -1, -1, -1, None, None, None],
    [-5, 1, -5, -5, None, -5, -5, -5, 1, None, None],
    [-4, -2, -4, -4, None, -4, -4, -4, -2, -2, -2],
    [-6, None, -6, -6, None, -6, -6, -6, None, None, None],
    [-8, None, -8, -8, None, -8, -8, -8, -5, -5, -5],
    [-7, None, -6, -7, None, -6, -7, -6, None, None, None],
    [-8, -4, -8, -8, None, -8, -8, -8, -4, -4, -4],
    [-7, None, -7, -7, None, -7, -7, -7, -7, -7, -7],
    [-6, 5, 5, -6, None, None, -6, None, 5, None, None],
    [-3, None, -3, -3, None, -3, -3, -3, None, None, None],
    [6, 6, 6, None, None, None, None, None, 6, None, None],
    [None, None, None, None, None, None, None, None, None, None, None],
    [-7, 0, -7, -7, None, -7, -7, -7, -7, -7, -7],
    [0, 0, 0, None, None, None, None, None, 0, None, None],
    [-5, 5, -5, -5, None, -5, -5, -5, 5, None, None],
]


def test_membership_witnesses_are_pinned():
    # negative exponents, negative valuations and dagger-bound breaches
    labels = [RingLabel(k) for k in RING_KINDS] + [
        RingLabel(k, Fraction(1, 3), Fraction(1))
        for k in ("GammaDagger", "EDagger", "R")]
    rng = random.Random(1729)
    for witnesses in MEMBERSHIP_WITNESSES:
        s = rand_series(rng, P, N, -8, 6, -2, 4, 5)
        got = [membership(s, label) for label in labels]
        assert [(r.consistent, r.witness) for r in got] == \
            [(w is None, w) for w in witnesses]


def test_lattice_relations():
    gp = RingLabel("GammaPlus")
    for k in ("Gamma", "GammaDagger", "EPlus", "RPlus", "E", "EDagger", "R"):
        assert gp.included_in(RingLabel(k))
    assert not RingLabel("Gamma").included_in(RingLabel("R"))
    assert not RingLabel("R").included_in(RingLabel("E"))
    assert RingLabel("EDagger").included_in(RingLabel("E"))
    assert RingLabel("EDagger").included_in(RingLabel("R"))


# ---------------------------------------------------------------------------
# Agreement verdicts.
# ---------------------------------------------------------------------------


def test_agreement_reports_floor_and_witness():
    a = S([(0, 1)])
    b = S([(0, 1), (2, P ** 5)])
    v = residual_verdict(a - b)
    assert not v.holds and v.witness == 2 and v.residual_valuation == 5
    pad = padic_series(P, N, {}, a.window, False, 9)
    ok = residual_verdict(a - (a + pad))
    assert ok.holds and ok.floor == 9


def test_settle_keeps_at_most_nrel_relative_digits():
    # an exact cell of valuation 1 with a digit at p^5 keeps nrel = 4
    # relative digits, p^1 to p^4, whether its valuation is stated or not
    p, nrel = 3, 4
    raw = p + p ** 5
    for val in (None, 1):
        assert series_mod._settle(p, nrel, 0, [(0, raw, INF, val)], None) \
            == ({0: p}, {})
    # a scalar known to 2 digits caps the product's cells at 2 digits
    s = series(p, 6, [(0, 1 + p ** 2 + p ** 4)])
    got = s.scale(PadicNumber._make(p, 6, 0, 1, 2))
    assert (got.terms, got.floors) == ({0: 1}, {0: 2})
