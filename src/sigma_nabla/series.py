"""Truncated bidirectional Laurent series over Q_p with ring-membership
labels, the power-Frobenius endomorphism, the derivation d and its twist.

Representation
--------------
A series stores a sparse map ``exponent -> PadicNumber`` together with a
window ``[lo, hi]`` and two honesty markers:

* ``tail_free``: True when the series is a genuine Laurent polynomial
  (no support outside the stored terms); inverses and other truncated
  results carry ``tail_free=False`` and make no claim outside the window.
* ``base_floor``: absent exponents inside the window are zero modulo
  p^base_floor (``None`` means exactly zero).

Windows behave as regions of faithfulness: addition intersects them,
multiplication uses the convolution-correct window (the full Minkowski sum
for polynomial operands, shrunk by the partner's support radius when an
operand is a truncation).  A configurable maximum width caps blowup;
``WindowOverflow`` signals that genuinely populated exponents no longer
fit.

Cost: every product goes through ``series_dot``, which sums products of
series (a matrix entry, a cofactor expansion; ``a * b`` is the one-pair
case).  It convolves integers only over each product's support hull,
clipped to the output window, adds all products into one integer per
exponent over a common base valuation, and builds one ``PadicNumber`` per
cell and one series at the end: no partial sum is materialised.  A sum
``a + b`` merges the two term maps.  The constructor's single pass over
the terms also caches (min valuation, abs floor), which ``min_valuation``,
``abs_floor`` and products read, and the smallest valuation of a provably
nonzero coefficient, which ``valuation`` returns; products cache the
integer form of their operands' terms.  ``coeffs`` is never mutated after
construction.

Ring membership for the eight series rings is refutation-only: a finite
truncation can contradict a growth condition but never prove it, so checks
return Consistent / Violated(witness) rather than yes/no.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import MembershipViolated, NotAUnit, WindowOverflow
from .padic import INF, PadicNumber, padic_dot, vp_int

DEFAULT_MAX_WIDTH = int(os.environ.get("SIGMA_NABLA_MAX_WINDOW", "256"))


# ---------------------------------------------------------------------------
# Ring labels and their inclusion lattice.
# ---------------------------------------------------------------------------

GAMMA_PLUS = "GammaPlus"
GAMMA = "Gamma"
GAMMA_DAGGER = "GammaDagger"
E_PLUS = "EPlus"
E = "E"
E_DAGGER = "EDagger"
R_PLUS = "RPlus"
R = "R"

RING_KINDS = (GAMMA_PLUS, GAMMA, GAMMA_DAGGER, E_PLUS, E, E_DAGGER, R_PLUS, R)

_DAGGER_KINDS = (GAMMA_DAGGER, E_DAGGER, R)

# covering relations of the inclusion lattice
_COVERS = (
    (GAMMA_PLUS, GAMMA_DAGGER),
    (GAMMA_PLUS, E_PLUS),
    (GAMMA_DAGGER, GAMMA),
    (GAMMA_DAGGER, E_DAGGER),
    (GAMMA, E),
    (E_PLUS, E_DAGGER),
    (E_PLUS, R_PLUS),
    (E_DAGGER, E),
    (E_DAGGER, R),
    (R_PLUS, R),
)


def _transitive_closure():
    reach = {k: {k} for k in RING_KINDS}
    changed = True
    while changed:
        changed = False
        for a, b in _COVERS:
            new = reach[b] - reach[a]
            if new:
                reach[a] |= new
                changed = True
    return reach

_REACH = _transitive_closure()


@dataclass(frozen=True)
class RingLabel:
    """One of the eight series rings; dagger/Robba labels carry a
    certificate (lam, c) asserting v_p(x_i) >= lam*(-i) - c for i < 0."""

    kind: str
    lam: Fraction = Fraction(1, 2)
    c: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in RING_KINDS:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind in _DAGGER_KINDS and self.lam <= 0:
            raise ValueError("dagger/Robba certificates need lam > 0")

    def included_in(self, other: "RingLabel") -> bool:
        return other.kind in _REACH[self.kind]


@dataclass(frozen=True)
class MembershipResult:
    consistent: bool
    witness: Optional[int] = None   # offending exponent when violated

    def __bool__(self):
        return self.consistent


# ---------------------------------------------------------------------------
# The series type.
# ---------------------------------------------------------------------------


def _pad_window(hull, width):
    """Symmetric padding of a support hull to the requested width."""
    lo, hi = hull
    room = width - (hi - lo + 1)
    if room < 0:
        raise WindowOverflow(f"support {hull} exceeds window width {width}")
    pad_lo = room // 2
    return (lo - pad_lo, hi + (room - pad_lo))


class LaurentSeries:
    __slots__ = ("p", "nrel", "coeffs", "window", "tail_free", "base_floor",
                 "_min_val", "_abs_floor", "_val", "_ints")

    def __init__(self, p, nrel, coeffs, window, tail_free, base_floor):
        self.p = p
        self.nrel = nrel
        self.window = (int(window[0]), int(window[1]))
        if self.window[0] > self.window[1]:
            raise WindowOverflow("empty exponent window")
        lo, hi = self.window
        cleaned = {}
        dropped = False
        # (min valuation, abs floor) of the stored terms and the base floor,
        # None for the exact zero; val: min valuation of the regular terms
        min_val = abs_floor = base_floor
        val_reg = None
        for e, c in coeffs.items():
            if not lo <= e <= hi:
                dropped = True
                continue
            if c.is_exact_zero:
                continue
            if base_floor is not None and (
                    c.unit is None or c.val + c.prec > base_floor):
                # uniform-floor contract: nothing is claimed at or beyond
                # p^base_floor anywhere in the window.  Constructors keep
                # units normalised, so a term already inside the floor
                # would come back unchanged and is not re-made.  Only a
                # zero at or beyond the floor goes: O(p^f) with f below it
                # is a weaker claim than the floor and stays.
                c = c.truncate_floor(base_floor)
                if c.val >= base_floor:
                    continue
            cleaned[e] = c
            val = c.val
            if c.unit is None:
                top = val
            else:
                top = val + c.prec
                if val_reg is None or val < val_reg:
                    val_reg = val
            if min_val is None or val < min_val:
                min_val = val
            if abs_floor is None or top < abs_floor:
                abs_floor = top
        self.coeffs = cleaned
        # a polynomial truncated to a smaller window is no longer tail-free
        self.tail_free = tail_free and not dropped
        self.base_floor = base_floor
        self._min_val = min_val
        self._abs_floor = abs_floor
        self._val = val_reg
        self._ints = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_terms(cls, p, nrel, terms, window=None, max_width=None):
        """Laurent polynomial from (exponent, value) pairs; values may be
        ints, Fractions or PadicNumbers."""
        items = terms.items() if isinstance(terms, dict) else terms
        coeffs = {}
        for e, v in items:
            if not isinstance(v, PadicNumber):
                v = PadicNumber.from_rational(p, nrel, v)
            if not v.is_exact_zero:
                coeffs[int(e)] = v
        if window is None:
            width = max_width or DEFAULT_MAX_WIDTH
            if coeffs:
                hull = (min(coeffs), max(coeffs))
            else:
                hull = (0, 0)
            hull = (min(hull[0], 0), max(hull[1], 0))
            window = _pad_window(hull, width)
        return cls(p, nrel, coeffs, window, True, None)

    @classmethod
    def zero(cls, p, nrel, window=None, max_width=None):
        return cls.from_terms(p, nrel, [], window, max_width)

    @classmethod
    def one(cls, p, nrel, window=None, max_width=None):
        return cls.from_terms(p, nrel, [(0, 1)], window, max_width)

    @classmethod
    def monomial(cls, p, nrel, value, exponent, window=None, max_width=None):
        return cls.from_terms(p, nrel, [(exponent, value)], window, max_width)

    # -- structural helpers ----------------------------------------------

    @property
    def support_hull(self):
        if not self.coeffs:
            return None
        return (min(self.coeffs), max(self.coeffs))

    @property
    def is_zero_at_precision(self):
        return self._val is None

    @property
    def is_exact_zero(self):
        return not self.coeffs and self.base_floor is None

    def valuation(self):
        """Smallest valuation of a provably nonzero coefficient; None when
        the series is zero at working precision."""
        return self._val

    def min_valuation(self):
        """Smallest coefficient valuation floor; INF for the exact zero."""
        return INF if self._min_val is None else self._min_val

    def abs_floor(self):
        """Everything in the window is known modulo p^abs_floor."""
        return INF if self._abs_floor is None else self._abs_floor

    def coefficient(self, e):
        if e in self.coeffs:
            return self.coeffs[e]
        if self.base_floor is not None and self.window[0] <= e <= self.window[1]:
            return PadicNumber.inexact_zero(self.p, self.nrel, self.base_floor)
        return PadicNumber.zero(self.p, self.nrel)

    def items(self):
        return sorted(self.coeffs.items())

    def restrict(self, window):
        lo = max(window[0], self.window[0])
        hi = min(window[1], self.window[1])
        return LaurentSeries(self.p, self.nrel, dict(self.coeffs), (lo, hi),
                             self.tail_free, self.base_floor)

    def on_window(self, window, tail_free=True):
        """The same terms and base floor on ``window``.  With ``tail_free``
        this is a polynomial surrogate, which products treat as known
        everywhere: the working-window idiom computes on surrogates over a
        padded window, then restores honest windows and floors
        (``linalg.smat_honest``)."""
        return LaurentSeries(self.p, self.nrel, self.coeffs, window,
                             tail_free, self.base_floor)

    def widen_floor(self, floor):
        """Weaken the series to be known only modulo p^floor."""
        if floor is None:
            return self
        new = {e: c.truncate_floor(floor) for e, c in self.coeffs.items()}
        bf = floor if self.base_floor is None else min(self.base_floor, floor)
        return LaurentSeries(self.p, self.nrel, new, self.window,
                             self.tail_free, bf)

    def __repr__(self):
        terms = ", ".join(f"u^{e}: {c!r}" for e, c in self.items())
        tail = "" if self.tail_free else ", truncated"
        fl = "" if self.base_floor is None else f", O(p^{self.base_floor})"
        return f"LaurentSeries[{self.window}]({terms}{fl}{tail})"

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __neg__(self):
        return LaurentSeries(self.p, self.nrel,
                             {e: -c for e, c in self.coeffs.items()},
                             self.window, self.tail_free, self.base_floor)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        nrel = min(self.nrel, other.nrel)
        lo = max(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        mine, theirs = self.coeffs, other.coeffs
        coeffs = {}
        for e, c in mine.items():
            d = theirs.get(e)
            coeffs[e] = other._plus_absent(e, c) if d is None else c + d
        for e, d in theirs.items():
            if e not in mine:
                coeffs[e] = self._plus_absent(e, d)
        tail_free = self.tail_free and other.tail_free
        if tail_free and coeffs:
            lo = min(lo, min(coeffs))
            hi = max(hi, max(coeffs))
        floors = [f for f in (self.base_floor, other.base_floor)
                  if f is not None]
        bf = min(floors) if floors else None
        return LaurentSeries(self.p, nrel, coeffs, (lo, hi), tail_free, bf)

    def _plus_absent(self, e, c):
        """``c + self.coefficient(e)`` at an exponent e this series does not
        store, without building the zero placeholder."""
        lo, hi = self.window
        if self.base_floor is None or not lo <= e <= hi:
            # the placeholder is an exact zero: only the precision cap acts
            return c if c.nrel <= self.nrel else c._cap(self.nrel)
        return c + PadicNumber.inexact_zero(self.p, self.nrel,
                                            self.base_floor)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c: PadicNumber):
        """Multiply every coefficient by a scalar."""
        if c.is_exact_zero:
            return LaurentSeries(self.p, self.nrel, {}, self.window,
                                 self.tail_free, self.base_floor)
        coeffs = {e: x * c for e, x in self.coeffs.items()}
        bf = self.base_floor
        if bf is not None:
            bf += c.valuation if c.unit is not None else c.val
            bf = int(bf)
        return LaurentSeries(self.p, self.nrel, coeffs, self.window,
                             self.tail_free, bf)

    def shift_val(self, m: int):
        """Multiply by p^m (exact)."""
        return self.scale(PadicNumber.from_rational(
            self.p, self.nrel, Fraction(self.p) ** m))

    def shift_exp(self, k: int, max_width=None):
        """Multiply by u^k (exact)."""
        coeffs = {e + k: c for e, c in self.coeffs.items()}
        window = (self.window[0] + k, self.window[1] + k)
        return LaurentSeries(self.p, self.nrel, coeffs, window,
                             self.tail_free, self.base_floor)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        self._check(other)
        return series_dot(((self, other),))

    def mul(self, other, max_width=None, out_window=None):
        return series_dot(((self, other),), max_width, out_window)

    # -- endomorphisms ------------------------------------------------------

    def frobenius(self, power=1, max_width=None):
        """Power-Frobenius: x u^e -> x u^(e*p), applied ``power`` times.

        Coefficients in Q_p are fixed by the canonical lift, so only the
        exponents move.
        """
        if power < 0:
            raise ValueError("frobenius power must be nonnegative")
        scale = self.p ** power
        if scale == 1 or not power:
            return self
        width = max_width or DEFAULT_MAX_WIDTH
        coeffs = {e * scale: c for e, c in self.coeffs.items()}
        window = (self.window[0] * scale, self.window[1] * scale)
        if coeffs:
            hull = (min(coeffs), max(coeffs))
            if hull[1] - hull[0] + 1 > width:
                raise WindowOverflow(
                    "frobenius image support exceeds the window cap")
            window = _clip_window(window, hull, width)
        else:
            window = _clip_window(window, (0, 0), width)
        return LaurentSeries(self.p, self.nrel, coeffs, window,
                             self.tail_free, self.base_floor)

    def derivative(self):
        """Termwise u-derivative: sum(j x_j u^(j-1))."""
        coeffs = {}
        for e, c in self.coeffs.items():
            if e == 0:
                continue
            j = PadicNumber.from_int(self.p, self.nrel, e)
            coeffs[e - 1] = c * j
        window = (self.window[0] - 1, self.window[1] - 1)
        return LaurentSeries(self.p, self.nrel, coeffs, window,
                             self.tail_free, self.base_floor)

    # -- inversion -----------------------------------------------------------

    def invert(self, target_window=None, max_width=None):
        """Multiplicative inverse on ``target_window`` at working precision.

        The reduction modulo p (after normalising by p^v and u^ord) must be
        invertible in k((t)); in a truncation this means some coefficient
        has valuation 0 after removing the p-power content.

        The computation runs on a window padded by (minus-depth)*(nrel+1)
        so that every neglected tail term has valuation beyond the working
        precision; the result is verified by multiplying back.
        """
        p, nrel = self.p, self.nrel
        vmin = self.valuation()
        if vmin is None:
            raise NotAUnit("series is zero at working precision")
        a1 = self.shift_val(-vmin)
        ordl = min(e for e, c in a1.coeffs.items()
                   if c.unit is not None and c.val == 0)
        c0 = a1.coeffs[ordl]
        cinv = PadicNumber.from_int(p, nrel, 1) / c0
        a3 = a1.shift_exp(-ordl).scale(cinv)     # 1 + g, constant term 1

        if target_window is None:
            target_window = self.window
        hull = self.support_hull
        span = hull[1] - hull[0]
        # compute on a window padded by the support span so the multiply-back
        # verification has a nonempty provable window around the target
        wide_target = (target_window[0] - span, target_window[1] + span)
        tw = (wide_target[0] + ordl, wide_target[1] + ordl)

        g_plus = {e: c for e, c in a3.coeffs.items()
                  if e > 0 and c.unit is not None}
        g_minus = {e: c for e, c in a3.coeffs.items()
                   if e < 0 and c.unit is not None}
        const = a3.coefficient(0) - PadicNumber.from_int(p, nrel, 1)
        if const.unit is not None:
            raise NotAUnit("normalised constant term is not 1")

        depth = -min(g_minus) if g_minus else 0
        pad = depth * (nrel + 1)
        wlo = min(tw[0], 0) - pad
        whi = max(tw[1], 0) + pad
        big_width = whi - wlo + 1 + depth + 8

        # one-sided inverse of (1 + g_plus) by the convolution recursion
        h = {0: PadicNumber.from_int(p, nrel, 1)}
        gp = sorted(g_plus.items())
        for k in range(1, whi + 1):
            pairs = [(gj, h[k - j]) for j, gj in gp if k - j in h]
            if pairs:
                acc = padic_dot(pairs)
                if not acc.is_exact_zero:
                    h[k] = -acc

        # internal polynomial surrogates; honesty is restored by the final
        # verification and the truncated window of the returned value
        hs = LaurentSeries(p, nrel, h, (wlo, whi), True, None)
        if g_minus:
            gm = LaurentSeries(p, nrel, g_minus,
                               (min(g_minus), max(g_minus)), True, None)
            total = hs
            term = hs
            for _ in range(nrel + 1):
                # polynomial surrogates on the working window: neglected
                # products carry valuation beyond nrel or sit outside tw
                term = series_dot(((gm, term),), big_width, (wlo, whi))
                term = series_dot(((term, hs),), big_width, (wlo, whi))
                term = -term.on_window((wlo, whi))
                if term.min_valuation() > nrel:
                    break
                total = total + term
            hfull = total
        else:
            hfull = hs
        hfull = hfull.restrict(tw)
        b = hfull.scale(cinv).shift_exp(-ordl).shift_val(-vmin)
        mv = b.min_valuation()
        floor = None if mv is INF else int(mv) + nrel
        b_wide = LaurentSeries(p, nrel, b.coeffs, wide_target, False, floor)
        residual = self.mul(b_wide, max_width) - LaurentSeries.one(
            p, nrel, window=wide_target)
        for e in sorted(residual.coeffs):
            if residual.coeffs[e].unit is not None:
                raise NotAUnit(
                    f"inverse failed to converge at exponent {e}; the input "
                    "is not a unit on this window at working precision")
        return b_wide.restrict(target_window)


def _clip_window(window, hull, width):
    lo, hi = window
    if hi - lo + 1 <= width:
        return window
    hlo, hhi = hull
    if hhi - hlo + 1 > width:
        raise WindowOverflow("populated exponents exceed the window cap")
    room = width - (hhi - hlo + 1)
    lo2 = max(lo, hlo - room // 2)
    hi2 = lo2 + width - 1
    if hi2 > hi:
        hi2 = hi
        lo2 = hi2 - width + 1
    return (lo2, hi2)


def _operand(s):
    """(support hull, integer terms) of s, computed once per series: the
    hull of the stored exponents ((0, 0) when there are none) and
    (exponent, unit * p^(val - min_val)) for each provably nonzero
    coefficient."""
    cached = s._ints
    if cached is None:
        coeffs = s.coeffs
        p, mv = s.p, s._min_val
        cached = s._ints = (
            (min(coeffs), max(coeffs)) if coeffs else (0, 0),
            [(e, c.unit * p ** (c.val - mv))
             for e, c in coeffs.items() if c.unit is not None])
    return cached


def _product_term(a, b, width, out_window):
    """Everything about ``a * b`` but its coefficients: (nrel, window,
    tail_free, floor, base, cell range, whole, integer terms of a and of
    b); floor and base are None for the exact zero.  The product is p^base
    times the integer convolution of the terms on the cell range, known
    modulo p^floor; ``whole`` when the window holds all of it."""
    nrel = min(a.nrel, b.nrel)
    mva, mvb = a._min_val, b._min_val
    ha, raw_a = _operand(a)
    hb, raw_b = _operand(b)
    if mva is None or mvb is None:
        # only the exact zero has no (min valuation, abs floor)
        window = _clamp(_window_of_product(a, b, ha, hb, width, (0, 0)),
                        out_window)
        return (nrel, window, True, None, None, 1, 0, True, (), ())
    floor = min(a._abs_floor + mvb, b._abs_floor + mva)
    full = (ha[0] + hb[0], ha[1] + hb[1])
    hull = full
    if out_window is not None:
        hull = (max(hull[0], out_window[0]), min(hull[1], out_window[1]))
        if hull[0] > hull[1]:
            hull = (out_window[0], out_window[0])
    window = _clamp(_window_of_product(a, b, ha, hb, width, hull), out_window)
    lo, hi = window
    whole = lo <= full[0] and full[1] <= hi
    return (nrel, window, a.tail_free and b.tail_free and whole, floor,
            mva + mvb, max(lo, full[0]), min(hi, full[1]), whole,
            raw_a, raw_b)


def _clamp(window, out_window):
    if out_window is None:
        return window
    lo = max(window[0], out_window[0])
    hi = min(window[1], out_window[1])
    if lo > hi:
        raise WindowOverflow("requested output window is not provable")
    return (lo, hi)


def _valuation(cell, p, base, floor):
    """Valuation of p^base * cell known modulo p^floor; None when it is
    zero there."""
    r = cell % p ** (floor - base)
    return None if r == 0 else base + vp_int(r, p)


def _first_kept(exponents, acc, glo, low, bf, p, base):
    """The first exponent at which a running sum keeps a coefficient (its
    cell in ``acc`` is nonzero, or zero below the uniform floor bf), or
    None."""
    for e in exponents:
        f = min(bf, low.get(e, bf))
        if f < bf or _valuation(acc[e - glo], p, base, f) is not None:
            return e
    return None


def series_dot(pairs, max_width=None, out_window=None):
    """Sum of the products ``a.mul(b, max_width, out_window)`` over
    ``pairs``: the series that folding ``+`` over them left to right gives.

    Every cell is one integer over the smallest base valuation of the
    products, normalised once at the end.  The fold is replayed step by
    step on those integers only where it depends on order: a sum of
    tail-free series widens its window to the keys that survive the
    step's floor, and a step that lowers nrel caps each cell at its
    valuation + nrel.  Everything else is order-free: a sum of products
    is the canonical form of the exact sum modulo p^(smallest floor).
    """
    width = max_width or DEFAULT_MAX_WIDTH
    terms = []
    p = base = glo = ghi = None
    for a, b in pairs:
        if p is None:
            p = a.p
        elif a.p != p:
            raise ValueError("mixed primes")
        term = _product_term(a, b, width, out_window)
        terms.append(term)
        tbase, clo, chi = term[4:7]
        if tbase is not None and (base is None or tbase < base):
            base = tbase
        if clo <= chi:
            glo = clo if glo is None or clo < glo else glo
            ghi = chi if ghi is None or chi > ghi else ghi
    if p is None:
        raise ValueError("empty dot product")
    if glo is None:
        glo = ghi = 0       # no product has a cell
    acc = [0] * (ghi - glo + 1)
    low = {}                # cells whose floor is below the uniform floor
    nrel = lo = hi = tail_free = bf = None
    alo, ahi = 0, -1        # cell range of the running sum

    for n, window, tf, f, tbase, clo, chi, whole, raw_a, raw_b in terms:
        keys = []           # surviving keys outside the window, when tf
        if nrel is None:
            nrel, (lo, hi), tail_free = n, window, tf
        else:
            lo, hi = max(lo, window[0]), min(hi, window[1])
            tail_free = tail_free and tf
            if n < nrel and bf is not None:
                # the running sum is capped at n relative digits
                for e in range(alo, ahi + 1):
                    fe = min(bf, low.get(e, bf))
                    v = _valuation(acc[e - glo], p, base, fe)
                    if v is not None and v + n < fe:
                        low[e] = v + n
            nrel = min(nrel, n)
            if tail_free:
                ends = (range(alo, min(ahi + 1, lo)),
                        range(ahi, max(alo - 1, hi), -1))
                keys = [e for e in (_first_kept(es, acc, glo, low, bf, p,
                                                base) for es in ends)
                        if e is not None]
        if f is not None:
            capped = f - tbase > nrel
            widens = tail_free and (clo < lo or chi > hi)
            # integer convolution over the cell range, relative to base;
            # into its own cells when they must be looked at first
            own = capped or widens
            out, off = ([0] * (chi - clo + 1), clo) if own else (acc, glo)
            shift = p ** (tbase - base)
            for ea, ra in raw_a:
                ra *= shift
                if whole:
                    ea -= off
                    for eb, rb in raw_b:
                        out[ea + eb] += ra * rb
                    continue
                for eb, rb in raw_b:
                    k = ea + eb
                    if clo <= k <= chi:
                        out[k - off] += ra * rb
            if widens:
                keys += [e for e in range(clo, chi + 1)
                         if (e < lo or e > hi)
                         and _valuation(out[e - clo], p, base, f) is not None]
            if capped:
                # a cell of this product keeps at most nrel relative digits
                for e in range(clo, chi + 1):
                    v = _valuation(out[e - clo], p, base, f)
                    if v is not None and v + nrel < f:
                        low[e] = min(low.get(e, f), v + nrel)
            if own:
                for k, c in enumerate(out, clo - glo):
                    acc[k] += c
        if keys:
            lo, hi = min(lo, *keys), max(hi, *keys)
        if lo > hi:
            raise WindowOverflow("empty exponent window")
        if f is not None:
            if clo <= chi:
                alo, ahi = ((clo, chi) if alo > ahi
                            else (min(alo, clo), max(ahi, chi)))
            bf = f if bf is None else min(bf, f)

    coeffs = {}
    top = None if bf is None else p ** (bf - base)
    for e in range(max(alo, lo), min(ahi, hi) + 1):
        fe = min(bf, low.get(e, bf)) if low else bf
        cell = acc[e - glo]
        if cell % (top if fe == bf else p ** (fe - base)):
            coeffs[e] = PadicNumber._at_floor(p, nrel, base, cell, fe)
        elif fe < bf:
            coeffs[e] = PadicNumber.inexact_zero(p, nrel, fe)
    return LaurentSeries(p, nrel, coeffs, (lo, hi), tail_free, bf)


def _window_of_product(a, b, ha, hb, width, hull):
    """Provable window of a * b, given the operands' support hulls."""
    ifa = a.tail_free
    ifb = b.tail_free
    if ifa and ifb:
        window = (a.window[0] + b.window[0], a.window[1] + b.window[1])
        return _clip_window(window, hull, width)
    los, his = [], []
    if not ifa:
        los.append(a.window[0] + hb[1])
        his.append(a.window[1] + hb[0])
    if not ifb:
        los.append(b.window[0] + ha[1])
        his.append(b.window[1] + ha[0])
    lo, hi = max(los), min(his)
    if lo > hi:
        raise WindowOverflow("provable window of product is empty")
    return _clip_window((lo, hi), hull, width)


# ---------------------------------------------------------------------------
# Spec-level operation names.
# ---------------------------------------------------------------------------


def series_invert(a, target_window=None, max_width=None):
    return a.invert(target_window, max_width)


def sigma_apply(a, power=1, max_width=None):
    return a.frobenius(power, max_width)


@dataclass(frozen=True)
class OneForm:
    """A 1-form g(u) du."""
    coefficient: LaurentSeries


def derivation_d(a: LaurentSeries) -> OneForm:
    return OneForm(a.derivative())


def d_sigma(w: OneForm, q: int) -> OneForm:
    """Twisted differential: g du -> sigma(g) * q * u^(q-1) du."""
    s = w.coefficient
    fpow = log_p(q, s.p)
    g = s.frobenius(fpow)
    qc = PadicNumber.from_int(s.p, s.nrel, q)
    return OneForm(g.scale(qc).shift_exp(q - 1))


def log_p(q, p):
    """f with q = p^f, f >= 1."""
    f = 0
    qq = q
    while qq > 1:
        if qq % p:
            raise ValueError(f"q={q} is not a power of p={p}")
        qq //= p
        f += 1
    if f == 0:
        raise ValueError("q must be at least p")
    return f


# ---------------------------------------------------------------------------
# Membership (refutation-only).
# ---------------------------------------------------------------------------


def membership(a: LaurentSeries, label: RingLabel) -> MembershipResult:
    """Check stored coefficients against the label's defining conditions.

    Only provably nonzero coefficients can refute; truncation cannot prove
    membership, so Consistent means consistent-on-the-visible-window.
    """
    kind = label.kind
    for e in sorted(a.coeffs):
        c = a.coeffs[e]
        if c.unit is None:
            continue
        v = Fraction(c.val)
        if kind == GAMMA_PLUS:
            if e < 0 or v < 0:
                return MembershipResult(False, e)
        elif kind == GAMMA:
            if v < 0:
                return MembershipResult(False, e)
        elif kind == GAMMA_DAGGER:
            if v < 0:
                return MembershipResult(False, e)
            if e < 0 and v < label.lam * (-e) - label.c:
                return MembershipResult(False, e)
        elif kind == E_PLUS:
            if e < 0:
                return MembershipResult(False, e)
        elif kind == E:
            pass
        elif kind == E_DAGGER:
            if e < 0 and v < label.lam * (-e) - label.c:
                return MembershipResult(False, e)
        elif kind == R_PLUS:
            if e < 0:
                return MembershipResult(False, e)
        elif kind == R:
            if e < 0 and v < label.lam * (-e) - label.c:
                return MembershipResult(False, e)
    return MembershipResult(True)


def require_membership(a, label, what="entry"):
    res = membership(a, label)
    if not res:
        raise MembershipViolated(
            f"{what} violates {label.kind} at exponent {res.witness}",
            entry=what, exponent=res.witness)


# ---------------------------------------------------------------------------
# Comparison at precision.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementVerdict:
    """Outcome of comparing two series on their common window."""
    holds: bool
    floor: Optional[int]          # decided modulo p^floor (None = exact)
    window: tuple
    witness: Optional[int] = None         # first discrepant exponent
    residual_valuation: Optional[int] = None
    position: Optional[tuple] = None      # failing entry of a matrix


def series_agree(a: LaurentSeries, b: LaurentSeries) -> AgreementVerdict:
    d = a - b
    window = d.window
    floor = d.abs_floor()
    floor = None if floor is INF else int(floor)
    for e in sorted(d.coeffs):
        c = d.coeffs[e]
        if c.unit is not None:
            return AgreementVerdict(False, floor, window, e, c.val)
    return AgreementVerdict(True, floor, window)
