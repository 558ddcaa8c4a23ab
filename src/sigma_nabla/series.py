"""Truncated bidirectional Laurent series over Q_p with ring-membership
labels, the power-Frobenius endomorphism and the derivative.

Representation
--------------
A series stores its coefficients as integers, after FLINT's ``padic_poly``
(valuation, integer polynomial, precision), with a floor per cell:

* ``base`` and ``terms``: the cell at exponent e is p^base * terms[e]; a
  nonzero entry is the residue of the value in [0, p^(floor - base)), and
  0 is an inexact zero O(p^floor).  An exact zero is not stored, and base
  is at most every floor.
* ``floors``: the absolute floor of every cell that is not at the default
  min(base_floor, valuation + nrel), i.e. every inexact zero and each cell
  known to fewer digits.
* a window ``[lo, hi]`` and two honesty markers.  ``tail_free``: True when
  the series is a genuine Laurent polynomial (no support outside the
  stored terms); inverses and other truncated results carry
  ``tail_free=False`` and make no claim outside the window.
  ``base_floor``: absent exponents inside the window are zero modulo
  p^base_floor (``None`` means exactly zero).  Every coefficient, in the
  window or not, has valuation at least ``min_valuation()``: the product
  floor relies on it.

One constructor, ``LaurentSeries(p, nrel, base, terms, floors, window,
tail_free, base_floor)``, takes this form as it is, and one normaliser,
``_settle``, writes it from cells (exponent, integer over p^base, floor,
valuation when known); sums and products are settled by the kernel's
closing pass.
``from_cells`` settles the (val, unit, prec) cells that ``cell`` and
``cells`` give.  ``PadicNumber`` is the boundary type: ``from_terms``
reads it, and ``coefficient``, ``items`` and the read-only ``coeffs``
view build one per cell when asked.

Windows behave as regions of faithfulness: addition intersects them (but
for the tail-free exact zero, the identity of every sum: ``kernel``),
multiplication uses the convolution-correct window (the full Minkowski
sum for polynomial operands, shrunk by the partner's support radius when
an operand is a truncation).  A product given an output window is exact
on it; every other product, the Frobenius image and a default window are
capped at ``kernel.MAX_WIDTH`` = 256 exponents, and ``WindowOverflow``
signals that genuinely populated exponents no longer fit.

Cost: every sum and product goes through the one integer kernel of
``sigma_nabla.kernel``.  ``series_sum`` sums series and products of series
(a Neumann series; ``a + b`` is the two-term case), and ``series_dot``
names it for a sum of products only (a matrix entry, a cofactor
expansion; ``a * b`` is the one-pair case).  The kernel convolves the
operands' integer cells over each product's support hull, clipped to the
output window, adds every term into one integer per exponent over a
common base valuation, and reduces each cell once at the end: no partial
sum and no ``PadicNumber`` is built.  ``invert``'s power-series
recursion sums each coefficient with ``padic.cell_dot``, on cells.
Negation, scaling, the shifts, the Frobenius and the derivative rewrite
the integers and exponents.  A series computes its (valuation, min
valuation, abs floor, support hull) once, when first asked: the valuation
is base + v_p of the gcd of its cells; and the integer its cells are
packed into, once per slot width, at its first dense product.  A series
is never mutated after construction.

Ring membership for the eight series rings is refutation-only: a finite
truncation can contradict a growth condition but never prove it, so checks
return Consistent / Violated(witness) rather than yes/no.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Optional

from .errors import MembershipViolated, NotAUnit, WindowOverflow
from .kernel import MAX_WIDTH, ZERO_WINDOW, accumulate, clip_window, \
    product_term, series_term
from .padic import INF, PadicNumber, cell_dot, powers, vp_int


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


class LaurentSeries:
    __slots__ = ("p", "nrel", "window", "tail_free", "base_floor", "base",
                 "terms", "floors", "_stats", "_packs")

    def __init__(self, p, nrel, base, terms, floors, window, tail_free,
                 base_floor):
        """The series of the module docstring's integer form, as it is."""
        if window[0] > window[1]:
            raise WindowOverflow("empty exponent window")
        self.p = p
        self.nrel = nrel
        self.base = base
        self.terms = terms
        self.floors = floors
        self.window = window
        self.tail_free = tail_free
        self.base_floor = base_floor
        self._stats = None
        self._packs = None      # made at the first dense product

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_cells(cls, p, nrel, cells, window, tail_free, base_floor):
        """The series with cells ``{e: (val, unit, prec)}``, each read as
        ``PadicNumber._make`` reads it: val None is an exact zero, unit
        None the inexact zero O(p^val), else p^val * unit known to
        min(prec, nrel) relative digits.  Cells outside ``window`` are
        dropped, and the series is then no longer tail-free; ``_settle``
        cuts every cell at p^base_floor."""
        lo, hi = window = (int(window[0]), int(window[1]))
        if cells and (min(cells) < lo or max(cells) > hi):
            cells = {e: c for e, c in cells.items() if lo <= e <= hi}
            tail_free = False
        base = min((c[0] for c in cells.values() if c[0] is not None),
                   default=0)
        # (e, raw, floor, valuation) with p^base * raw known modulo p^floor
        raws = [(e, 0, v, None) if unit is None else
                (e, unit * p ** (v - base),
                 v + (prec if prec < nrel else nrel) if prec > 0 else v,
                 v if unit % p else None)
                for e, (v, unit, prec) in cells.items() if v is not None]
        return cls(p, nrel, base, *_settle(p, nrel, base, raws, base_floor),
                   window, tail_free, base_floor)

    @classmethod
    def from_terms(cls, p, nrel, terms, window=None):
        """Laurent polynomial from (exponent, value) pairs; values may be
        ints, Fractions or PadicNumbers.  The default window is
        ``MAX_WIDTH`` exponents around the terms and 0."""
        items = terms.items() if isinstance(terms, dict) else terms
        cells = {}
        for e, v in items:
            if not isinstance(v, PadicNumber):
                v = PadicNumber.from_rational(p, nrel, v)
            if not v.is_exact_zero:
                cells[int(e)] = (v.val, v.unit, v.prec)
        if window is None:
            keys = [0, *cells]
            window = clip_window((-INF, INF), (min(keys), max(keys)),
                                 MAX_WIDTH)
        return cls.from_cells(p, nrel, cells, window, True, None)

    @classmethod
    def zero(cls, p, nrel, window=None):
        """The tail-free exact zero on ``window`` (default ``ZERO_WINDOW``),
        written as ``from_terms`` settles it."""
        window = ZERO_WINDOW if window is None else (int(window[0]),
                                                      int(window[1]))
        return cls(p, nrel, 0, {}, {}, window, True, None)

    @classmethod
    def one(cls, p, nrel, window=None):
        """1 on ``window`` (default ``ZERO_WINDOW``), nrel >= 1, written as
        ``from_terms`` settles it: on a window without 0 the empty series,
        which is not tail-free."""
        window = ZERO_WINDOW if window is None else (int(window[0]),
                                                      int(window[1]))
        terms = {0: 1} if window[0] <= 0 <= window[1] else {}
        return cls(p, nrel, 0, terms, {}, window, bool(terms), None)

    @classmethod
    def monomial(cls, p, nrel, value, exponent):
        return cls.from_terms(p, nrel, [(exponent, value)])

    # -- structural helpers ----------------------------------------------

    def summary(self):
        """(valuation, min valuation, abs floor, support hull, nonzero
        cells), computed once: the valuation is base + v_p of the gcd of
        the cells; the nonzero cells are the items of ``terms`` when no
        cell is an inexact zero."""
        stats = self._stats
        if stats is None:
            terms, bf = self.terms, self.base_floor
            g = gcd(*terms.values())
            val = None
            mv = af = INF if bf is None else bf
            if g:
                val = self.base + vp_int(g, self.p) if not g % self.p \
                    else self.base
                if val < mv:
                    mv = val
                if val + self.nrel < af:
                    af = val + self.nrel
            zeros = False
            for e, f in self.floors.items():
                if f < af:
                    af = f
                if not terms[e]:
                    zeros = True
                    if f < mv:
                        mv = f
            stats = self._stats = (
                val, mv, af, (min(terms), max(terms)) if terms else None,
                [(e, r) for e, r in terms.items() if r] if zeros
                else terms.items())
        return stats

    @property
    def coeffs(self):
        """The stored cells as a read-only {exponent: PadicNumber} map."""
        return MappingProxyType(dict(self.items()))

    @property
    def support_hull(self):
        return self.summary()[3]

    @property
    def is_zero_at_precision(self):
        return self.valuation() is None

    @property
    def is_exact_zero(self):
        return not self.terms and self.base_floor is None

    def valuation(self):
        """Smallest valuation of a provably nonzero coefficient; None when
        the series is zero at working precision."""
        return self.summary()[0]

    def min_valuation(self):
        """Smallest coefficient valuation floor; INF for the exact zero."""
        return self.summary()[1]

    def abs_floor(self):
        """Everything in the window is known modulo p^abs_floor."""
        return self.summary()[2]

    def _cell(self, e):
        """(val, unit, prec) of the stored cell e: p^val * unit known to
        prec relative digits, or for an inexact zero O(p^val), unit and
        prec None."""
        p, raw, f = self.p, self.terms[e], self.floors.get(e)
        if not raw:
            return f, None, None
        t = vp_int(raw, p)
        v = self.base + t
        if f is None:
            f = v + self.nrel
            if self.base_floor is not None and self.base_floor < f:
                f = self.base_floor
        return v, raw // p ** t, f - v

    def cells(self):
        """The stored cells in exponent order, as (e, val, unit, prec)."""
        return [(e, *self._cell(e)) for e in sorted(self.terms)]

    def cell(self, e):
        """The coefficient at e as a cell (val, unit, prec): a stored cell,
        O(p^base_floor) in the window, else the exact zero (None, None,
        None)."""
        if e in self.terms:
            return self._cell(e)
        lo, hi = self.window
        if self.base_floor is not None and lo <= e <= hi:
            return self.base_floor, None, None
        return None, None, None

    def coefficient(self, e):
        return PadicNumber.from_cell(self.p, self.nrel, self.cell(e))

    def items(self):
        return [(e, PadicNumber.from_cell(self.p, self.nrel, self._cell(e)))
                for e in sorted(self.terms)]

    def low_floors(self):
        """{e: abs floor} of the stored cells known below the base floor:
        every cell when there is none."""
        bf, floors = self.base_floor, self.floors
        if bf is not None and self.base + self.nrel >= bf:
            return floors
        p, top = self.p, INF if bf is None else bf
        out = dict(floors)
        for e, raw in self.terms.items():
            if e not in floors:
                f = self.base + self.nrel + (vp_int(raw, p) if not raw % p
                                             else 0)
                if f < top:
                    out[e] = f
        return out

    def recast(self, window, tail_free, base_floor, keep=None):
        """The stored cells (those where ``keep(e, raw)`` holds, when
        given), each with its own floor, on ``window``, cut at
        p^base_floor."""
        low, bf, terms = self.low_floors(), self.base_floor, self.terms
        cells = [(e, raw, low.get(e, bf), None) for e, raw in terms.items()
                 if keep is None or keep(e, raw)]
        lo, hi = window
        inside = [c for c in cells if lo <= c[0] <= hi]
        return LaurentSeries(self.p, self.nrel, self.base,
                             *_settle(self.p, self.nrel, self.base, inside,
                                      base_floor),
                             window, tail_free and len(inside) == len(cells),
                             base_floor)

    def restrict(self, window):
        lo = max(window[0], self.window[0])
        hi = min(window[1], self.window[1])
        return self.on_window((lo, hi), self.tail_free)

    def on_window(self, window, tail_free=True):
        """The same terms and base floor on ``window``.  With ``tail_free``
        this is a polynomial surrogate, which products treat as known
        everywhere: the working-window idiom computes on surrogates over a
        padded window, then restores honest windows and floors
        (``linalg.smat_honest``)."""
        lo, hi = window
        terms = self.terms
        if terms and (min(terms) < lo or max(terms) > hi):
            terms = {e: r for e, r in terms.items() if lo <= e <= hi}
            floors = {e: f for e, f in self.floors.items() if lo <= e <= hi}
            return LaurentSeries(self.p, self.nrel, self.base, terms, floors,
                                 (lo, hi), False, self.base_floor)
        s = LaurentSeries(self.p, self.nrel, self.base, terms, self.floors,
                          (lo, hi), tail_free, self.base_floor)
        s._stats = self._stats
        return s

    def widen_floor(self, floor):
        """Weaken the series to be known only modulo p^floor."""
        if floor is None:
            return self
        bf = floor if self.base_floor is None else min(self.base_floor, floor)
        return self.recast(self.window, self.tail_free, bf)

    def __repr__(self):
        terms = ", ".join(f"u^{e}: {c!r}" for e, c in self.items())
        tail = "" if self.tail_free else ", truncated"
        fl = "" if self.base_floor is None else f", O(p^{self.base_floor})"
        return f"LaurentSeries[{self.window}]({terms}{fl}{tail})"

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        p, base, bf = self.p, self.base, self.base_floor
        low = self.low_floors()
        terms = {e: -raw % p ** (low.get(e, bf) - base) if raw else 0
                 for e, raw in self.terms.items()}
        return LaurentSeries(p, self.nrel, base, terms, self.floors,
                             self.window, self.tail_free, bf)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other.  The tail-free exact zero is the identity of
        every kernel fold: adding it returns the other side, and such a
        sum, about a third of a module-cli pass's, skips the kernel."""
        x, zero = (self, other) if other.is_exact_zero else (other, self)
        if not (zero.is_exact_zero and zero.tail_free and x.p == zero.p):
            return LaurentSeries(*accumulate((series_term(self, 1),
                                              series_term(other, sign))))
        return -x if x is other and sign < 0 else x

    def scale(self, c: PadicNumber):
        """Multiply every coefficient by a scalar."""
        p, nrel, base, bf = self.p, self.nrel, self.base, self.base_floor
        if c.is_exact_zero:
            return LaurentSeries(p, nrel, base, {}, {}, self.window,
                                 self.tail_free, bf)
        low = self.low_floors()
        shift = c.val
        if bf is not None:
            bf += shift
        if c.unit is None:
            # O(p^k) * p^v unit is O(p^(v + k)), O(p^k) * O(p^f) O(p^(f + k))
            cells = [(e, 0, (base + vp_int(raw, p) if raw else low[e]) + shift,
                      None) for e, raw in self.terms.items()]
            cap = nrel
        else:
            unit = c.unit
            cells = [(e, raw * unit, low.get(e, self.base_floor) + shift,
                      None) for e, raw in self.terms.items()]
            cap = min(c.prec, nrel)
        return LaurentSeries(p, nrel, base + shift,
                             *_settle(p, nrel, base + shift, cells, bf, cap),
                             self.window, self.tail_free, bf)

    def shift_val(self, m: int):
        """Multiply by p^m (exact), carrying a computed summary over: its
        valuations and floors move by m, its hull and cells stay."""
        bf = self.base_floor
        s = LaurentSeries(self.p, self.nrel, self.base + m, self.terms,
                          {e: f + m for e, f in self.floors.items()},
                          self.window, self.tail_free,
                          None if bf is None else bf + m)
        if self._stats is not None:
            val, mv, af, hull, cells = self._stats
            s._stats = (None if val is None else val + m,
                        mv if mv is INF else mv + m,
                        af if af is INF else af + m, hull, cells)
        return s

    def shift_exp(self, k: int):
        """Multiply by u^k (exact)."""
        return self._reindex(lambda e: e + k, (self.window[0] + k,
                                               self.window[1] + k))

    def _reindex(self, move, window):
        """The same cells at exponents ``move(e)``, on ``window``."""
        return LaurentSeries(self.p, self.nrel, self.base,
                             {move(e): r for e, r in self.terms.items()},
                             {move(e): f for e, f in self.floors.items()},
                             window, self.tail_free, self.base_floor)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return series_dot(((self, other),))

    def mul(self, other, out_window=None):
        return series_dot(((self, other),), out_window)

    # -- endomorphisms ------------------------------------------------------

    def frobenius(self, power=1):
        """Power-Frobenius: x u^e -> x u^(e*p), applied ``power`` times.

        Coefficients in Q_p are fixed by the canonical lift, so only the
        exponents move.
        """
        if power < 0:
            raise ValueError("frobenius power must be nonnegative")
        scale = self.p ** power
        if scale == 1 or not power:
            return self
        window = (self.window[0] * scale, self.window[1] * scale)
        hull = self.support_hull or (0, 0)
        window = clip_window(window, (hull[0] * scale, hull[1] * scale),
                             MAX_WIDTH)
        return self._reindex(lambda e: e * scale, window)

    def derivative(self):
        """Termwise u-derivative: sum(j x_j u^(j-1))."""
        p, bf = self.p, self.base_floor
        low = self.low_floors()
        cells = [(e - 1, raw * e, low.get(e, bf) + vp_int(e, p), None)
                 for e, raw in self.terms.items() if e]
        window = (self.window[0] - 1, self.window[1] - 1)
        return LaurentSeries(p, self.nrel, self.base,
                             *_settle(p, self.nrel, self.base, cells, bf),
                             window, self.tail_free, bf)

    # -- inversion -----------------------------------------------------------

    def invert(self, target_window=None):
        """Multiplicative inverse on ``target_window`` at working precision.

        The reduction modulo p (after normalising by p^v and u^ord) must be
        invertible in k((t)); in a truncation this means some coefficient
        has valuation 0 after removing the p-power content.

        After normalising to 1 + g, every term g_e u^e with e < 0 has
        valuation v_e >= 1; r = min v_e/|e| is its decay rate.  With h the
        inverse of 1 + g_plus and x = -g_minus h, the inverse is the
        Neumann sum h * sum_j x^j.  Its partial sum over j < 2^k is the
        product h (1 + x)(1 + x^2)...(1 + x^(2^(k-1))): k squarings of x,
        each followed by one partial product r + r x^(2^i), until the
        square x^(2^k) has min valuation above nrel, at most
        ceil(log2(nrel + 1)) + 1 squarings.  x is integral, so every x^j
        with j >= 2^k lies beyond the working precision.  Each square and
        partial product is computed on the working window, the target
        padded by ``pad`` on both sides.  A contribution it drops is still
        a product of minus terms, plus terms and h: it left the window
        below, so the minus terms already in it sum past -pad, or above,
        so the minus terms that bring it back to the target do.  Either
        way it has valuation at least r * pad, and a pad of
        ceil((nrel + 1)/r) (at most the depth * (nrel + 1) that r >=
        1/depth gives) puts it beyond the working precision.  The result
        is verified by multiplying it back onto the input's stored terms,
        exactly on the padded target, so the check's window does not
        shrink as more digits widen the inverse's support.

        h is computed only modulo p^nrel: g is integral, so a cell of h of
        valuation >= nrel changes no later cell below p^nrel.  x and the
        closing product r h each multiply h by an integral series, so a
        dropped cell lands at valuation >= nrel + mv(partner), at or above
        that product's floor, and the squares and partial products carry
        x's floor on; the returned floor is at most nrel - vmin, and the
        multiply-back check still verifies the result.
        """
        p, nrel = self.p, self.nrel
        vmin = self.valuation()
        if vmin is None:
            raise NotAUnit("series is zero at working precision")
        a1 = self.shift_val(-vmin)
        # a cell of valuation 0 is p^-base times a unit
        unit_cells = {e for e, raw in a1.terms.items()
                      if raw and a1.base + vp_int(raw, p) == 0}
        ordl = min(unit_cells)
        c0 = a1.coefficient(ordl)
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

        if (a3.coefficient(0) - PadicNumber.from_int(p, nrel, 1)).unit \
                is not None:
            raise NotAUnit("normalised constant term is not 1")
        g = [cell for cell in a3.cells() if cell[2] is not None]
        minus = {e: v for e, v, _, _ in g if e < 0}
        pad = max((-((nrel + 1) * e // v) for e, v in minus.items()),
                  default=0)
        w = (min(tw[0], 0) - pad, max(tw[1], 0) + pad)    # working window

        # one-sided inverse of (1 + g_plus) modulo p^nrel by the convolution
        # recursion, each h[k] = sum (-g_j) h[k-j] as one cell_dot; g_plus
        # is integral, so a cell of valuation >= nrel moves no later cell
        # below p^nrel; once k is past the last stored h[k] by more than
        # g_plus's top exponent, no later h[k] has a term
        gp = [(e, (v, -unit, prec)) for e, v, unit, prec in g if e > 0]
        reach = gp[-1][0] if gp else 0
        h = {0: (0, 1, nrel)}
        last = 0
        for k in range(1, w[1] + 1):
            if k - last > reach:
                break
            pairs = [(x, h[k - j]) for j, x in gp if k - j in h]
            if pairs:
                c = cell_dot(p, nrel, pairs)
                if c[0] is not None and c[0] < nrel:
                    h[k] = c
                    last = k

        # internal polynomial surrogates; honesty is restored by the final
        # verification and the truncated window of the returned value
        hs = LaurentSeries.from_cells(p, nrel, h, w, True, nrel)
        hfull = hs
        if minus:
            gm = a3.recast((min(minus), max(minus)), True, None,
                           lambda e, raw: e < 0 and raw)
            # the Neumann sum h * sum_j x^j, x = -g_minus h, as the product
            # h * (1 + x)(1 + x^2)(1 + x^4)...; each square and partial
            # product is a polynomial surrogate on the working window: one
            # cut at the window's ends is re-wrapped, or the next one's
            # provable window would shrink by its partner's support
            x = -series_dot(((gm, hs),), w).on_window(w)
            r = LaurentSeries.one(p, nrel, w) + x
            for _ in range(nrel.bit_length() + 1):  # ceil(log2(nrel+1)) + 1
                x = series_dot(((x, x),), w).on_window(w)
                if x.min_valuation() > nrel:
                    break
                r = series_sum((r, (r, x)), w).on_window(w)
            hfull = series_dot(((r, hs),), w)
        hfull = hfull.restrict(tw)
        b = hfull.scale(cinv).shift_exp(-ordl).shift_val(-vmin)
        # the normalised inverse is known to nrel digits; an error of
        # valuation >= abs_floor in the input moves 1/x by -dx / x^2, of
        # valuation >= abs_floor - 2 vmin
        floor = int(min(b.min_valuation() + nrel, nrel - vmin,
                        self.abs_floor() - 2 * vmin))
        b_wide = b.recast(wide_target, False, floor)
        residual = self.on_window(self.window).mul(b_wide, wide_target) - \
            LaurentSeries.one(p, nrel, window=wide_target)
        for e in sorted(residual.terms):
            if residual.terms[e]:
                raise NotAUnit(
                    f"inverse failed to converge at exponent {e}; the input "
                    "is not a unit on this window at working precision")
        return b_wide.restrict(target_window)


def _settle(p, nrel, base, cells, bf, cap=None):
    """Canonical (terms, floors) of ``cells``, tuples (e, raw, floor, val)
    with p^base * raw known modulo p^floor (INF: exactly), to at most
    ``cap`` (default nrel) relative digits; val is the valuation of p^base
    * raw when the caller knows it (a document states it), else None, and
    v_p is taken here.  Each cell is cut at p^bf; an exact zero, and a
    zero at or beyond bf, is dropped.  A nonzero cell keeps its residue in
    [0, p^(floor - base)), and ``floors`` holds the floor of every cell
    that is not min(bf, valuation + nrel): every zero, and each cell known
    to fewer digits."""
    cap = nrel if cap is None else cap
    top = INF if bf is None else bf
    power = powers(p)
    terms, floors = {}, {}
    for e, raw, f, v in cells:
        if raw:
            if v is None:
                v = base + vp_int(raw, p) if not raw % p else base
            if v + cap < f:
                f = v + cap
            if top < f:
                f = top
            if f > v:
                terms[e] = raw % power[f - base]
                if f < v + nrel and f < top:
                    floors[e] = f
                continue
        elif top < f:
            f = top
        if f < top:
            terms[e] = 0
            floors[e] = f
    return terms, floors


def kernel_terms(terms, out_window=None, minus=None):
    """The kernel terms of ``series_sum(terms, out_window, minus)``: a pair
    of series is passed to ``kernel.product_term`` as it is."""
    kterms = []
    try:
        for t in terms:
            kterms.append(product_term(t, out_window)
                          if isinstance(t, tuple) else series_term(t, 1))
    except WindowOverflow:
        # the fold forms each product at its own step, so its steps
        # before the first product that overflows raise first
        if kterms:
            accumulate(kterms)
        raise
    if minus is not None:
        kterms.append(series_term(minus, -1))
    return kterms


def series_sum(terms, out_window=None, minus=None):
    """The series that folding ``+`` over ``terms`` left to right gives:
    each term a series, or a pair (a, b) that stands for ``a.mul(b,
    out_window)``; then ``- minus``, when given, as the fold's last
    step."""
    return LaurentSeries(*accumulate(kernel_terms(terms, out_window, minus)))


# a sum of products ``a.mul(b, out_window)`` of pairs (a, b)
series_dot = series_sum


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
    reach = _REACH[label.kind]
    integral = GAMMA in reach                # valuations >= 0
    plus = R_PLUS in reach                   # no negative exponents
    dagger = label.kind in _DAGGER_KINDS     # v >= lam * (-e) - c, e < 0
    for e, v, unit, _ in a.cells():
        if unit is None:
            continue
        if ((integral and v < 0) or (e < 0 and (
                plus or (dagger and v < label.lam * (-e) - label.c)))):
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

    def __bool__(self):
        return self.holds


def residual_verdict(d: LaurentSeries) -> AgreementVerdict:
    """The verdict on d = a - b; on failure its first nonzero cell."""
    window = d.window
    floor = d.abs_floor()
    floor = None if floor is INF else int(floor)
    for e in sorted(d.terms):
        raw = d.terms[e]
        if raw:
            return AgreementVerdict(False, floor, window, e,
                                    d.base + vp_int(raw, d.p))
    return AgreementVerdict(True, floor, window)
