"""The one integer kernel behind every sum and product of Laurent series.

``accumulate`` replays the left fold of ``+`` over terms that are products
of two series (``product_term``) or series (``series_term``), on
integers: each cell is one integer over a common base valuation,
normalised once at the end, and only the steps of the fold that depend on
order (a window that widens to surviving keys, a lower nrel capping the
running sum) are replayed.  It reads a series' integer form (``base``,
``terms``, ``floors``, window, ``tail_free``, ``base_floor`` and its
summary) and returns one, which ``series`` wraps; or, for the residual
of an agreement check, only its verdict, read from the folded integers,
so that a residual that holds is never built as a series.  A product
reads its two series as they are: their fields and the summary each
computes once.  The tail-free exact zero is the identity of every fold
(``accumulate`` drops it, keeping one when all terms are) and zero times
anything; a truncated exact zero, and a product with it, are zero on
their windows only.  A product s * c with an exact constant c = p^m *
unit (``constant_term``) is s weighted by the unit and moved by p^m, on
the product's window, each cell at its own floor moved by m: a series
term, not a product.

A term is a tuple (p, nrel, window, tail_free, floor, base, digits, lo, hi,
whole, cells, factor, low, dense): the series p^base * (cells convolved
with factor), both sequences of (exponent, integer), or for a series its
cells times the integer weight ``factor``, on the cell range [lo, hi];
known modulo p^floor on its window (INF: exactly), except at the exponents
``low`` maps to lower floors (None for a product, whose cells are all at
the floor but for the cap below).  A weight does not raise the series'
floors, as a weight divisible by p should: callers pass units.
``digits`` bounds the relative digits any cell may claim; where it
exceeds nrel, each cell is capped at its valuation + nrel.  ``whole``
when the cell range holds the whole convolution.  ``dense`` is the pair
of operands of a whole product whose operands are both dense
(``PACK_CELLS``, ``PACK_SPAN``), else None.

A dense product is one product of two integers (Kronecker substitution,
as in Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symb. Comp. 44, 2009).  The first dense product that
reads a series at a slot width packs its cells into one integer, a
little-endian slot of that many whole bytes (at least 8) per exponent of
its hull, and the series keeps it in its pack cache.  A fold takes one
slot width, wide enough for the sum of all its dense products, each
times its base shift.  Cells are canonical residues, hence never
negative, so no slot borrows from the next and each holds an exact
sum.  The fold adds its dense products into one pending integer
and unpacks that into its cells only where a step reads them: before an
nrel cap, before the scan for surviving keys, and before the final pass.
A dense product that must first be looked at on its own cells (capped,
or widening the window) is unpacked into them.
"""

from __future__ import annotations

from math import gcd
from struct import unpack

from .errors import WindowOverflow
from .padic import INF, vp_int


# the widest window a product without an output window, a Frobenius image
# or a default window may have
MAX_WIDTH = 256

# a whole product is packed when both operands have at least PACK_CELLS
# stored cells, each on a hull of fewer than PACK_SPAN times as many
# exponents
PACK_CELLS = 8
PACK_SPAN = 4


def clip_window(window, hull, width):
    """``window`` cut to ``width`` exponents around ``hull``."""
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


# LaurentSeries.zero's default window, and that of its products
ZERO_WINDOW = clip_window((-INF, INF), (0, 0), MAX_WIDTH)


def _cell_bits(s):
    """The bit length of series ``s``'s largest cell, cached under key 0 of
    its pack cache, which the first dense product that reads s makes."""
    cache = s._packs
    if cache is None:
        cache = s._packs = {0: max(r for _, r in s._stats[4]).bit_length()}
    return cache[0]


def _packed(s, size):
    """Series ``s``'s cells as one integer, a little-endian slot of
    ``size`` bytes per exponent of its hull, cached under key ``size`` of
    the pack cache that ``_cell_bits`` made."""
    cache = s._packs
    x = cache.get(size)
    if x is None:
        _, _, _, (lo, hi), cells = s._stats
        slots = [bytes(size)] * (hi - lo + 1)
        for e, r in cells:
            slots[e - lo] = r.to_bytes(size, "little")
        x = cache[size] = int.from_bytes(b"".join(slots), "little")
    return x


def _slot_width(terms, p, base):
    """(slot width in bytes, lowest exponent) of the dense products among
    ``terms``.  A cell of a product is below 2^(bits(a) + bits(b) +
    bits(len)) times its shift p^(base of the term - ``base``), and a fold
    adds at most one per dense product into a slot.  A slot narrower than
    8 bytes is widened to 8, so that ``_unpack`` reads it as one word."""
    bits, count, lo = 0, 0, None
    for t in terms:
        pair = t[13]
        if pair is not None:
            b = (_cell_bits(pair[0]) + _cell_bits(pair[1])
                 + len(t[10]).bit_length() + (p ** (t[5] - base)).bit_length())
            if b > bits:
                bits = b
            if lo is None or t[7] < lo:
                lo = t[7]
            count += 1
    size = (bits + count.bit_length() + 7) // 8
    return (8 if size < 8 else size), lo


def _unpack(x, size, out, start):
    """Add the slots of ``size`` bytes of ``x`` to out[start], out[start +
    1], ...; 8-byte slots, most of those at nrel 12, are read by one
    ``struct`` call."""
    n = -(-x.bit_length() // (8 * size))
    buf = x.to_bytes(n * size, "little")
    slots = (unpack(f"<{n}Q", buf) if size == 8 else
             [int.from_bytes(buf[j:j + size], "little")
              for j in range(0, n * size, size)])
    stop = start + n
    out[start:stop] = [c + r for c, r in zip(out[start:stop], slots)]


def product_term(pair, out_window):
    """The kernel's term for ``a * b``, given the pair of series (a, b).
    Given ``out_window``, the product is exact on it: its window is the
    provable window within ``out_window``, uncapped.  Otherwise the
    provable window is cut to ``MAX_WIDTH`` exponents around the product's
    support.  A product with the tail-free exact zero is that zero on
    ``out_window`` or ``ZERO_WINDOW``, and never raises."""
    a, b = pair
    p = a.p
    if b.p != p:
        raise ValueError("mixed primes")
    nrel = a.nrel if a.nrel < b.nrel else b.nrel
    tfa, tfb = a.tail_free, b.tail_free
    _, mva, fla, ha, cells_a = a._stats or a.summary()
    _, mvb, flb, hb, cells_b = b._stats or b.summary()
    # only the exact zero has no (min valuation, abs floor)
    if mva is INF and tfa or mvb is INF and tfb:
        return (p, nrel, out_window or ZERO_WINDOW, True, INF, 0, 0, 1, 0,
                True, (), (), None, None)
    ha, hb = ha or (0, 0), hb or (0, 0)
    window = _window_of_product(a.window, tfa, ha, b.window, tfb, hb)
    if mva is INF or mvb is INF:    # a truncated exact zero
        window = (clip_window(window, (0, 0), MAX_WIDTH)
                  if out_window is None else _clamp(window, out_window))
        return (p, nrel, window, False, INF, 0, 0, 1, 0, True, (), (), None,
                None)
    floor = fla + mvb
    if flb + mva < floor:
        floor = flb + mva
    flo, fhi = ha[0] + hb[0], ha[1] + hb[1]
    lo, hi = window
    if out_window is not None:
        lo, hi = _clamp(window, out_window)
    elif hi - lo >= MAX_WIDTH:
        lo, hi = clip_window(window, (flo, fhi), MAX_WIDTH)
    whole = lo <= flo and fhi <= hi
    ka, kb = len(cells_a), len(cells_b)
    dense = (whole and ka >= PACK_CELLS and kb >= PACK_CELLS
             and ha[1] - ha[0] + 1 < PACK_SPAN * ka
             and hb[1] - hb[0] + 1 < PACK_SPAN * kb)
    if ka > kb:
        cells_a, cells_b = cells_b, cells_a
    return (p, nrel, (lo, hi), tfa and tfb and whole, floor, a.base + b.base,
            floor - mva - mvb, lo if lo > flo else flo,
            hi if hi < fhi else fhi, whole, cells_a, cells_b, None,
            pair if dense else None)


def constant_term(s, c):
    """The kernel's term for ``s * c``, c an exact constant: tail-free, no
    floor, one unit cell p^m * unit at exponent 0, at s's prime and at
    least s's nrel.  It is ``series_term(s, unit)`` moved by m: s's cells
    weighted by c's unit, its base, base floor and low floors raised by m,
    each cell at its own floor, on the window (and tail-free flag) that
    ``product_term`` gives.  An s with no nonzero cell, a c with none (the
    tail-free exact zero of an entry's one kept pair) and a window that
    cuts s's cells leave the product to ``product_term``."""
    val, _, _, hull, _ = s._stats or s.summary()
    if val is not None and c.terms:
        # the window of _window_of_product, c tail-free with hull (0, 0)
        lo, hi = window = ((s.window[0] + c.window[0], s.window[1]
                            + c.window[1]) if s.tail_free else s.window)
        if hi - lo >= MAX_WIDTH:
            lo, hi = clip_window(window, hull, MAX_WIDTH)
        if lo <= hull[0] and hull[1] <= hi:
            m, bf = c.base, s.base_floor
            low = s.low_floors()
            return (s.p, s.nrel, (lo, hi), s.tail_free,
                    INF if bf is None else bf + m, s.base + m, s.nrel,
                    hull[0], hull[1], True, s.terms.items(), c.terms[0],
                    {e: f + m for e, f in low.items()} if m else low, None)
    return product_term((s, c), None)


def series_term(s, weight):
    """The kernel's term for ``weight * s``: +1 or -1 in a sum, a unit mod
    p in a weighted fold.  It keeps the floors of ``s``, which a weight
    divisible by p would raise, so callers pass units."""
    terms, bf = s.terms, s.base_floor
    hull = (min(terms), max(terms)) if terms else (1, 0)
    return (s.p, s.nrel, s.window, s.tail_free, INF if bf is None else bf,
            s.base, s.nrel, hull[0], hull[1], True, terms.items(), weight,
            s.low_floors(), None)


def _clamp(window, out_window):
    lo = max(window[0], out_window[0])
    hi = min(window[1], out_window[1])
    if lo > hi:
        raise WindowOverflow("requested output window is not provable")
    return (lo, hi)


def _valuation(cell, p, base, floor):
    """Valuation of p^base * cell known modulo p^floor (INF: exactly);
    None when it is zero there."""
    if floor is INF:
        return base + vp_int(cell, p) if cell else None
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


def accumulate(terms, verdict=False):
    """The fold of ``+`` over ``terms``, as one integer sum: the integer
    form (p, nrel, base, terms, floors, window, tail_free, base_floor) of
    the series that folding ``+`` over them left to right gives.  With
    ``verdict``, the fold is a residual and only its agreement verdict is
    read from the folded integers: (floor, window) when every cell in the
    window is zero modulo its own floor, with floor the smallest of those
    floors (INF: exactly), which is the residual series' ``abs_floor``;
    else None.

    Every cell is one integer over the smallest base valuation of the
    terms, normalised once at the end.  The fold is replayed step by step
    on those integers only where it depends on order: a sum of tail-free
    series widens its window to the keys that survive the step's floor,
    and a step that lowers nrel caps each cell at its valuation + nrel.
    Everything else is order-free: the fold is the canonical form of the
    exact sum modulo p^(smallest floor), cell by cell.
    """
    if not terms:
        raise ValueError("empty dot product")
    p = terms[0][0]
    base, glo, ghi, zeros = INF, None, None, 0
    for term in terms:
        if term[0] != p:
            raise ValueError("mixed primes")
        f, tbase, clo, chi = term[4], term[5], term[7], term[8]
        if f < base:
            base = f            # a floor and no cell: not below base
        if clo <= chi:
            if tbase < base:
                base = tbase
            if glo is None:
                glo, ghi = clo, chi
            else:
                glo = clo if clo < glo else glo
                ghi = chi if chi > ghi else ghi
        elif f is INF and term[3]:
            zeros += 1          # the tail-free exact zero
    if zeros:
        terms = [t for t in terms
                 if t[7] <= t[8] or t[4] is not INF or not t[3]] or terms[:1]
    if base is INF:
        base = 0                # every term is the exact zero
    if glo is None:
        glo = ghi = 0           # no term has a cell
    acc = [0] * (ghi - glo + 1)
    size = 0                # slot bytes, set at the first dense product
    pending = 0             # dense products not yet unpacked into acc
    low = {}                # cells whose floor is below the uniform floor
    nrel = None
    bf = INF
    alo, ahi = 0, -1        # cell range of the running sum

    for (_, n, window, tf, f, tbase, digits, clo, chi, whole, cells, factor,
         given, pair) in terms:
        keys = None         # surviving keys outside the window, when tf
        if nrel is None:
            nrel, (lo, hi), tail_free = n, window, tf
        else:
            if window[0] > lo:
                lo = window[0]
            if window[1] < hi:
                hi = window[1]
            tail_free = tail_free and tf
            if n < nrel:
                # the running sum is capped at n relative digits
                if pending:
                    _unpack(pending, size, acc, dlo - glo)
                    pending = 0
                for e in range(alo, ahi + 1):
                    fe = min(bf, low.get(e, bf))
                    v = _valuation(acc[e - glo], p, base, fe)
                    if v is not None and v + n < fe:
                        low[e] = v + n
                nrel = n
            if tail_free and (alo < lo or ahi > hi):
                if pending:
                    _unpack(pending, size, acc, dlo - glo)
                    pending = 0
                ends = (range(alo, min(ahi + 1, lo)),
                        range(ahi, max(alo - 1, hi), -1))
                keys = [e for e in (_first_kept(es, acc, glo, low, bf, p,
                                                base) for es in ends)
                        if e is not None]
        if clo <= chi:
            capped = digits > nrel
            widens = tail_free and (clo < lo or chi > hi)
            # integer convolution over the cell range, relative to base;
            # into its own cells when they must be looked at first
            own = capped or (widens and given is None)
            out, off = ([0] * (chi - clo + 1), clo) if own else (acc, glo)
            shift = p ** (tbase - base) if tbase != base else 1
            if pair is not None:
                # a dense product: one product of packed integers
                if not size:
                    size, dlo = _slot_width(terms, p, base)
                x = _packed(pair[0], size) * _packed(pair[1], size)
                if shift != 1:
                    x *= shift
                if own:
                    _unpack(x, size, out, 0)
                else:
                    pending += x << 8 * size * (clo - dlo)
            elif given is not None:
                # a series: its cells times its weight
                shift *= factor
                for ea, ra in cells:
                    out[ea - off] += ra * shift
            else:
                for ea, ra in cells:
                    if shift != 1:
                        ra *= shift
                    if whole:
                        ea -= off
                        for eb, rb in factor:
                            out[ea + eb] += ra * rb
                        continue
                    for eb, rb in factor:
                        k = ea + eb
                        if clo <= k <= chi:
                            out[k - off] += ra * rb
            if widens:
                # a stored cell of a series is a key; a product keeps the
                # cells that survive its floor
                keys = (keys or []) + (
                    [e for e, _ in cells if e < lo or e > hi]
                    if given is not None else
                    [e for e in range(clo, chi + 1) if (e < lo or e > hi)
                     and _valuation(out[e - clo], p, base, f) is not None])
            if capped:
                # a cell of this term keeps at most nrel relative digits
                for e in range(clo, chi + 1):
                    v = _valuation(out[e - clo], p, base, f)
                    if v is not None and v + nrel < f:
                        low[e] = min(low.get(e, f), v + nrel)
            if given:
                if not low:
                    low.update(given)   # each below f
                else:
                    for e, fe in given.items():
                        if fe < low.get(e, f):
                            low[e] = fe
            if own:
                for k, c in enumerate(out, clo - glo):
                    acc[k] += c
            if alo > ahi:
                alo, ahi = clo, chi
            else:
                alo = clo if clo < alo else alo
                ahi = chi if chi > ahi else ahi
        if keys:
            lo, hi = min(lo, *keys), max(hi, *keys)
        if lo > hi:
            raise WindowOverflow("empty exponent window")
        if f < bf:
            bf = f

    if pending:
        _unpack(pending, size, acc, dlo - glo)
    top = None if bf is INF else p ** (bf - base)
    if verdict:
        # the cells the canonical form below would keep, each zero modulo
        # its floor: a holding residual keeps only inexact zeros
        floor = bf
        for e in range(max(alo, lo), min(ahi, hi) + 1):
            fe = low.get(e, bf)
            if fe < bf:
                if acc[e - glo] % p ** (fe - base):
                    return None
                if fe < floor:
                    floor = fe
            elif top is not None and acc[e - glo] % top:
                return None
        return floor, (lo, hi)
    out, floors = {}, {}
    for e in range(max(alo, lo), min(ahi, hi) + 1):
        fe = low.get(e, bf)
        cell = acc[e - glo]
        if fe >= bf:
            if top is not None:
                cell %= top
                if cell:
                    out[e] = cell
            continue
        cell %= p ** (fe - base)
        out[e] = cell
        if not cell or fe < base + nrel + (vp_int(cell, p)
                                           if not cell % p else 0):
            floors[e] = fe
    # rebase on the smallest valuation, so that products of the result
    # multiply integers no larger than they need to be
    g = gcd(*out.values())
    if g and not g % p:
        t = min([vp_int(g, p)] + [f - base for e, f in floors.items()
                                  if not out[e]])
        if t:
            q = p ** t
            out = {e: r // q for e, r in out.items()}
            base += t
    return (p, nrel, base, out, floors, (lo, hi), tail_free,
            None if bf is INF else bf)


def _window_of_product(wa, tfa, ha, wb, tfb, hb):
    """Provable window of a * b, given the operands' windows, tail-free
    markers and support hulls, before the window cap."""
    if tfa:
        if tfb:
            return (wa[0] + wb[0], wa[1] + wb[1])
        lo, hi = wb[0] + ha[1], wb[1] + ha[0]
    else:
        lo, hi = wa[0] + hb[1], wa[1] + hb[0]
        if not tfb:
            lo, hi = max(lo, wb[0] + ha[1]), min(hi, wb[1] + ha[0])
    if lo > hi:
        raise WindowOverflow("provable window of product is empty")
    return lo, hi
