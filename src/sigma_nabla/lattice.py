"""Lattice linear algebra over Gamma: Smith normal form (Gamma is a
complete DVR with uniformiser p) and intersections of free lattices.

Working-window contract of ``lattice_smith``: the entries and each pivot
inverse are polynomial surrogates (``LaurentSeries.on_window``) on a
working window, the inputs' common window [lo, hi] padded on each side by
a margin.  A truncated entry stands for its completion by zeros, which
agrees with it on its window: the result is a Smith form of that
completion.  U, W and their inverses are returned as truncations on the
inputs' common window, known modulo p^min(nrel, the inputs' absolute
floor); D is exact.

The margin is derived from a decay rate when the inputs are integral and
their reduction mod p is a monomial pattern: the valuation-0 cells of
each row i lie in one entry, in a column of its own, the lowest at
exponent s_i.  Let r be the least v/(s_i - e) over the cells (e, v) of
row i below s_i, and S the largest |s_i|.  With N(x) = min over cells of
v + r*e (N(xy) >= N(x) + N(y)), the rows shifted by u^-s_i lie in the
ring N >= 0, whose elements reduce into k[[u]]; every pivot is then a
unit there (its constant term mod p is nonzero), so the elimination
stays in that ring, and every quantity it computes is u^k times an
element of it with |k| <= 2S.  A cell dropped above hi + margin, or one
below lo - margin, then reaches the inputs' window with valuation at
least r * (margin - 4S - max(0, lo)), so a margin of ceil((nrel + 1)/r)
+ 4S + max(0, lo) (4S + max(0, lo) when no cell lies below its s_i) puts
every dropped term beyond the working precision.
Elsewhere the margin stays (R + 1) * (nrel + 1), R the largest |exponent|
the inputs store: a Gamma-unit c u^a (1 + g) with g divisible by p has an
inverse that loses a digit per span of g (not proven for a pivot whose
reduction mod p has several terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionExhausted
from .linalg import smat_honest, smat_identity, smat_mul, smat_shape
from .padic import INF
from .series import LaurentSeries, series_dot


@dataclass
class SmithForm:
    u: list        # invertible over Gamma
    d: list        # diagonal matrix of p-powers (as series)
    w: list        # invertible over Gamma
    exponents: list  # d_i with p^{d_1} | p^{d_2} | ...
    rank: int
    # accumulated transforms: u_inv * A * w_inv = D
    u_inv: list
    w_inv: list


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def _swap_and_clear(mat, fwd, inv_t, step, k, col, v, plus):
    """Swap rows ``step`` and ``k``, then clear column ``col`` of ``mat``
    below the pivot mat[step][col] = p^v with multiples of row ``step``.
    ``fwd`` takes the same row operations; ``inv_t``, the transpose of
    fwd's inverse, takes the inverse ones on its rows."""
    for x in (mat, fwd, inv_t):
        x[step], x[k] = x[k], x[step]
    cs = [(i, mat[i][col].shift_val(-v)) for i in range(step + 1, len(mat))
          if not mat[i][col].is_zero_at_precision]
    for i, c in cs:
        for x in (mat, fwd):
            x[i] = [plus(y, [(-c, z)]) for y, z in zip(x[i], x[step])]
    if cs:
        inv_t[step] = [plus(y, [(c, inv_t[i][j]) for i, c in cs])
                       for j, y in enumerate(inv_t[step])]


def _decay_margin(a, nrel, lo):
    """The margin ceil((nrel + 1)/r) + 4S + max(0, lo) of the module
    docstring, or None when the inputs are not integral with a monomial
    reduction mod p."""
    rates, shift, cols = [], 0, set()
    for row in a:
        cells = [(j, e, v) for j, s in enumerate(row)
                 for e, v, unit, _ in s.cells() if unit is not None]
        units = {j for j, _, v in cells if v == 0}
        if len(units) != 1 or units & cols or any(v < 0 for *_, v in cells):
            return None
        cols |= units
        low = min(e for _, e, v in cells if v == 0)
        shift = max(shift, abs(low))
        rates += [Fraction(v, low - e) for _, e, v in cells if e < low]
    pad = -(-(nrel + 1) // min(rates)) if rates else 0
    return pad + 4 * shift + max(0, lo)


def lattice_smith(a) -> SmithForm:
    """A = U D W over Gamma with D = diag(p^{d_1}, ..), d_1 <= d_2 <= ...

    Pivot selection: minimal p-valuation, ties broken lexicographically by
    (row, column).  Each pivot is normalised to p^v by one inversion; its
    column is cleared by row operations, then its row by the same routine
    on the transposes.  The remaining block keeps valuations >= v, so the
    exponents come out sorted.  Every product is exact on the working
    window (its output window); the results are no wider than the
    inputs.
    """
    n, m = smat_shape(a)
    p, nrel = a[0][0].p, a[0][0].nrel
    entries = [s for row in a for s in row]
    lo = max(s.window[0] for s in entries)
    hi = min(s.window[1] for s in entries)
    margin = _decay_margin(a, nrel, lo)
    if margin is None:
        hulls = [s.support_hull for s in entries if s.support_hull]
        radius = max((max(-h[0], h[1]) for h in hulls), default=0)
        margin = (radius + 1) * (nrel + 1)
    work = (lo - margin, hi + margin)
    one = LaurentSeries.one(p, nrel, work)

    def dot(pairs):
        # a sum of products as a surrogate on the working window: the cells
        # a product has outside it are the dropped terms the margin bounds
        return series_dot(pairs, work).on_window(work)

    def plus(x, pairs):
        return dot([(one, x)] + pairs)

    mat = [[s.on_window(work) for s in row] for row in a]
    # left: L and the transpose of L^-1; right: R^T and R^-1; L A R = mat
    left = (smat_identity(n, p, nrel, work), smat_identity(n, p, nrel, work))
    right = (smat_identity(m, p, nrel, work), smat_identity(m, p, nrel, work))
    exponents = []
    for step in range(min(n, m)):
        best = min(((mat[i][j].valuation(), i, j)
                    for i in range(step, n) for j in range(step, m)
                    if not mat[i][j].is_zero_at_precision), default=None)
        if best is None:
            if any(mat[i][j].abs_floor() is not INF
                   for i in range(step, n) for j in range(step, m)):
                raise PrecisionExhausted(
                    "remaining block is indistinguishable from zero")
            break
        v, bi, bj = best
        unit = mat[bi][bj].shift_val(-v)
        unit_inv = unit.invert().on_window(work)
        for x in (mat, left[0]):
            x[bi] = [dot([(y, unit_inv)]) for y in x[bi]]
        left[1][bi] = [dot([(y, unit)]) for y in left[1][bi]]
        _swap_and_clear(mat, *left, step, bi, bj, v, plus)
        mat_t = _transpose(mat)
        _swap_and_clear(mat_t, *right, step, bj, step, v, plus)
        mat = _transpose(mat_t)
        exponents.append(v)

    d = [[LaurentSeries.zero(p, nrel) for _ in range(m)] for _ in range(n)]
    for t, e in enumerate(exponents):
        d[t][t] = LaurentSeries.monomial(p, nrel, pow(p, e), 0)
    floor = int(min([nrel] + [s.abs_floor() for s in entries]))
    u_inv, u_t = (smat_honest(x, (lo, hi), floor) for x in left)
    w_inv_t, w = (smat_honest(x, (lo, hi), floor) for x in right)
    return SmithForm(_transpose(u_t), d, w, exponents, len(exponents),
                     u_inv, _transpose(w_inv_t))


@dataclass
class LatticeBasis:
    """Columns spanning a Gamma-lattice inside E^n."""
    vectors: list     # n x m series matrix

    @property
    def ambient_rank(self):
        return len(self.vectors)

    @property
    def rank(self):
        return len(self.vectors[0]) if self.vectors else 0


def lattice_intersect(l1: LatticeBasis, l2: LatticeBasis) -> LatticeBasis:
    """Basis of the intersection of two free Gamma-lattices.

    Solve L1 x = L2 y on the stacked matrix [L1 | -L2] via its Smith form;
    the kernel columns are saturated because the transforms are
    Gamma-invertible, so L1 * (x-part) spans the intersection.
    [L1 | -L2] must have full row rank at working precision: rows that
    are dependent without cancelling exactly, as for L1 = L2 = <(1, p)>,
    make its Smith form raise PrecisionExhausted.
    """
    n = l1.ambient_rank
    if l2.ambient_rank != n:
        raise ValueError("lattices live in different ambient spaces")
    m1, m2 = l1.rank, l2.rank
    stacked = [l1.vectors[i][:] + [-s for s in l2.vectors[i]]
               for i in range(n)]
    sf = lattice_smith(stacked)
    # kernel basis = W * e_j for zero columns of D (none: an empty basis)
    kb = [[sf.w_inv[i][j] for j in range(sf.rank, m1 + m2)]
          for i in range(m1 + m2)]
    xpart = kb[:m1]
    vectors = smat_mul(l1.vectors, xpart)
    return LatticeBasis(vectors)


def lattice_member(l: LatticeBasis, vector):
    """Whether a vector lies in the Gamma-span of the lattice columns.

    Solves via the Smith form: v in span(A) iff the transformed
    coordinates are divisible by the diagonal p-powers (and vanish past
    the rank).
    """
    sf = lattice_smith(l.vectors)
    n = l.ambient_rank
    # c = U^-1 v must satisfy: c_i divisible by p^{d_i}, c_i = 0 for i>rank
    c = smat_mul(sf.u_inv, [[x] for x in vector])
    for i in range(n):
        v = c[i][0].valuation()
        if v is not None and (i >= sf.rank or v < sf.exponents[i]):
            return False
    return True
