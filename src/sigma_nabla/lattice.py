"""Lattice linear algebra over Gamma: Smith normal form (Gamma is a
complete DVR with uniformiser p) and intersections of free lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrecisionExhausted
from .linalg import smat_identity, smat_mul, smat_shape
from .padic import INF
from .series import LaurentSeries


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


def lattice_smith(a, max_width=None) -> SmithForm:
    """A = U D W over Gamma with D = diag(p^{d_1}, ..), d_1 <= d_2 <= ...

    Pivot selection: minimal p-valuation, ties broken lexicographically by
    (row, column).  U and W are products of permutations, unit scalings
    and elementary operations, hence invertible over Gamma.
    """
    n, m = smat_shape(a)
    p = a[0][0].p
    nrel = a[0][0].nrel
    work = [row[:] for row in a]
    # invariant: u_acc * a * w_acc = work
    u_acc = smat_identity(n, p, nrel)
    w_acc = smat_identity(m, p, nrel)
    u_inv_acc = smat_identity(n, p, nrel)
    w_inv_acc = smat_identity(m, p, nrel)

    def row_op(i, k, c):
        # row_i += c * row_k on work; mirror on u_acc; inverse on u_inv_acc
        for j in range(m):
            work[i][j] = work[i][j] + c.mul(work[k][j], max_width)
        for j in range(n):
            u_acc[i][j] = u_acc[i][j] + c.mul(u_acc[k][j], max_width)
        for j in range(n):
            u_inv_acc[j][k] = u_inv_acc[j][k] - c.mul(u_inv_acc[j][i],
                                                      max_width)

    def col_op(j, k, c):
        for i in range(n):
            work[i][j] = work[i][j] + c.mul(work[i][k], max_width)
        for i in range(m):
            w_acc[i][j] = w_acc[i][j] + c.mul(w_acc[i][k], max_width)
        for i in range(m):
            w_inv_acc[k][i] = w_inv_acc[k][i] - c.mul(w_inv_acc[j][i],
                                                      max_width)

    def row_swap(i, k):
        work[i], work[k] = work[k], work[i]
        u_acc[i], u_acc[k] = u_acc[k], u_acc[i]
        for r in range(n):
            u_inv_acc[r][i], u_inv_acc[r][k] = \
                u_inv_acc[r][k], u_inv_acc[r][i]

    def col_swap(j, k):
        for i in range(n):
            work[i][j], work[i][k] = work[i][k], work[i][j]
        for i in range(m):
            w_acc[i][j], w_acc[i][k] = w_acc[i][k], w_acc[i][j]
        w_inv_acc[j], w_inv_acc[k] = w_inv_acc[k], w_inv_acc[j]

    def row_scale(i, c, c_inv):
        for j in range(m):
            work[i][j] = work[i][j].mul(c, max_width)
        for j in range(n):
            u_acc[i][j] = u_acc[i][j].mul(c, max_width)
        for j in range(n):
            u_inv_acc[j][i] = u_inv_acc[j][i].mul(c_inv, max_width)

    exponents = []
    r = 0
    for step in range(min(n, m)):
        best = None
        for i in range(step, n):
            for j in range(step, m):
                v = work[i][j].valuation()
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            floors = [work[i][j].abs_floor()
                      for i in range(step, n) for j in range(step, m)]
            if any(f is not INF for f in floors):
                raise PrecisionExhausted(
                    "remaining block is indistinguishable from zero")
            break
        v, bi, bj = best
        if bi != step:
            row_swap(step, bi)
        if bj != step:
            col_swap(step, bj)
        # normalise the pivot to p^v (times zero-at-precision noise)
        unit_part = work[step][step].shift_val(-v)
        unit_inv = unit_part.invert(max_width=max_width)
        row_scale(step, unit_inv, unit_part)
        piv_unit_inv = work[step][step].shift_val(-v).invert(
            max_width=max_width)
        for i in range(step + 1, n):
            if work[i][step].is_zero_at_precision:
                continue
            c = -(work[i][step].shift_val(-v).mul(piv_unit_inv, max_width))
            row_op(i, step, c)
        for j in range(step + 1, m):
            if work[step][j].is_zero_at_precision:
                continue
            c = -(work[step][j].shift_val(-v).mul(piv_unit_inv, max_width))
            col_op(j, step, c)
        exponents.append(v)
        r += 1

    # sort the diagonal by valuation (swaps keep U, W over Gamma)
    for pos in range(r):
        mi = min(range(pos, r), key=lambda t: exponents[t])
        if mi != pos:
            row_swap(pos, mi)
            col_swap(pos, mi)
            exponents[pos], exponents[mi] = exponents[mi], exponents[pos]

    d = [[LaurentSeries.zero(p, nrel) for _ in range(m)] for _ in range(n)]
    for t, e in enumerate(exponents):
        d[t][t] = LaurentSeries.monomial(p, nrel, pow(p, e), 0)
    return SmithForm(u_inv_acc, d, w_inv_acc, exponents, r, u_acc, w_acc)


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


def lattice_intersect(l1: LatticeBasis, l2: LatticeBasis,
                      max_width=None) -> LatticeBasis:
    """Basis of the intersection of two free Gamma-lattices.

    Solve L1 x = L2 y on the stacked matrix [L1 | -L2] via its Smith form;
    the kernel columns are saturated because the transforms are
    Gamma-invertible, so L1 * (x-part) spans the intersection.
    """
    n = l1.ambient_rank
    if l2.ambient_rank != n:
        raise ValueError("lattices live in different ambient spaces")
    m1, m2 = l1.rank, l2.rank
    stacked = [l1.vectors[i][:] + [-s for s in l2.vectors[i]]
               for i in range(n)]
    sf = lattice_smith(stacked, max_width)
    kernel_cols = []
    for j in range(m1 + m2):
        if j >= sf.rank:
            kernel_cols.append(j)
    if not kernel_cols:
        zero = LaurentSeries.zero(l1.vectors[0][0].p, l1.vectors[0][0].nrel)
        return LatticeBasis([[zero] * 0 for _ in range(n)])
    # kernel basis = W * e_j for zero columns of D
    kb = [[sf.w_inv[i][j] for j in kernel_cols] for i in range(m1 + m2)]
    xpart = kb[:m1]
    vectors = smat_mul(l1.vectors, xpart, max_width)
    return LatticeBasis(vectors)


def lattice_member(l: LatticeBasis, vector, max_width=None):
    """Whether a vector lies in the Gamma-span of the lattice columns.

    Solves via the Smith form: v in span(A) iff the transformed
    coordinates are divisible by the diagonal p-powers (and vanish past
    the rank).
    """
    sf = lattice_smith(l.vectors, max_width)
    n = l.ambient_rank
    # c = U^-1 v must satisfy: c_i divisible by p^{d_i}, c_i = 0 for i>rank
    c = [None] * n
    for i in range(n):
        acc = None
        for j in range(n):
            t = sf.u_inv[i][j].mul(vector[j], max_width)
            acc = t if acc is None else acc + t
        c[i] = acc
    for i in range(n):
        v = c[i].valuation()
        if v is not None and (i >= sf.rank or v < sf.exponents[i]):
            return False
    return True
