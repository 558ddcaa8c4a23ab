"""Horizontal sections: the power-series recursion solving h' + N h = 0
degree by degree, and Gauss reduction of submodule bases against a
horizontal ambient basis with constant diagonal Frobenius, which raises
NotHorizontal when a reduced column is not constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MembershipViolated, NonUnitPivot, NotHorizontal
from .linalg import smat_mul, smat_shape
from .padic import INF, cell_dot, vp_int
from .series import LaurentSeries


@dataclass
class HorizontalBasis:
    """Columns solving h' + N h = 0 up to the achieved u-degree.

    ``floors[k]`` is the guaranteed absolute precision of the degree-k
    coefficients as the recursion computed them: nrel minus the digits
    consumed by dividing by 1..k, or the lowest floor of those cells when
    N's own floors leave less.  ``h`` is cut at the last degree's nrel
    minus that loss.  ``exhausted`` is set when those divisions ran out of
    digits before ``k_max`` and the recursion stopped early, reporting
    what it reached.
    """

    h: list
    degree_achieved: int
    k_max: int
    floors: list
    exhausted: bool
    residual_valuation: object     # min valuation of nabla(H), INF if clean


def horizontal_basis(nmat, k_max) -> HorizontalBasis:
    """Solve (k+1) H_{k+1} = -(N H)_k from H_0 = I, coefficientwise.

    ``nmat`` must have no provably nonzero negative exponents (the module
    lives over R-plus / E-plus).  Division by p-divisible integers loses
    absolute precision; the recursion stops, reporting the maximal
    achieved degree, once the cumulative loss v_p(k!) reaches nrel.  An
    entry that is not tail-free is known only on its window, and
    H_{k+1} needs N_0 .. N_k: with w the smallest window top of such
    entries (-1 when a window starts above 0), the recursion stops at
    degree w + 1.

    Layout: row a of N is its cells N_0[a][.], N_1[a][.], ... end to end,
    and column b of H is H_k[.][b], H_{k-1}[.][b], ..., H_0[.][b], newest
    layer first.  (N H)_k[a][b] is then ``cell_dot`` over ``zip(row_a,
    col_b)``, which pairs N_j with H_{k-j} and stops after n(k+1) cells;
    each degree prepends one layer to each column.  ``cell_dot`` sums in
    any order to the same cell, so the pairs need no particular order.
    """
    n, m = smat_shape(nmat)
    p = nmat[0][0].p
    nrel = nmat[0][0].nrel
    for i in range(n):
        for j in range(n):
            for e, raw in nmat[i][j].terms.items():
                if e < 0 and raw:
                    raise MembershipViolated(
                        f"N[{i}][{j}] has a negative exponent {e}",
                        entry=(i, j), exponent=e)
    # a truncated entry is known on its window only
    k_top = max(0, min([k_max] + [s.window[1] + 1 if s.window[0] <= 0 else 0
                                  for row in nmat for s in row
                                  if not s.tail_free]))

    # the recursion runs on cells (val, unit, prec) at the entries' nrel
    rows = [[s.cell(j) for j in range(k_top) for s in row] for row in nmat]
    zero, one = (None, None, None), (0, 1, nrel)
    cols = [[one if i == j else zero for i in range(n)] for j in range(n)]
    floors = [nrel]
    loss = 0
    exhausted = False
    q = p ** nrel
    for k in range(k_top):
        dv = vp_int(k + 1, p)
        if loss + dv >= nrel:
            exhausted = True
            break
        loss += dv
        # the cell of -1/(k+1)
        over = (-dv, -pow((k + 1) // p ** dv, -1, q) % q, nrel)
        layer = [[cell_dot(p, nrel, [(cell_dot(p, nrel, zip(row, col)),
                                      over)]) for row in rows]
                 for col in cols]
        cols = [new + col for new, col in zip(layer, cols)]
        # a cell (val, unit, prec) is known modulo p^(val + prec), an
        # inexact zero modulo p^val
        floors.append(min([nrel - loss] + [v + (prec or 0)
                                           for new in layer
                                           for v, _, prec in new
                                           if v is not None]))

    degree = len(floors) - 1
    # both N and H are power series (zero below degree 0, by the checked
    # precondition), so their windows honestly extend below zero; this lets
    # the residual product carry a nonempty provable window
    n_top = max(s.window[1] for row in nmat for s in row)
    h_lo = -(n_top + 8)
    n_lo = -(degree + 8)
    h = [[LaurentSeries.from_cells(p, nrel,
                                   {degree - d: cols[j][d * n + i]
                                    for d in range(degree + 1)},
                                   (h_lo, degree), False, nrel - loss)
          for j in range(n)] for i in range(n)]
    nmat_ext = [[s.on_window((min(s.window[0], n_lo), s.window[1]),
                             s.tail_free) for s in row] for row in nmat]

    # recompute the residual through the series route
    resid_val = INF
    if degree > 0:
        hprime = [[h[i][j].derivative() for j in range(n)] for i in range(n)]
        nh = smat_mul(nmat_ext, h)
        for i in range(n):
            for j in range(n):
                r = hprime[i][j] + nh[i][j]
                r = r.restrict((0, degree - 1))
                v = r.min_valuation()
                if v < resid_val:
                    resid_val = v
    h = [[s.restrict((0, degree)) for s in row] for row in h]
    return HorizontalBasis(h, degree, k_max, floors, exhausted, resid_val)


@dataclass
class SubBasisResult:
    columns: list                  # n x l reduced inclusion matrix
    pivot_rows: list
    residual_valuation: object     # floor of the derivatives, INF if exact


def horizontal_sub_basis(inclusion) -> SubBasisResult:
    """Echelonise an inclusion matrix over a horizontal ambient basis.

    The ambient module is assumed given in a horizontal basis with
    constant diagonal Frobenius; columns are reduced by column operations
    with unit pivots.  Each reduced column must then be horizontal: all
    its entries constant.  A non-constant entry is the obstruction the
    connection residual sees, and raises NotHorizontal with its valuation
    and (row, column).
    """
    a = [row[:] for row in inclusion]
    n = len(a)
    l = len(a[0])

    pivot_rows = []
    used = set()
    for j in range(l):
        piv_row = None
        for i in range(n):
            if i in used:
                continue
            if a[i][j].valuation() == 0:
                piv_row = i
                break
        if piv_row is None:
            raise NonUnitPivot(
                f"column {j} has no unit pivot in the remaining rows; the "
                "Frobenius-determinant hypothesis fails at precision")
        used.add(piv_row)
        pivot_rows.append(piv_row)
        inv = a[piv_row][j].invert()
        for i in range(n):
            a[i][j] = a[i][j].mul(inv)
        for jj in range(l):
            if jj == j:
                continue
            factor = a[piv_row][jj]
            if factor.is_zero_at_precision:
                continue
            for i in range(n):
                a[i][jj] = a[i][jj] - a[i][j].mul(factor)

    # horizontality: entries must be constant, i.e. d(entry) = 0 at
    # precision; only provably nonzero derivative coefficients refute
    worst = INF
    worst_pos = None
    floor = INF
    for j in range(l):
        for i in range(n):
            d = a[i][j].derivative()
            v = d.valuation()
            if v is not None and v < worst:
                worst = v
                worst_pos = (i, j)
            f = d.abs_floor()
            floor = min(floor, f)
    if worst is not INF:
        raise NotHorizontal(
            f"reduced column {worst_pos[1]} has a non-constant entry in "
            f"row {worst_pos[0]} (residual valuation {worst})",
            residual_valuation=worst, position=worst_pos)
    return SubBasisResult(a, pivot_rows, floor)
