"""Small matrix helpers over Laurent series and over plain scalars.

Matrices are lists of lists (row major).  The series products take the
kernel's window rules (an output window, else the cap) and read each
operand through one kernel view per routine, which the kernel packs into
one integer at the first dense product that reads it; ``smat_det`` and
``smat_inv`` share one cofactor memo.  ``smat_product_agree`` checks
A * B = X without building A * B, and ``smat_agree`` checks A = B: one
kernel fold per entry, whose verdict is read from the folded integers;
only a failing entry's residual series is built, for its witness.  The
scalar helpers are generic over Fraction, PadicNumber and
UnramifiedScalar entries via a tiny ops adapter, and ``mat_inv`` is the
one Gauss-Jordan elimination over scalars.  An adapter provides:

* ``zero()``, ``one()``, ``from_int(n)``: constants;
* ``is_exact_zero(x)``: x is provably zero, so elimination may skip it
  (an inexact zero must not be skipped: its uncertainty propagates);
* ``pivot_quality(x)``: a sort key, smaller is better, or None when x
  cannot be a pivot (zero at working precision);
* ``inv(x)``: the inverse of a pivot;
* ``agrees(x, y)``: x and y are not provably different.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .errors import SingularInput
from .padic import INF, PadicNumber, UnramifiedScalar
from .kernel import accumulate, view
from .series import (AgreementVerdict, LaurentSeries, _series, kernel_terms,
                     residual_verdict, series_dot, series_sum)


# ---------------------------------------------------------------------------
# Series matrices.
# ---------------------------------------------------------------------------


def smat_shape(a):
    return len(a), len(a[0]) if a else 0


def smat_identity(n, p, nrel, window=None):
    one = LaurentSeries.one(p, nrel, window)
    zero = LaurentSeries.zero(p, nrel, window)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def smat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def smat_mul(a, b, out_window=None):
    if smat_shape(a)[1] != smat_shape(b)[0]:
        raise ValueError("shape mismatch")
    cols = _views(zip(*b))
    return [[series_dot(zip(row, col), out_window) for col in cols]
            for row in _views(a)]


def smat_mul_add(a, b, c):
    """a * b + c, each entry summed by one ``series_sum``."""
    cols = _views(zip(*b))
    return [[series_sum(list(zip(row, col)) + [z])
             for col, z in zip(cols, crow)]
            for row, crow in zip(_views(a), c)]


def _views(rows):
    """The kernel view (``kernel.view``) of every entry, prepared once for
    all the products it takes part in, and packed at most once per slot
    width."""
    return [[view(s) for s in row] for row in rows]


def smat_honest(a, window, floor):
    """Results computed on polynomial surrogates (``on_window``), made
    honest: each entry a truncation on its window within ``window``, known
    modulo p^floor."""
    lo, hi = window
    return [[s.on_window((max(s.window[0], lo), min(s.window[1], hi)),
                         False).widen_floor(floor) for s in row] for row in a]


def smat_scale(a, c: PadicNumber):
    return [[x.scale(c) for x in row] for row in a]


def mat_map(a, fn):
    return [[fn(x) for x in row] for row in a]


def smat_sigma(a, power):
    return mat_map(a, lambda s: s.frobenius(power))


def smat_deriv(a):
    return mat_map(a, lambda s: s.derivative())


def smat_agree(a, b) -> AgreementVerdict:
    """Entrywise agreement at precision; reports the worst finding, and on
    failure the (row, column) of the first entry that disagrees.  Every
    difference is formed first, so one that cannot be formed raises."""
    return _matrix_verdict((kernel_terms((x,), minus=y)
                            for x, y in zip(ra, rb))
                           for ra, rb in zip(a, b))


def smat_product_agree(a, b, x, out_window=None,
                       plus=None) -> AgreementVerdict:
    """``smat_agree(smat_mul(a, b, out_window), x)``, or with ``plus`` that
    of a * b + plus with each product on ``out_window``, with no product
    built: each residual sum a_ik * b_kj (+ plus_ij) - x_ij is one kernel
    fold, exact because the kernel replays the left fold of ``+``."""
    if smat_shape(a)[1] != smat_shape(b)[0]:
        raise ValueError("shape mismatch")
    cols = _views(zip(*b))
    plus = plus or [[None] * len(cols) for _ in a]
    return _matrix_verdict(
        (kernel_terms(list(zip(row, col)) + ([] if z is None else [z]),
                      out_window, y)
         for col, z, y in zip(cols, zrow, xrow))
        for row, zrow, xrow in zip(_views(a), plus, x))


def _matrix_verdict(residuals):
    """The verdict on rows of residuals, each given by its kernel terms:
    every residual is folded, in row-major order, to its verdict alone
    (``accumulate(..., verdict=True)``), then scanned in that order for
    the worst floor, or the first failure, whose residual series alone is
    built for its witness, with its (row, column)."""
    folded = [[(kterms, accumulate(kterms, True)) for kterms in row]
              for row in residuals]
    floor = INF
    window = None
    for i, row in enumerate(folded):
        for j, (kterms, v) in enumerate(row):
            if v is None:
                d = residual_verdict(_series(*accumulate(kterms)))
                return replace(d, position=(i, j))
            if v[0] < floor:
                floor = v[0]
            window = v[1] if window is None else window
    return AgreementVerdict(True, None if floor is INF else int(floor),
                            window or (0, 0))


def _cofactor_memo(a):
    """``minor(rows, cols)``: the determinant of the submatrix on the given
    row and column tuples, by cofactor expansion along ``rows[0]``.  Each
    minor is computed once; terms are formed and summed in the order of
    the plain expansion, so each minor is the series that expansion gives
    ((-x) * m and -(x * m) are the same series).
    """
    memo = {}
    views = {}      # (rows, cols): the kernel view of that minor
    signed = {}     # row: the views of its entries and of their negatives

    def operand(rows, cols):
        key = (rows, cols)
        v = views.get(key)
        if v is None:
            v = views[key] = view(minor(rows, cols))
        return v

    def minor(rows, cols):
        if len(cols) == 1:
            return a[rows[0]][cols[0]]
        key = (rows, cols)
        det = memo.get(key)
        if det is not None:
            return det
        r, rest = rows[0], rows[1:]
        if r not in signed:
            signed[r] = ([view(x) for x in a[r]], [view(-x) for x in a[r]])
        det = memo[key] = series_dot(
            ((signed[r][j % 2][c], operand(rest, cols[:j] + cols[j + 1:]))
             for j, c in enumerate(cols)))
        return det

    return minor


def _square(a, what):
    n, m = smat_shape(a)
    if n != m:
        raise ValueError(f"{what} of a non-square matrix")
    if n == 0:
        raise ValueError("empty matrix")
    return n


def smat_det(a):
    """Determinant by cofactor expansion along the first row, each minor
    computed once."""
    full = tuple(range(_square(a, "determinant")))
    return _cofactor_memo(a)(full, full)


def smat_inv(a, target_window=None):
    """Inverse via the adjugate; the determinant must be a unit of E at
    working precision.  The determinant and the n^2 cofactors share one
    minor memo."""
    n = _square(a, "inverse")
    minor = _cofactor_memo(a)
    full = tuple(range(n))
    det_inv = minor(full, full).invert(target_window)
    if n == 1:
        return [[det_inv]]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            # cofactor C_ji: drop row j and column i
            cof = minor(full[:j] + full[j + 1:], full[:i] + full[i + 1:])
            if (i + j) % 2:
                cof = -cof
            row.append(cof.mul(det_inv))
        adj.append(row)
    return adj


# ---------------------------------------------------------------------------
# Scalar matrices (Fraction / PadicNumber / UnramifiedScalar).
# ---------------------------------------------------------------------------


class FractionOps:
    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def is_exact_zero(self, x):
        return x == 0

    def agrees(self, x, y):
        return x == y

    def inv(self, x):
        if x == 0:
            raise SingularInput("division by zero")
        return 1 / Fraction(x)

    def pivot_quality(self, x):
        # any nonzero entry works over an exact field
        return 0 if x != 0 else None


class PadicOps:
    def __init__(self, p, nrel):
        self.p = p
        self.nrel = nrel

    def zero(self):
        return PadicNumber.zero(self.p, self.nrel)

    def one(self):
        return PadicNumber.from_int(self.p, self.nrel, 1)

    def from_int(self, n):
        return PadicNumber.from_int(self.p, self.nrel, n)

    def is_exact_zero(self, x):
        return x.is_exact_zero

    def agrees(self, x, y):
        return x.agrees(y)

    def inv(self, x):
        return self.one() / x

    def pivot_quality(self, x):
        return x.valuation if x.is_regular else None


class UnramOps:
    def __init__(self, field):
        self.field = field

    def zero(self):
        return self.field.zero()

    def one(self):
        return self.field.one()

    def from_int(self, n):
        return self.field.from_int(n)

    def is_exact_zero(self, x):
        return all(c.is_exact_zero for c in x.coords)

    def agrees(self, x, y):
        return x.agrees(y)

    def inv(self, x):
        return x.inverse()

    def pivot_quality(self, x):
        vals = [c.valuation for c in x.coords if c.is_regular]
        return min(vals) if vals else None


def ops_for(x):
    """Pick the ops adapter matching a sample element."""
    if isinstance(x, PadicNumber):
        return PadicOps(x.p, x.nrel)
    if isinstance(x, UnramifiedScalar):
        return UnramOps(x.field)
    return FractionOps()


def mat_identity(n, ops):
    return [[ops.one() if i == j else ops.zero() for j in range(n)]
            for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(a[0])
    m = len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_agree(a, b, ops):
    return all(ops.agrees(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_inv(a, ops, error=SingularInput, rhs=None):
    """Gauss-Jordan inverse with best-valuation pivoting: A^-1, or A^-1 B
    for a right-hand block B (``rhs``, n rows) in place of the identity.

    Rows are eliminated against every pivot unless their entry is an exact
    zero: an inexact zero O(p^f) still carries its uncertainty into the
    rest of the row.  Each column of the result sees the same operations
    whatever the other columns of B are.
    """
    n = len(a)
    work = [list(row) + list(b_row)
            for row, b_row in zip(a, rhs or mat_identity(n, ops))]
    for col in range(n):
        best, best_q = None, None
        for r in range(col, n):
            q = ops.pivot_quality(work[r][col])
            if q is not None and (best_q is None or q < best_q):
                best, best_q = r, q
        if best is None:
            raise error("matrix is singular at working precision")
        work[col], work[best] = work[best], work[col]
        piv_inv = ops.inv(work[col][col])
        work[col] = [x * piv_inv for x in work[col]]
        for r in range(n):
            if r != col and not ops.is_exact_zero(work[r][col]):
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]
