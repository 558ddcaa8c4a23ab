"""Small matrix helpers over Laurent series and over plain scalars.

Matrices are lists of lists (row major).  The series products take the
kernel's window rules (an output window, else the cap) and pass series
to the kernel as they are.  One walk over A's rows and B's columns
(``_product_pairs``) builds the pairs of every product and product
check: it forms no product with the tail-free exact zero, and says
whether B is exact constants.  ``smat_det`` and ``smat_inv`` share
one cofactor memo.  ``smat_product_agree`` checks A * B = X without
building A * B, and ``smat_agree`` checks A = B: one kernel fold per
entry, whose verdict is read from the folded integers; only a failing
entry's residual series is built, for its witness.  Both refuse
matrices of different shapes.  When B is exact constants (a constant-Z
factorization), each a_ik * b_kj enters the fold as a_ik weighted and
moved by b_kj (``kernel.constant_term``), with a_ik's own floors, and no
product is formed.  The scalar helpers take rational (int or Fraction),
PadicNumber or UnramifiedScalar entries and read the ring from the
entries themselves; ``mat_inv`` is the one Gauss-Jordan elimination over
scalars.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .errors import SingularInput
from .padic import INF, PadicNumber, UnramifiedScalar
from .kernel import MAX_WIDTH, accumulate, constant_term, series_term
from .series import (AgreementVerdict, LaurentSeries, kernel_terms,
                     residual_verdict, series_dot, series_sum)


# ---------------------------------------------------------------------------
# Series matrices.
# ---------------------------------------------------------------------------


def smat_shape(a):
    """(rows, columns); a matrix whose rows differ in length is a shape
    mismatch."""
    m = len(a[0]) if a else 0
    if any(len(row) != m for row in a):
        raise ValueError("shape mismatch")
    return len(a), m


def smat_identity(n, p, nrel, window=None):
    one = LaurentSeries.one(p, nrel, window)
    zero = LaurentSeries.zero(p, nrel, window)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def smat_add(a, b):
    _same_shape(a, b)
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def smat_mul(a, b, out_window=None):
    return [[series_dot(pairs, out_window) for pairs in row]
            for row in _product_pairs(a, b)[0]]


def smat_mul_add(a, b, c):
    """a * b + c, each entry summed by one ``series_sum``."""
    rows = _product_pairs(a, b)[0]
    _same_shape(rows, c)
    return [[series_sum(pairs + [z]) for pairs, z in zip(row, crow)]
            for row, crow in zip(rows, c)]


def _product_pairs(a, b):
    """(rows, constant): the rows of a * b, each entry the list of pairs
    (a_ik, b_kj) that its kernel fold keeps, and whether each pair may
    enter it as ``kernel.constant_term``.  A pair with the tail-free exact
    zero is left out, as ``accumulate`` drops its term, but for the first
    pair of an entry that has nothing else, as the fold keeps its first
    zero term.  An entry at a prime other than a[0][0]'s raises "mixed
    primes".  ``constant`` when every entry of b that is not the tail-free
    exact zero is an exact constant at a's prime and at least a's nrel,
    each column of b holds one, and every entry of a is at that prime, its
    support hull within ``MAX_WIDTH`` exponents, so that no term of a * b
    raises."""
    if smat_shape(a)[1] != smat_shape(b)[0]:
        raise ValueError("shape mismatch")
    p = a[0][0].p if a and b else None
    constant, low, high = bool(b), INF, 0
    cols = []           # (column, its k with a kept entry; None: every k)
    for col in zip(*b):
        ks = []
        for k, c in enumerate(col):
            terms = c.terms
            if c.p != p:
                raise ValueError("mixed primes")
            if terms or c.base_floor is not None or not c.tail_free:
                ks.append(k)
                if constant and (len(terms) != 1 or c.floors
                                 or not c.tail_free
                                 or c.base_floor is not None
                                 or not terms.get(0, 0) % p):
                    constant = False
                elif c.nrel < low:
                    low = c.nrel
        if not ks:
            constant = False
        cols.append((col, None if len(ks) == len(col) else ks))
    every = range(len(b))
    rows = []
    for row in a:
        kept = []
        for s in row:
            if s.p != p:
                raise ValueError("mixed primes")
            kept.append(s.terms or s.base_floor is not None
                        or not s.tail_free)
            if constant:
                hull = (s._stats or s.summary())[3]
                if hull and hull[1] - hull[0] >= MAX_WIDTH:
                    constant = False
                if s.nrel > high:
                    high = s.nrel
        whole = all(kept)
        rows.append([list(zip(row, col)) if whole and ks is None else
                     [(row[k], col[k]) for k in (every if ks is None else ks)
                      if kept[k]] or [(row[0], col[0])] for col, ks in cols])
    return rows, constant and low >= high


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
    _same_shape(a, b)
    return _matrix_verdict((kernel_terms((x,), minus=y)
                            for x, y in zip(ra, rb))
                           for ra, rb in zip(a, b))


def smat_product_agree(a, b, x, out_window=None,
                       plus=None) -> AgreementVerdict:
    """``smat_agree(smat_mul(a, b, out_window), x)``, or with ``plus`` that
    of a * b + plus with each product on ``out_window``, with no product
    built: each residual sum a_ik * b_kj (+ plus_ij) - x_ij is one kernel
    fold over the pairs that ``smat_mul`` folds, exact because the kernel
    replays the left fold of ``+``.  Without ``out_window`` and ``plus``,
    and with b exact constants (``_product_pairs``), each a_ik enters
    weighted by b_kj (``kernel.constant_term``), its cells at their own
    floors where a product's share a_ik's worst: on X = A * B the verdict
    is the product fold's, and on any X it refutes whatever that fold
    refutes."""
    rows, constant = _product_pairs(a, b)
    _same_shape(rows, x)
    if plus is not None:
        _same_shape(rows, plus)
        return _matrix_verdict(
            (kernel_terms(pairs + [z], out_window, y)
             for pairs, z, y in zip(row, zrow, xrow))
            for row, zrow, xrow in zip(rows, plus, x))
    if constant and out_window is None:
        return _matrix_verdict(
            ([constant_term(s, c) for s, c in pairs] + [series_term(y, -1)]
             for pairs, y in zip(row, xrow))
            for row, xrow in zip(rows, x))
    return _matrix_verdict(
        (kernel_terms(pairs, out_window, y) for pairs, y in zip(row, xrow))
        for row, xrow in zip(rows, x))


def _same_shape(a, b):
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise ValueError("shape mismatch")


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
                d = residual_verdict(LaurentSeries(*accumulate(kterms)))
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
    signed = {}     # row: its entries and their negatives

    def minor(rows, cols):
        if len(cols) == 1:
            return a[rows[0]][cols[0]]
        key = (rows, cols)
        det = memo.get(key)
        if det is not None:
            return det
        r, rest = rows[0], rows[1:]
        if r not in signed:
            signed[r] = (a[r], [-x for x in a[r]])
        det = memo[key] = series_dot(
            ((signed[r][j % 2][c], minor(rest, cols[:j] + cols[j + 1:]))
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


def _coords(x):
    """The PadicNumber coordinates of a p-adic entry; None for a rational
    one (an int or a Fraction)."""
    if isinstance(x, PadicNumber):
        return (x,)
    if isinstance(x, UnramifiedScalar):
        return x.coords
    return None


def _ring_int(n, like):
    """The integer n in the ring of the entry ``like``."""
    if isinstance(like, PadicNumber):
        return PadicNumber.from_int(like.p, like.nrel, n)
    if isinstance(like, UnramifiedScalar):
        return like.field.from_int(n)
    return Fraction(n)


def _inverse(x):
    """1 / x in the ring of x; x is not zero at working precision."""
    if isinstance(x, UnramifiedScalar):
        return x.inverse()
    return _ring_int(1, x) / x


def _pivot_key(x):
    """A sort key, smaller is better: the least valuation of a p-adic
    entry's regular coordinates, 0 for a nonzero rational; None when x
    cannot be a pivot (zero at working precision)."""
    coords = _coords(x)
    if coords is None:
        return 0 if x != 0 else None
    return min((c.valuation for c in coords if c.is_regular), default=None)


def _is_exact_zero(x):
    """x is provably zero, so elimination may skip it (an inexact zero must
    not be skipped: its uncertainty propagates)."""
    coords = _coords(x)
    if coords is None:
        return x == 0
    return all(c.is_exact_zero for c in coords)


def mat_identity(n, like):
    """The n x n identity in the ring of the entry ``like``."""
    one, zero = _ring_int(1, like), _ring_int(0, like)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if smat_shape(a)[1] != smat_shape(b)[0]:
        raise ValueError("shape mismatch")
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _dot(xs, ys):
    """Sum of x * y over zip(xs, ys), both nonempty, as the left fold."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def mat_agree(a, b):
    """Entrywise: rational entries are equal, p-adic ones are not provably
    different."""
    _same_shape(a, b)
    return all(x == y if _coords(x) is None else x.agrees(y)
               for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_inv(a, error=SingularInput):
    """Gauss-Jordan inverse with best-valuation pivoting, in the ring of
    the entries; ``error`` is raised when no pivot is left.

    Rows are eliminated against every pivot unless their entry is an exact
    zero: an inexact zero O(p^f) still carries its uncertainty into the
    rest of the row.  Each column of the result sees the same operations
    whatever the other columns are.
    """
    n = _square(a, "inverse")
    work = [list(row) + e for row, e in zip(a, mat_identity(n, a[0][0]))]
    for col in range(n):
        best, best_q = None, None
        for r in range(col, n):
            q = _pivot_key(work[r][col])
            if q is not None and (best_q is None or q < best_q):
                best, best_q = r, q
        if best is None:
            raise error("matrix is singular at working precision")
        work[col], work[best] = work[best], work[col]
        piv_inv = _inverse(work[col][col])
        work[col] = [x * piv_inv for x in work[col]]
        for r in range(n):
            if r != col and not _is_exact_zero(work[r][col]):
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]
