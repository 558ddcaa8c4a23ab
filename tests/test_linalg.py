import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    const_series_matrix,
    entry_terms,
    padic_series,
    rand_const_invertible,
    rand_gamma_invertible,
    rand_robba_regime_x,
    rand_series,
    reference_pairs,
    reference_product_agree,
    reference_verdict,
    series,
    takes_constant_path,
)
from sigma_nabla import kernel, linalg, textio
from sigma_nabla import series as series_module
from sigma_nabla.errors import SigmaNablaError, WindowOverflow
from sigma_nabla.factor import matfact_gamma, matfact_robba
from sigma_nabla.linalg import (
    mat_agree,
    mat_inv,
    mat_mul,
    smat_add,
    smat_agree,
    smat_deriv,
    smat_det,
    smat_inv,
    smat_mul,
    smat_mul_add,
    smat_product_agree,
)
from sigma_nabla.kernel import MAX_WIDTH, product_term
from sigma_nabla.modules import check_compat, check_fv
from sigma_nabla.padic import INF, PadicNumber, UnramifiedField
from sigma_nabla.series import LaurentSeries, series_sum

P, N = 3, 12
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def plain_det(a):
    """Cofactor expansion along the first row with every minor recomputed:
    the oracle for the shared-minor determinant."""
    if len(a) == 1:
        return a[0][0]
    det = None
    for j in range(len(a)):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j].mul(plain_det(minor))
        if j % 2:
            term = -term
        det = term if det is None else det + term
    return det


def plain_inv(a):
    """Adjugate inverse with every cofactor a separate plain expansion on a
    copied minor matrix: the oracle for the shared-memo inverse."""
    n = len(a)
    det_inv = plain_det(a).invert()
    if n == 1:
        return [[det_inv]]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(a) if k != j]
            cof = plain_det(minor)
            if (i + j) % 2:
                cof = -cof
            row.append(cof.mul(det_inv))
        adj.append(row)
    return adj


def inverse_outcome(inv, a):
    """The described entries of inv(a), or the library error it raises."""
    try:
        return [[describe(s) for s in row] for row in inv(a)]
    except SigmaNablaError as exc:
        return type(exc)


def truncated(rng, s):
    """The same terms as a truncation: no claim outside a window around
    the support (wide enough for the windows of nested products to stay
    nonempty), nothing claimed at or beyond a uniform floor."""
    lo = min(s.coeffs, default=0) - rng.randint(24, 30)
    hi = max(s.coeffs, default=0) + rng.randint(24, 30)
    return padic_series(P, N, s.coeffs, (lo, hi), False,
                        rng.randint(2, N + 2))


def describe(s):
    return (repr(s), s.window, s.tail_free, s.base_floor)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_plain_expansion(rng, n):
    for trial in range(4 if n < 5 else 2):
        exact = [[rand_series(rng, P, N, -2, 2, -1, 3, rng.randint(0, 3))
                  for _ in range(n)] for _ in range(n)]
        assert describe(smat_det(exact)) == describe(plain_det(exact))
        mixed = [[truncated(rng, s) if rng.random() < 0.5 else s
                  for s in row] for row in exact]
        assert describe(smat_det(mixed)) == describe(plain_det(mixed))
        if n < 5:
            for a in (exact, mixed):
                assert inverse_outcome(smat_inv, a) == \
                    inverse_outcome(plain_inv, a)


def test_det_of_triangular_matrix_is_diagonal_product():
    a = [[series(P, N, [(1, 2)]), series(P, N, [(0, 5), (3, 1)]),
          series(P, N, [(-1, 7)])],
         [series(P, N, []), series(P, N, [(0, P)]), series(P, N, [(2, 1)])],
         [series(P, N, []), series(P, N, []), series(P, N, [(-2, 4)])]]
    want = series(P, N, [(-1, 2 * P * 4)])
    assert smat_agree([[smat_det(a)]], [[want]]).holds


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        smat_det([[series(P, N, [(0, 1)]), series(P, N, [(0, 1)])]])
    # the scalar inverse returned [[2, 1]]
    with pytest.raises(ValueError, match="non-square"):
        mat_inv([[1, 2]])


def test_agreement_checks_refuse_a_shape_mismatch():
    # every check refuses matrices whose shapes differ rather than zip
    # away the entries one of them lacks: X with a row or a column that
    # A * B lacks, an empty X (no entry would claim an exact verdict), B
    # with a column or a row that A lacks, plus with a column too many or
    # a row too few, and scalar matrices that differ in a row or a column
    one, two = series(P, N, [(0, 1)]), series(P, N, [(0, 2)])
    for check in (
            lambda: smat_product_agree([[one, one]], [[one], [one]],
                                       [[two], [one]]),
            lambda: smat_product_agree([[one]], [[one]], []),
            lambda: smat_product_agree([[one]], [[one]], [[one, one]]),
            lambda: smat_agree([[one]], [[one, two]]),
            lambda: smat_agree([[one], [one]], [[one]]),
            lambda: smat_product_agree([[one]], [[one]], [[two]],
                                       plus=[[one, one]]),
            lambda: smat_product_agree([[one], [one]], [[one]],
                                       [[two], [two]], plus=[[one]]),
            lambda: mat_agree([[1]], [[1, 2]]),
            lambda: mat_agree([[1], [2]], [[1]])):
        with pytest.raises(ValueError, match="shape mismatch"):
            check()


ONE = series(P, N, [(0, 1)])


@pytest.mark.parametrize("combine", [
    lambda: smat_add([[ONE]], [[ONE, ONE], [ONE]]),
    lambda: smat_mul_add([[ONE]], [[ONE]], [[ONE, ONE], [ONE, ONE]]),
    lambda: mat_mul([[1, 2]], [[1]]),
    lambda: mat_mul([[1]], [[1], [2]]),
    lambda: smat_product_agree([[ONE, ONE], [ONE]], [[ONE], [ONE]],
                               [[ONE + ONE], [ONE]]),
    lambda: smat_mul([[ONE, ONE]], [[ONE, ONE], [ONE]]),
    lambda: mat_mul([[1, 2], [3]], [[1], [2]]),
    lambda: smat_det([[ONE, ONE], [ONE]]),
    lambda: mat_inv([[1, 0], [0]]),
], ids=["smat_add", "smat_mul_add", "mat_mul_long_rows", "mat_mul_long_b",
        "ragged_product_agree", "ragged_smat_mul", "ragged_mat_mul",
        "ragged_smat_det", "ragged_mat_inv"])
def test_matrix_helpers_refuse_a_shape_mismatch(combine):
    # each returned a 1x1 matrix, zipping away the entries one side lacks:
    # b with a second row, c with a second row and column, a row of a
    # longer than b's column, a column of b longer than a's row; and a
    # ragged a or b, whose short rows were zipped away: the product check
    # held, smat_mul and mat_mul returned a matrix, smat_det raised
    # IndexError and mat_inv SingularInput
    with pytest.raises(ValueError, match="shape mismatch"):
        combine()


def test_agree_reports_failing_position():
    one, two = series(P, N, [(0, 1)]), series(P, N, [(0, 2)])
    v = smat_agree([[one, one], [one, two]], [[one, one], [one, one]])
    assert not v.holds
    assert v.position == (1, 1)
    assert v.witness == 0
    assert smat_agree([[one]], [[one]]).position is None


def test_agree_forms_every_difference_before_the_scan():
    # entry (0, 0) disagrees, and entry (0, 1) is the difference of two
    # truncated zeros on disjoint windows, which has none: it raises, as a
    # later entry of smat_product_agree does
    one, two = series(P, N, [(0, 1)]), series(P, N, [(0, 2)])
    left, right = (LaurentSeries.zero(P, N, w).on_window(w, False)
                   for w in ((0, 0), (5, 5)))
    with pytest.raises(WindowOverflow, match="empty exponent window"):
        smat_agree([[one, left]], [[two, right]])


def outcome(fn):
    """fn's result, or the type of the library error it raises."""
    try:
        return fn()
    except SigmaNablaError as exc:
        return type(exc)


def perturbed(rng, x):
    """X in half the draws; else X with one entry replaced by the exact
    zero, or with one of its cells moved by p^k (k up to 14, so some moves
    are below the floor and invisible)."""
    mode = rng.randrange(4)
    if mode < 2:
        return x
    x = [row[:] for row in x]
    i, j = rng.randrange(len(x)), rng.randrange(len(x))
    s = x[i][j]
    if mode == 2:
        x[i][j] = LaurentSeries.zero(P, N)
    else:
        e = rng.choice(sorted(s.terms) or [0])
        x[i][j] = s + LaurentSeries.monomial(P, N, P ** rng.randint(0, 14), e)
    return x


def test_product_agree_is_the_verdict_on_the_built_product():
    # seeded gamma and robba factors Y, Z of X: the verdict on Y * Z (+ dY)
    # against X (+ dY), perturbed in about half the draws, equals the one
    # on the built product field for field, or both raise the same error
    rng = random.Random(7)
    seen = set()
    for trial in range(24):
        n = 1 + trial % 3
        if trial % 2:
            y0, _ = rand_gamma_invertible(rng, P, N, n)
            z0, _ = rand_const_invertible(rng, P, N, n, pmin=-1)
            x = smat_mul(y0, const_series_matrix(z0, P, N))
            f = matfact_gamma(x)
        else:
            x, *_ = rand_robba_regime_x(rng, P, N, n)
            f = matfact_robba(x)
        a, b = f.y, f.z
        for plus in (None, smat_deriv(a)):
            xp = perturbed(rng, x if plus is None else smat_add(x, plus))
            if plus is None:
                old = outcome(lambda: smat_agree(smat_mul(a, b), xp))
            else:
                old = outcome(lambda: smat_agree(smat_mul_add(a, b, plus),
                                                 xp))
            new = outcome(lambda: smat_product_agree(a, b, xp, plus=plus))
            assert new == old, (trial, plus is None, old, new)
            if not isinstance(old, type):
                seen.add(old.holds)
    assert seen == {False, True}
    # a product past the window cap: (1 + u^200)^2 populates u^0 and u^400
    wide = [[series(P, N, [(0, 1), (200, 1)], (0, 200))]]
    for plus in (None, wide):
        old = outcome(lambda: smat_agree(
            smat_mul(wide, wide) if plus is None
            else smat_mul_add(wide, wide, plus), wide))
        assert old is WindowOverflow
        assert outcome(lambda: smat_product_agree(wide, wide, wide,
                                                  plus=plus)) is old


def verdict_outcome(fn):
    """fn's verdict, or the type and message of the error it raises."""
    try:
        return fn()
    except WindowOverflow as exc:
        return type(exc).__name__, str(exc)


def rand_entry(rng, nrel, p=P):
    """An exact zero, a pure floor O(p^f), a truncation (inexact zeros and
    cells known to few digits among its cells) or a polynomial, whose
    cells each keep their own floor, below any uniform one, at prime p."""
    kind = rng.choice(("zero", "floor", "truncated", "truncated",
                       "polynomial", "polynomial"))
    if kind == "zero":
        return padic_series(p, nrel, {}, (-rng.randint(0, 6),
                                          rng.randint(0, 6)),
                            rng.random() < 0.5, None)
    if kind == "floor":
        return padic_series(p, nrel, {}, (-rng.randint(0, 8),
                                          rng.randint(0, 8)),
                            False, rng.randint(0, 8))
    cells = {}
    for _ in range(rng.randint(1, 4)):
        e = rng.randint(-4, 4)
        if rng.random() < 0.15:
            cells[e] = PadicNumber.inexact_zero(p, nrel, rng.randint(0, 6))
            continue
        prec = nrel if rng.random() < 0.6 else rng.randint(1, nrel)
        unit = rng.randrange(1, p ** prec)
        while unit % p == 0:
            unit = rng.randrange(1, p ** prec)
        cells[e] = PadicNumber._make(p, nrel, rng.randint(0, 3), unit, prec)
    lo, hi = min(cells), max(cells)
    if kind == "truncated":
        return padic_series(p, nrel, cells, (lo - rng.randint(8, 14),
                                             hi + rng.randint(8, 14)),
                            False, rng.randint(3, 12))
    return padic_series(p, nrel, cells, (lo - rng.randint(0, 2),
                                         hi + rng.randint(0, 2)), True,
                        None)


def test_product_agree_reads_the_verdict_of_each_residual():
    # seeded sums of products against X built from them, as built or with
    # one cell of one entry moved, or one entry replaced: the verdict read
    # from the kernel's fold equals the verdicts of the residual series
    # scanned in row-major order, field for field, or both raise the same
    # error; and so does smat_agree against the verdicts on X - X'
    rng = random.Random(19)
    seen = dict(holds=0, fails_later=0, raises_after_failure=0,
                low_floor_holds=0, inexact_zero=0, out_window=0, plus=0)
    for trial in range(600):
        nrel = rng.choice((6, 10, None))
        n, k, m = (rng.randint(1, 3) for _ in range(3))

        def entry():
            return rand_entry(rng, nrel or rng.choice((6, 10)))

        a = [[entry() for _ in range(k)] for _ in range(n)]
        b = [[entry() for _ in range(m)] for _ in range(k)]
        plus = ([[entry() for _ in range(m)] for _ in range(n)]
                if rng.random() < 0.3 else None)
        out_window = None
        if rng.random() < 0.25:
            lo = -rng.randint(0, 8)
            out_window = (lo, lo + rng.randint(0, 16))
        wide = out_window is None and m > 1 and rng.random() < 0.1
        if wide:
            # (u^-70 + u^70)^2 populates 281 exponents, past the window
            # cap: entry (0, m - 1) raises after entry (0, 0) is checked
            t = rng.randrange(k)
            a[0][t], b[t][m - 1] = (series(P, nrel or 10, [(-70, 1), (70, 1)])
                                    for _ in range(2))
            b[t][0] = series(P, nrel or 10, [(rng.randint(-4, 4), 1)])
        built = [[verdict_outcome(lambda: series_sum(
            entry_terms(a, b, i, j, plus), out_window))
            for j in range(m)] for i in range(n)]
        x = [[s if isinstance(s, LaurentSeries) else entry() for s in row]
             for row in built]
        mode = rng.randrange(4)
        if wide or mode >= 2:
            i, j = ((0, 0) if wide else
                    (rng.randrange(n), rng.randrange(m)))
            s = x[i][j]
            if mode == 3 and not wide:
                x[i][j] = entry()
            else:
                e = rng.choice(sorted(s.terms) or [0])
                x[i][j] = s + LaurentSeries.monomial(
                    P, s.nrel, P ** (0 if wide else rng.randint(0, 12)), e)
        try:
            want, residuals = reference_product_agree(a, b, x, out_window,
                                                      plus)
        except WindowOverflow as exc:
            want = type(exc).__name__, str(exc)
        got = verdict_outcome(
            lambda: smat_product_agree(a, b, x, out_window, plus))
        assert got == want, (trial, want, got)
        operands = [s for mat in (a, b, x, plus or []) for row in mat
                    for s in row]
        seen["inexact_zero"] += any(not r for s in operands
                                    for r in s.terms.values())
        seen["out_window"] += out_window is not None
        seen["plus"] += plus is not None
        if isinstance(want, tuple):
            # the error of a later entry, whatever an earlier one says
            first = verdict_outcome(lambda: reference_verdict(
                [[series_sum(entry_terms(a, b, 0, 0, plus), None,
                             minus=x[0][0])]]))
            seen["raises_after_failure"] += wide and not isinstance(
                first, tuple) and not first.holds
            continue
        seen["holds"] += want.holds
        seen["fails_later"] += (not want.holds) and want.position != (0, 0)
        seen["low_floor_holds"] += want.holds and any(
            d.floors for row in residuals for d in row)
        # the same path for X against X'
        assert smat_agree(built, x) == reference_verdict(
            [[s - t for s, t in zip(rs, rt)] for rs, rt in zip(built, x)])
    assert min(seen.values()) >= 10, seen


def product_fold(a, b, x, out_window=None):
    """smat_product_agree's verdict with every pair a kernel product: the
    pairs of ``_product_pairs``, ``series.kernel_terms`` and
    ``_matrix_verdict``, or the type and text of the error it raises."""
    return verdict_outcome(lambda: linalg._matrix_verdict(
        (series_module.kernel_terms(pairs, out_window, y)
         for pairs, y in zip(row, xrow))
        for row, xrow in zip(linalg._product_pairs(a, b)[0], x)))


def exact_constants(rng, p, nrel, k, m):
    """Z = zint / p^den as series, den in 0..2, about a third of its
    entries the exact zero and one nonzero entry in each column."""
    den = rng.randint(0, 2)
    zint = [[rng.choice((0, rng.randint(-40, 40))) for _ in range(m)]
            for _ in range(k)]
    for j in range(m):
        if not any(row[j] for row in zint):
            zint[rng.randrange(k)][j] = rng.randint(1, 40)
    return [[series(p, nrel, [(0, Fraction(c, p ** den))]) if c else
             LaurentSeries.zero(p, nrel) for c in row] for row in zint]


def test_product_agree_weights_a_by_exact_constants(monkeypatch):
    # seeded A with truncated, tail-free, exact-zero and inexact-zero
    # entries at p = 3 and 5, at nrel 6 or 10, and exact Z = zint / p^den
    # at the larger nrel: against X = A * Z, as built or with one cell
    # moved, the constant path's verdict equals the product fold's field
    # for field, or both raise the same error.  It forms a product only
    # for a pair whose A entry has no nonzero cell, or the one pair kept
    # of an entry whose pairs all hold the tail-free exact zero.  Against
    # an X drawn apart from A and Z, each cell is read at its own floor
    # rather than at A's worst one: the constant path refutes whatever the
    # fold refutes, at the same entry or an earlier one; where both hold
    # its floor is at least the fold's; and a tail-free residual widens to
    # at least the cells the fold widens to, since a cell that survives
    # the uniform floor survives its own
    rng = random.Random(43)
    products = []

    def counting(pair, out_window):
        products.append(pair)
        return product_term(pair, out_window)

    seen = dict(holds=0, fails=0, zero_products=0, finer=0)
    for trial in range(400):
        p = (3, 5)[trial % 2]
        nrel = rng.choice((6, 10))
        n, k, m = (rng.randint(1, 3) for _ in range(3))
        a = [[rand_entry(rng, rng.choice((6, nrel)), p) for _ in range(k)]
             for _ in range(n)]
        z = exact_constants(rng, p, nrel, k, m)
        mode = trial % 3
        if mode == 2:
            x = [[rand_entry(rng, nrel, p) for _ in range(m)]
                 for _ in range(n)]
        else:
            try:
                x = smat_mul(a, z)
            except WindowOverflow:
                continue
            if mode == 1:
                i, j = rng.randrange(n), rng.randrange(m)
                s = x[i][j]
                e = rng.choice(sorted(s.terms) or [0])
                x[i][j] = s + LaurentSeries.monomial(
                    p, s.nrel, p ** rng.randint(0, 12), e)
        want = product_fold(a, z, x)
        monkeypatch.setattr(kernel, "product_term", counting)
        products.clear()
        got = verdict_outcome(lambda: smat_product_agree(a, z, x))
        monkeypatch.setattr(kernel, "product_term", product_term)
        if isinstance(got, tuple) or mode < 2:
            assert got == want, (trial, want, got)
        else:
            assert not isinstance(want, tuple), trial
            if want.holds:
                assert not got.holds or (
                    INF if got.floor is None else got.floor) >= (
                    INF if want.floor is None else want.floor), trial
            else:
                assert not got.holds and got.position <= want.position, \
                    trial
            if got.position == want.position:
                assert got.window[0] <= want.window[0] <= want.window[1] \
                    <= got.window[1], trial
            seen["finer"] += got != want
        if isinstance(got, tuple):
            continue
        seen["holds" if got.holds else "fails"] += 1
        # every entry's terms are formed before the scan: one product per
        # pair whose A entry has no nonzero cell or whose Z entry is the
        # exact zero (an entry's one kept pair)
        formed = sum(s.valuation() is None or not c.terms
                     for row in linalg._product_pairs(a, z)[0] for pairs in row
                     for s, c in pairs)
        assert len(products) == formed, trial
        seen["zero_products"] += formed > 0
    assert min(seen.values()) >= 10, seen
    # a truncation ahead of a polynomial whose cell lies outside its
    # window: the fold is truncated from its first term on, so it does not
    # widen to that cell
    cut = padic_series(P, 6, {0: PadicNumber.from_int(P, 6, 1)}, (-2, 2),
                       False, 4)
    a = [[cut, series(P, 6, [(5, 1)])]]
    z = [[series(P, 6, [(0, 1)])], [series(P, 6, [(0, 1)])]]
    x = [[series(P, 6, [(0, 1), (5, 1)])]]
    got = smat_product_agree(a, z, x)
    assert got == product_fold(a, z, x) and got.window == (-2, 2)


def test_product_agree_keeps_the_product_fold_off_exact_constants(
        monkeypatch):
    # a Z entry with a floor, an all-zero column, a constant below A's
    # nrel, a constant off exponent 0, an out_window or a plus: every pair
    # is formed as a kernel product, and the verdict is the product fold's
    rng = random.Random(47)
    products = []

    def counting(pair, out_window):
        products.append(pair)
        return product_term(pair, out_window)

    def floored(z):
        z[0][0] = z[0][0].widen_floor(8)

    def zero_column(z):
        for row in z:
            row[0] = LaurentSeries.zero(P, N)

    def lower_nrel(z):
        z[0][0] = series(P, N - 1, [(0, 7)])

    def off_zero(z):
        z[0][0] = series(P, N, [(1, 7)])

    y0, _ = rand_gamma_invertible(rng, P, N, 2)
    z0 = exact_constants(rng, P, N, 2, 2)
    z0[0][0] = series(P, N, [(0, 5)])
    plus = smat_deriv(y0)
    for change, out_window, add in ((floored, None, None),
                                    (zero_column, None, None),
                                    (lower_nrel, None, None),
                                    (off_zero, None, None),
                                    (None, (-6, 6), None),
                                    (None, None, plus)):
        z = [row[:] for row in z0]
        if change is not None:
            change(z)
        if add is None:
            x = smat_mul(y0, z)
            want = product_fold(y0, z, x, out_window)
        else:
            x = smat_mul_add(y0, z, add)
            want = reference_product_agree(y0, z, x, plus=add)[0]
        monkeypatch.setattr(series_module, "product_term", counting)
        monkeypatch.setattr(kernel, "product_term", counting)
        products.clear()
        got = smat_product_agree(y0, z, x, out_window, add)
        monkeypatch.setattr(series_module, "product_term", product_term)
        monkeypatch.setattr(kernel, "product_term", product_term)
        assert got == want and got.holds, change
        assert len(products) == sum(
            len(pairs) for row in linalg._product_pairs(y0, z)[0]
            for pairs in row), change
    # the same Z without the change takes the constant path
    products.clear()
    monkeypatch.setattr(kernel, "product_term", counting)
    assert smat_product_agree(y0, z0, smat_mul(y0, z0)).holds
    assert not products


# ---------------------------------------------------------------------------
# Scalar Gauss-Jordan.
# ---------------------------------------------------------------------------


def test_mat_inv_keeps_inexact_zero_uncertainty():
    # entry [1][0] is 2^3 * unit: at nrel 3 the elimination leaves an
    # inexact zero in row 1 that must still act on the rest of the row
    ints = [[4, -1, 8], [4, 1, -6], [-6, 1, 1]]

    def inverse(nrel):
        return mat_inv([[PadicNumber.from_int(2, nrel, x) for x in row]
                        for row in ints])

    low, high = inverse(3), inverse(60)
    assert repr(low[1][0]) == "O(2^3)"
    assert high[1][0].val == 3
    assert all(x.agrees(y) for rl, rh in zip(low, high)
               for x, y in zip(rl, rh))


def int_det(ints):
    """Leibniz expansion of an integer determinant."""
    n = len(ints)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(
            ints[i][perm[i]] for i in range(n))
    return total


@pytest.mark.parametrize("degree", [1, 2])
def test_mat_inv_sound_against_higher_precision(rng, degree):
    # integral matrices over Q_p (det divisible by p^2) and over Q_{p^2}:
    # every digit the low-precision inverse claims must agree with a run
    # at 2*nrel+30
    p, nrel = 2, 3

    def entry_at(prec):
        if degree == 1:
            return lambda x: PadicNumber.from_int(p, prec, x)
        return UnramifiedField(p, degree, prec).scalar

    def build(entry, ints):
        return [[entry(x) for x in row] for row in ints]

    low_entry, high_entry = entry_at(nrel), entry_at(2 * nrel + 30)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 4)
        if degree == 1:
            ints = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
            det = int_det(ints)
            if det == 0 or det % p ** 2:
                continue
        else:
            ints = [[[rng.randint(-8, 8) for _ in range(degree)]
                     for _ in range(n)] for _ in range(n)]
        try:
            low = mat_inv(build(low_entry, ints))
            high = mat_inv(build(high_entry, ints))
        except SigmaNablaError:
            continue
        checked += 1
        for rl, rh in zip(low, high):
            for x, y in zip(rl, rh):
                assert x.agrees(y), (ints, x, y)


def _form(fn):
    """The integer forms of the matrix fn returns, or the type and text of
    the error it raises."""
    try:
        return [[(s.p, s.nrel, s.base, s.terms, s.floors, s.window,
                  s.tail_free, s.base_floor) for s in row] for row in fn()]
    except (ValueError, SigmaNablaError) as exc:
        return type(exc).__name__, str(exc)


def test_mul_forms_no_product_with_the_tail_free_exact_zero(monkeypatch):
    # seeded matrices of exact zeros (tail-free and truncated), pure floors,
    # truncations and polynomials: smat_mul and smat_mul_add equal the fold
    # over every pair (entry_terms) field for field, windows included, or
    # raise the same error; a product with the tail-free exact zero is
    # formed only as the first pair of an entry that has nothing else
    rng = random.Random(41)
    zero_products, seen = [], dict(kept_one=0, dropped=0)

    def counting(pair, out_window):
        zero_products.append(any(s.is_exact_zero and s.tail_free
                                 for s in pair))
        return product_term(pair, out_window)

    for trial in range(150):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        nrel = rng.choice((6, 12))
        a = [[rand_entry(rng, nrel) for _ in range(m)] for _ in range(n)]
        b = [[rand_entry(rng, nrel) for _ in range(n)] for _ in range(m)]
        c = [[rand_entry(rng, nrel) for _ in range(n)] for _ in range(n)]
        out_window = (-6, 6) if trial % 3 == 0 else None
        want = _form(lambda: [[series_sum(entry_terms(a, b, i, j, None),
                                          out_window) for j in range(n)]
                              for i in range(n)])
        want_add = _form(lambda: [[series_sum(entry_terms(a, b, i, j, c))
                                   for j in range(n)] for i in range(n)])
        monkeypatch.setattr(series_module, "product_term", counting)
        zero_products.clear()
        got = _form(lambda: smat_mul(a, b, out_window))
        formed, calls = sum(zero_products), len(zero_products)
        got_add = _form(lambda: smat_mul_add(a, b, c))
        monkeypatch.setattr(series_module, "product_term", product_term)
        assert got == want, trial
        assert got_add == want_add, trial
        if isinstance(got, list):
            # one zero product per entry whose pairs all have one
            only = sum(all(x.is_exact_zero and x.tail_free or
                           y.is_exact_zero and y.tail_free
                           for x, y in zip(row, col))
                       for row in a for col in zip(*b))
            assert formed == only, trial
            seen["kept_one"] += only > 0
            seen["dropped"] += calls < n * n * m
    assert min(seen.values()) >= 10, seen


def test_one_pair_builder_keeps_the_fold_s_pairs_and_flags_constants():
    # seeded A (rand_entry) against B of exact constants and tail-free
    # exact zeros, at p = 3 or 5, with one change or none: a B or an A
    # entry at the other prime, an all-zero column of B, a constant with
    # a floor, one below A's nrel, one off exponent 0, a truncated one, or
    # an A entry whose hull spans MAX_WIDTH or more exponents (or one
    # fewer).  The builder raises "mixed primes" on an entry at the other
    # prime; else it keeps the reference's pairs, and flags the constant
    # path exactly when the reference predicate holds
    rng = random.Random(53)
    seen = Counter()
    kinds = ("none", "prime_b", "prime_a", "zero_column", "floor",
             "lower_nrel", "off_zero", "truncated", "wide", "narrow")
    for trial in range(600):
        p, q = ((3, 5), (5, 3))[trial % 2]
        nrel = rng.choice((6, 10))
        n, k, m = (rng.randint(1, 3) for _ in range(3))
        a = [[rand_entry(rng, rng.choice((6, nrel)), p) for _ in range(k)]
             for _ in range(n)]
        b = exact_constants(rng, p, nrel, k, m)
        kind = kinds[trial % len(kinds)]
        i, j = rng.randrange(k), rng.randrange(m)
        if kind == "prime_b":
            b[i][j] = series(q, nrel, [(0, 1)])
        elif kind == "prime_a":
            a[rng.randrange(n)][i] = series(q, nrel, [(0, 1)])
        elif kind == "zero_column":
            for row in b:
                row[j] = LaurentSeries.zero(p, nrel)
        elif kind == "floor":
            b[i][j] = b[i][j].widen_floor(rng.randint(1, nrel))
        elif kind == "lower_nrel":
            b[i][j] = series(p, max(s.nrel for row in a for s in row) - 1,
                             [(0, 7)])
        elif kind == "off_zero":
            b[i][j] = series(p, nrel, [(rng.choice((-1, 1)), 7)])
        elif kind == "truncated":
            b[i][j] = b[i][j].on_window(b[i][j].window, False)
        elif kind in ("wide", "narrow"):
            top = (MAX_WIDTH - 1 if kind == "narrow"
                   else MAX_WIDTH + rng.randint(0, 2))
            a[rng.randrange(n)][i] = series(p, nrel, [(0, 1), (top, 2)],
                                            (-2, top + 2))
        if kind in ("prime_a", "prime_b"):
            with pytest.raises(ValueError, match="mixed primes"):
                linalg._product_pairs(a, b)
            seen[kind, False] += 1
            continue
        rows, constant = linalg._product_pairs(a, b)
        assert rows == reference_pairs(a, b), trial
        assert constant == takes_constant_path(a, b), trial
        seen[kind, constant] += 1
    for kind in kinds:
        assert seen[kind, kind in ("none", "narrow")] == 60, (kind, seen)


def test_mul_with_a_zero_at_another_prime_raises():
    # the pair that the fold would drop still meets the other prime
    three = series(3, N, [(0, 1)])
    five = series(5, N, [(0, 1)])
    zero3, zero5 = LaurentSeries.zero(3, N), LaurentSeries.zero(5, N)
    for a, b in (([[three, zero5]], [[three], [three]]),
                 ([[zero3, five]], [[three], [five]]),
                 ([[three]], [[zero5]]),
                 ([[three, three]], [[three], [zero5]]),
                 ([[three, three]], [[three], [five]])):
        with pytest.raises(ValueError, match="mixed primes"):
            smat_mul(a, b)
        with pytest.raises(ValueError, match="mixed primes"):
            smat_mul_add(a, b, [[three]])
        with pytest.raises(ValueError, match="mixed primes"):
            smat_product_agree(a, b, [[three]])


def test_each_series_is_packed_once_per_width(monkeypatch):
    s = series(P, N, [(e, 1 + e * e) for e in range(12)])
    assert s._packs is None
    fresh = []          # (series, slot width) of each fresh pack, kept alive
    packed = kernel._packed

    def spy(x, size):
        if size not in x._packs:
            fresh.append((x, size))
        return packed(x, size)

    monkeypatch.setattr(kernel, "_packed", spy)
    # a lone a * a, taken twice, packs its one series once
    for _ in range(2):
        s * s
    assert len(fresh) == 1 and fresh[0][0] is s and fresh[0][1] == 8
    # the compatibility and FV checks of a rank-3 module pack every dense
    # entry of Phi and B itself, not a copy, once per slot width
    fresh.clear()
    mod = textio.expect_kind(textio.load_path(
        os.path.join(FIXTURES, "glue", "m1.json")), "module")
    assert mod.rank == 3
    assert check_compat(mod).holds and check_fv(mod).holds
    assert len(fresh) == len({(id(x), size) for x, size in fresh})
    dense = [x for mat in (mod.phi, mod.bmat) for row in mat for x in row
             if len(x.terms) >= kernel.PACK_CELLS]
    assert len(dense) >= 9
    for x in dense:
        assert any(y is x for y, _ in fresh)
