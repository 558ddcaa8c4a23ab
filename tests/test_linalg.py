import itertools
import math
import random
from dataclasses import replace

import pytest

from conftest import (
    const_series_matrix,
    rand_const_invertible,
    rand_gamma_invertible,
    rand_robba_regime_x,
    rand_series,
    series,
)
from sigma_nabla.errors import SigmaNablaError, WindowOverflow
from sigma_nabla.factor import matfact_gamma, matfact_robba
from sigma_nabla.linalg import (
    PadicOps,
    UnramOps,
    mat_inv,
    smat_add,
    smat_agree,
    smat_deriv,
    smat_det,
    smat_inv,
    smat_mul,
    smat_mul_add,
    smat_product_agree,
)
from sigma_nabla.padic import INF, PadicNumber, UnramifiedField
from sigma_nabla.series import (
    AgreementVerdict,
    LaurentSeries,
    residual_verdict,
    series_sum,
)

P, N = 3, 12


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
    return LaurentSeries(P, N, s.coeffs, (lo, hi), False,
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


def test_agree_reports_failing_position():
    one, two = series(P, N, [(0, 1)]), series(P, N, [(0, 2)])
    v = smat_agree([[one, one], [one, two]], [[one, one], [one, one]])
    assert not v.holds
    assert v.position == (1, 1)
    assert v.witness == 0
    assert smat_agree([[one]], [[one]]).position is None


def test_agree_forms_every_difference_before_the_scan():
    # entry (0, 0) disagrees, and entry (0, 1) is the difference of two
    # polynomials on disjoint windows, which has none: it raises, as a
    # later entry of smat_product_agree does
    one, two = series(P, N, [(0, 1)]), series(P, N, [(0, 2)])
    left, right = (LaurentSeries.zero(P, N, w) for w in ((0, 0), (5, 5)))
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


def reference_verdict(residuals):
    """The verdicts on rows of residual series, scanned in row-major order,
    one ``residual_verdict`` per entry: the worst floor, or the first
    failure with its (row, column)."""
    floor, window = INF, None
    for i, row in enumerate(residuals):
        for j, d in enumerate(row):
            v = residual_verdict(d)
            if not v.holds:
                return replace(v, position=(i, j))
            if v.floor is not None and v.floor < floor:
                floor = v.floor
            window = v.window if window is None else window
    return AgreementVerdict(True, None if floor is INF else int(floor),
                            window or (0, 0))


def entry_terms(a, b, i, j, plus):
    return list(zip(a[i], (row[j] for row in b))) + (
        [] if plus is None else [plus[i][j]])


def reference_product_agree(a, b, x, out_window, plus):
    """Each residual series built by ``series_sum`` (every entry, before
    the scan), and the residuals themselves."""
    residuals = [[series_sum(entry_terms(a, b, i, j, plus), out_window,
                             minus=x[i][j]) for j in range(len(x[0]))]
                 for i in range(len(x))]
    return reference_verdict(residuals), residuals


def verdict_outcome(fn):
    """fn's verdict, or the type and message of the error it raises."""
    try:
        return fn()
    except WindowOverflow as exc:
        return type(exc).__name__, str(exc)


def rand_entry(rng, nrel):
    """An exact zero, a pure floor O(p^f), a truncation (inexact zeros and
    cells known to few digits among its cells) or a polynomial, whose
    cells each keep their own floor, below any uniform one."""
    kind = rng.choice(("zero", "floor", "truncated", "truncated",
                       "polynomial", "polynomial"))
    if kind == "zero":
        return LaurentSeries(P, nrel, {}, (-rng.randint(0, 6),
                                           rng.randint(0, 6)),
                             rng.random() < 0.5, None)
    if kind == "floor":
        return LaurentSeries(P, nrel, {}, (-rng.randint(0, 8),
                                           rng.randint(0, 8)),
                             False, rng.randint(0, 8))
    cells = {}
    for _ in range(rng.randint(1, 4)):
        e = rng.randint(-4, 4)
        if rng.random() < 0.15:
            cells[e] = PadicNumber.inexact_zero(P, nrel, rng.randint(0, 6))
            continue
        prec = nrel if rng.random() < 0.6 else rng.randint(1, nrel)
        unit = rng.randrange(1, P ** prec)
        while unit % P == 0:
            unit = rng.randrange(1, P ** prec)
        cells[e] = PadicNumber._make(P, nrel, rng.randint(0, 3), unit, prec)
    lo, hi = min(cells), max(cells)
    if kind == "truncated":
        return LaurentSeries(P, nrel, cells, (lo - rng.randint(8, 14),
                                              hi + rng.randint(8, 14)),
                             False, rng.randint(3, 12))
    return LaurentSeries(P, nrel, cells, (lo - rng.randint(0, 2),
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


# ---------------------------------------------------------------------------
# Scalar Gauss-Jordan.
# ---------------------------------------------------------------------------


def test_mat_inv_keeps_inexact_zero_uncertainty():
    # entry [1][0] is 2^3 * unit: at nrel 3 the elimination leaves an
    # inexact zero in row 1 that must still act on the rest of the row
    ints = [[4, -1, 8], [4, 1, -6], [-6, 1, 1]]

    def inverse(nrel):
        ops = PadicOps(2, nrel)
        return mat_inv([[ops.from_int(x) for x in row] for row in ints], ops)

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

    def ops_at(prec):
        if degree == 1:
            return PadicOps(p, prec)
        return UnramOps(UnramifiedField(p, degree, prec))

    def build(ops, ints):
        if degree == 1:
            return [[ops.from_int(x) for x in row] for row in ints]
        return [[ops.field.scalar(x) for x in row] for row in ints]

    low_ops, high_ops = ops_at(nrel), ops_at(2 * nrel + 30)
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
            low = mat_inv(build(low_ops, ints), low_ops)
            high = mat_inv(build(high_ops, ints), high_ops)
        except SigmaNablaError:
            continue
        checked += 1
        for rl, rh in zip(low, high):
            for x, y in zip(rl, rh):
                assert x.agrees(y), (ints, x, y)
