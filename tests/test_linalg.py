import itertools
import math
import random

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
from sigma_nabla.padic import UnramifiedField
from sigma_nabla.series import LaurentSeries

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
