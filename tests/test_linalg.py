import pytest

from conftest import rand_series, series
from sigma_nabla.linalg import smat_agree, smat_det
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
