from fractions import Fraction

import pytest

from conftest import series
from sigma_nabla.errors import MembershipViolated, NonUnitPivot, NotHorizontal
from sigma_nabla.horizontal import horizontal_basis, horizontal_sub_basis
from sigma_nabla.linalg import smat_identity, smat_mul
from sigma_nabla.padic import INF, PadicNumber, vp_int
from sigma_nabla.series import LaurentSeries

P, N = 5, 12


def S(terms, p=P, nrel=N, **kw):
    return series(p, nrel, terms, **kw)


def generated_connection(rng, p, nrel, n, k_cap):
    """H0 = I + uA for a random constant A; N = -d(H0) H0^-1 truncated."""
    a_const = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    a_mat = [[S([(0, a_const[i][j])] if a_const[i][j] else [], p, nrel)
              for j in range(n)] for i in range(n)]
    ua = [[a_mat[i][j].shift_exp(1) for j in range(n)] for i in range(n)]
    # (I + uA)^-1 = sum (-uA)^k, truncated at degree k_cap
    acc = smat_identity(n, p, nrel)
    term = smat_identity(n, p, nrel)
    for _ in range(k_cap):
        term = smat_mul(term, [[-x for x in row] for row in ua],
                        out_window=(0, k_cap))
        acc = [[acc[i][j] + term[i][j] for j in range(n)] for i in range(n)]
    nmat = smat_mul([[-x for x in row] for row in a_mat], acc,
                    out_window=(0, k_cap))
    h0 = [[smat_identity(n, p, nrel)[i][j] + ua[i][j] for j in range(n)]
          for i in range(n)]
    return nmat, h0, a_const


def test_zero_connection_gives_identity():
    hb = horizontal_basis([[S([])]], 8)
    assert hb.degree_achieved == 8
    assert hb.h[0][0].coefficient(0).agrees(PadicNumber.from_int(P, N, 1))
    for k in range(1, 9):
        assert hb.h[0][0].coefficient(k).unit is None


def test_generated_instance_recovery(rng):
    for _ in range(8):
        n = rng.randint(1, 3)
        nmat, h0, _ = generated_connection(rng, P, N, n, 40)
        hb = horizontal_basis(nmat, 24)
        assert hb.degree_achieved == 24
        for i in range(n):
            for j in range(n):
                for k in range(25):
                    got = hb.h[i][j].coefficient(k)
                    want = h0[i][j].coefficient(k)
                    assert got.agrees(want), (i, j, k)
        assert hb.residual_valuation is INF or \
            hb.residual_valuation >= min(hb.floors)


def test_exponential_coefficients_and_floors():
    # N = [-1]: h' = h, so H = exp(u); precision decays like v_p(k!)
    p, nrel = 3, 6
    hb = horizontal_basis([[S([(0, -1)], p, nrel)]], 12)
    import math
    for k in range(hb.degree_achieved + 1):
        want = PadicNumber.from_rational(p, nrel,
                                         Fraction(1, math.factorial(k)))
        assert hb.h[0][0].coefficient(k).agrees(want)
    for k, fl in enumerate(hb.floors):
        assert fl == nrel - vp_int(math.factorial(k), p) if k else nrel


def test_exhaustion_reports_achieved_degree():
    # division losses consume all digits before k_max > p^nrel
    p, nrel = 3, 2
    hb = horizontal_basis([[S([(0, -1)], p, nrel)]], 12)
    assert hb.exhausted
    assert hb.degree_achieved < 12
    assert hb.floors[-1] >= 1


def test_truncated_connection_claims_nothing_past_its_window():
    # N = 1 + u + u^2 known only on (0, 2): H_(k+1) needs N_0 .. N_k, so
    # degree 3 is the last the window determines.  Two completions that
    # agree with N on (0, 2) must agree with it on every claimed cell
    p, nrel = 5, 8
    truncated = S([(0, 1), (1, 1), (2, 1)], p, nrel).on_window((0, 2), False)
    hb = horizontal_basis([[truncated]], 6)
    assert hb.degree_achieved == 3
    assert not hb.exhausted
    assert hb.floors == [8, 8, 8, 8]
    for completion in ([(0, 1), (1, 1), (2, 1)],
                       [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]):
        full = horizontal_basis([[S(completion, p, nrel)]], 6)
        assert full.degree_achieved == 6
        for k in range(hb.degree_achieved + 1):
            assert hb.h[0][0].coefficient(k).agrees(
                full.h[0][0].coefficient(k)), (completion, k)


def test_rejects_negative_exponents():
    with pytest.raises(MembershipViolated):
        horizontal_basis([[S([(-1, 1)])]], 4)


# ---------------------------------------------------------------------------
# Submodule bases.
# ---------------------------------------------------------------------------


def test_full_inclusion_identity():
    inc = smat_identity(2, P, N)
    res = horizontal_sub_basis(inc)
    for i in range(2):
        for j in range(2):
            want = PadicNumber.from_int(P, N, int(i == j))
            assert res.columns[i][j].coefficient(0).agrees(want)


def test_constant_column_is_horizontal():
    inc = [[S([(0, 1)])], [S([(0, 7)])]]
    res = horizontal_sub_basis(inc)
    assert res.columns[1][0].coefficient(0).agrees(
        PadicNumber.from_int(P, N, 7))


def test_non_horizontal_detected():
    inc = [[S([(0, 1)])], [S([(1, 1)])]]
    with pytest.raises(NotHorizontal) as exc:
        horizontal_sub_basis(inc)
    assert exc.value.residual_valuation == 0
    assert exc.value.position == (1, 0)


def test_unit_pivot_required():
    inc = [[S([(0, P)])], [S([(0, P * P)])]]
    with pytest.raises(NonUnitPivot):
        horizontal_sub_basis(inc)


def test_elimination_normalises_pivots(rng):
    # a 3x2 inclusion whose columns mix unit and non-unit rows
    inc = [[S([(0, 2)]), S([(0, 1)])],
           [S([(0, 3)]), S([(0, 4)])],
           [S([(0, 1)]), S([(0, 5)])]]
    res = horizontal_sub_basis(inc)
    # pivot rows carry exactly the identity
    for j, r in enumerate(res.pivot_rows):
        for jj in range(2):
            want = PadicNumber.from_int(P, N, int(jj == j))
            assert res.columns[r][jj].coefficient(0).agrees(want)
