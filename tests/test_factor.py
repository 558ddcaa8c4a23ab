import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    const_series_matrix,
    rand_const_invertible,
    rand_eplus_module,
    rand_gamma_invertible,
    rand_gammaplus_dieudonne,
    rand_robba_regime_x,
    rand_series,
    series,
)
from sigma_nabla.errors import NotConverged, SingularInput
from sigma_nabla.factor import (
    _col_min_valuation,
    _det_valuation,
    _mod_p_kernel,
    descend_to_eplus,
    glue_dieudonne,
    matfact_gamma,
    matfact_robba,
)
from sigma_nabla.linalg import (
    FractionOps,
    mat_inv,
    smat_agree,
    smat_identity,
    smat_mul,
)
from sigma_nabla.modules import basis_transform
from sigma_nabla.series import LaurentSeries, RingLabel, membership

P, N = 3, 12


def S(terms, **kw):
    return series(P, N, terms, **kw)


# ---------------------------------------------------------------------------
# matfact_gamma.
# ---------------------------------------------------------------------------


def test_gamma_1x1_split():
    f = matfact_gamma([[S([(1, Fraction(1, P))])]])
    assert smat_agree(f.y, [[S([(1, 1)])]]).holds
    assert f.z_constants[0][0].to_rational() == Fraction(1, P)


def test_gamma_diag_split():
    x = [[S([(1, Fraction(1, P))]), S([])], [S([]), S([(0, 1)])]]
    f = matfact_gamma(x)
    assert smat_agree(f.y, [[S([(1, 1)]), S([])], [S([]), S([(0, 1)])]]).holds
    assert f.z_constants[0][0].to_rational() == Fraction(1, P)
    assert f.z_constants[1][1].to_rational() == 1


def fraction_z(x):
    """Z the former way: matfact_gamma's column operations on A = X * z_inv,
    accumulated on Fractions in z_inv, and Z = z_inv^-1 by Gauss-Jordan."""
    n = len(x)
    a = [row[:] for row in x]
    z_inv = [[Fraction(i == j) for j in range(n)] for i in range(n)]

    def scale_col(j, v):
        for i in range(n):
            a[i][j] = a[i][j].shift_val(-v)
            z_inv[i][j] /= Fraction(P) ** v

    for j in range(n):
        scale_col(j, _col_min_valuation(a, j))
    dv = _det_valuation(a)
    while dv > 0:
        vec = _mod_p_kernel(a, P)
        j = max(i for i, v in enumerate(vec) if v)
        vec = [v * pow(vec[j], -1, P) % P for v in vec]
        for i in range(n):
            a[i][j] = sum((a[i][t] * S([(0, vec[t])]) for t in range(n)
                           if t != j), a[i][j])
            z_inv[i][j] = sum(vec[t] * z_inv[i][t] for t in range(n))
        v = _col_min_valuation(a, j)
        scale_col(j, v)
        dv -= v
    return mat_inv(z_inv, FractionOps())


def test_gamma_integer_z_is_the_inverse_of_the_fraction_accumulator():
    # Z kept on integers over one power of p against the Fraction
    # bookkeeping it replaced; Z0's diagonal powers of p start at p^-1, so
    # some columns of X start at a negative valuation and raise the
    # denominator
    rng = random.Random(112)
    negative = 0
    for trial in range(12):
        n = 1 + trial % 4
        y0, _ = rand_gamma_invertible(rng, P, N, n)
        z0, _ = rand_const_invertible(rng, P, N, n, pmin=-1)
        x = smat_mul(y0, const_series_matrix(z0, P, N))
        negative += any(_col_min_valuation(x, j) < 0 for j in range(n))
        z = matfact_gamma(x).z
        for row, want in zip(z, fraction_z(x)):
            for s, c in zip(row, want):
                w = S([(0, c)] if c else [])
                assert (s.window, s.tail_free, s.base_floor, s.cells()) == \
                    (w.window, w.tail_free, w.base_floor, w.cells()), trial
    assert negative >= 3


def test_gamma_roundtrip_random(rng):
    gamma = RingLabel("Gamma")
    rounds = 0
    for trial in range(15):
        n = rng.randint(1, 3)
        y0, _ = rand_gamma_invertible(rng, P, N, n)
        z0, _ = rand_const_invertible(rng, P, N, n)
        x = smat_mul(y0, const_series_matrix(z0, P, N))
        f = matfact_gamma(x)
        rounds += f.rounds
        assert f.product_verdict.holds
        assert f.det_valuation == 0
        # the loop tracks det(Y)'s valuation without recomputing it
        assert _det_valuation(f.y) == 0
        for row in f.y:
            for s in row:
                assert membership(s, gamma).consistent
        for row in f.z:
            for s in row:
                assert all(e == 0 for e in s.coeffs)
    assert rounds > 0


def test_gamma_rejects_unfactorable():
    # [[u, 1], [0, p]] admits no constant-Z factorization: any constant
    # right factor leaves det(Y) with positive p-valuation
    x = [[S([(1, 1)]), S([(0, 1)])], [S([]), S([(0, P)])]]
    with pytest.raises(SingularInput):
        matfact_gamma(x)


def test_gamma_rejects_singular():
    # det cancels exactly; at precision that reads as "no digits left"
    from sigma_nabla.errors import PrecisionExhausted
    with pytest.raises((SingularInput, PrecisionExhausted)):
        matfact_gamma([[S([(0, 1)]), S([(0, 1)])],
                       [S([(0, 1)]), S([(0, 1)])]])


# ---------------------------------------------------------------------------
# matfact_robba.
# ---------------------------------------------------------------------------


def test_robba_identity():
    f = matfact_robba(smat_identity(2, P, N))
    assert f.iterations == 0
    assert f.product_verdict.holds


def test_robba_single_minus_block():
    x = [[S([(0, 1)]), S([(-1, P)])], [S([]), S([(0, 1)])]]
    f = matfact_robba(x)
    assert smat_agree(f.y, x).holds
    assert smat_agree(f.z, smat_identity(2, P, N)).holds


def test_robba_two_factor_product():
    a = [[S([(0, 1)]), S([])], [S([(-1, P)]), S([(0, 1)])]]
    b = [[S([(0, 1)]), S([(1, 1)])], [S([]), S([(0, 1)])]]
    f = matfact_robba(smat_mul(a, b))
    assert f.product_verdict.holds
    rp = RingLabel("RPlus")
    for row in f.z:
        for s in row:
            assert membership(s, rp).consistent


def test_robba_roundtrip_random(rng):
    for _ in range(10):
        n = rng.randint(1, 3)
        x, *_ = rand_robba_regime_x(rng, P, N, n)
        f = matfact_robba(x)
        assert f.product_verdict.holds
        for row in f.y:
            for s in row:
                assert membership(s, f.y_label).consistent


def test_robba_rejects_outside_regime():
    x = [[S([(0, 1)]), S([(-1, 1)])], [S([]), S([(0, 1)])]]
    with pytest.raises(NotConverged):
        matfact_robba(x)


@pytest.mark.parametrize("e", [-130, -100])
def test_robba_rejects_minus_cell_of_valuation_zero(e):
    # a truncation on (-140, 10) whose minus part has valuation 0 at u^e;
    # u^-130 lies outside the default window (-127, 128) of the identity
    def T(terms):
        return S(terms, window=(-140, 10)).on_window((-140, 10), False)

    x = [[T([(0, 1)]), T([])], [T([(e, 1), (-1, P)]), T([(0, 1)])]]
    with pytest.raises(NotConverged, match="valuation < 1") as exc:
        matfact_robba(x)
    assert exc.value.iterations == 0


# ---------------------------------------------------------------------------
# Descent to E-plus.
# ---------------------------------------------------------------------------


def test_descend_identity_keeps_module(rng):
    mod = rand_eplus_module(rng, P, N, 2)
    mod_dag = replace(mod, ring=RingLabel("EDagger"))
    res = descend_to_eplus(mod_dag, smat_identity(2, P, N))
    assert res.compat.holds
    assert res.module.ring.kind == "EPlus"
    assert smat_agree(res.module.phi, mod.phi).holds


def test_descend_rank_one():
    # Phi = c u^-a * (unit); X = monomial moving it back into E-plus
    mod = replace(
        rand_eplus_module(__import__("random").Random(7), P, N, 1),
        ring=RingLabel("EDagger"))
    x = [[S([(2, 1)])]]
    x_inv = [[S([(-2, 1)])]]
    outward = basis_transform(mod, x_inv, x)
    res = descend_to_eplus(outward, x)
    assert res.compat.holds
    ep = RingLabel("EPlus")
    for name, s in res.module.entries():
        assert membership(s, ep).consistent, name


def test_descend_roundtrip_random(rng):
    for _ in range(8):
        n = rng.randint(1, 3)
        mod = rand_eplus_module(rng, P, N, n)
        x, y0, y0_inv, z0, z0_inv = rand_robba_regime_x(rng, P, N, n)
        outward = basis_transform(
            replace(mod, ring=RingLabel("EDagger")), y0_inv, y0)
        res = descend_to_eplus(outward, x)
        assert res.compat.holds
        ep = RingLabel("EPlus")
        for name, s in res.module.entries():
            assert membership(s, ep).consistent, name


# ---------------------------------------------------------------------------
# Gluing over Gamma-plus.
# ---------------------------------------------------------------------------


def test_glue_constant_x(rng):
    m1full = rand_gammaplus_dieudonne(rng, P, N, 2)
    m1 = replace(m1full, ring=RingLabel("Gamma"))
    z0, z0_inv = rand_const_invertible(rng, P, N, 2)
    x = const_series_matrix(z0, P, N)
    m2 = basis_transform(m1full, x, const_series_matrix(z0_inv, P, N))
    m2 = replace(m2, ring=RingLabel("EPlus"))
    res = glue_dieudonne(m1, m2, x)
    assert res.compat.holds and res.fv.holds
    assert res.module.ring.kind == "GammaPlus"


def test_glue_rank_one_p_scaling():
    # Phi = [p], N = [0], B = [1], X = [p^-1]: Y = [1], module unchanged
    m1 = __import__("sigma_nabla.modules", fromlist=["SigmaNablaModule"])
    from sigma_nabla.modules import SigmaNablaModule
    mod = SigmaNablaModule(RingLabel("Gamma"), P,
                           [[S([(0, P)])]], [[S([])]], [[S([(0, 1)])]])
    m2 = replace(mod, ring=RingLabel("EPlus"))
    res = glue_dieudonne(mod, m2, [[S([(0, Fraction(1, P))])]])
    assert res.compat.holds and res.fv.holds
    assert smat_agree(res.module.phi, mod.phi).holds
    assert smat_agree(res.module.bmat, mod.bmat).holds


def test_glue_roundtrip_random(rng):
    for _ in range(8):
        n = rng.randint(1, 3)
        m_plus = rand_gammaplus_dieudonne(rng, P, N, n)
        y0, y0_inv = rand_gamma_invertible(rng, P, N, n)
        z0, z0_inv = rand_const_invertible(rng, P, N, n)
        x = smat_mul(y0, const_series_matrix(z0, P, N))
        m1 = basis_transform(
            replace(m_plus, ring=RingLabel("Gamma")), y0_inv, y0)
        m2 = basis_transform(m_plus, const_series_matrix(z0, P, N),
                             const_series_matrix(z0_inv, P, N))
        m2 = replace(m2, ring=RingLabel("EPlus"))
        res = glue_dieudonne(m1, m2, x)
        assert res.compat.holds
        assert res.fv.holds
        gp = RingLabel("GammaPlus")
        for name, s in res.module.entries():
            assert membership(s, gp).consistent, name
