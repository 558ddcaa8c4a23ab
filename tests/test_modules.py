import os
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import rand_gamma_invertible, rand_gammaplus_dieudonne, series
from sigma_nabla import textio
from sigma_nabla.errors import MembershipViolated, SingularFrobenius
from sigma_nabla.linalg import (
    mat_map,
    smat_add,
    smat_agree,
    smat_deriv,
    smat_identity,
    smat_mul,
    smat_scale,
    smat_sigma,
)
from sigma_nabla.modules import (
    SigmaNablaModule,
    base_change,
    basis_transform,
    check_compat,
    check_fv,
    quasi_nilpotence_probe,
    recover_verschiebung,
)
from sigma_nabla.padic import PadicNumber
from sigma_nabla.series import LaurentSeries, RingLabel

P, N = 3, 12
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def S(terms, **kw):
    return series(P, N, terms, **kw)


def fixture_module():
    """Phi = [u], N = [u^-1/(p-1)], q = p: the closed-form compatible pair."""
    return SigmaNablaModule(
        RingLabel("EDagger"), P,
        [[S([(1, 1)])]],
        [[S([(-1, Fraction(1, P - 1))])]])


def test_compat_constant_module():
    mod = SigmaNablaModule(RingLabel("Gamma"), P, [[S([(0, 1)])]], [[S([])]])
    assert check_compat(mod).holds


def test_compat_closed_form_fixture():
    v = check_compat(fixture_module())
    assert v.holds
    assert v.floor is None or v.floor >= N - 3


def test_compat_derivative_obstruction():
    mod = SigmaNablaModule(RingLabel("Gamma"), P, [[S([(1, 1)])]], [[S([])]])
    v = check_compat(mod)
    assert not v.holds
    assert v.position == (0, 0)
    assert v.residual_valuation == 0


@pytest.mark.parametrize("path, holds", [
    (("glue", "m1.json"), True),
    (("check_module", "m1_n_perturbed.json"), False),
])
def test_verdicts_are_true_exactly_when_they_hold(path, holds):
    mod = textio.expect_kind(textio.load_path(os.path.join(FIXTURES, *path)),
                             "module")
    for verdict in (check_compat(mod), check_fv(mod)):
        assert verdict.holds is holds
        assert bool(verdict) is holds


def test_compat_preserved_under_basis_change(rng):
    mod = fixture_module()
    for _ in range(10):
        y, y_inv = rand_gamma_invertible(rng, P, N, 1)
        out = basis_transform(mod, y, y_inv)
        assert check_compat(out).holds


def test_base_change_relabels_and_checks():
    mod = SigmaNablaModule(RingLabel("GammaPlus"), P,
                           [[S([(0, 1)])]], [[S([])]])
    out = base_change(mod, RingLabel("Gamma"))
    assert out.ring.kind == "Gamma"
    # the compatibility law is untouched by relabelling
    assert check_compat(out).holds == check_compat(mod).holds
    dag = SigmaNablaModule(RingLabel("EDagger"), P,
                           [[S([(-1, 1)])]], [[S([])]])
    out2 = base_change(dag, RingLabel("E"))
    assert out2.ring.kind == "E"
    bad = SigmaNablaModule(RingLabel("GammaDagger"), P,
                           [[S([(0, Fraction(1, P))])]], [[S([])]])
    with pytest.raises(MembershipViolated):
        base_change(bad, RingLabel("Gamma"))
    decreasing = SigmaNablaModule(RingLabel("E"), P, [[S([(0, 1)])]],
                                  [[S([])]])
    with pytest.raises(ValueError):
        base_change(decreasing, RingLabel("Gamma"))


def test_recover_verschiebung_diag():
    mod = SigmaNablaModule(
        RingLabel("E"), P,
        [[S([(0, 1)]), S([])], [S([]), S([(0, P)])]],
        [[S([]), S([])], [S([]), S([])]])
    out = recover_verschiebung(mod)
    want = [[S([(0, P)]), S([])], [S([]), S([(0, 1)])]]
    assert smat_agree(out.bmat, want).holds
    assert check_fv(out).holds


def test_recover_verschiebung_monomial():
    mod = SigmaNablaModule(RingLabel("E"), P, [[S([(1, 1)])]], [[S([])]])
    out = recover_verschiebung(mod)
    assert smat_agree(out.bmat, [[S([(-1, P)])]]).holds


def test_recover_verschiebung_triangular():
    mod = SigmaNablaModule(
        RingLabel("E"), P,
        [[S([(0, 1)]), S([(0, 1)])], [S([]), S([(0, P)])]],
        [[S([]), S([])], [S([]), S([])]])
    out = recover_verschiebung(mod)
    want = [[S([(0, P)]), S([(0, -1)])], [S([]), S([(0, 1)])]]
    assert smat_agree(out.bmat, want).holds


def test_recover_verschiebung_singular():
    mod = SigmaNablaModule(RingLabel("E"), P, [[S([])]], [[S([])]])
    with pytest.raises(SingularFrobenius):
        recover_verschiebung(mod)


def test_v_side_compatibility(rng):
    # whenever compat holds and B = p Phi^-1, the B-side diagram holds
    mod = fixture_module()
    for _ in range(5):
        y, y_inv = rand_gamma_invertible(rng, P, N, 1)
        out = basis_transform(mod, y, y_inv)
        out = recover_verschiebung(out)
        assert check_compat(out).holds
        assert check_fv(out).holds


def test_fv_transform_law(rng):
    # B transforms as sigma(Y^-1) B Y, preserving FV = p
    phi = [[S([(0, P)]), S([])], [S([]), S([(0, 1)])]]
    bmat = [[S([(0, 1)]), S([])], [S([]), S([(0, P)])]]
    nmat = [[S([]), S([])], [S([]), S([])]]
    mod = SigmaNablaModule(RingLabel("Gamma"), P, phi, nmat, bmat)
    assert check_fv(mod).holds
    for _ in range(5):
        y, y_inv = rand_gamma_invertible(rng, P, N, 2)
        out = basis_transform(mod, y, y_inv)
        assert check_fv(out).holds


def _fv_by_products(mod):
    """check_fv's (holds, floor) with every product built and compared:
    Phi*B and B*Phi against p*I, and d(B) + q*u^(q-1)*sigma(N)*B
    against B*N."""
    p_id = smat_scale(smat_identity(mod.rank, P, N),
                      PadicNumber.from_int(P, N, P))
    u_q = LaurentSeries.monomial(P, N, mod.q, mod.q - 1)
    lhs = smat_add(smat_deriv(mod.bmat),
                   mat_map(smat_mul(smat_sigma(mod.nmat, mod.f), mod.bmat),
                           lambda s: s.mul(u_q)))
    verdicts = [smat_agree(smat_mul(mod.phi, mod.bmat), p_id),
                smat_agree(smat_mul(mod.bmat, mod.phi), p_id),
                smat_agree(lhs, smat_mul(mod.bmat, mod.nmat))]
    floors = [v.floor for v in verdicts if v.floor is not None]
    return all(v.holds for v in verdicts), min(floors) if floors else None


def test_fv_matches_product_formula(rng):
    # seeded Dieudonne modules (FV = p, compatible), then the same modules
    # with one B entry or one N entry corrupted
    seen = set()
    for k in range(6):
        mod = rand_gammaplus_dieudonne(rng, P, N, 1 + k % 3)
        bad_b = [row[:] for row in mod.bmat]
        bad_b[0][-1] = bad_b[0][-1] + S([(1, 1)])
        bad_n = [row[:] for row in mod.nmat]
        bad_n[-1][0] = bad_n[-1][0] + S([(0, 1)])
        for m in (mod, replace(mod, bmat=bad_b), replace(mod, nmat=bad_n)):
            v = check_fv(m)
            assert (v.holds, v.floor) == _fv_by_products(m)
            seen.add(v.holds)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# Quasi-nilpotence probe.
# ---------------------------------------------------------------------------


def test_probe_zero_connection():
    mod = SigmaNablaModule(RingLabel("Gamma"), P, [[S([(0, 1)])]], [[S([])]])
    res = quasi_nilpotence_probe(mod, 10, 3)
    assert res.plausible
    assert res.profiles[0][0] == float("inf")


def test_probe_pochhammer_gains():
    mod = SigmaNablaModule(RingLabel("Gamma"), P, [[S([(0, 1)])]],
                           [[S([(-1, Fraction(1, P - 1))])]])
    res = quasi_nilpotence_probe(mod, 40, 3)
    assert res.plausible
    prof = res.profiles[0]
    assert prof[-1] >= 3
    # gains of at least one digit roughly every p steps
    assert all(prof[i] <= prof[i + P] for i in range(len(prof) - P))


def test_probe_refutes_p_inverse():
    mod = SigmaNablaModule(RingLabel("E"), P, [[S([(0, 1)])]],
                           [[S([(0, Fraction(1, P))])]])
    res = quasi_nilpotence_probe(mod, 40, 3)
    assert res.refuted
    assert res.profiles[0][0] == -1 and res.profiles[0][1] == -2
