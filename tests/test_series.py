from fractions import Fraction

import pytest

from conftest import (
    oracle_add,
    oracle_from_series,
    oracle_matches,
    oracle_mul,
    rand_series,
    rand_unit_series,
    series,
)
from sigma_nabla.errors import NotAUnit, WindowOverflow
from sigma_nabla.padic import PadicNumber
from sigma_nabla.series import (
    RING_KINDS,
    LaurentSeries,
    OneForm,
    RingLabel,
    d_sigma,
    derivation_d,
    membership,
    series_agree,
    series_invert,
    sigma_apply,
)

P, N = 3, 12


def S(terms, **kw):
    return series(P, N, terms, **kw)


def agrees(a, b):
    return series_agree(a, b).holds


# ---------------------------------------------------------------------------
# Arithmetic.
# ---------------------------------------------------------------------------


def test_polynomial_identity():
    prod = S([(1, 1), (0, P)]) * S([(1, 1), (0, -P)])
    assert agrees(prod, S([(2, 1), (0, -P * P)]))


def test_unit_pair():
    assert agrees(S([(-1, 1)]) * S([(1, 1)]), S([(0, 1)]))


def test_distributivity_against_rational_oracle(rng):
    for _ in range(30):
        a = rand_series(rng, P, N)
        b = rand_series(rng, P, N)
        c = rand_series(rng, P, N)
        lhs = (a + b) * c
        rhs = a * c + b * c
        assert agrees(lhs, rhs)
        oracle = oracle_mul(oracle_add(oracle_from_series(a),
                                       oracle_from_series(b)),
                            oracle_from_series(c))
        assert oracle_matches(oracle, lhs, P, N)


def test_sum_window_is_intersection():
    a = S([(0, 1)], window=(-4, 10))
    b = S([(1, 1)], window=(-10, 4))
    assert (a + b).window == (-4, 4)


def test_product_window_overflow():
    a = S([(0, 1), (30, 1)], window=(0, 30))
    with pytest.raises(WindowOverflow):
        a.mul(a, max_width=32)


# ---------------------------------------------------------------------------
# Inversion.
# ---------------------------------------------------------------------------


def test_invert_monomial():
    inv = series_invert(S([(1, 1)]), target_window=(-4, 4))
    assert agrees(inv, S([(-1, 1)], window=(-4, 4)))


def test_invert_geometric():
    # (1 - pu)^-1 = sum p^n u^n
    a = S([(0, 1), (1, -P)])
    b = series_invert(a, target_window=(0, 14))
    for k in range(10):
        want = PadicNumber.from_rational(P, N, Fraction(P ** k))
        assert b.coefficient(k).agrees(want)
    assert agrees(a * b, S([(0, 1)]))


def test_invert_u_plus_p():
    # (u + p)^-1 = sum (-p)^n u^(-n-1)
    a = S([(1, 1), (0, P)])
    b = series_invert(a, target_window=(-13, 2))
    for k in range(8):
        want = PadicNumber.from_rational(P, N, Fraction((-P) ** k))
        assert b.coefficient(-k - 1).agrees(want)
    assert agrees(a * b, S([(0, 1)]))


def test_invert_roundtrip_random(rng):
    for _ in range(15):
        a = rand_unit_series(rng, P, N)
        b = series_invert(a, target_window=(-24, 24))
        assert agrees(a * b, S([(0, 1)]))


def test_invert_rejects_non_unit():
    with pytest.raises(NotAUnit):
        series_invert(S([]))
    with pytest.raises(NotAUnit):
        series_invert(LaurentSeries(P, N, {}, (-4, 4), False, 5))


# ---------------------------------------------------------------------------
# Frobenius and differentials.
# ---------------------------------------------------------------------------


def test_sigma_scales_exponents():
    assert agrees(sigma_apply(S([(2, 1)])), S([(6, 1)]))


def test_sigma_fixes_constants():
    c = S([(0, Fraction(7, 5))])
    assert agrees(sigma_apply(c), c)


def test_sigma_termwise():
    got = sigma_apply(S([(-1, 1), (1, P)]))
    assert agrees(got, S([(-3, 1), (3, P)]))


def test_sigma_is_ring_hom(rng):
    for _ in range(15):
        a = rand_series(rng, P, N, -3, 3)
        b = rand_series(rng, P, N, -3, 3)
        assert agrees(sigma_apply(a + b), sigma_apply(a) + sigma_apply(b))
        assert agrees(sigma_apply(a * b), sigma_apply(a) * sigma_apply(b))


def test_derivative_basics():
    assert agrees(derivation_d(S([(2, 1)])).coefficient, S([(1, 2)]))
    assert agrees(derivation_d(S([(-1, 1)])).coefficient, S([(-2, -1)]))


def test_leibniz(rng):
    for _ in range(15):
        a = rand_series(rng, P, N)
        b = rand_series(rng, P, N)
        lhs = derivation_d(a * b).coefficient
        rhs = a * derivation_d(b).coefficient + b * derivation_d(a).coefficient
        assert agrees(lhs, rhs)


def test_d_sigma_examples():
    # q = p = 3 here; the q=2 example needs p=2
    w = OneForm(series(2, 10, [(1, 1)]))
    out = d_sigma(w, 2)
    assert series_agree(out.coefficient, series(2, 10, [(3, 2)])).holds
    # j = 0 term: d_sigma(du) = p u^(p-1) du
    w0 = OneForm(S([(0, 1)]))
    assert agrees(d_sigma(w0, P).coefficient, S([(P - 1, P)]))


def test_d_sigma_chain_rule(rng):
    for _ in range(15):
        a = rand_series(rng, P, N, -3, 3)
        lhs = d_sigma(derivation_d(a), P).coefficient
        rhs = derivation_d(sigma_apply(a)).coefficient
        assert agrees(lhs, rhs)


def test_d_sigma_rejects_q_not_a_power_of_p():
    w = OneForm(series(2, 10, [(1, 1)]))
    with pytest.raises(ValueError, match=r"^q=12 is not a power of p=2$"):
        d_sigma(w, 12)
    with pytest.raises(ValueError, match="q must be at least p"):
        d_sigma(w, 1)


# ---------------------------------------------------------------------------
# Membership.
# ---------------------------------------------------------------------------


def test_membership_examples():
    r = membership(S([(-1, 1)]), RingLabel("GammaPlus"))
    assert not r.consistent and r.witness == -1
    r2 = membership(S([(0, Fraction(1, P))]), RingLabel("Gamma"))
    assert not r2.consistent and r2.witness == 0
    dag = RingLabel("GammaDagger", Fraction(1, 2), Fraction(0))
    s = S([(-i, Fraction(P ** i)) for i in range(1, 9)])
    assert membership(s, dag).consistent


def test_membership_monotone_along_lattice(rng):
    labels = {k: RingLabel(k) for k in RING_KINDS}
    for _ in range(40):
        s = rand_series(rng, P, N, -4, 4, 0, 3)
        for a in RING_KINDS:
            for b in RING_KINDS:
                if labels[a].included_in(labels[b]):
                    if membership(s, labels[a]).consistent:
                        assert membership(s, labels[b]).consistent, (a, b)


def test_lattice_relations():
    gp = RingLabel("GammaPlus")
    for k in ("Gamma", "GammaDagger", "EPlus", "RPlus", "E", "EDagger", "R"):
        assert gp.included_in(RingLabel(k))
    assert not RingLabel("Gamma").included_in(RingLabel("R"))
    assert not RingLabel("R").included_in(RingLabel("E"))
    assert RingLabel("EDagger").included_in(RingLabel("E"))
    assert RingLabel("EDagger").included_in(RingLabel("R"))


# ---------------------------------------------------------------------------
# Agreement verdicts.
# ---------------------------------------------------------------------------


def test_agreement_reports_floor_and_witness():
    a = S([(0, 1)])
    b = S([(0, 1), (2, P ** 5)])
    v = series_agree(a, b)
    assert not v.holds and v.witness == 2 and v.residual_valuation == 5
    ok = series_agree(a, a + LaurentSeries(P, N, {}, a.window, False, 9))
    assert ok.holds and ok.floor == 9
