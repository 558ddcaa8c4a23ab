"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
All tolerances are pinned here: equality means agreement at working
precision (residuals carry their valuation floors), the compatibility
floor must reach nrel - 3, purity is decided exactly, and the
factorization batch must finish within its 60 second budget.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    affine_line_table,
    const_series_matrix,
    count_monic_irreducibles,
    elliptic_style_table,
    lefschetz_instance,
    rand_const_invertible,
    rand_eplus_module,
    rand_gamma_invertible,
    rand_gammaplus_dieudonne,
    rand_robba_regime_x,
    series,
)
from sigma_nabla.factor import descend_to_eplus, glue_dieudonne, matfact_gamma
from sigma_nabla.horizontal import horizontal_basis
from sigma_nabla.lfunctions import (
    CharPolyTable,
    lfunction_truncated,
    pole_order_at,
    trace_formula_check,
)
from sigma_nabla.linalg import (
    mat_agree,
    mat_inv,
    mat_mul,
    ops_for,
    smat_agree,
    smat_identity,
    smat_mul,
)
from sigma_nabla.modules import SigmaNablaModule, basis_transform, check_compat
from sigma_nabla.padic import INF, IntPolynomial, PadicNumber, vp_int
from sigma_nabla.points import (
    average_projector,
    block_companion,
    char_coeffs,
    frob_iterate,
    purity_check,
)
from sigma_nabla.series import LaurentSeries, RingLabel, membership

NREL = 12
F = Fraction


def report(number, text):
    print(f"\n[acceptance {number}] PASS: {text}")


def test_criterion_1_factorization_roundtrip():
    """200 random invertible matrices over E factor as Y*Z with det(Y) of
    p-valuation 0 and Z constant, within 60 seconds."""
    rng = random.Random(101)
    gamma = RingLabel("Gamma")
    start = time.monotonic()
    for trial in range(200):
        p = (3, 5)[trial % 2]
        n = trial % 4 + 1
        y0, _ = rand_gamma_invertible(rng, p, NREL, n)
        z0, _ = rand_const_invertible(rng, p, NREL, n)
        x = smat_mul(y0, const_series_matrix(z0, p, NREL))
        # finite support within a 64-wide window
        for row in x:
            for s in row:
                hull = s.support_hull
                if hull:
                    assert hull[1] - hull[0] + 1 <= 64
        fact = matfact_gamma(x)
        assert fact.product_verdict.holds, trial
        assert fact.det_valuation == 0, trial
        for row in fact.y:
            for s in row:
                assert membership(s, gamma).consistent
        for row in fact.z:
            for s in row:
                assert all(e == 0 for e in s.coeffs)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"factorization batch took {elapsed:.1f}s"
    report(1, f"200 factorizations round-tripped in {elapsed:.1f}s")


def test_criterion_2_compatibility_law():
    """The closed-form fixture satisfies the compatibility identity and
    keeps satisfying it under 100 random basis changes, with precision
    floor at least nrel - 3."""
    rng = random.Random(102)
    p = 3
    fixture = SigmaNablaModule(
        RingLabel("EDagger"), p,
        [[series(p, NREL, [(1, 1)])]],
        [[series(p, NREL, [(-1, F(1, p - 1))])]])
    base = check_compat(fixture)
    assert base.holds
    assert base.floor is None or base.floor >= NREL - 3
    worst = base.floor if base.floor is not None else INF
    for _ in range(100):
        y, y_inv = rand_gamma_invertible(rng, p, NREL, 1)
        out = basis_transform(fixture, y, y_inv)
        v = check_compat(out)
        assert v.holds
        fl = v.floor if v.floor is not None else INF
        worst = min(worst, fl)
    assert worst >= NREL - 3
    report(2, f"compatibility preserved by 100 basis changes "
              f"(worst floor {worst})")


def test_criterion_3_descent_and_gluing_roundtrips():
    """Conjugating known E-plus / Gamma-plus modules outward and
    descending / gluing back lands in the target ring with the
    compatibility check holding, 50 instances each."""
    rng = random.Random(103)
    p = 3
    ep = RingLabel("EPlus")
    for trial in range(50):
        n = trial % 3 + 1
        mod = rand_eplus_module(rng, p, NREL, n)
        x, y0, y0_inv, _, _ = rand_robba_regime_x(rng, p, NREL, n)
        outward = basis_transform(
            replace(mod, ring=RingLabel("EDagger")), y0_inv, y0)
        res = descend_to_eplus(outward, x)
        assert res.compat.holds, trial
        for name, s in res.module.entries():
            assert membership(s, ep).consistent, (trial, name)
    gp = RingLabel("GammaPlus")
    for trial in range(50):
        n = trial % 3 + 1
        m_plus = rand_gammaplus_dieudonne(rng, p, NREL, n)
        y0, y0_inv = rand_gamma_invertible(rng, p, NREL, n)
        z0, z0_inv = rand_const_invertible(rng, p, NREL, n)
        x = smat_mul(y0, const_series_matrix(z0, p, NREL))
        m1 = basis_transform(
            replace(m_plus, ring=RingLabel("Gamma")), y0_inv, y0)
        m2 = replace(
            basis_transform(m_plus, const_series_matrix(z0, p, NREL),
                            const_series_matrix(z0_inv, p, NREL)),
            ring=RingLabel("EPlus"))
        res = glue_dieudonne(m1, m2, x)
        assert res.compat.holds and res.fv.holds, trial
        for name, s in res.module.entries():
            assert membership(s, gp).consistent, (trial, name)
    report(3, "50 descent and 50 gluing roundtrips recovered the target "
              "rings")


def test_criterion_4_horizontal_sections():
    """horizontal_basis recovers the generator H0 = I + uA through
    u-degree 32 on 100 instances, with residual valuation above the
    nrel - v_p(32!) loss bound."""
    rng = random.Random(104)
    p = 5
    k_max = 32
    loss_bound = NREL - vp_int(math.factorial(k_max), p)
    assert loss_bound == NREL - 7
    for trial in range(100):
        n = trial % 3 + 1
        a_const = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        a_mat = [[series(p, NREL, [(0, a_const[i][j])] if a_const[i][j]
                         else []) for j in range(n)] for i in range(n)]
        ua = [[a_mat[i][j].shift_exp(1) for j in range(n)] for i in range(n)]
        cap = k_max + 8
        acc = smat_identity(n, p, NREL)
        term = smat_identity(n, p, NREL)
        for _ in range(cap):
            term = smat_mul(term, [[-x for x in row] for row in ua],
                            out_window=(0, cap))
            acc = [[acc[i][j] + term[i][j] for j in range(n)]
                   for i in range(n)]
        nmat = smat_mul([[-x for x in row] for row in a_mat], acc,
                        out_window=(0, cap))
        hb = horizontal_basis(nmat, k_max)
        assert hb.degree_achieved == k_max, trial
        assert not hb.exhausted
        # recovery: H agrees with I + uA coefficientwise at precision
        ident = smat_identity(n, p, NREL)
        for i in range(n):
            for j in range(n):
                h0 = ident[i][j] + ua[i][j]
                for k in range(k_max + 1):
                    assert hb.h[i][j].coefficient(k).agrees(
                        h0.coefficient(k)), (trial, i, j, k)
        assert hb.residual_valuation is INF or \
            hb.residual_valuation >= loss_bound, trial
    report(4, f"100 horizontal bases recovered through degree {k_max} "
              f"(residual floor {loss_bound})")


def _valid_projector_instance(rng, size, n):
    """Projector with coordinate-span image, commuting with the n-th power
    of a diagonal Frobenius whose entries differ by signs, conjugated by a
    random invertible matrix."""
    base = [F(rng.choice([1, 2, 3, 5])) for _ in range(size)]
    lams = [b * (rng.choice([1, -1]) if n % 2 == 0 else 1) for b in base]
    # group coordinates by |lambda| so mixing entries commute with F^[n]
    r = rng.randint(1, size - 1) if size > 1 else 1
    pi0 = [[F(0)] * size for _ in range(size)]
    for i in range(r):
        pi0[i][i] = F(1)
    for i in range(r):
        for j in range(r, size):
            if abs(lams[i]) == abs(lams[j]) and rng.random() < 0.7:
                pi0[i][j] = F(rng.randint(-3, 3))
    frob0 = [[lams[i] if i == j else F(0) for j in range(size)]
             for i in range(size)]
    g = [[F(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        g[i][i] += F(5)
    ops = ops_for(F(1))
    ginv = mat_inv(g, ops)
    conj = lambda m: mat_mul(mat_mul(g, m), ginv)
    return conj(pi0), conj(frob0)


def test_criterion_5_projector_averaging():
    """The worked swap example averages to J/2 exactly; 100 random valid
    instances give idempotent, F-equivariant, image-preserving outputs;
    all three precondition corruptions are detected by name."""
    swap = [[F(0), F(1)], [F(1), F(0)]]
    pi = [[F(0), F(1)], [F(0), F(1)]]
    out = average_projector(pi, swap, 2)
    assert out == [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]

    rng = random.Random(105)
    ops = ops_for(F(1))
    nontrivial = 0
    for trial in range(100):
        size = rng.randint(2, 4)
        n = rng.randint(1, 4)
        pi, frob = _valid_projector_instance(rng, size, n)
        out = average_projector(pi, frob, n)
        assert mat_agree(mat_mul(out, out), out, ops), trial
        assert mat_agree(mat_mul(pi, out), out, ops), trial
        assert mat_agree(mat_mul(out, pi), pi, ops), trial
        finv = frob_iterate(frob, -1)
        assert mat_agree(mat_mul(mat_mul(frob, out), finv), out, ops), trial
        if out != pi:
            nontrivial += 1

    from sigma_nabla.errors import PreconditionFailed
    failures = set()
    for bad_pi, bad_f, n in (
            ([[F(1), F(1)], [F(0), F(1)]], swap, 2),
            ([[F(1), F(0)], [F(0), F(0)]], swap, 2),
            ([[F(1), F(1)], [F(0), F(0)]], [[F(1), F(0)], [F(0), F(2)]], 2)):
        with pytest.raises(PreconditionFailed) as exc:
            average_projector(bad_pi, bad_f, n)
        failures.add(exc.value.which)
    assert "pi_not_idempotent" in failures
    assert "image_not_stable" in failures
    assert len(failures) >= 2
    report(5, f"projector averaging verified on 100 instances "
              f"({nontrivial} with a genuinely new projector); "
              f"corruptions detected: {sorted(failures)}")


def test_criterion_6_block_companion():
    """For all n <= 6 and ranks <= 3, the n-th iterate of the companion
    matrix is exactly the asserted block diagonal."""
    rng = random.Random(106)
    checked = 0
    for n in range(1, 7):
        for r in range(1, 4):
            for _ in range(3):
                f_g = [[F(rng.randint(-5, 5)) for _ in range(r)]
                       for _ in range(r)]
                f_g[0][0] += F(11)
                comp = block_companion(f_g, n)
                power = frob_iterate(comp, n)
                for bi in range(n):
                    for bj in range(n):
                        block = [[power[bi * r + a][bj * r + b]
                                  for b in range(r)] for a in range(r)]
                        if bi == bj:
                            assert block == f_g
                        else:
                            assert all(v == 0 for row in block for v in row)
                checked += 1
    report(6, f"{checked} block-companion iterates matched their block "
              "diagonals exactly")


def test_criterion_7_lfunctions_and_trace_formula():
    """Affine-line Euler products equal 1/(1-qt) against the brute-force
    point-count oracle; 50 synthetic Lefschetz instances satisfy the
    trace formula to degree 12; pole orders match construction on 100
    factored polynomials."""
    for q in (2, 3):
        table = affine_line_table(q, 8, count_monic_irreducibles)
        ser = lfunction_truncated(table, "p", 8)
        assert all(ser.coeffs[k] == q ** k for k in range(9))
        ps = (IntPolynomial([1]), IntPolynomial([1]), IntPolynomial([1, -q]))
        assert trace_formula_check(table, "p", ps, 8).consistent

    rng = random.Random(107)
    for trial in range(50):
        table, ps = lefschetz_instance(rng, 12, q=2)
        assert trace_formula_check(table, "p", ps, 12).consistent, trial

    for trial in range(100):
        q = rng.choice([2, 3, 5])
        d = rng.randint(0, 3)
        k = rng.randint(0, 4)
        poly = IntPolynomial([1])
        for _ in range(k):
            poly = poly * IntPolynomial([1, -q ** d])
        extra = rng.randint(1, 6)
        if extra == q ** d:
            extra += 1
        poly = poly * IntPolynomial([1, -extra])
        assert pole_order_at(poly, q, d) == k, trial
    report(7, "Euler products, 50 trace-formula instances and 100 pole "
              "orders verified")


def test_criterion_8_purity():
    """1 - 3t + 4t^2 is pure of weight 1 at q = 4 and 1 - 5t + 4t^2 is
    impure (an exact verdict); char_coeffs is exactly conjugation
    invariant."""
    assert purity_check(IntPolynomial([1, -3, 4]), 4, 1, 1).pure
    verdict = purity_check(IntPolynomial([1, -5, 4]), 4, 1, 1)
    assert not verdict.pure

    rng = random.Random(108)
    ops = ops_for(F(1))
    for trial in range(60):
        n = rng.randint(2, 4)
        f = [[F(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        g = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            g[i][i] += F(7)
        ginv = mat_inv(g, ops)
        conj = mat_mul(mat_mul(g, f), ginv)
        assert char_coeffs(conj) == char_coeffs(f), trial
    report(8, "purity verdicts and exact conjugation invariance confirmed")
