import random
from collections import Counter
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
from sigma_nabla import factor
from sigma_nabla.errors import (
    MembershipViolated,
    NotConverged,
    PrecisionExhausted,
    SigmaNablaError,
    SingularInput,
)
from sigma_nabla.factor import (
    _col_min_valuation,
    _det_valuation,
    _mod_p_kernel,
    _mod_p_reduction,
    _row_leading_invertible,
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
    smat_product_agree,
)
from sigma_nabla.modules import basis_transform
from sigma_nabla.padic import PadicNumber
from sigma_nabla.series import LaurentSeries, RingLabel, membership, series_sum

P, N = 3, 12


def S(terms, **kw):
    return series(P, N, terms, **kw)


# ---------------------------------------------------------------------------
# matfact_gamma.
# ---------------------------------------------------------------------------


def test_gamma_1x1_split():
    f = matfact_gamma([[S([(1, Fraction(1, P))])]])
    assert smat_agree(f.y, [[S([(1, 1)])]]).holds
    assert f.z[0][0].coefficient(0).to_rational() == Fraction(1, P)


def test_gamma_diag_split():
    x = [[S([(1, Fraction(1, P))]), S([])], [S([]), S([(0, 1)])]]
    f = matfact_gamma(x)
    assert smat_agree(f.y, [[S([(1, 1)]), S([])], [S([]), S([(0, 1)])]]).holds
    assert f.z[0][0].coefficient(0).to_rational() == Fraction(1, P)
    assert f.z[1][1].coefficient(0).to_rational() == 1


def countdown_gamma(x):
    """matfact_gamma's loop as it was before A mod p decided v_p(det A):
    one series determinant, counted down by the digits each round gains.
    Returns (rounds, Y, Z), Z on Fractions: the column operations are
    accumulated in z_inv, and Z = z_inv^-1 by Gauss-Jordan."""
    p, nrel, n = x[0][0].p, x[0][0].nrel, len(x)
    a = [row[:] for row in x]
    z_inv = [[Fraction(i == j) for j in range(n)] for i in range(n)]

    def scale_col(j, v):
        for i in range(n):
            a[i][j] = a[i][j].shift_val(-v)
            z_inv[i][j] /= Fraction(p) ** v

    rounds = 0
    for j in range(n):
        scale_col(j, _col_min_valuation(a, j))
    dv = _det_valuation(a)
    while dv > 0:
        rounds += 1
        if rounds > 16 * (dv + n + 4):
            raise SingularInput("factorization did not terminate")
        vec = _mod_p_kernel(_mod_p_reduction(a, p)[0], p, n)
        if vec is None:
            raise SingularInput("no constant kernel")
        j = max(i for i, v in enumerate(vec) if v)
        vec = [v * pow(vec[j], -1, p) % p for v in vec]
        for i in range(n):
            a[i][j] = series_sum(
                [a[i][t] if vec[t] == 1 else
                 a[i][t].scale(PadicNumber.from_int(p, nrel, vec[t]))
                 for t in range(n) if vec[t]])
            z_inv[i][j] = sum(vec[t] * z_inv[i][t] for t in range(n))
        v = _col_min_valuation(a, j)
        if v <= 0:
            raise PrecisionExhausted("kernel column failed to gain a digit")
        scale_col(j, v)
        dv -= v
    return rounds, a, mat_inv(z_inv, FractionOps())


def describe(s):
    return s.window, s.tail_free, s.base_floor, s.cells()


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
        for row, want in zip(z, countdown_gamma(x)[2]):
            for s, c in zip(row, want):
                assert describe(s) == describe(S([(0, c)] if c else [])), \
                    trial
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
        # the loop decides det(Y)'s valuation from Y mod p, with no
        # series determinant
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
    with pytest.raises((SingularInput, PrecisionExhausted)):
        matfact_gamma([[S([(0, 1)]), S([(0, 1)])],
                       [S([(0, 1)]), S([(0, 1)])]])


def test_gamma_column_zero_at_precision_is_not_exactly_zero():
    # O(3^5) is a zero only at precision: its digits ran out, nothing
    # proves X singular; the exact zero does
    o5 = LaurentSeries.from_cells(P, N, {0: (5, None, None)}, (0, 0), True,
                                  None)
    with pytest.raises(PrecisionExhausted,
                       match="column 0 is indistinguishable from zero"):
        matfact_gamma([[o5]])
    with pytest.raises(SingularInput, match="column 0 is exactly zero"):
        matfact_gamma([[S([])]])


def rand_integral_matrix(rng, p, n):
    """(kind, A): an n x n matrix of integer Laurent polynomials on the
    exponents -2..2, of one of four kinds.  0: as drawn; 1: one row times
    p, so that it has no unit cell; 2: one column a constant multiple of
    another mod p, so that A mod p has a constant kernel though det A is
    seldom zero; 3: one row u times another mod p, so that A mod p is
    singular, seldom with a constant kernel."""
    def entry():
        return series(p, N, [
            (e, rng.randint(-p ** 2, p ** 2) * p ** rng.choice((0, 0, 0, 1)))
            for e in range(-2, 3) if rng.random() < 0.5])

    a = [[entry() for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4 if n > 1 else 2)
    if kind == 1:
        i = rng.randrange(n)
        a[i] = [s.shift_val(1) for s in a[i]]
    elif kind == 2:
        j, t = rng.sample(range(n), 2)
        c = series(p, N, [(0, rng.randrange(1, p))])
        for row in a:
            row[j] = row[t] * c + row[j].shift_val(1)
    elif kind == 3:
        i, k = rng.sample(range(n), 2)
        a[i] = [s.shift_exp(1) + t.shift_val(1) for s, t in zip(a[k], a[i])]
    return kind, a


def test_gamma_mod_p_reduction_is_exact_only_on_all_of_a_mod_p():
    # a unit cell at u^0; then a cell below valuation 0, an unknown tail
    # and a cell known only modulo p^0 each hide part of A mod p
    one = S([(0, 1)])
    assert _mod_p_reduction([[one]], P) == ({(0, 0): [1]}, True)
    for s in (S([(0, 1), (1, Fraction(1, P))]),
              one.on_window(one.window, False),
              one + LaurentSeries.from_cells(P, N, {1: (0, None, None)},
                                             one.window, True, None)):
        assert not _mod_p_reduction([[s]], P)[1], s


@pytest.mark.parametrize("p", [3, 5])
def test_gamma_mod_p_decision_is_sound(p):
    # A mod p decides v_p(det A) = 0 only where the series determinant
    # has a unit coefficient, and a constant kernel mod p only where it
    # has none
    rng = random.Random(170 + p)
    seen = Counter()
    for trial in range(160):
        n = 1 + trial % 4
        kind, a = rand_integral_matrix(rng, p, n)
        rows, exact = _mod_p_reduction(a, p)
        assert exact, trial
        if _row_leading_invertible(rows, p, n):
            assert kind != 1, trial
            assert _det_valuation(a) == 0, trial
            seen["unit"] += 1
        elif _mod_p_kernel(rows, p, n) is not None:
            try:
                dv = _det_valuation(a)
            except (SingularInput, PrecisionExhausted):
                seen["kernel, det zero"] += 1
            else:
                assert dv >= 1, trial
                seen["kernel, det nonzero"] += 1
        else:
            seen["undecided"] += 1
        seen["kind", kind] += 1
    assert seen["unit"] >= 20 and seen["kernel, det nonzero"] >= 20, seen
    assert seen["kind", 1] >= 20 and seen["undecided"] >= 5, seen


def test_gamma_matches_the_countdown(monkeypatch, rng):
    # the same rounds, Y, Z and product floor as the loop that counted
    # v_p(det A) down from one series determinant, or the same error, on
    # factorable X (as built, truncated, or at a low floor) and on
    # integral matrices that seldom factor
    def low(cells):
        return LaurentSeries.from_cells(P, N, cells, (-10, 10), True, None)

    # two inputs on which a round leaves A's reduction inexact, and the
    # determinant of A after it has lost digits that det(A) before the
    # rounds still holds: the countdown must start from the latter
    pinned = [
        [[low({2: (2, 2, 1)}), low({0: (1, 1, 1), 2: (0, 2, 1)})],
         [low({}), low({1: (2, 1, 12)})]],
        [[low({1: (1, 1, 1)}), low({}), low({})],
         [low({1: (2, 1, 1)}), low({}), low({})],
         [low({2: (0, 2, 12)}), low({1: (0, 2, 2)}),
          low({1: (2, 1, 1), 2: (0, 1, 1)})]]]
    dets = []
    det_valuation = factor._det_valuation
    monkeypatch.setattr(factor, "_det_valuation",
                        lambda a: dets.append(a) or det_valuation(a))

    def outcome(fn, x):
        try:
            return fn(x)
        except SigmaNablaError as exc:
            return type(exc)

    def draws():
        yield from pinned
        for trial in range(160):
            p, n, kind = (3, 5)[trial % 2], 1 + trial // 2 % 4, trial // 8 % 4
            if kind == 3:
                yield rand_integral_matrix(rng, p, n)[1]
                continue
            y0, _ = rand_gamma_invertible(rng, p, N, n)
            z0, _ = rand_const_invertible(rng, p, N, n)
            x = smat_mul(y0, const_series_matrix(z0, p, N))
            if kind == 1:
                x = [[s.on_window(s.window, rng.random() < 0.5) for s in row]
                     for row in x]
            elif kind == 2:
                x = [[s.widen_floor(rng.randint(1, 4)) for s in row]
                     for row in x]
            yield x

    paths = Counter()
    for trial, x in enumerate(draws()):
        dets.clear()
        got = outcome(matfact_gamma, x)
        paths["fallback" if dets else "mod p"] += 1
        want = outcome(countdown_gamma, x)
        if isinstance(want, type):
            if want is PrecisionExhausted and not isinstance(got, type):
                # the determinant lost a digit that A mod p still holds
                assert got.product_verdict.holds, trial
                assert det_valuation(got.y) == 0, trial
                paths["rescued"] += 1
                continue
            assert got is want, trial
            paths["error"] += 1
            continue
        rounds, y, z = want
        z = [[series(x[0][0].p, N, [(0, c)] if c else []) for c in row]
             for row in z]
        assert got.rounds == rounds, trial
        for mine, theirs in ((got.y, y), (got.z, z)):
            assert [[describe(s) for s in row] for row in mine] == \
                [[describe(s) for s in row] for row in theirs], trial
        assert got.product_verdict.floor == \
            smat_product_agree(y, z, x).floor, trial
    assert paths["mod p"] >= 10 and paths["fallback"] >= 10, paths
    assert paths["error"] >= 10 and paths["rescued"] >= 1, paths


def test_gamma_hands_off_to_the_countdown_at_the_round_cap(monkeypatch):
    # X = [[1, c], [1, c + p^K]], c = 1 + p + ... + p^(K-1): A mod p keeps
    # the kernel (1, -1) exactly for K rounds, one digit each, so the mod-p
    # path reaches its cap of 16 (n + 4) = 96 rounds and the countdown
    # finishes from det(A) = p^K
    k, nrel = 100, 150
    c = sum(P ** i for i in range(k))
    x = [[series(P, nrel, [(0, e)]) for e in row]
         for row in ((1, c), (1, c + P ** k))]
    dets = []
    det_valuation = factor._det_valuation
    monkeypatch.setattr(factor, "_det_valuation",
                        lambda a: dets.append(a) or det_valuation(a))
    got = matfact_gamma(x)
    assert len(dets) == 1
    assert got.rounds == k > 16 * (2 + 4)
    rounds, y, z = countdown_gamma(x)
    z = [[series(P, nrel, [(0, e)] if e else []) for e in row] for row in z]
    assert got.rounds == rounds
    for mine, theirs in ((got.y, y), (got.z, z)):
        assert [[describe(s) for s in row] for row in mine] == \
            [[describe(s) for s in row] for row in theirs]
    assert got.product_verdict.floor == smat_product_agree(y, z, x).floor


def test_gamma_acceptance_batch_builds_no_determinant(monkeypatch):
    # the factorable inputs of acceptance criterion 1 are all decided by
    # A mod p
    monkeypatch.setattr(factor, "_det_valuation", None)
    rng = random.Random(101)
    for trial in range(200):
        p, n = (3, 5)[trial % 2], trial % 4 + 1
        y0, _ = rand_gamma_invertible(rng, p, N, n)
        z0, _ = rand_const_invertible(rng, p, N, n)
        assert matfact_gamma(
            smat_mul(y0, const_series_matrix(z0, p, N))).product_verdict.holds


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
        # Y is inverted from Y^-1: the pair must be inverse on both sides
        ident = smat_identity(n, P, N)
        assert smat_product_agree(f.y, f.y_inv, ident).holds
        assert smat_product_agree(f.y_inv, f.y, ident).holds


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


def test_glue_refutes_m2_whose_phi_disagrees(rng):
    # m2 as in test_glue_constant_x, with the cell u^0 of Phi[0][0] moved
    # by p^5: the x-conjugate of m1 no longer agrees with it
    m1full = rand_gammaplus_dieudonne(rng, P, N, 2)
    m1 = replace(m1full, ring=RingLabel("Gamma"))
    z0, z0_inv = rand_const_invertible(rng, P, N, 2)
    x = const_series_matrix(z0, P, N)
    m2 = basis_transform(m1full, x, const_series_matrix(z0_inv, P, N))
    phi = [row[:] for row in m2.phi]
    phi[0][0] = phi[0][0] + S([(0, P ** 5)])
    m2 = replace(m2, ring=RingLabel("EPlus"), phi=phi)
    with pytest.raises(MembershipViolated,
                       match="x does not carry m1 into m2: phi disagrees"):
        glue_dieudonne(m1, m2, x)


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
