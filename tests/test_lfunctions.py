from fractions import Fraction

import pytest

from conftest import (
    affine_line_table,
    count_monic_irreducibles,
    elliptic_style_table,
    lefschetz_instance,
)
from sigma_nabla.lfunctions import (
    CharPolyTable,
    LSeries,
    check_compatible,
    check_pure_system,
    exp_power_sums,
    inverse_series,
    lfunction_truncated,
    pole_order_at,
    power_sums,
    trace_formula_check,
)
from sigma_nabla.padic import IntPolynomial
from sigma_nabla.points import purity_check

F = Fraction


# ---------------------------------------------------------------------------
# Oracle: the Euler product by direct convolution of inverse series.
# ---------------------------------------------------------------------------


def poly_series(poly, truncation):
    coeffs = list(poly.coeffs[:truncation + 1])
    return LSeries(tuple(coeffs + [0] * (truncation + 1 - len(coeffs))),
                   truncation)


def euler_product_oracle(table, place, truncation):
    acc = LSeries.one(truncation)
    for pid, _deg in table.points:
        poly = table.polys.get((place, pid))
        if poly is not None:
            acc = acc.mul(inverse_series(poly, truncation))
    return acc


def trace_rhs_oracle(cohomology, truncation):
    p0, p1, p2 = cohomology
    return poly_series(p1, truncation).mul(inverse_series(p0, truncation)) \
        .mul(inverse_series(p2, truncation))


def test_compatible_single_place():
    t = CharPolyTable(2, ["a"], [(0, 1)], {("a", 0): IntPolynomial([1, -2])})
    assert check_compatible(t).compatible


def test_compatible_two_places_and_perturbation():
    base = IntPolynomial([1, -3, 4])
    t = CharPolyTable(4, ["a", "b"], [(0, 1)],
                      {("a", 0): base, ("b", 0): base})
    assert check_compatible(t).compatible
    t2 = CharPolyTable(4, ["a", "b"], [(0, 1)],
                       {("a", 0): base, ("b", 0): IntPolynomial([1, -2, 4])})
    v = check_compatible(t2)
    assert not v.compatible and v.point == 0


def test_compatible_elliptic_style_generator(rng):
    for _ in range(5):
        assert check_compatible(elliptic_style_table(rng)).compatible


def test_compatible_symmetric_in_places(rng):
    t = elliptic_style_table(rng)
    t2 = CharPolyTable(t.q, list(reversed(t.places)),
                       list(reversed(t.points)), t.polys)
    assert check_compatible(t).compatible == check_compatible(t2).compatible


# ---------------------------------------------------------------------------
# Truncated L-functions.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_affine_line_euler_product(q):
    # oracle: brute-force count of monic irreducibles over F_q
    T = 8
    table = affine_line_table(q, T, count_monic_irreducibles)
    series = lfunction_truncated(table, "p", T)
    assert all(series.coeffs[k] == q ** k for k in range(T + 1))


def test_empty_table_gives_one():
    t = CharPolyTable(2, ["p"], [], {})
    s = lfunction_truncated(t, "p", 6)
    assert s == LSeries.one(6)


def test_single_point_geometric_series():
    t = CharPolyTable(2, ["p"], [(0, 1)], {("p", 0): IntPolynomial([1, -2])})
    s = lfunction_truncated(t, "p", 6)
    assert list(s.coeffs) == [2 ** k for k in range(7)]


def test_multiplicative_over_disjoint_points(rng):
    t, _ = lefschetz_instance(rng, 6)
    ids = [pid for pid, _ in t.points]
    half = set(ids[::2])
    ta = CharPolyTable(t.q, ["p"], [(i, d) for i, d in t.points if i in half],
                       {k: v for k, v in t.polys.items() if k[1] in half})
    tb = CharPolyTable(t.q, ["p"],
                       [(i, d) for i, d in t.points if i not in half],
                       {k: v for k, v in t.polys.items()
                        if k[1] not in half})
    la = lfunction_truncated(ta, "p", 8)
    lb = lfunction_truncated(tb, "p", 8)
    assert la.mul(lb) == lfunction_truncated(t, "p", 8)


def rational_table(rng):
    """Local factors with non-integral rational coefficients, some points
    of degree above the truncation, one point missing at place "a" and one
    point id listed twice."""
    points, polys = [], {}
    for pid in range(6):
        d = rng.randint(1, 5)
        points.append((pid, d))
        coeffs = [0] * (2 * d + 1)
        coeffs[0] = 1
        coeffs[d] = F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4]))
        coeffs[2 * d] = F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5]))
        for place in ("a", "b"):
            if not (place == "a" and pid == 5):
                polys[(place, pid)] = IntPolynomial(coeffs)
    points.append(points[0])
    return CharPolyTable(2, ["a", "b"], points, polys)


def test_euler_product_matches_convolution_oracle(rng):
    tables = [(lefschetz_instance(rng, 8)[0], "p", 8) for _ in range(3)]
    tables += [(affine_line_table(q, 6, count_monic_irreducibles), "p", 6)
               for q in (2, 3)]
    tables += [(elliptic_style_table(rng), "a", 7) for _ in range(3)]
    tables += [(rational_table(rng), place, T)
               for place in ("a", "b") for T in (0, 1, 3, 9)]
    tables.append((lefschetz_instance(rng, 6)[0], "p", 0))
    for table, place, T in tables:
        assert lfunction_truncated(table, place, T) == \
            euler_product_oracle(table, place, T)


def test_euler_product_integral_tables_stay_integers(rng):
    table, _ = lefschetz_instance(rng, 8)
    assert all(type(c) is int for c in lfunction_truncated(table, "p", 8)
               .coeffs)
    table = rational_table(rng)
    coeffs = lfunction_truncated(table, "a", 6).coeffs
    assert any(isinstance(c, Fraction) for c in coeffs)
    assert all(type(c) is int or c.denominator > 1 for c in coeffs)


def test_power_sums_newton_identities():
    # (1 - 2t)(1 + 3t) = 1 + t - 6t^2: power sums 2^k + (-3)^k
    sums = power_sums(IntPolynomial([1, 1, -6]), 6)
    assert sums == [0] + [2 ** k + (-3) ** k for k in range(1, 7)]
    # 1 - t/2: power sums 2^-k
    assert power_sums(IntPolynomial([1, F(-1, 2)]), 3) == \
        [0, F(1, 2), F(1, 4), F(1, 8)]
    with pytest.raises(ValueError):
        power_sums(IntPolynomial([2, 1]), 3)


def test_exp_power_sums_rejects_non_integral_integer_input():
    # power sums (1, 0) are those of no integer polynomial: L_2 = 1/2
    with pytest.raises(ArithmeticError):
        exp_power_sums([0, 1, 0], 2)
    assert exp_power_sums([0, F(1), 0], 2).coeffs == (1, 1, F(1, 2))


# ---------------------------------------------------------------------------
# Trace formula.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_trace_formula_affine_line(q):
    T = 8
    table = affine_line_table(q, T, count_monic_irreducibles)
    ps = (IntPolynomial([1]), IntPolynomial([1]), IntPolynomial([1, -q]))
    assert trace_formula_check(table, "p", ps, T).consistent


def test_trace_formula_detects_corruption():
    q, T = 2, 8
    table = affine_line_table(q, T, count_monic_irreducibles)
    ps = (IntPolynomial([1]), IntPolynomial([1]), IntPolynomial([1, -1]))
    v = trace_formula_check(table, "p", ps, T)
    assert not v.consistent and v.first_bad_degree == 1


def test_trace_formula_synthetic_instances(rng):
    for _ in range(8):
        table, ps = lefschetz_instance(rng, 10)
        assert trace_formula_check(table, "p", ps, 10).consistent


def test_trace_formula_first_bad_degree_matches_oracle(rng):
    for _ in range(6):
        T = 6
        table, (p0, p1, p2) = lefschetz_instance(rng, T)
        k = rng.randint(1, T)
        coeffs = list(p2.coeffs) + [0] * T
        coeffs[k] += rng.choice([-1, 1])
        ps = (p0, p1, IntPolynomial(coeffs))
        lhs = euler_product_oracle(table, "p", T).coeffs
        rhs = trace_rhs_oracle(ps, T).coeffs
        bad = next(i for i in range(T + 1) if lhs[i] != rhs[i])
        v = trace_formula_check(table, "p", ps, T)
        assert not v.consistent and v.first_bad_degree == bad == k


# ---------------------------------------------------------------------------
# Pole orders.
# ---------------------------------------------------------------------------


def test_pole_order_examples():
    q, d = 2, 2
    poly = IntPolynomial([1, -q ** d]) * IntPolynomial([1, -q ** d]) * \
        IntPolynomial([1, -q ** (d + 1)])
    assert pole_order_at(poly, q, d) == 2
    assert pole_order_at(IntPolynomial([1, 1, 1]), q, d) == 0


def test_pole_order_constructed(rng):
    for _ in range(15):
        q = rng.choice([2, 3])
        d = rng.randint(0, 3)
        k = rng.randint(0, 3)
        poly = IntPolynomial([1])
        for _ in range(k):
            poly = poly * IntPolynomial([1, -q ** d])
        poly = poly * IntPolynomial([1, rng.randint(1, 5)])
        assert pole_order_at(poly, q, d) == k


def test_pole_order_rational_root_and_negative_d():
    # 1 - t/2 vanishes at t = 2 = q^-d for q = 2, d = -1
    poly = IntPolynomial([1, F(-1, 2)]) * IntPolynomial([1, F(-1, 2)])
    assert pole_order_at(poly, 2, -1) == 2
    assert pole_order_at(poly * IntPolynomial([1, -4]), 2, 2) == 1
    assert pole_order_at(IntPolynomial([0]), 2, 1) == 0


def test_pole_order_additive(rng):
    q, d = 3, 1
    a = IntPolynomial([1, -q]) * IntPolynomial([1, 2])
    b = IntPolynomial([1, -q]) * IntPolynomial([1, -q]) * IntPolynomial([1, 1])
    assert pole_order_at(a * b, q, d) == \
        pole_order_at(a, q, d) + pole_order_at(b, q, d)


# ---------------------------------------------------------------------------
# Purity of whole systems.
# ---------------------------------------------------------------------------


def test_pure_system_elliptic_style(rng):
    for _ in range(5):
        t = elliptic_style_table(rng)
        assert check_pure_system(t, 1).all_pure


def test_pure_system_flags_offender():
    t = CharPolyTable(4, ["a"], [(0, 1), (1, 1)],
                      {("a", 0): IntPolynomial([1, -3, 4]),
                       ("a", 1): IntPolynomial([1, -5, 4])})
    rep = check_pure_system(t, 1)
    assert not rep.all_pure
    assert rep.entries[("a", 0)].pure
    assert not rep.entries[("a", 1)].pure


def test_pure_system_entries_equal_direct_checks():
    # places a and b share every factor; 1 + 3t^2 sits at a point of
    # degree 1 and at one of degree 2, where its verdicts differ (so the
    # rank is given); b alone carries the impure 1 + 5t^2
    shared = {0: [1, 0, 3], 1: [1, 0, 3], 2: [1, -2, 3], 3: [1, 0, 2, 0, 9]}
    polys = {(place, pid): IntPolynomial(c)
             for place in "ab" for pid, c in shared.items()}
    polys[("b", 4)] = IntPolynomial([1, 0, 5])
    points = [(0, 1), (1, 2), (2, 1), (3, 2), (4, 1)]
    t = CharPolyTable(3, ["a", "b"], points, polys, rank=2)
    degs = dict(points)
    rep = check_pure_system(t, 1)
    assert list(rep.entries) == sorted(polys)
    for (place, pid), verdict in rep.entries.items():
        assert verdict == purity_check(polys[(place, pid)], 3, degs[pid], 1)
    assert rep.entries[("a", 0)] != rep.entries[("a", 1)]
    assert [k for k, v in rep.entries.items() if not v.pure] == [("b", 4)]
    assert not rep.all_pure


def test_pure_system_rejects_factor_not_in_t_to_the_degree():
    # 1 - 2t + 3t^2 passes at the degree-1 point, not at the degree-2 one
    poly = IntPolynomial([1, -2, 3])
    t = CharPolyTable(3, ["a"], [(0, 1), (1, 2)],
                      {("a", 0): poly, ("a", 1): poly}, rank=2)
    with pytest.raises(ValueError, match=r"t\^1 nonzero.*not in t\^2"):
        check_pure_system(t, 1)


def test_weight_zero_roots_of_unity():
    t = CharPolyTable(3, ["a"], [(0, 1), (1, 2)],
                      {("a", 0): IntPolynomial([1, 1]),
                       ("a", 1): IntPolynomial([1, 0, -1])})
    assert check_pure_system(t, 0).all_pure


def test_inverse_series_roundtrip(rng):
    for _ in range(10):
        coeffs = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        poly = IntPolynomial(coeffs)
        inv = inverse_series(poly, 10)
        assert poly_series(poly, 10).mul(inv) == LSeries.one(10)
        assert exp_power_sums(power_sums(poly, 10), 10) == inv
