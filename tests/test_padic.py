import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_nabla.errors import AmbiguousValuation, DivisionByZero
from sigma_nabla.padic import (
    EQUAL,
    INDISTINGUISHABLE,
    UNEQUAL,
    IntPolynomial,
    PadicNumber,
    UnramifiedField,
    cell_dot,
    complex_root_magnitudes,
    newton_polygon,
)
from sigma_nabla.points import _divmod

P5 = lambda x: PadicNumber.from_rational(5, 12, Fraction(x))
P3 = lambda x: PadicNumber.from_rational(3, 10, Fraction(x))


def test_add_carries_into_higher_valuation():
    # 1 + 4 = 5: valuation 1, mantissa 1
    s = P5(1) + P5(4)
    assert s.val == 1 and s.unit == 1


def test_unit_times_inverse_is_one(rng):
    for _ in range(25):
        num = rng.randrange(1, 5 ** 6)
        while num % 5 == 0:
            num = rng.randrange(1, 5 ** 6)
        x = P5(Fraction(num, 7))
        prod = x * (P5(1) / x)
        assert prod.compare(P5(1)) != UNEQUAL
        assert prod.val == 0 and prod.unit == 1


def test_division_subtracts_valuations(rng):
    # exact rational oracle: p^2*m1 / p^5*m2
    for _ in range(25):
        m1 = rng.randrange(1, 5 ** 5)
        m2 = rng.randrange(1, 5 ** 5)
        if m1 % 5 == 0 or m2 % 5 == 0:
            continue
        a = P5(Fraction(25 * m1))
        b = P5(Fraction(5 ** 5 * m2))
        got = a / b
        want = P5(Fraction(25 * m1, 5 ** 5 * m2))
        assert got.val == -3
        assert got.compare(want) == INDISTINGUISHABLE or got.agrees(want)


def test_three_valued_comparison():
    assert P5(0).compare(PadicNumber.zero(5, 12)) == EQUAL
    assert P5(1).compare(P5(2)) == UNEQUAL
    x = P5(1) + PadicNumber.inexact_zero(5, 12, 8)
    assert x.compare(P5(1)) == INDISTINGUISHABLE


def test_subtraction_collapses_to_inexact_zero():
    d = P5(7) - P5(7)
    assert d.is_exact_zero or d.unit is None
    x = P5(1 + 5 ** 11)
    y = P5(1)
    diff = x - y
    assert diff.is_regular and diff.val == 11


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        P5(1) / PadicNumber.zero(5, 12)
    with pytest.raises(DivisionByZero):
        P5(1) / PadicNumber.inexact_zero(5, 12, 6)


small_rationals = st.fractions(
    min_value=Fraction(-200), max_value=Fraction(200),
    max_denominator=125)


@settings(max_examples=60, deadline=None)
@given(small_rationals, small_rationals, small_rationals)
def test_ring_axioms_at_precision(qa, qb, qc):
    a, b, c = P5(qa), P5(qb), P5(qc)
    assert ((a + b) + c).agrees(a + (b + c))
    assert (a * (b + c)).agrees(a * b + a * c)


@settings(max_examples=60, deadline=None)
@given(small_rationals, small_rationals)
def test_valuation_rules(qa, qb):
    a, b = P5(qa), P5(qb)
    if not a.is_zero_at_precision and not b.is_zero_at_precision:
        assert (a * b).valuation == a.valuation + b.valuation
        s = a + b
        assert s.valuation >= min(a.valuation, b.valuation)
        if a.valuation != b.valuation:
            assert s.valuation == min(a.valuation, b.valuation)


def _padic(kind, nrel, val, unit, prec):
    if kind == "exact":
        return PadicNumber.zero(3, nrel)
    if kind == "inexact":
        return PadicNumber.inexact_zero(3, nrel, val)
    return PadicNumber._make(3, nrel, val, unit, min(prec, nrel))


def _padics(nrel):
    return st.builds(
        _padic, st.sampled_from(("regular", "regular", "exact", "inexact")),
        st.just(nrel), st.integers(-3, 4),
        st.integers(1, 3 ** 12).filter(lambda u: u % 3), st.integers(1, 10))


def _cell(x):
    return (x.val, x.unit, x.prec)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((6, 10)).flatmap(lambda nrel: st.tuples(
    st.just(nrel), st.lists(st.tuples(_padics(nrel), _padics(nrel)),
                            min_size=1, max_size=6))),
       st.booleans())
def test_cell_dot_matches_chained_fold(nrel_pairs, cancel):
    nrel, pairs = nrel_pairs
    if cancel:
        # the first product again, negated: the sum cancels
        pairs = pairs + [(-pairs[0][0], pairs[0][1])]
    acc = None
    for x, y in pairs:
        acc = x * y if acc is None else acc + x * y
    got = PadicNumber.from_cell(3, nrel, cell_dot(
        3, nrel, [(_cell(x), _cell(y)) for x, y in pairs]))
    assert (repr(got), got.nrel) == (repr(acc), acc.nrel)


# the capped-relative rule across operands of different nrel, written out
# by hand at p = 3: 1000 = 28 + 12 * 81, 2 * 28 = 56, 2 * 14 = 28 and
# 28 * 29 = 2 + 10 * 81
_A9 = PadicNumber.from_int(3, 9, 1000)
_B4 = PadicNumber.from_int(3, 4, 2)
_O5 = PadicNumber.inexact_zero(3, 4, 5)
_9A9 = PadicNumber.from_int(3, 9, 9 * 1000)


@pytest.mark.parametrize("got, want, nrel", [
    # an exact zero of nrel 4 caps the other operand at 4 digits
    (PadicNumber.zero(3, 4) + _A9, "3^0*28 mod 3^4", 4),
    (_A9 + PadicNumber.zero(3, 4), "3^0*28 mod 3^4", 4),
    # O(3^5) + 3^2 * 1000 keeps min(prec, 5 - 2) = 3 digits: 1000 = 1 mod 27
    (_O5 + _9A9, "3^2*1 mod 3^3", 4),
    (PadicNumber.inexact_zero(3, 9, 5) + _9A9, "3^2*1 mod 3^3", 9),
    # ... and min(2, 5 - 2) = 2 when the regular operand knows only 2
    (PadicNumber._make(3, 9, 2, 1000, 2) + PadicNumber.inexact_zero(3, 9, 5),
     "3^2*1 mod 3^2", 9),
    # units at nrel 9 and nrel 4 multiply and divide to at most 4 digits
    (_A9 * _B4, "3^0*56 mod 3^4", 4),
    (_A9 / _B4, "3^0*14 mod 3^4", 4),
    (_B4 / _A9, "3^0*29 mod 3^4", 4),
    (_9A9 / _B4, "3^2*14 mod 3^4", 4),
], ids=["zero+a", "a+zero", "O+r", "O+r_same_nrel", "O+r_short", "a*b",
        "a/b", "b/a", "9a/b"])
def test_mixed_nrel_arithmetic_keeps_the_smaller_cap(got, want, nrel):
    assert (repr(got), got.nrel) == (want, nrel)


# ---------------------------------------------------------------------------
# Newton polygons.
# ---------------------------------------------------------------------------


def test_newton_polygon_t2_minus_p():
    # hull of (0,1),(2,0): one segment of slope -1/2 -> root valuation 1/2
    poly = newton_polygon([P5(-5), PadicNumber.zero(5, 12), P5(1)])
    assert poly.slopes == ((Fraction(1, 2), 2),)
    assert poly.offset == 0


def test_newton_polygon_product_of_linear():
    # (T-1)(T-p) = T^2 - (1+p)T + p
    poly = newton_polygon([P5(5), P5(-6), P5(1)])
    assert poly.multiset() == [Fraction(0), Fraction(1)]


def test_newton_polygon_monomial_degenerate():
    poly = newton_polygon([PadicNumber.zero(5, 12)] * 3 + [P5(1)])
    assert poly.offset == 3
    assert poly.slopes == ()


def test_newton_polygon_product_is_union(rng):
    for _ in range(20):
        c1 = [P5(rng.randint(-50, 50)) for _ in range(3)] + [P5(1)]
        c2 = [P5(rng.randint(-50, 50)) for _ in range(2)] + [P5(1)]
        if any(c.is_zero_at_precision for c in (c1[0], c2[0])):
            continue
        prod = [PadicNumber.zero(5, 12) for _ in range(len(c1) + len(c2) - 1)]
        for i, a in enumerate(c1):
            for j, b in enumerate(c2):
                prod[i + j] = prod[i + j] + a * b
        try:
            left = newton_polygon(c1).multiset() + newton_polygon(c2).multiset()
            right = newton_polygon(prod).multiset()
        except AmbiguousValuation:
            continue
        assert sorted(left) == sorted(right)


def test_newton_polygon_ambiguous():
    # an undetermined coefficient below the span of determinate points
    with pytest.raises(AmbiguousValuation):
        newton_polygon([PadicNumber.inexact_zero(5, 12, 0), P5(1)])
    # undetermined below the hull
    with pytest.raises(AmbiguousValuation):
        newton_polygon([P5(25), PadicNumber.inexact_zero(5, 12, 0), P5(1)])
    # undetermined above the hull is harmless
    poly = newton_polygon([P5(1), PadicNumber.inexact_zero(5, 12, 9), P5(1)])
    assert poly.multiset() == [Fraction(0), Fraction(0)]


# ---------------------------------------------------------------------------
# Complex reciprocal-root magnitudes.
# ---------------------------------------------------------------------------


def test_magnitudes_weight_one():
    mags = complex_root_magnitudes(IntPolynomial([1, -3, 4]))
    assert mags == pytest.approx([2.0, 2.0], rel=1e-9)


def test_magnitudes_linear():
    assert complex_root_magnitudes(IntPolynomial([1, -7])) == \
        pytest.approx([7.0], rel=1e-12)


def test_magnitudes_split():
    mags = complex_root_magnitudes(IntPolynomial([1, -5, 4]))
    assert mags == pytest.approx([1.0, 4.0], rel=1e-9)


def test_magnitudes_match_numpy_roots(rng):
    # the accuracy the docstring claims: relative 1e-9 of numpy.roots at
    # degrees 1 to 12, on integer polynomials with simple roots
    import numpy
    checked = 0
    while checked < 300:
        coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 13))]
        poly = IntPolynomial(coeffs)
        if coeffs[0] == 0 or poly.degree < 1 or not _simple_roots(poly):
            continue
        want = sorted(abs(r) for r in numpy.roots(poly.coeffs))
        assert complex_root_magnitudes(poly) == \
            pytest.approx(want, rel=1e-9), coeffs
        checked += 1


def _simple_roots(poly):
    """gcd(poly, poly') is a constant, by Euclid on exact remainders."""
    a = list(poly.coeffs)
    b = [i * c for i, c in enumerate(a)][1:]
    while len(b) > 1:
        a, b = b, _divmod(a, b)[1]
    return len(b) == 1


def test_magnitude_product_is_leading_over_constant(rng):
    for _ in range(20):
        coeffs = [1] + [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        mags = complex_root_magnitudes(IntPolynomial(coeffs))
        prod = 1.0
        for m in mags:
            prod *= m
        assert prod == pytest.approx(abs(coeffs[-1] / coeffs[0]), rel=1e-7)


# ---------------------------------------------------------------------------
# Unramified extension.
# ---------------------------------------------------------------------------


def test_unramified_frobenius_order():
    field = UnramifiedField(5, 2, 8)
    g = field.gen()
    s1 = g.frobenius()
    assert not s1.agrees(g)
    assert s1.frobenius().agrees(g)


def test_unramified_frobenius_is_ring_hom(rng):
    field = UnramifiedField(3, 2, 8)
    for _ in range(10):
        a = field.scalar([rng.randint(-20, 20), rng.randint(-20, 20)])
        b = field.scalar([rng.randint(-20, 20), rng.randint(-20, 20)])
        assert (a * b).frobenius().agrees(a.frobenius() * b.frobenius())
        assert (a + b).frobenius().agrees(a.frobenius() + b.frobenius())


def test_unramified_inverse(rng):
    field = UnramifiedField(3, 2, 8)
    a = field.scalar([2, 7])
    assert (a * a.inverse()).agrees(field.one())
    with pytest.raises(DivisionByZero):
        field.zero().inverse()


@pytest.mark.parametrize("p, f, nrel", [(3, 2, 8), (2, 3, 6)])
def test_unramified_inverse_is_column_zero_of_full_inverse(rng, p, f, nrel):
    # solving M x = e_0 repeats, digit for digit, the operations that give
    # column 0 of M^-1, M the matrix of multiplication by a
    from sigma_nabla.linalg import PadicOps, mat_identity, mat_inv

    def digits(xs):
        return [(x.is_exact_zero, x.val, x.unit, x.prec) for x in xs]

    field = UnramifiedField(p, f, nrel)
    ops = PadicOps(p, nrel)
    for _ in range(20):
        a = field.scalar([rng.randint(-30, 30) * p ** rng.randint(0, 2)
                          for _ in range(f)])
        cols = [(a * field.scalar(e)).coords
                for e in mat_identity(f, ops)]
        mat = [list(row) for row in zip(*cols)]
        try:
            full = mat_inv(mat, ops, error=DivisionByZero)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                a.inverse()
            continue
        assert digits(a.inverse().coords) == digits(row[0] for row in full)


def test_unramified_degree_three():
    field = UnramifiedField(2, 3, 6)
    g = field.gen()
    s = g.frobenius()
    assert not s.agrees(g)
    assert s.frobenius().frobenius().agrees(g)
    assert (g * g + g).frobenius().agrees(s * s + s)


# p in (2, 3, 5, 7, 11), f in 1..5 with p^f <= 20 000, nrel in (1, 4, 8, 12)
QQ_GRID = [(p, f, nrel) for p in (2, 3, 5, 7, 11) for f in range(1, 6)
           if p ** f <= 20000 for nrel in (1, 4, 8, 12)]


def test_unramified_field_integers_are_pinned():
    # the modulus g and the Frobenius matrix of every field on the grid,
    # integer for integer; the digest is of the values at the time the
    # Q_q arithmetic was first given its own test
    fields = [UnramifiedField(p, f, nrel) for p, f, nrel in QQ_GRID]
    assert len(fields) == 96
    moduli = {(p, f): F.modulus for (p, f, _), F in zip(QQ_GRID, fields)}
    assert moduli[3, 2] == [2, 2, 1]
    assert moduli[2, 5] == [1, 0, 1, 1, 1, 1]
    assert moduli[11, 4] == [1, 10, 10, 10, 1]
    doc = json.dumps([[p, f, nrel, F.modulus, F.frob_matrix]
                      for (p, f, nrel), F in zip(QQ_GRID, fields)])
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "77bf99424c5a1b19917cbd1aae5958084e55cea95d57ccd69fde1c8ddcb7b191")
