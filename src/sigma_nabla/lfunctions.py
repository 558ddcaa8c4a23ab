"""Compatible systems of local Frobenius factors, truncated L-functions,
the trace-formula consistency check, pole orders and purity reports.

Everything here is exact rational arithmetic: L-function identities are
exact claims, so no p-adic truncation is involved.  Integral data stays in
Python integers; Fractions appear only for non-integral coefficients.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Optional

from .padic import IntPolynomial, exact_rational
from .points import PurityVerdict, purity_check


@dataclass(frozen=True)
class LSeries:
    """Truncated power series with exact rational coefficients (``int``
    or ``Fraction``)."""

    coeffs: tuple
    truncation: int

    def __post_init__(self):
        if len(self.coeffs) != self.truncation + 1:
            raise ValueError("coefficient count must be truncation + 1")
        if self.coeffs[0] != 1:
            raise ValueError("an L-series starts with constant term 1")

    @classmethod
    def one(cls, truncation):
        return cls(tuple([1] + [0] * truncation), truncation)

    def mul(self, other: "LSeries") -> "LSeries":
        """Truncated product by direct convolution, O(T^2): the reference
        the power-sum Euler product is tested against."""
        t = min(self.truncation, other.truncation)
        out = [0] * (t + 1)
        for i, a in enumerate(self.coeffs[:t + 1]):
            if a:
                for j, b in enumerate(other.coeffs[:t + 1 - i]):
                    out[i + j] += a * b
        return LSeries(tuple(out), t)


# ---------------------------------------------------------------------------
# Power sums.  A polynomial P = prod (1 - a_i t) with constant term 1 has
# log(1/P) = sum_k s_k t^k / k with s_k = sum a_i^k, so a product of such
# factors and their inverses is exp of the summed power sums.  Integer
# factors have integer power sums and an integer product series.
# ---------------------------------------------------------------------------


def power_sums(poly: IntPolynomial, truncation):
    """[0, s_1, ..., s_T] for the reciprocal roots of ``poly``, by Newton's
    identities s_k = -k c_k - sum_{0<j<k} c_j s_{k-j}."""
    c = poly.coeffs
    if c[0] != 1:
        raise ValueError("power sums need constant term 1")
    support = [(j, c[j]) for j in range(1, min(len(c) - 1, truncation) + 1)
               if c[j]]
    s = [0] * (truncation + 1)
    for k in range(1, truncation + 1):
        acc = 0
        for j, cj in support:
            if j > k:
                break
            acc -= k * cj if j == k else cj * s[k - j]
        s[k] = acc
    return s


def exp_power_sums(sums, truncation) -> LSeries:
    """The series L with log L = sum_k S_k t^k / k, from k L_k =
    sum_{j<=k} S_j L_{k-j}.  Integer power sums give an integer series,
    so there each division by k is exact."""
    integral = all(type(x) is int for x in sums)
    out = [1] + [0] * truncation
    for k in range(1, truncation + 1):
        acc = 0
        for j in range(1, k + 1):
            if sums[j]:
                acc += sums[j] * out[k - j]
        if integral:
            quo, rem = divmod(acc, k)
            if rem:
                raise ArithmeticError(
                    f"inexact division by {k} in an integral L-series")
            out[k] = quo
        else:
            out[k] = exact_rational(Fraction(acc, k))
    return LSeries(tuple(out), truncation)


def inverse_series(poly: IntPolynomial, truncation) -> LSeries:
    """1 / poly as a power series by the O(T * deg) recurrence, constant
    term of poly must be 1: with ``LSeries.mul``, the reference for the
    power-sum path."""
    if poly.coeffs[0] != 1:
        raise ValueError("inverse series needs constant term 1")
    out = [1] + [0] * truncation
    for k in range(1, truncation + 1):
        acc = 0
        for j in range(1, min(k, poly.degree) + 1):
            acc += poly.coeffs[j] * out[k - j]
        out[k] = -acc
    return LSeries(tuple(out), truncation)


def _weighted_power_sums(weighted, truncation):
    """sum of m * power_sums(P) over (P, m) pairs."""
    total = [0] * (truncation + 1)
    for poly, mult in weighted:
        for k, s in enumerate(power_sums(poly, truncation)):
            if s:
                total[k] += mult * s
    return total


# ---------------------------------------------------------------------------
# Tables of local factors.
# ---------------------------------------------------------------------------


@dataclass
class CharPolyTable:
    """Per-place, per-point characteristic polynomials of Frobenius.

    ``polys[(place, point_id)]`` is det(1 - t^deg * Frob_x), constant term
    one, degree rank * deg in t.
    """

    q: int
    places: list
    points: list                  # list of (point_id, degree)
    polys: dict
    rank: Optional[int] = None

    def __post_init__(self):
        degs = dict(self.points)
        ranks = set()
        for (place, pid), poly in self.polys.items():
            if place not in self.places:
                raise ValueError(f"unknown place {place!r}")
            if pid not in degs:
                raise ValueError(f"unknown point {pid!r}")
            if poly.coeffs[0] != 1:
                raise ValueError(
                    f"local factor at ({place}, {pid}) lacks constant term 1")
            d = degs[pid]
            if poly.degree % d:
                raise ValueError(
                    f"degree of factor at ({place}, {pid}) is not a "
                    f"multiple of deg(x) = {d}")
            ranks.add(poly.degree // d)
        if self.rank is None and ranks:
            if len(ranks) != 1:
                raise ValueError(f"inconsistent ranks {sorted(ranks)}")
            self.rank = ranks.pop()


@dataclass(frozen=True)
class CompatibilityVerdict:
    compatible: bool
    point: Optional[object] = None
    place_a: Optional[str] = None
    place_b: Optional[str] = None

    def __bool__(self):
        return self.compatible


def check_compatible(table: CharPolyTable) -> CompatibilityVerdict:
    """Local factors must agree exactly across places at every point."""
    for pid, _deg in table.points:
        ref_place = None
        ref = None
        for place in table.places:
            poly = table.polys.get((place, pid))
            if poly is None:
                continue
            if ref is None:
                ref_place, ref = place, poly
            elif poly != ref:
                return CompatibilityVerdict(False, pid, ref_place, place)
    return CompatibilityVerdict(True)


def lfunction_truncated(table: CharPolyTable, place, truncation) -> LSeries:
    """Product of inverse local factors, expanded to O(t^(T+1)).

    The caller asserts the table holds every point of degree <= T for the
    chosen place; the product simply multiplies what it is given.
    """
    return exp_power_sums(_euler_power_sums(table, place, truncation),
                          truncation)


def _euler_power_sums(table: CharPolyTable, place, truncation):
    """The power sums of the Euler product at ``place``: one count per
    listed point, in one C-level pass, and a point with no factor at the
    place counts under None, which is dropped.  Equal factors are grouped,
    so each distinct factor's power sums are computed once."""
    counts = Counter(map(table.polys.get, zip(
        repeat(place), map(itemgetter(0), table.points))))
    counts.pop(None, None)
    return _weighted_power_sums(counts.items(), truncation)


@dataclass(frozen=True)
class TraceFormulaVerdict:
    consistent: bool
    truncation: int
    first_bad_degree: Optional[int] = None

    def __bool__(self):
        return self.consistent


def trace_formula_check(table: CharPolyTable, place, cohomology,
                        truncation) -> TraceFormulaVerdict:
    """Euler product against P1 / (P0 P2) as truncated power series.

    Both series start with 1 and k L_k = sum_{j<=k} S_j L_{k-j}, so they
    agree through degree k exactly when their power sums S_1..S_k do; the
    power sums are what is compared."""
    p0, p1, p2 = cohomology
    lhs = _euler_power_sums(table, place, truncation)
    rhs = _weighted_power_sums(((p0, 1), (p1, -1), (p2, 1)), truncation)
    for k in range(1, truncation + 1):
        if lhs[k] != rhs[k]:
            return TraceFormulaVerdict(False, truncation, k)
    return TraceFormulaVerdict(True, truncation)


def pole_order_at(poly: IntPolynomial, q, d) -> int:
    """Multiplicity of the root t = q^-d, by exact synthetic division by
    1 - a t, a = q^d: the last value a division accumulates is a^n
    poly(1/a), so the first nonzero remainder ends the count."""
    if poly.is_zero:
        return 0
    a = q ** d if d >= 0 else Fraction(1, q ** -d)
    order, coeffs = 0, poly.coeffs
    while True:
        *coeffs, remainder = accumulate(coeffs, lambda acc, c: c + a * acc)
        if remainder:
            return order
        order += 1


@dataclass
class PurityReport:
    weight: int
    entries: dict               # (place, point_id) -> PurityVerdict
    all_pure: bool


def check_pure_system(table: CharPolyTable, w) -> PurityReport:
    """Apply the purity check to every stored local factor: one check per
    distinct factor and degree, since the verdict depends only on those
    (a compatible system repeats its factors at every place)."""
    degs = dict(table.points)
    verdicts = {}
    entries = {}
    for key in sorted(table.polys, key=lambda k: (k[0], str(k[1]))):
        poly, deg = table.polys[key], degs[key[1]]
        if (poly, deg) not in verdicts:
            verdicts[poly, deg] = purity_check(poly, table.q, deg, w)
        entries[key] = verdicts[poly, deg]
    return PurityReport(w, entries, all(v.pure for v in entries.values()))
