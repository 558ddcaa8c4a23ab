"""Constructive matrix factorizations over the series rings, and the
descent / gluing operations built on them.

Two factorizations are provided:

* ``matfact_gamma``: X = Y * Z with Y invertible over Gamma (det of
  p-valuation 0) and Z constant, invertible over O[1/p].  Works on the
  class of X that actually admit such a factorization; the algorithm
  normalises the p-content of each column and then strips constant kernels
  of the mod-p reduction, so the determinant valuation strictly drops
  until it reaches zero.  The reduction itself decides when it is zero
  (an invertible row-leading matrix mod p); a series determinant is built
  only when the reduction cannot decide.  Inputs outside the class are
  detected (no constant mod-p kernel despite positive determinant
  valuation) and rejected.

* ``matfact_robba``: X = Y * Z with Y a diagonal of monomials times
  (I + strictly-negative-exponent part), Z free of negative exponents.
  Rounds of I - M^- corrections contract the p-adic valuation of the
  minus part M^-; Y is inverted once, after them, from their product
  Y^-1.  It requires the documented regime (minus part of D^-1 X - I of
  valuation >= 1) and raises NotConverged otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import (
    MembershipViolated,
    NotConverged,
    PrecisionExhausted,
    SingularInput,
)
from .kernel import accumulate, series_term
from .linalg import (
    _square,
    smat_agree,
    smat_det,
    smat_honest,
    smat_identity,
    smat_mul,
    smat_product_agree,
)
from .modules import (
    SigmaNablaModule,
    basis_transform,
    check_compat,
    check_fv,
    module_at_floor,
)
from .padic import INF, PadicNumber, vp_int
from .series import (
    E_DAGGER,
    E_PLUS,
    GAMMA_PLUS,
    R_PLUS,
    LaurentSeries,
    RingLabel,
    require_membership,
    series_sum,
)


@dataclass
class GammaFactorization:
    y: list                    # series matrix, invertible over Gamma
    z: list                    # constant series matrix over O[1/p]
    det_valuation: int
    rounds: int
    product_verdict: object


def _col_min_valuation(a, j):
    col = [row[j] for row in a]
    vals = [s.valuation() for s in col if not s.is_zero_at_precision]
    if not vals:
        if all(s.is_exact_zero for s in col):
            raise SingularInput(f"column {j} is exactly zero")
        raise PrecisionExhausted(
            f"column {j} is indistinguishable from zero")
    return min(vals)


def _det_valuation(a):
    det = smat_det(a)
    v = det.valuation()
    if v is None:
        if det.abs_floor() is not INF:
            raise PrecisionExhausted(
                "determinant is indistinguishable from zero")
        raise SingularInput("determinant is exactly zero")
    return v


def _mod_p_entry(s, p):
    """Entry s's cells of valuation 0 as (e, unit mod p), and whether s is
    exact mod p: tail-free, integral and known modulo p."""
    exact = s.tail_free and s.min_valuation() >= 0 and s.abs_floor() >= 1
    if s.base > 0:
        return (), exact
    # a cell of valuation 0 is p^-base times a unit: its residue modulo
    # p^(1 - base) is a nonzero multiple of q = p^-base
    q = p ** -s.base
    qp = q * p
    return [(e, r // q) for e, raw in s.terms.items()
            if (r := raw % qp) and not r % q], exact


def _mod_p_rows(readings, n):
    """A mod p as ``(rows, exact)`` from the n x n readings of its entries
    (``_mod_p_entry``).  ``rows`` maps each (row i, exponent e) at which
    some entry of row i has a cell of valuation 0 to the coefficients of
    u^e in that row mod p; ``exact``: every entry is exact mod p."""
    rows = {}
    for i, row in enumerate(readings):
        for j, (units, _) in enumerate(row):
            for e, u in units:
                rows.setdefault((i, e), [0] * n)[j] = u
    return rows, all(exact for row in readings for _, exact in row)


def _fp_pivots(system, p, n):
    """Gauss-Jordan over F_p on the length-n rows ``system``: {pivot
    column: reduced row}, each reduced row 1 at its own pivot column and 0
    at every other."""
    pivots = {}
    for eq in system:
        eq = eq[:]
        for col, req in pivots.items():
            if eq[col] % p:
                f = eq[col] % p
                eq = [(x - f * y) % p for x, y in zip(eq, req)]
        lead = next((c for c in range(n) if eq[c] % p), None)
        if lead is None:
            continue
        inv = pow(eq[lead], -1, p)
        eq = [(x * inv) % p for x in eq]
        for col, req in pivots.items():
            if req[lead] % p:
                f = req[lead] % p
                pivots[col] = [(x - f * y) % p for x, y in zip(req, eq)]
        pivots[lead] = eq
    return pivots


def _mod_p_kernel(rows, p, n):
    """A constant vector c over F_p with A c = 0 mod p, or None, from the
    ``rows`` of ``_mod_p_rows``: one linear condition per (row, exponent)
    pair."""
    pivots = _fp_pivots(rows.values(), p, n)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    j = free[0]
    vec = [0] * n
    vec[j] = 1
    for col, eq in pivots.items():
        vec[col] = (-eq[j]) % p
    return vec


def _row_leading_invertible(rows, p, n):
    """Whether the row-leading matrix C of A mod p is invertible.  Row i of
    C holds the coefficients of u^o_i, o_i the lowest exponent with a unit
    cell in row i, so that A mod p = diag(u^o_i) (C + u R) with R over
    F_p[u].  When C is invertible, det(A mod p) has the nonzero term
    det(C) u^(sum o_i), so det(A) has a unit coefficient."""
    lead = {}
    for (i, e), eq in rows.items():
        if i not in lead or e < lead[i][0]:
            lead[i] = (e, eq)
    return len(lead) == n and len(
        _fp_pivots([eq for _, eq in lead.values()], p, n)) == n


def matfact_gamma(x) -> GammaFactorization:
    """Factor X over E as Y * Z, Y invertible over Gamma, Z constant.

    Column operations (all constant, hence absorbed into Z) normalise the
    p-content and strip constant mod-p kernels until det(Y) has valuation
    zero.  Raises SingularInput when X admits no such factorization, and
    PrecisionExhausted when X is singular at working precision (a column
    the rounds reduce to an indistinguishable zero).

    Each round reads A mod p: it reads the entries the last round changed
    (``_mod_p_entry``) and keeps the readings of the others.  When every
    entry is tail-free, integral and known modulo p, that reduction is
    exact, and it decides v_p(det A): an invertible row-leading matrix
    (``_row_leading_invertible``) proves it zero, and the loop stops; a
    constant kernel proves it positive, and the loop takes the round.
    Otherwise (an inexact reduction, a singular row-leading matrix without
    constant kernel, or 16 (n + 4) rounds without a decision) the loop
    counts down instead: v_p(det A) is that of the series determinant of A
    before the rounds, built once, less the digits the rounds divided out.

    Z is kept exact, as an integer matrix over one power of p: X = A * Z
    throughout, so a column operation E on A is the row operation E^-1 on
    Z.  Scaling A's column j by p^-v scales Z's row j by p^v (for v < 0,
    the other rows by p^-v over a denominator raised by -v), and adding
    multiples vec[t] of the other columns to column j subtracts vec[t]
    times row j from each row t.  Column j's new entries are each one
    weighted kernel fold (``kernel.series_term`` with weight vec[t], a
    unit), each cell reduced once, modulo its final floor.  Nothing is
    truncated, so Z has no tail and no floor; each entry c / p^den is
    written in canonical form from the integers, as the cell (v_p(c) - den,
    c / p^v_p(c)) that ``from_cells`` settles.  ``smat_product_agree``
    checks A * Z = X over Z's nonzero entries only, each A entry weighted
    by its exact constant (``kernel.constant_term``): no product with Z is
    formed.
    """
    n = _square(x, "factorization")
    p = x[0][0].p
    nrel = x[0][0].nrel
    a = [row[:] for row in x]
    # Z = zint / p^den, zint an integer matrix
    zint = [[int(i == j) for j in range(n)] for i in range(n)]
    den = 0

    def scale_col(j, mval):
        # A's column j times p^-mval: Z's row j times p^mval
        nonlocal den
        if mval == 0:
            return
        for i in range(n):
            a[i][j] = a[i][j].shift_val(-mval)
        if mval > 0:
            zint[j] = [c * p ** mval for c in zint[j]]
            return
        q = p ** -mval
        for t in range(n):
            if t != j:
                zint[t] = [c * q for c in zint[t]]
        den -= mval

    def combine_col(j, vec):
        # col_j <- sum_t vec[t] * col_t  (vec[j] == 1), one weighted fold
        # per entry: row_t of Z loses vec[t] * row_j for t != j
        cols = [t for t in range(n) if vec[t]]
        if len(cols) > 1:
            for i in range(n):
                a[i][j] = LaurentSeries(*accumulate(
                    [series_term(a[i][t], vec[t]) for t in cols]))
        for t in range(n):
            if t != j and vec[t]:
                zint[t] = [c - vec[t] * d for c, d in zip(zint[t], zint[j])]

    rounds = 0
    for j in range(n):
        scale_col(j, _col_min_valuation(a, j))
    # v_p(det A) = d0 - gained: d0 that of A before the rounds, a series
    # determinant built only once A mod p cannot decide; each round
    # divides det(A) by p^v
    a0 = [row[:] for row in a]
    d0 = None
    gained = 0
    readings = [[_mod_p_entry(s, p) for s in row] for row in a]
    while d0 is None or gained < d0:
        rows, exact = _mod_p_rows(readings, n)
        mod_p = d0 is None and exact and rounds < 16 * (n + 4)
        if mod_p and _row_leading_invertible(rows, p, n):
            break
        # with the reduction exact, a constant kernel makes A mod p
        # singular, so v_p(det A) >= 1
        vec = _mod_p_kernel(rows, p, n)
        if vec is None or not mod_p:
            if d0 is None:
                d0 = _det_valuation(a0)
                if gained >= d0:
                    break
            if rounds >= 16 * (d0 - gained + n + 4):
                raise SingularInput("factorization did not terminate")
            if vec is None:
                raise SingularInput(
                    "no constant-Z factorization exists at working "
                    "precision: the mod-p reduction has no constant kernel")
        rounds += 1
        j = max(i for i, v in enumerate(vec) if v)
        inv = pow(vec[j], -1, p)
        vec = [(v * inv) % p for v in vec]
        combine_col(j, vec)
        v = _col_min_valuation(a, j)
        if v <= 0:
            raise PrecisionExhausted(
                "kernel column failed to gain a digit; entries are too "
                "imprecise to continue")
        scale_col(j, v)
        for i in range(n):
            readings[i][j] = _mod_p_entry(a[i][j], p)
        # combine_col adds multiples of the other columns to column j
        # (vec[j] == 1), which leaves det(A) unchanged; scale_col(j, v)
        # divides column j, hence det(A), by exactly p^v
        gained += v

    zero = LaurentSeries.zero(p, nrel)

    def constant(c):
        # the cell (v - den, c / p^v) in the form from_cells settles it to
        v = vp_int(c, p)
        return LaurentSeries(p, nrel, v - den, {0: (c // p ** v) % p ** nrel},
                             {}, zero.window, True, None)

    z = [[constant(c) if c else zero for c in row] for row in zint]
    verdict = smat_product_agree(a, z, x)
    if not verdict.holds:
        raise SingularInput("internal error: product check failed")
    return GammaFactorization(a, z, 0, rounds, verdict)


# ---------------------------------------------------------------------------
# Robba-side factorization.
# ---------------------------------------------------------------------------


@dataclass
class RobbaFactorization:
    y: list
    z: list
    y_inv: list
    iterations: int
    y_label: RingLabel
    product_verdict: object


def _mat_minus(a, window=None):
    """The negative-exponent parts of the entries, as polynomials on
    ``window`` (default: each entry's own), and the smallest valuation of
    a provably nonzero coefficient among them (None if there is none)."""
    minus = [[s.recast(window or s.window, True, None, lambda e, _: e < 0)
              for s in row] for row in a]
    vals = [m.valuation() for row in minus for m in row]
    vals = [v for v in vals if v is not None]
    return minus, min(vals) if vals else None


def _dominant_monomial(s: LaurentSeries):
    keys = [(s.base + vp_int(raw, s.p), e) for e, raw in s.terms.items()
            if raw]
    if not keys:
        return None
    key = min(keys)
    return key, key[1], s.coefficient(key[1])


def matfact_robba(x) -> RobbaFactorization:
    """Factor X = Y * Z, Y over E-dagger, Z over R-plus (restricted regime).

    Requires X = D (I + M) with D a diagonal of monomials and the minus
    part of M of valuation >= 1.  Each round multiplies W (first D^-1 X)
    and Y_corr^-1 on the left by C = I - M^-, M^- the minus part of W:
    with W = I + M^- + P, v(M^-) = mu and v(P) = nu, the minus part of
    C W = I + P - (M^-)^2 - M^- P has valuation >= min(2 mu, mu + nu),
    against mu + nu for a Neumann inverse (I + M^-)^-1 per round, so
    rounds are added only where nu > mu.  Stalling valuations raise
    NotConverged.  Then Y_corr is inverted once from Y_corr^-1 - I
    (negative exponents only, valuation >= 1), Y = D Y_corr and Z = W;
    the closing Y Z = X check reads the inverted factor.
    """
    n = _square(x, "factorization")
    p = x[0][0].p
    nrel = x[0][0].nrel

    # peel off the diagonal of dominant monomials
    d_fwd, d_inv = [], []
    for i in range(n):
        dom = _dominant_monomial(x[i][i])
        if dom is None:
            raise NotConverged(
                f"diagonal entry {i} is zero at precision; outside regime",
                iterations=0)
        _, e, c = dom
        d_fwd.append((e, c))
        d_inv.append((-e, PadicNumber.from_int(p, nrel, 1) / c))

    def apply_d_inv(mat):
        return [[mat[i][j].scale(d_inv[i][1]).shift_exp(d_inv[i][0])
                 for j in range(n)] for i in range(n)]

    w = apply_d_inv(x)          # I + M: its minus part is M's
    minus, mu = _mat_minus(w)
    if mu is not None and mu < 1:
        raise NotConverged(
            "minus part has valuation < 1; input is outside the "
            "implemented contraction regime", iterations=0)

    # working window: wide enough that neglected tails sit beyond nrel
    depth = 0
    for row in minus:
        for d in row:
            if d.terms:
                depth = max(depth, -min(d.terms))
    wlo = min(s.window[0] for r in x for s in r) - (depth + 1) * (nrel + 1)
    whi = max(s.window[1] for r in x for s in r) + (depth + 1) * (nrel + 1)
    work = (wlo, whi)

    def poly(mat):
        return [[s.on_window(work) for s in row] for row in mat]

    w = poly(w)
    one = LaurentSeries.one(p, nrel, work)
    y_corr_inv = smat_identity(n, p, nrel)      # C_k ... C_1
    iterations = 0
    stall = 0
    last_mu = 0
    while True:
        mk, mu = _mat_minus(w, work)
        if mu is None or mu >= nrel:
            break
        iterations += 1
        if iterations > 4 * nrel + 16:
            raise NotConverged("iteration budget exhausted",
                               iterations=iterations)
        if mu <= last_mu:
            stall += 1
            if stall >= 3:
                raise NotConverged(
                    f"minus part stalled at valuation {mu}",
                    iterations=iterations)
        else:
            stall = 0
        last_mu = mu
        c = [[one - s if i == j else -s for j, s in enumerate(row)]
             for i, row in enumerate(mk)]
        y_corr_inv = c if iterations == 1 else poly(
            smat_mul(c, y_corr_inv, work))
        w = poly(smat_mul(c, w, work))

    y_corr = y_corr_inv if iterations == 0 else poly(_neumann_inverse(
        [[s - one if i == j else s for j, s in enumerate(row)]
         for i, row in enumerate(y_corr_inv)], p, nrel, work))

    # Y = D * (I + corrections), entries of E-dagger type
    y = [[y_corr[i][j].scale(d_fwd[i][1]).shift_exp(d_fwd[i][0])
          for j in range(n)] for i in range(n)]
    y_inv = [[y_corr_inv[i][j].scale(d_inv[j][1]).shift_exp(d_inv[j][0])
              for j in range(n)] for i in range(n)]
    # results live at the uniform working floor p^nrel: coefficients the
    # iteration could not distinguish from zero are absorbed into it
    y, z, y_inv = (smat_honest(mat, work, nrel) for mat in (y, w, y_inv))

    verdict = smat_product_agree(y, z, x, work)
    if not verdict.holds:
        raise NotConverged("product verification failed",
                           iterations=iterations)

    lam, cc = _dagger_certificate(y)
    y_label = RingLabel(E_DAGGER, lam, cc)
    for i, row in enumerate(y):
        for j, s in enumerate(row):
            require_membership(s, y_label, f"Y[{i}][{j}]")
    rp = RingLabel(R_PLUS)
    for i, row in enumerate(z):
        for j, s in enumerate(row):
            require_membership(s, rp, f"Z[{i}][{j}]")

    return RobbaFactorization(y, z, y_inv, iterations, y_label, verdict)


def _neumann_inverse(a, p, nrel, out_window):
    """(I + a)^-1 for a with positive valuation: sum of (-a)^j, each entry
    summed once, the powers on ``out_window``.  ``matfact_robba`` calls it
    once per factorization, to invert Y_corr^-1 = I + a."""
    n = len(a)
    neg = [[-s for s in row] for row in a]
    term = neg
    terms = [smat_identity(n, p, nrel), neg]
    for _ in range(nrel):
        term = smat_mul(term, neg, out_window)
        term = [[s.on_window(out_window) for s in row] for row in term]
        terms.append(term)
        if all(s.is_zero_at_precision or s.valuation() >= nrel
               for row in term for s in row):
            break
    return [[series_sum([t[i][j] for t in terms]) for j in range(n)]
            for i in range(n)]


def _dagger_certificate(y):
    """A certificate (lam, c) the stored minus terms actually satisfy:
    v_p(x_e) >= lam * (-e) - c for every stored e < 0."""
    lam = Fraction(1, 2)
    c = Fraction(0)
    for row in y:
        for s in row:
            for e, raw in s.terms.items():
                if e < 0 and raw:
                    need = lam * (-e) - (s.base + vp_int(raw, s.p))
                    if need > c:
                        c = need
    return lam, c


# ---------------------------------------------------------------------------
# Descent to E-plus and gluing over Gamma-plus.
# ---------------------------------------------------------------------------


def _rebased(mod, y, y_inv, label, what=""):
    """The module in the basis of y (``basis_transform``) at its uniform
    floor p^nrel, relabelled ``label`` once every entry is consistent with
    it; a violation names the entry after the prefix ``what``."""
    out = module_at_floor(basis_transform(mod, y, y_inv), mod.nrel)
    for name, s in out.entries():
        require_membership(s, label, what + name)
    return replace(out, ring=label)


@dataclass
class DescentResult:
    module: SigmaNablaModule
    factorization: RobbaFactorization
    compat: object


def descend_to_eplus(mod: SigmaNablaModule, x) -> DescentResult:
    """Rewrite an E-dagger module in a basis where it lives over E-plus.

    ``x`` is the matrix over R carrying the module into R-plus; the
    hypothesis (conjugated matrices consistent with R-plus) is checked,
    then x = Y Z is factored and the Y-basis is taken.
    """
    _rebased(mod, x, None, RingLabel(R_PLUS), "conjugated ")
    fact = matfact_robba(x)
    out = _rebased(mod, fact.y, fact.y_inv, RingLabel(E_PLUS))
    compat = check_compat(out)
    return DescentResult(out, fact, compat)


@dataclass
class GlueResult:
    module: SigmaNablaModule
    factorization: GammaFactorization
    compat: object
    fv: object


def glue_dieudonne(m1: SigmaNablaModule, m2: Optional[SigmaNablaModule],
                   x) -> GlueResult:
    """Glue a Dieudonne module over Gamma with one over E-plus into one
    over Gamma-plus, via the constant-Z factorization of x.

    ``m2``, when given, pins down the E-plus side: the x-conjugates of
    m1's matrices must agree with m2's at precision.
    """
    if m1.bmat is None:
        raise ValueError("m1 must carry a Verschiebung matrix")
    conj = _rebased(m1, x, None, RingLabel(E_PLUS), "conjugated ")
    if m2 is not None:
        for name in ("phi", "nmat", "bmat"):
            want = getattr(m2, name)
            if want is None:
                continue
            verdict = smat_agree(getattr(conj, name), want)
            if not verdict.holds:
                raise MembershipViolated(
                    f"x does not carry m1 into m2: {name} disagrees at "
                    f"{verdict.witness}")
    fact = matfact_gamma(x)
    out = _rebased(m1, fact.y, None, RingLabel(GAMMA_PLUS))
    compat = check_compat(out)
    fv = check_fv(out)
    return GlueResult(out, fact, compat, fv)
