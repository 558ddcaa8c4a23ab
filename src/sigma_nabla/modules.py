"""Sigma-modules, (sigma, nabla)-modules and Dieudonne modules as matrix
data, with the compatibility law, base change, Verschiebung recovery and
the quasi-nilpotence probe.

Conventions (fixed across the library):

* Frobenius acts by ``F e_j = sum_i Phi[i][j] e_i`` and the connection by
  ``nabla e_j = sum_i N[i][j] e_i (x) du``.
* The compatibility diagram in coordinates reads

      N * Phi + d(Phi) = q * u^(q-1) * Phi * sigma(N)

  where d is the entrywise du-coefficient of the derivative and sigma
  scales exponents by q.  Its twist q * u^(q-1), and that of the B-side
  diagram of ``check_fv``, is written once, in ``_twisted_product``.
* A change of basis by an invertible Y transforms
  ``Phi -> Y^-1 Phi sigma(Y)``, ``N -> Y^-1 N Y + Y^-1 d(Y)`` and, when a
  Verschiebung B is present, ``B -> sigma(Y^-1) B Y``.
* A section f (coordinate column) is horizontal iff f' + N f = 0, and the
  differential operator of the probe is D(f) = f' + N f.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .errors import SingularFrobenius
from .linalg import (
    mat_map,
    smat_add,
    smat_deriv,
    smat_identity,
    smat_inv,
    smat_mul,
    smat_mul_add,
    smat_product_agree,
    smat_scale,
    smat_shape,
    smat_sigma,
)
from .padic import INF, PadicNumber
from .series import (AgreementVerdict, LaurentSeries, RingLabel, log_p,
                     require_membership, series_sum)


@dataclass
class SigmaNablaModule:
    """Rank-n module data (Phi, N, optional B) over a labelled ring."""

    ring: RingLabel
    q: int
    phi: list
    nmat: list
    bmat: Optional[list] = None

    def __post_init__(self):
        n, m = smat_shape(self.phi)
        if n != m:
            raise ValueError("Phi must be square")
        if smat_shape(self.nmat) != (n, n):
            raise ValueError("N must match Phi")
        if self.bmat is not None and smat_shape(self.bmat) != (n, n):
            raise ValueError("B must match Phi")
        self.p = self.phi[0][0].p
        self.nrel = self.phi[0][0].nrel
        self.f = log_p(self.q, self.p)

    @property
    def rank(self):
        return len(self.phi)

    def entries(self):
        mats = [("Phi", self.phi), ("N", self.nmat)]
        if self.bmat is not None:
            mats.append(("B", self.bmat))
        for name, mat in mats:
            for i, row in enumerate(mat):
                for j, s in enumerate(row):
                    yield f"{name}[{i}][{j}]", s


def _twisted_product(mod: SigmaNablaModule, a, b):
    """q*u^(q-1)*(a*b), each entry of the finished product times the
    monomial; scaling by q and shifting exponents gives other entries."""
    uq = LaurentSeries.monomial(mod.p, mod.nrel, mod.q, mod.q - 1)
    return mat_map(smat_mul(a, b), lambda s: s.mul(uq))


def check_compat(mod: SigmaNablaModule) -> AgreementVerdict:
    """Verify N*Phi + d(Phi) = q*u^(q-1)*Phi*sigma(N) at precision."""
    rhs = _twisted_product(mod, mod.phi, smat_sigma(mod.nmat, mod.f))
    return smat_product_agree(mod.nmat, mod.phi, rhs,
                              plus=smat_deriv(mod.phi))


def check_fv(mod: SigmaNablaModule) -> AgreementVerdict:
    """Phi*B = B*Phi = p*Identity, at precision; the B-side diagram
    d(B) + q*u^(q-1)*sigma(N)*B = B*N comes with it."""
    if mod.bmat is None:
        raise ValueError("module has no Verschiebung matrix")
    p, nrel = mod.p, mod.nrel
    p_id = smat_scale(smat_identity(mod.rank, p, nrel),
                      PadicNumber.from_int(p, nrel, p))
    v1 = smat_product_agree(mod.phi, mod.bmat, p_id)
    v2 = smat_product_agree(mod.bmat, mod.phi, p_id)
    lhs = smat_add(smat_deriv(mod.bmat),
                   _twisted_product(mod, smat_sigma(mod.nmat, mod.f),
                                    mod.bmat))
    v3 = smat_product_agree(mod.bmat, mod.nmat, lhs)
    floors = [v.floor for v in (v1, v2, v3) if v.floor is not None]
    return AgreementVerdict(v1.holds and v2.holds and v3.holds,
                            min(floors) if floors else None, v1.window)


def base_change(mod: SigmaNablaModule, target: RingLabel) -> SigmaNablaModule:
    """Relabel the module over a larger ring of the inclusion lattice.

    Entries are re-checked against the target label; a provable violation
    raises MembershipViolated.
    """
    if not mod.ring.included_in(target):
        raise ValueError(
            f"{mod.ring.kind} is not contained in {target.kind}")
    for name, s in mod.entries():
        require_membership(s, target, name)
    return replace(mod, ring=target)


def recover_verschiebung(mod: SigmaNablaModule):
    """B = p * Phi^-1, the unique Verschiebung (FV = VF = p)."""
    p, nrel = mod.p, mod.nrel
    try:
        inv = smat_inv(mod.phi)
    except Exception as exc:
        raise SingularFrobenius(f"Phi is not invertible: {exc}") from exc
    b = smat_scale(inv, PadicNumber.from_int(p, nrel, p))
    return replace(mod, bmat=b)


def module_at_floor(mod: SigmaNablaModule, floor) -> SigmaNablaModule:
    """Weaken every entry to the uniform absolute floor p^floor."""

    def cap(mat):
        if mat is None:
            return None
        return [[s.widen_floor(floor) for s in row] for row in mat]

    return replace(mod, phi=cap(mod.phi), nmat=cap(mod.nmat),
                   bmat=cap(mod.bmat))


def basis_transform(mod: SigmaNablaModule, y,
                    y_inv=None) -> SigmaNablaModule:
    """Rewrite the module in the basis v_j = sum_i Y[i][j] e_i."""
    if y_inv is None:
        y_inv = smat_inv(y)
    y_sigma = smat_sigma(y, mod.f)
    phi = smat_mul(smat_mul(y_inv, mod.phi), y_sigma)
    nmat = smat_mul_add(smat_mul(y_inv, mod.nmat), y,
                        smat_mul(y_inv, smat_deriv(y)))
    bmat = None
    if mod.bmat is not None:
        y_inv_sigma = smat_sigma(y_inv, mod.f)
        bmat = smat_mul(smat_mul(y_inv_sigma, mod.bmat), y)
    return replace(mod, phi=phi, nmat=nmat, bmat=bmat)


# ---------------------------------------------------------------------------
# Quasi-nilpotence probe.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NilpotenceVerdict:
    refuted: bool
    profiles: tuple            # per basis vector: tuple of valuations
    refuted_at: Optional[int] = None
    reached_target: bool = False

    @property
    def plausible(self):
        return not self.refuted


def quasi_nilpotence_probe(mod: SigmaNablaModule, n_max,
                           v_target) -> NilpotenceVerdict:
    """Iterate D = (d/du + N) on basis vectors and watch valuations.

    Refuted when, over a full period of p consecutive steps, the minimum
    valuation stays below zero and never gains a digit; Plausible with the
    recorded profile otherwise (reaching v_target ends the scan early).
    Truncation makes this a probe, never a proof.
    """
    p, nrel = mod.p, mod.nrel
    n = mod.rank
    profiles = []
    refuted_at = None
    reached = True
    for j in range(n):
        vec = [LaurentSeries.zero(p, nrel) for _ in range(n)]
        vec[j] = LaurentSeries.one(p, nrel)
        vals = []
        hit_target = False
        for step in range(1, n_max + 1):
            vec = [series_sum([vec[i].derivative()]
                              + [(mod.nmat[i][k], vec[k]) for k in range(n)])
                   for i in range(n)]
            v = min((s.min_valuation() for s in vec))
            vals.append(v)
            if v is INF or v >= v_target:
                hit_target = True
                break
            window = max(0, len(vals) - p)
            recent = vals[window:]
            if (len(recent) == p and all(x < 0 for x in recent)
                    and all(recent[i + 1] <= recent[i]
                            for i in range(len(recent) - 1))
                    and recent[-1] <= recent[0]):
                profiles.append(tuple(vals))
                return NilpotenceVerdict(True, tuple(profiles),
                                         refuted_at=step)
        profiles.append(tuple(vals))
        reached = reached and hit_target
    return NilpotenceVerdict(False, tuple(profiles), reached_target=reached)
