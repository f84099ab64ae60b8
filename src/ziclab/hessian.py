"""Closed-form Hessian quadratic forms at the Gaussian stationary point,
the stability classifier, and the local-optimality certificate.

Perturbation directions are expanded in the Hermite system
D^alpha gamma_K / gamma_K; the Hessian of the constrained objective is
diagonal across alpha, so the quadratic form reduces to a per-order ledger
I_alpha.  The stationary point (K, L) satisfies K = (L+u)/(L-1) with
multiplier lambda = u/(K+u+L); negativity of the ledger flips exactly at
K = u/((1+u)^{1/3} - 1).

The scalar Gaussian objective psi and its maximizer live here too, as the
one copy that the HK-region and counterexample modules share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

CRITICAL_TOL = 1e-9


class NotStationaryError(ValueError):
    """(K, L) pair is not a stationary point of the Gaussian objective."""


def stability_threshold(u: float) -> float:
    """Variance at which the Hessian at the stationary point changes sign,
    u/((1+u)^{1/3} - 1).  The denominator is formed as expm1(log1p(u)/3),
    which does not cancel at small u.  The threshold is 3 + u + O(u^2), which
    rounds to 3 below u = 2^-52; 3 is returned there, as log1p(u)/3 loses
    digits to underflow at subnormal u."""
    if u <= 0:
        raise ValueError("u must be positive")
    if u < 2.0**-52:
        return 3.0
    return u / math.expm1(math.log1p(u) / 3.0)


def stability_classify(K: float, u: float) -> str:
    if K <= 0 or u <= 0:
        raise ValueError("K and u must be positive")
    thr = stability_threshold(u)
    if abs(K - thr) < CRITICAL_TOL:
        return "critical"
    return "stable" if K < thr else "unstable"


def gauss_psi(K, L, u: float, N1: float, N: float):
    """psi(K, L) = u ln(K+N1+N+L) + ln(K+N1) - (u+1) ln(K+N1+N), elementwise.

    u weighs the outer term and N is the variance of the second noise: the
    HK quantities normalize N = u, the constant-power witness has N = N2.
    Half of psi is the Gaussian value u h(X1+Z1+Z2+X2) + h(X1+Z1)
    - (1+u) h(X1+Z1+Z2) at X1 ~ gamma_K, X2 ~ gamma_L.  Returns -inf
    where K+N1 <= 0.
    """
    K = np.asarray(K, dtype=float)
    L = np.asarray(L, dtype=float)
    x = K + N1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            u * np.log(x + N + L)
            + np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
            - (u + 1.0) * np.log(x + N)
        )
    return out if out.ndim else float(out)


def gauss_argmax(L, u: float, N1: float, N: float):
    """argmax over K of psi(K, L): (N+L)/((u/N) L - 1) - N1.

    The K^2 terms of d psi/dK cancel, leaving one root, a maximum where
    u L > N; elsewhere psi increases in K.  Callers check that domain.
    With N = u this is the stationary variance (L+u)/(L-1) - N1.
    """
    return (N + L) / ((u / N) * L - 1.0) - N1


def _check_weight(u: float) -> None:
    # gauss_argmax divides by N = u
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")


def stationary_source_variance(L: float, u: float) -> float:
    """The stationary variance K = (L+u)/(L-1) of the Gaussian objective:
    the one place K is derived from (L, u), and the one L > 1 check
    (NotStationaryError, NaN included)."""
    if not L > 1:
        raise NotStationaryError(f"the stationary variance K = (L+u)/(L-1) needs L > 1, got {L}")
    _check_weight(u)
    return gauss_argmax(L, u, 0.0, u)


@dataclass(frozen=True)
class HermiteCoeffVector:
    """Finitely supported coefficients over the orders of D^alpha gamma_v."""

    coeffs: dict[int, float]

    def __post_init__(self):
        clean = {int(a): float(c) for a, c in self.coeffs.items() if c != 0.0}
        if any(a < 0 for a in clean):
            raise ValueError("orders must be nonnegative")
        object.__setattr__(self, "coeffs", clean)

    def get(self, alpha: int) -> float:
        return self.coeffs.get(alpha, 0.0)


@dataclass(frozen=True)
class HessianReport:
    K: float
    per_alpha_terms: dict[int, float]
    total: float
    classification: str


def hessian_quadratic_form(
    L: float,
    u: float,
    A: HermiteCoeffVector,
    B: HermiteCoeffVector,
) -> HessianReport:
    """Per-order ledger I_alpha of the constrained Hessian at (gamma_K, gamma_L)
    with K the stationary variance of (L, u), returned as the report's K.

    Requires B's alpha=1 coefficient zero (the variance-preserving
    subspace).  I_1 involves only A_1; for alpha >= 2 the source terms, the
    interferer term, and the cross term all carry the outer factor
    1/(K+u+L)^{alpha+1} scaled by (alpha+1)!.  Raises ValueError where a
    power or factorial leaves the float range.
    """
    K = stationary_source_variance(L, u)
    if B.get(1) != 0.0:
        raise ValueError("B's alpha=1 coefficient must be 0 on the constraint subspace")
    M = K + u + L
    terms: dict[int, float] = {}
    a1 = A.get(1)
    # a float power or (alpha+1)! beyond the float range raises OverflowError
    try:
        if a1 != 0.0:
            terms[1] = a1 * a1 * (
                -2.0 * u / M**2 - 2.0 / K**2 + 2.0 * (1.0 + u) / (K + u) ** 2
            )
        orders = sorted({a for a in (*A.coeffs, *B.coeffs) if a >= 2})
        for alpha in orders:
            aa = A.get(alpha)
            bb = B.get(alpha)
            core = (
                -u * aa * aa / M ** (alpha + 1)
                - aa * aa / K ** (alpha + 1)
                + (1.0 + u) * aa * aa / (K + u) ** (alpha + 1)
                - u * bb * bb / M ** (alpha + 1)
                - 2.0 * u * aa * bb / M ** (alpha + 1)
            )
            terms[alpha] = math.factorial(alpha + 1) * core
    except OverflowError:
        raise ValueError(f"Hessian ledger overflows the float range at K={K}, L={L}, u={u}") from None
    total = float(sum(terms.values()))
    return HessianReport(
        K=K,
        per_alpha_terms=terms,
        total=total,
        classification=stability_classify(K, u),
    )


# ----------------------------------------------------------------------
# Local-optimality certificate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LocalOptimalityCertificate:
    """Radius of the sup-norm neighborhood where the surrogate objective
    stays below the Gaussian maximum at the stationary diagonal K."""

    K: tuple[float, ...]
    eps: float
    eps1: float
    eps2: float
    rayleigh_min: float
    cubic_ratio: float


def local_optimality_radius(
    L: Sequence[float], u: float
) -> Optional[LocalOptimalityCertificate]:
    """Certificate eps = min(eps1, eps2) for local optimality of gamma_K,
    where the diagonal K = (L - I)^{-1} (L + u I) is the stationary variance
    of each diagonal entry of L, returned as the certificate's K.

    eps2 solves (1-eps)/(1+eps) = (1+u) max_i (k_i/(k_i+u))^3, the worst
    order-3 multi-index (mass concentrated on the largest k_i, since
    k/(k+u) is increasing in k).  eps1 comes from the order-2 spectral
    problem: the minimum generalized Rayleigh quotient rho over the
    symmetric coefficient parameterization, with (1+eps)^2/(1-eps) = rho.
    Returns None when the eigenvalue hypothesis max k_i < threshold fails
    (at the threshold the certificate degenerates to eps2 = 0).
    """
    l = [float(x) for x in L]
    k = [stationary_source_variance(x, u) for x in l]
    if not math.isfinite(u):  # each k checked u > 0
        raise ValueError(f"u must be positive and finite, got {u}")
    kmax = max(k)
    # an infinite L gives a NaN k, which max() may pass over
    if not all(math.isfinite((x + u) * (x + u)) for x in k):
        raise ValueError(
            f"local optimality ledger overflows the float range at K={kmax}, u={u}"
        )
    cubic_ratio = (1.0 + u) * (kmax / (kmax + u)) ** 3
    if cubic_ratio >= 1.0 - 1e-15:
        return None
    eps2 = (1.0 - cubic_ratio) / (1.0 + cubic_ratio)

    d = len(k)
    m = [1.0 / (ki + li) for ki, li in zip(k, l)]
    # both forms are diagonal over the pairs i <= j, so the minimum
    # generalized Rayleigh quotient is the smallest ratio of their entries
    ratios = [
        (2.0 / k[i] ** 2 + 2.0 * m[i] ** 2) / (2.0 * (1.0 + u) / (k[i] + u) ** 2)
        for i in range(d)
    ] + [
        (1.0 / (k[i] * k[j]) + m[i] * m[j]) / ((1.0 + u) / ((k[i] + u) * (k[j] + u)))
        for i in range(d)
        for j in range(i + 1, d)
    ]
    rho = min(ratios)
    if rho <= 1.0 + 1e-10:
        return None
    disc = (2.0 + rho) ** 2 - 4.0 * (1.0 - rho)
    eps1 = 0.5 * (-(2.0 + rho) + math.sqrt(disc))
    return LocalOptimalityCertificate(
        K=tuple(k),
        eps=min(eps1, eps2),
        eps1=eps1,
        eps2=eps2,
        rayleigh_min=rho,
        cubic_ratio=cubic_ratio,
    )


# ----------------------------------------------------------------------
# Phase diagram
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseCell:
    u: float
    L: float
    K: float
    classification: str


def phase_diagram(
    u_grid: Iterable[float], L_grid: Iterable[float]
) -> list[PhaseCell]:
    """Stationary variance and classification per (u, L) cell; L > 1 required
    (NotStationaryError)."""
    us = [float(x) for x in u_grid]
    ls = [float(x) for x in L_grid]
    if not us or not ls:
        raise ValueError("grids must be nonempty")
    cells = []
    for u in sorted(us):
        for L in sorted(ls):
            K = stationary_source_variance(L, u)
            cells.append(PhaseCell(u=u, L=L, K=K, classification=stability_classify(K, u)))
    return cells
