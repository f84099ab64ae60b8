"""Closed-form Hessian quadratic forms at the Gaussian stationary point,
the stability classifier, and the local-optimality certificate.

Perturbation directions are expanded in the Hermite system
D^alpha gamma_K / gamma_K; the Hessian of the constrained objective is
diagonal across alpha, so the quadratic form reduces to a per-order ledger
I_alpha.  The stationary point (K, L) satisfies K = (L+u)/(L-1) with
multiplier lambda = u/(K+u+L); negativity of the ledger flips exactly at
K = u/((1+u)^{1/3} - 1), where (1+u) K^3 = (K+u)^3; the classifier decides that sign exactly.

The bisection root of the derivative-norm balance, the Gaussian moments
and the Hermite coefficients it needs live beside the threshold it checks;
gaussmix and counterexamples import them from here.  The scalar Gaussian
objective psi, its maximizer and its maximum over a capped K live here
too, as the one copy that the HK-region and counterexample modules share.
Every function here computes on Python floats with ``math``, so a command
that runs this module and ``hkregion`` alone never loads numpy; the
records are named tuples, so it loads no ``dataclasses`` either.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence


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
    """Exact sign of (1+u) K^3 - (K+u)^3: stable < 0, critical = 0, unstable > 0."""
    if not (0 < K < math.inf and 0 < u < math.inf):
        raise ValueError(f"K and u must be positive and finite, got K={K}, u={u}")
    (a, b), (c, d) = float(K).as_integer_ratio(), float(u).as_integer_ratio()
    gap = (d + c) * d * d * a**3 - (a * d + c * b) ** 3
    return "stable" if gap < 0 else "unstable" if gap > 0 else "critical"


# ----------------------------------------------------------------------
# Hermite coefficients, derivative norms and the stability root
# ----------------------------------------------------------------------


def gauss_deriv_coeffs(order: int, variance: float) -> list[float]:
    """Coefficients (ascending) of P with D^order gamma_v = P * gamma_v, by
    the recursion P_{k+1} = P_k' - (x/v) P_k, so the leading coefficient is
    (-1/v)^order.  Each coefficient of P_{k+1} starts at 0.0, gains its
    derivative term and loses its shift term: the float operations, signed
    zeros included, of the array updates q[:k-1] += p[1:] * arange(1, k)
    and q[1:] -= p / v on a zeroed q.  P_k has the parity of k (DLMF
    §18.9), so only the slots k-1, k-3, ... of P_{k-1} enter P_k: the
    others are +0.0, and 0.0 + 0.0 * j and 0.0 - 0.0 / v leave +0.0 where
    they land.
    ``gaussmix.gauss_deriv_poly`` wraps this in its checked array.  A
    coefficient beyond the float range reads inf or nan.
    """
    p = [1.0]
    for k in range(1, order + 1):
        q = [0.0] * (k + 1)
        for j in range(k - 1, 0, -2):
            q[j - 1] += p[j] * j
        for j in range(k - 1, -1, -2):
            q[j + 1] -= p[j] / variance
        p = q
    return p


def gauss_raw_moment(j: int, variance: float) -> float:
    """E[Z^j] for Z ~ N(0, variance)."""
    if j % 2:
        return 0.0
    return float(math.prod(range(j - 1, 0, -2)) * variance ** (j // 2)) if j else 1.0


def _weighted_sq_norm(R: Sequence[float], v: float, b: float) -> float:
    """int (R(z) gamma_v(x))^2 / gamma_b(x) dx, z = x/sqrt(v), for the
    polynomial R (ascending coefficients) and 0 < v <= b.

    In z, gamma_v^2/gamma_b dx is sqrt(s/r) times the N(0, s) density dz,
    with r = v/b and s = 1/(2 - r), so the integral is
    sqrt(s/r) E[R(Z)^2], Z ~ N(0, s): a finite sum of Gaussian moments.
    With R from gauss_deriv_coeffs(m, 1.0), which is (-1)^m He_m (DLMF
    §18.9), D^m gamma_v = v^{-m/2} R(z) gamma_v, so
    int (D^m gamma_v)^2/gamma_b is this norm over v^m.  Since r lies in
    (0, 1] and s in (1/2, 1], no moment leaves the float range at any v.
    """
    r = v / b
    s = 1.0 / (2.0 - r)
    n = len(R)
    square = [
        math.fsum(R[i] * R[j - i] for i in range(max(0, j - n + 1), min(j, n - 1) + 1))
        for j in range(2 * n - 1)
    ]
    return math.sqrt(s / r) * math.fsum(c * gauss_raw_moment(j, s) for j, c in enumerate(square))


def deriv_norm_balance(K: float, u: float, delta: float = 0.0) -> float:
    """-int (D^3 gamma_{K-delta})^2/gamma_K
    + (1+u) int (D^3 gamma_{K+u-delta})^2/gamma_{K+u}.

    Each integral is _weighted_sq_norm(He_3; v, base)/v^3 with
    v = base - delta, divided by v one factor at a time (v**3 raises
    OverflowError from v of about 5.6e102), so the balance underflows to
    0, not NaN, at large K.
    At delta = 0 the exact value is -6/K^3 + 6(1+u)/(K+u)^3; positivity is
    the second-order gain condition of the vertical perturbation.
    """
    if K - delta <= 0:
        raise ValueError("need K - delta > 0")
    he3 = gauss_deriv_coeffs(3, 1.0)

    def sq_norm(base: float) -> float:
        v = base - delta
        return _weighted_sq_norm(he3, v, base) / v / v / v

    return -sq_norm(K) + (1.0 + u) * sq_norm(K + u)


def _balance_rounding_floor(K: float, u: float) -> float:
    """Bound on the rounding error of deriv_norm_balance(K, u) at delta = 0.

    There the moment sum is exact: the terms 15, -18 and 9 of
    E[He_3(Z)^2] = 6 are integers, so the balance is t2 - t1 with
    t1 = 6/K/K/K and t2 = (1+u) (6/b/b/b), b = K + u.  t1 carries three
    roundings, t2 eight (three divisions, the sum b to the third power,
    1 + u and the product), and the difference one more, of at most
    max(t1, t2).  So the error is at most 2^-53 (4 t1 + 9 t2) to first
    order, below the floor 10 * 2^-53 (t1 + t2) returned here.
    """
    b = K + u
    return 10.0 * 2.0**-53 * (6.0 / K / K / K + (1.0 + u) * (6.0 / b / b / b))


def stability_root(u: float, tol: float = 1e-8) -> float:
    """Bisection root of the derivative-norm balance at delta = 0 on the
    bracket [1, 3 + u].

    The balance -6/K^3 + 6(1+u)/(K+u)^3 has the sign of
    (1+u) K^3 - (K+u)^3, which is (1+u) - (1+u)^3 < 0 at K = 1 and
    u^3 (2+u) > 0 at K = 3 + u, so the ends are not evaluated.  A tol
    below the float spacing at 3 + u is rejected; from it up, a bracket
    wider than tol has a midpoint strictly inside.  The bisection stops
    once the bracket is no wider than tol, or at a midpoint whose balance
    lies within its rounding floor (``_balance_rounding_floor``), whose
    sign is then undecided; a bracket still wider than tol is a ValueError
    that names the floor.
    """
    if not 0 < u < math.inf:
        raise ValueError(f"u must be positive and finite, got {u}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    lo, hi = 1.0, 3.0 + u
    if tol < math.ulp(hi):
        raise ValueError(
            f"tolerance must be at least {math.ulp(hi):.17g} (float spacing at {hi}), got {tol}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        balance = deriv_norm_balance(mid, u)
        floor = _balance_rounding_floor(mid, u)
        if abs(balance) <= floor:
            raise ValueError(
                f"the balance {balance:.3e} at K={mid!r} is within its rounding floor "
                f"{floor:.3e}, so its sign is undecided and the bracket [{lo!r}, {hi!r}] "
                f"cannot shrink to the tolerance {tol}"
            )
        if balance < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# The scalar Gaussian objective and the stationary variance
# ----------------------------------------------------------------------


def gauss_psi(K: float, L: float, u: float, N1: float, N: float) -> float:
    """psi(K, L) = u ln(K+N1+N+L) + ln(K+N1) - (u+1) ln(K+N1+N).

    u weighs the outer term and N is the variance of the second noise: the
    HK quantities normalize N = u, the constant-power witness has N = N2.
    Half of psi is the Gaussian value u h(X1+Z1+Z2+X2) + h(X1+Z1)
    - (1+u) h(X1+Z1+Z2) at X1 ~ gamma_K, X2 ~ gamma_L.  Returns -inf
    where K+N1 <= 0.
    """
    x = K + N1
    inner = math.log(x) if x > 0 else -math.inf
    return u * math.log(x + N + L) + inner - (u + 1.0) * math.log(x + N)


def gauss_argmax(L: float, u: float, N1: float, N: float) -> float:
    """argmax over K of psi(K, L): (N+L)/((u/N) L - 1) - N1 where
    (u/N) L > 1, +inf elsewhere.

    The K^2 terms of d psi/dK cancel, leaving one root, a maximum where
    (u/N) L > 1; elsewhere psi increases in K.  With N = u this is the
    stationary variance (L+u)/(L-1) - N1.
    """
    slope = (u / N) * L
    return (N + L) / (slope - 1.0) - N1 if slope > 1.0 else math.inf


def capped_gauss_objective(J: float, L: float, u: float, N1: float, N: float) -> tuple[float, float]:
    """(value, argmax K) of sup_{0 <= K <= J} psi(K, L): K is gauss_argmax
    clipped to [0, J]."""
    k = min(max(gauss_argmax(L, u, N1, N), 0.0), J)
    return gauss_psi(k, L, u, N1, N), k


def stationary_source_variance(L: float, u: float) -> float:
    """The stationary variance K = (L+u)/(L-1) of the Gaussian objective:
    the one place K is derived from (L, u), and the one L > 1 check
    (NotStationaryError, NaN included); a K that is not finite is a
    ValueError.  In floats this is gauss_argmax(L, u, 0, u) bit for bit:
    at finite u, u/u is exactly 1 and x - 0.0 is x, and at u = inf both
    are not finite."""
    if not L > 1:
        raise NotStationaryError(f"the stationary variance K = (L+u)/(L-1) needs L > 1, got {L}")
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    # K is a Python float whatever the inputs, so that the callers' float
    # powers raise OverflowError rather than warn as numpy scalars would
    L, u = float(L), float(u)
    K = (L + u) / (L - 1.0)
    if not math.isfinite(K):
        raise ValueError(f"the stationary variance K = (L+u)/(L-1) is not finite at L={L}, u={u}")
    return K


# ----------------------------------------------------------------------
# Hessian ledger
# ----------------------------------------------------------------------


class _HermiteCoeffs(NamedTuple):
    coeffs: dict[int, float]


class HermiteCoeffVector(_HermiteCoeffs):
    """Finitely supported coefficients over the orders of D^alpha gamma_v."""

    __slots__ = ()

    def __new__(cls, coeffs: dict[int, float]):
        clean = {int(a): float(c) for a, c in coeffs.items() if c != 0.0}
        if any(a < 0 for a in clean):
            raise ValueError("orders must be nonnegative")
        return super().__new__(cls, clean)

    def get(self, alpha: int) -> float:
        return self.coeffs.get(alpha, 0.0)


class HessianReport(NamedTuple):
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
    overflow = f"Hessian ledger overflows the float range at K={K}, L={L}, u={u}"
    # a float power or (alpha+1)! beyond the float range raises OverflowError,
    # math.fsum of terms whose sum passes it too, and of an inf and a -inf
    # term ValueError
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
        total = math.fsum(terms.values())
    except (OverflowError, ValueError):
        raise ValueError(overflow) from None
    # a square such as aa*aa overflows to inf without raising, and inf - inf
    # is NaN, which math.fsum passes through
    if not all(map(math.isfinite, (*terms.values(), total))):
        raise ValueError(overflow)
    return HessianReport(
        K=K,
        per_alpha_terms=terms,
        total=total,
        classification=stability_classify(K, u),
    )


# ----------------------------------------------------------------------
# Local-optimality certificate
# ----------------------------------------------------------------------


class LocalOptimalityCertificate(NamedTuple):
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
    Returns None unless ``stability_classify`` reads max k_i stable; just
    below the threshold the certificate degenerates to eps2 = 0.
    """
    l = [float(x) for x in L]
    k = [stationary_source_variance(x, u) for x in l]
    kmax = max(k)
    if not all(math.isfinite((x + u) * (x + u)) for x in k):
        raise ValueError(
            f"local optimality ledger overflows the float range at K={kmax}, u={u}"
        )
    if stability_classify(kmax, u) != "stable":
        return None
    cubic_ratio = (1.0 + u) * (kmax / (kmax + u)) ** 3
    eps2 = max(0.0, (1.0 - cubic_ratio) / (1.0 + cubic_ratio))

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


class PhaseCell(NamedTuple):
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
