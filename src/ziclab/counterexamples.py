"""Counterexample pipelines for the Gaussian-optimality question.

Three constructions are evaluated numerically:

* the skewed-interferer gap: a third-moment mismatch between the interferer
  and its Gaussian surrogate produces a strictly positive t^{3/2} gain in
  the three-entropy combination h(X1+Z2+X2) + h(X1) - 2 h(X1+Z2);
* the vertical (density) perturbation: gamma_K - eps D^3 gamma_{K-delta}
  paired with a telescoping partner series for the interferer, whose
  convolution stays Gaussian up to O(eps^{J+1});
* the Fisher-information limit functional h(X+Y) - h(X) - J(X)/2 with the
  same third-derivative direction and a budget-neutral partner.

The first two evaluate the channel objective through its one copy,
``interference_objective``.  All quadratic-in-eps coefficients are extracted
by ``richardson_quadratic`` over {eps, eps/2, eps/4} (the perturbation
series is even in eps because every perturbing term is an odd function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .gaussmix import (
    MAX_ORDER,
    GaussDerivMixture,
    GaussMixture,
    DerivTerm,
    gauss_deriv_poly,
    gauss_raw_moment,
)
from .entropy import (
    Mixture,
    NegativeDensityError,
    differential_entropy,
    fisher_information,
    gaussian_entropy,
    grids_from_mixtures,
    log_weighted_deriv_integral,
    mixture_entropies,
    mixture_entropy,
    power_fit,
)
from .hessian import gauss_psi, stationary_source_variance


class PowerViolationError(ValueError):
    """Second-moment constraint on the interferer violated."""


class NoGaussianMaxError(ValueError):
    """The Gaussian objective has no interior maximizer (L <= 1)."""


class RecipeRejectedError(ValueError):
    """Skew recipe fails its sign preconditions."""


@dataclass(frozen=True)
class ChannelParams:
    """Parameters of the scalar interference objective
    u h(X1+X2+Z1+Z2) + h(X1+Z1) - (1+u) h(X1+Z1+Z2)."""

    u: float
    N1: float = 0.0
    N2: float = 0.0
    A2: float = math.inf

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u, self.N1, self.N2))):
            raise ValueError("u, N1, N2 must be finite")
        if math.isnan(self.A2):
            raise ValueError("A2 must be a number (inf for no power constraint)")
        if min(self.u, self.N1, self.N2) < 0:
            raise ValueError("u, N1, N2 must be nonnegative")
        if self.A2 < 0:
            raise ValueError("A2 must be nonnegative")


def interference_objective(
    params: ChannelParams, pairs: Sequence[tuple[Mixture, Mixture]], n: int = 8192
) -> list[float]:
    """u h(X1+X2+Z1+Z2) + h(X1+Z1) - (1+u) h(X1+Z1+Z2) for each (X1, X2)
    pair.

    The one evaluation of this objective: the skewed-interferer gap
    (u = 1) and the vertical perturbation (N2 = u) call it too.  X1 and X2
    are mixtures of one family, convolved exactly; zero noise variances
    skip the corresponding convolution.  The pairs' entropies are one
    ``mixture_entropies`` batch, listed law by law, so the pairs of an eps
    ladder share one tabulation per grid.  Raises PowerViolationError when
    an E[X2^2] exceeds A2 beyond 1e-9.
    """
    for _, x2 in pairs:
        p2 = x2.second_moment()
        if p2 > params.A2 + 1e-9:
            raise PowerViolationError(f"E[X2^2] = {p2} exceeds A2 = {params.A2}")
    x1z1 = [x1.convolve_gaussian(params.N1) for x1, _ in pairs]
    x1z1z2 = [m.convolve_gaussian(params.N2) for m in x1z1]
    trip = [m.convolve(x2) for m, (_, x2) in zip(x1z1z2, pairs)]
    k = len(pairs)
    h = mixture_entropies(trip + x1z1 + x1z1z2, n=n)
    return [
        params.u * ha + hb - (1.0 + params.u) * hc
        for ha, hb, hc in zip(h[:k], h[k : 2 * k], h[2 * k :])
    ]


# ----------------------------------------------------------------------
# Skewed-interferer construction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SkewRecipe:
    """Base density p and interferer law q for the skewed-interferer gap.

    Requirements (verified by quadrature in ``validate``): q centered with
    m2 > 0 and m3 < 0; the base density must have int p''' ln p > 0 so the
    t^{3/2} gain coefficient m3 * (-1/6 int p''' ln p) is positive.  The
    sign bookkeeping follows the reflected-kernel smoothing convention of
    entropy.smoothing_curve; the physical gap witness therefore uses the
    mirror image of q (see skewness_gap).
    """

    p: GaussMixture
    q: GaussMixture

    def validate(self) -> dict:
        m = self.q.moments(3)
        i3 = log_weighted_deriv_integral(self.p, 3)
        problems = []
        if abs(self.q.mass - 1.0) > 1e-9 or abs(self.p.mass - 1.0) > 1e-9:
            problems.append("p and q must have unit mass")
        if abs(m[0]) > 1e-9:
            problems.append(f"q must be centered, m1={m[0]:.3e}")
        if not m[1] > 0:
            problems.append("q needs m2 > 0")
        if not m[2] < 0:
            problems.append(f"q needs m3 < 0, got {m[2]:.6f}")
        if not i3 / 6.0 > 0:
            problems.append(f"need (1/6) int p''' ln p > 0, got {i3/6.0:.6f}")
        if problems:
            raise RecipeRejectedError("; ".join(problems))
        return {
            "m2": float(m[1]),
            "m3": float(m[2]),
            "log_deriv3_integral": float(i3),
            "gap_coefficient": float(m[2] * (-i3 / 6.0)),
        }


def default_recipe() -> SkewRecipe:
    """Two-component location mixtures with decoupled roles.

    The base p (weights 0.8/0.2 at +0.3/-1.2, component variance 0.25) has
    a large positive int p''' ln p ~ 1.41; the interferer q (weights
    0.95/0.05 at +0.15/-2.85, component variance 0.05) is strongly skewed
    (m2 = 0.4775, m3 = -1.1542) while keeping m2 small, which keeps the
    competing O(t^2) term of the gap weak.  Gain coefficient
    m3 (-1/6 int p''' ln p) ~ +0.27.
    """
    p = GaussMixture((0.8, 0.2), (0.3, -1.2), (0.25, 0.25))
    q = GaussMixture((0.95, 0.05), (0.15, -2.85), (0.05, 0.05))
    return SkewRecipe(p=p, q=q)


def skewness_gap(
    t_grid: Sequence[float],
    recipe: SkewRecipe,
    N1: float = 0.0,
    Sigma1: float = 0.0,
    gaussian_x2: bool = False,
    n: int = 8192,
) -> np.ndarray:
    """Gap of h(X1+Z2+X2) + h(X1) - 2 h(X1+Z2) - Sigma1 E[X1^2] per t.

    The base variable satisfies law(sqrt(t) X1) = p (optionally smoothed by
    an extra gamma_{t N1} when N1 > 0, which realizes the positive-noise
    variant by treating X1 + Z1 as the new X1), the interferer witness is
    the MIRROR IMAGE of the law of sqrt(t) q (or a Gaussian of matched
    variance when ``gaussian_x2``), and var(Z2) = m2(q).  Reflecting the
    interferer matches the smoothing convention under which the recipe's
    sign conditions (m3 < 0, int p''' ln p > 0) give a positive gain; the
    supremum over interferer laws makes the orientations equivalent.  All
    entropies are evaluated after the common sqrt(t) dilation, under which
    the combination is invariant; the cost is that of the undilated X1,
    Sigma1 m2(p_eff)/t.  N1 and Sigma1 must be finite and nonnegative.
    The recipe's sign conditions are ``SkewRecipe.validate``'s, which this
    function does not run.

    Returns an array of rows (t, gap).
    """
    for name, value in (("N1", N1), ("Sigma1", Sigma1)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    m2 = recipe.q.second_moment()
    rows = []
    for t in sorted(float(t) for t in t_grid):
        check_gap_t(t)
        p_eff = recipe.p.convolve_gaussian(t * N1)
        if gaussian_x2:
            q_t = GaussMixture((1.0,), (0.0,), (t * m2,))
        else:
            q_t = recipe.q.scaled(math.sqrt(t)).reflected()
        [gap] = interference_objective(ChannelParams(u=1.0, N2=t * m2), [(p_eff, q_t)], n=n)
        if Sigma1 > 0:
            gap -= Sigma1 * p_eff.second_moment() / t
        rows.append((t, gap))
    return np.array(rows)


def check_gap_t(t: float) -> None:
    """Reject a t that is not finite and positive (ValueError)."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t values must be finite and positive, got {t}")


def check_gap_count(count: int) -> None:
    """Reject fewer t values than the two columns of the gap fit (ValueError)."""
    if count < 2:
        raise ValueError(f"the t^(3/2) fit needs at least 2 t values, got {count}")


# the gap fit's columns: the t^{3/2} gain and the competing t^2 term
GAP_POWERS = (1.5, 2)


def gap_coefficient(rows: np.ndarray) -> float:
    """Fitted t^{3/2} coefficient of the gap (basis {t^{3/2}, t^2})."""
    check_gap_count(len(rows))
    return float(power_fit(rows[:, 0], rows[:, 1], GAP_POWERS)[0])


# ----------------------------------------------------------------------
# Vertical perturbation
# ----------------------------------------------------------------------


def perturbed_source(K: float, delta: float, eps: float) -> GaussDerivMixture:
    """gamma_K - eps D^3 gamma_{K-delta}."""
    return GaussDerivMixture(
        (DerivTerm(1.0, 0, K), DerivTerm(-eps, 3, K - delta))
    )


def partner_series(
    L: float, delta: float, eps: float, J: int
) -> GaussDerivMixture:
    """sum_{j=0}^J eps^j D^{3j} gamma_{L - j delta}.

    Telescopes against the perturbed source so the convolution equals
    gamma_{K+L} - eps^{J+1} D^{3(J+1)} gamma_{K+L-(J+1) delta} exactly.
    Every j >= 1 term is of derivative order >= 3, so the second moment
    stays exactly L.
    """
    return GaussDerivMixture(
        tuple(DerivTerm(eps**j, 3 * j, L - j * delta) for j in range(J + 1))
    )


# The objectives convolve the source's D^3 term with the partner's D^{3J}
# term, so 3J + 3 is the highest derivative order they evaluate.
MAX_J = (MAX_ORDER - 3) // 3


def _check_partner_order(J: int) -> None:
    """Reject a partner series whose convolution with the perturbed source
    passes gaussmix's derivative-order limit (ValueError)."""
    if J > MAX_J:
        raise ValueError(
            f"J must be <= {MAX_J} (the derivative order 3J + 3 must not exceed "
            f"{MAX_ORDER}), got {J}"
        )


def _check_widest_variance(v: float, terms: str, params: str) -> None:
    """Reject a pipeline whose widest tabulated law, of variance v (the sum
    ``terms`` of the parameters ``params``), has a +-12 sd window that
    squares past the float range, 144 v, in gamma_v's x*x (ValueError)."""
    if not math.isfinite(144.0 * v):
        raise ValueError(
            f"term variance {terms} = {v} too large: 144 ({terms}) overflows on the "
            f"+-12 sd window ({params})"
        )


def _min_density(m: GaussDerivMixture) -> float:
    """Least density value on 4096 points over the +-12 sigma window."""
    return float(m.pdf(np.linspace(*m.window(), 4096)).min())


def select_epsilon(K: float, L: float, delta: float, J: int) -> float:
    """Largest eps in {2^-k} keeping both perturbed densities pointwise
    nonnegative on the check grid, then halved once for margin."""
    for k in range(1, 44):
        eps = 2.0**-k
        if (
            _min_density(perturbed_source(K, delta, eps)) >= 0.0
            and _min_density(partner_series(L, delta, eps, J)) >= 0.0
        ):
            return eps / 2.0
    raise NegativeDensityError("no positive eps admits nonnegative densities")


def eps_ladder(eps0: float) -> tuple[float, float, float]:
    """The eps values richardson_quadratic evaluates: eps0, eps0/2, eps0/4."""
    return (eps0, eps0 / 2.0, eps0 / 4.0)


def objective_rounding_floor(K: float, L: float, u: float) -> float:
    """Least rounding error of the vertical-perturbation objective
    u h(X1+Z1+Z2+X2) + h(X1+Z1) - (1+u) h(X1+Z1+Z2), N1 = 0, N2 = u.

    Each of its three terms is a float, so it carries a rounding error of
    up to one unit roundoff 2^-53 of its magnitude, and the sum of the
    terms cannot resolve a change below 2^-53 times the sum of their
    magnitudes.  At small eps the entropies are those of the Gaussian laws
    of variances K+u+L, K and K+u, so the floor is
    2^-53 (u |h(K+u+L)| + |h(K)| + (1+u) |h(K+u)|), with
    h(v) = (ln(2 pi e) + ln v) / 2 (no overflow for v up to the float max).
    """
    def h(v: float) -> float:
        return abs(0.5 * (math.log(2.0 * math.pi * math.e) + math.log(v)))

    return 2.0**-53 * (u * h(K + u + L) + h(K) + (1.0 + u) * h(K + u))


def _check_eps_ladder(eps: float, J: int, K: float, L: float, u: float) -> None:
    """Reject an eps whose ladder richardson_quadratic cannot divide by
    (an e**2 overflows or underflows to 0), whose partner series overflows
    (eps**J is not finite), or whose smallest eps^2 step (eps/4)**2 falls
    below the objective's rounding floor, so that every ratio
    (value - reference) / e**2 is rounding noise (ValueError)."""
    try:
        squares = [e**2 for e in eps_ladder(eps)]
        eps**J
    except OverflowError:
        raise ValueError(f"eps too large: eps**2 or eps**J overflows at J={J}, got {eps}") from None
    if 0.0 in squares:
        raise ValueError(f"eps too small: (eps/4)**2 underflows to 0, got {eps}")
    floor = objective_rounding_floor(K, L, u)
    if squares[-1] < floor:
        raise ValueError(
            f"eps too small: (eps/4)**2 = {squares[-1]:.3e} is below the objective's "
            f"rounding floor {floor:.3e}, got {eps}"
        )


@dataclass(frozen=True)
class VerticalPerturbation:
    """Validated parameter bundle for the density-perturbation pipeline;
    delta defaults to min(K, L/J)/10, eps (scanned after the checks) to
    select_epsilon's choice."""

    K: float
    L: float
    u: float
    delta: Optional[float] = None
    eps: Optional[float] = None
    J: int = 2

    def __post_init__(self):
        if self.J < 1:
            raise ValueError("J must be >= 1")
        _check_partner_order(self.J)
        if self.delta is None:
            object.__setattr__(self, "delta", min(self.K, self.L / self.J) / 10.0)
        if not all(map(math.isfinite, (self.K, self.L, self.u, self.delta))):
            raise ValueError("K, L, u, delta must be finite")
        for name in ("K", "L", "u", "delta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # the widest law the objective tabulates, X1+Z2+X2, has variance K+u+L
        _check_widest_variance(
            self.K + self.u + self.L, "K+u+L", f"K={self.K}, u={self.u}, L={self.L}"
        )
        if not self.K - self.delta > 0:
            raise ValueError("need K - delta > 0")
        if not self.L - self.J * self.delta > 0:
            raise ValueError("need L - J*delta > 0")
        if self.eps is None:
            object.__setattr__(self, "eps", select_epsilon(self.K, self.L, self.delta, self.J))
        elif not math.isfinite(self.eps):
            raise ValueError("K, L, u, delta, eps must be finite")
        elif not self.eps > 0:
            raise ValueError("K, L, u, delta, eps must be positive")
        else:
            _check_eps_ladder(self.eps, self.J, self.K, self.L, self.u)
        if _min_density(self.x1()) < -1e-12 or _min_density(self.x2()) < -1e-12:
            raise NegativeDensityError(
                "eps too large: perturbed density goes negative on the grid"
            )

    def x1(self, eps: Optional[float] = None) -> GaussDerivMixture:
        return perturbed_source(self.K, self.delta, self.eps if eps is None else eps)

    def x2(self, eps: Optional[float] = None) -> GaussDerivMixture:
        return partner_series(
            self.L, self.delta, self.eps if eps is None else eps, self.J
        )


def richardson_quadratic(
    values_at: Callable[[tuple[float, float, float]], Sequence[float]],
    reference: float,
    eps0: float,
) -> tuple[list[float], float]:
    """The values at eps_ladder(eps0), from one call of ``values_at`` on
    that tuple, and the eps^2 coefficient of value(eps) - reference =
    c eps^2 + O(eps^4), the limit of the ratios (value - reference)/eps^2
    by two rounds of Richardson extrapolation (the series is even in eps)."""
    eps_seq = eps_ladder(eps0)
    values = list(values_at(eps_seq))
    a0, a1, a2 = ((v - reference) / e**2 for v, e in zip(values, eps_seq))
    r1 = (4.0 * a1 - a0) / 3.0
    r2 = (4.0 * a2 - a1) / 3.0
    return values, (16.0 * r2 - r1) / 15.0


@dataclass(frozen=True)
class VerticalGapResult:
    gaussian_value: float
    perturbed_value: float
    quadratic_coeff: float
    base_value: float
    stationary_K: float


def vertical_gap(vp: VerticalPerturbation, n: int = 8192) -> VerticalGapResult:
    """Gaussian-stationary value vs perturbed objective and its eps^2 slope.

    quadratic_coeff is the Richardson-extrapolated eps^2 coefficient of
    psi(x1_eps, x2_eps) - psi(gamma_K, gamma_L); at a stationary K it is
    positive exactly when K exceeds the stability threshold.  Raises
    NotStationaryError when L <= 1, where no stationary K exists.
    """
    k_star = stationary_source_variance(vp.L, vp.u)
    # half of psi is u h(gamma_{K+u+L}) + h(gamma_K) - (1+u) h(gamma_{K+u})
    gaussian_value = 0.5 * gauss_psi(k_star, vp.L, vp.u, 0.0, vp.u)
    base = 0.5 * gauss_psi(vp.K, vp.L, vp.u, 0.0, vp.u)
    params = ChannelParams(u=vp.u, N2=vp.u)
    values, coeff = richardson_quadratic(
        lambda eps: interference_objective(
            params, [(vp.x1(e), vp.x2(e)) for e in eps], n=n
        ),
        base,
        vp.eps,
    )
    return VerticalGapResult(
        gaussian_value=gaussian_value,
        perturbed_value=values[0],
        quadratic_coeff=coeff,
        base_value=base,
        stationary_K=k_star,
    )


# ----------------------------------------------------------------------
# Weighted derivative-norm balance and the stability root
# ----------------------------------------------------------------------


def deriv_norm_balance(K: float, u: float, delta: float = 0.0) -> float:
    """-int (D^3 gamma_{K-delta})^2/gamma_K
    + (1+u) int (D^3 gamma_{K+u-delta})^2/gamma_{K+u}, as exact Gaussian moments.

    With v = base - delta, (D^3 gamma_v)^2/gamma_base = P^2 gamma_v^2/gamma_base
    for the polynomial P of D^3 gamma_v, and gamma_v^2/gamma_base is
    sqrt(base s2)/v times the N(0, s2) density, s2 = v base/(2 base - v).
    At delta = 0 the exact value is -6/K^3 + 6(1+u)/(K+u)^3; positivity is
    the second-order gain condition of the vertical perturbation.
    """
    if K - delta <= 0:
        raise ValueError("need K - delta > 0")

    def sq_norm(base: float) -> float:
        v = base - delta
        s2 = v * base / (2.0 * base - v)
        p = gauss_deriv_poly(3, v)
        p2 = np.polynomial.polynomial.polymul(p, p)
        moments = sum(c * gauss_raw_moment(j, s2) for j, c in enumerate(p2))
        return math.sqrt(base * s2) / v * float(moments)

    return -sq_norm(K) + (1.0 + u) * sq_norm(K + u)


def stability_root(u: float, lo: float = 0.2, hi: float = 100.0, tol: float = 1e-8) -> float:
    """Bisection root of the derivative-norm balance at delta = 0.

    Stops once the bracket is no wider than tol.  A tol below the float
    spacing at hi is rejected; from it up, a bracket wider than tol has a
    midpoint strictly inside, so the bisection ends.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if tol < math.ulp(hi):
        raise ValueError(
            f"tolerance must be at least {math.ulp(hi):.17g} (float spacing at {hi}), got {tol}"
        )
    f_lo = deriv_norm_balance(lo, u)
    f_hi = deriv_norm_balance(hi, u)
    if not (f_lo < 0 < f_hi):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if deriv_norm_balance(mid, u) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# Fisher-information limit functional
# ----------------------------------------------------------------------


def limit_functional(
    pairs: Sequence[tuple[Mixture, Mixture]], n: int = 16384
) -> list[float]:
    """h(X + Y) - h(X) - J(X)/2 for each pair of independent X and Y, each
    entropy and the Fisher information on an n-point grid over the law's
    window.  The X laws are one grid batch and the X + Y laws another, so
    the pairs of an eps ladder share one tabulation per grid."""
    h_xy = mixture_entropies([x.convolve(y) for x, y in pairs], n=n)
    return [
        h - differential_entropy(xg) - 0.5 * fisher_information(xg)
        for h, xg in zip(h_xy, grids_from_mixtures([x for x, _ in pairs], n=n))
    ]


def fisher_limit_gaussian(K: float, L: float) -> float:
    """Closed form of the limit functional at X = gamma_K."""
    return 0.5 * math.log((K + L) / K) - 1.0 / (2.0 * K)


def fisher_stationary_variance(L: float) -> float:
    if L <= 1:
        raise NoGaussianMaxError("stationary variance L/(L-1) needs L > 1")
    return L / (L - 1.0)


@dataclass(frozen=True)
class FisherLimitGain:
    L: float
    K: float
    eps0: float
    gaussian_value: float
    gains: tuple[float, float, float]
    quadratic_coeff: float


def fisher_limit_gain(
    L: float,
    delta: Optional[float] = None,
    J: int = 2,
    eps0: Optional[float] = None,
    n: int = 16384,
) -> FisherLimitGain:
    """Gain of the third-derivative perturbation over the Gaussian
    stationary point of the limit functional.

    X is perturbed by -eps D^3 gamma_{K-delta}; Y is the partner series,
    which keeps E[Y^2] = L exactly and neutralizes h(X+Y) up to
    O(eps^{2(J+1)}).  The quadratic coefficient is positive exactly in the
    low-budget window where the stationary variance K = L/(L-1) exceeds 3.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    _check_partner_order(J)
    K = fisher_stationary_variance(L)
    # the widest law it tabulates, X+Y, has variance K+L
    _check_widest_variance(K + L, "K+L", f"K={K}, L={L}")
    if delta is None:
        delta = min(K, L / J) / 20.0
    if eps0 is None:
        eps0 = select_epsilon(K, L, delta, J)
    gaussian_value = fisher_limit_gaussian(K, L)
    values, coeff = richardson_quadratic(
        lambda eps: limit_functional(
            [(perturbed_source(K, delta, e), partner_series(L, delta, e, J)) for e in eps],
            n=n,
        ),
        gaussian_value,
        eps0,
    )
    return FisherLimitGain(
        L=L,
        K=K,
        eps0=eps0,
        gaussian_value=gaussian_value,
        gains=tuple(v - gaussian_value for v in values),
        quadratic_coeff=coeff,
    )
