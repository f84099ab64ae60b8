"""Counterexample pipelines for the Gaussian-optimality question.

Three constructions are evaluated numerically, and a fourth rests on the
first:

* the skewed-interferer gap: a third-moment mismatch between the interferer
  and its Gaussian surrogate produces a strictly positive t^{3/2} gain in
  the three-entropy combination h(X1+Z2+X2) + h(X1) - 2 h(X1+Z2);
* the vertical (density) perturbation: gamma_K - eps D^3 gamma_{K-delta}
  paired with a telescoping partner series for the interferer; the law of
  their sum is built telescoped (``partner_sum``), a Gaussian less one
  remainder term of order eps^{J+1};
* the Fisher-information limit functional h(X+Y) - h(X) - J(X)/2 with the
  same third-derivative direction and a budget-neutral partner;
* the constant-power witness: the skewed interferer at power N2, with the
  source mixed by an independent Gaussian, against the best Gaussian
  input of the same powers.

The skewed-interferer gap, the witness and the vertical perturbation
evaluate the channel objective through its one copy,
``interference_objective``.  All quadratic-in-eps coefficients are extracted
by ``richardson_quadratic`` over {eps, eps/2, eps/4} (the perturbation
series is even in eps because every perturbing term is an odd function).
The two third-derivative perturbations share their eps-ladder checks
(``_PerturbationLadder``), and the closed forms of their eps^2 coefficients,
deriv_norm_balance/2 and fisher_limit_coefficient, share one Gaussian-moment
kernel (``_weighted_sq_norm``).  The balance, its kernel and the stability
root live in ``hessian``, beside the threshold the root checks, and are
re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .gaussmix import (
    MAX_ORDER,
    GaussDerivMixture,
    GaussMixture,
    DerivTerm,
    gauss_deriv_pdf,
    gauss_deriv_poly,
    gaussian,
)
from .entropy import (
    NegativeDensityError,
    gaussian_entropy,
    log_weighted_deriv_integral,
    mixture_entropies,
    mixture_entropy,
    mixture_integrals,
    power_fit,
)
from .hessian import (
    _weighted_sq_norm,
    capped_gauss_objective,
    deriv_norm_balance,
    gauss_psi,
    stability_root,
    stationary_source_variance,
)


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

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u, self.N1, self.N2))):
            raise ValueError("u, N1, N2 must be finite")
        if min(self.u, self.N1, self.N2) < 0:
            raise ValueError("u, N1, N2 must be nonnegative")


# The second law of a pair: a mixture, or the function that returns the law
# of a mixture plus it (the partner series' telescoped sum, ``partner_sum``).
Addend = Union[GaussDerivMixture, Callable[[GaussDerivMixture], GaussDerivMixture]]


def _plus(m: GaussDerivMixture, y: Addend) -> GaussDerivMixture:
    """The law of m + Y for independent Y, given as an Addend."""
    return y(m) if callable(y) else m.convolve(y)


def interference_objective(
    params: ChannelParams, pairs: Sequence[tuple[GaussDerivMixture, Addend]], n: int = 8192
) -> list[float]:
    """u h(X1+X2+Z1+Z2) + h(X1+Z1) - (1+u) h(X1+Z1+Z2) for each (X1, X2)
    pair.

    The one evaluation of this objective: the skewed-interferer gap
    (u = 1) and the vertical perturbation (N2 = u) call it too.  X1 and X2
    are mixtures, convolved exactly, or X2 is the function that adds it to
    X1+Z1+Z2 (the vertical perturbation's telescoped partner sum); zero
    noise variances skip the corresponding convolution.
    The pairs' entropies are one ``mixture_entropies`` batch, listed law by
    law, so the pairs of an eps ladder share one tabulation per grid.
    """
    x1z1 = [x1.convolve_gaussian(params.N1) for x1, _ in pairs]
    x1z1z2 = [m.convolve_gaussian(params.N2) for m in x1z1]
    trip = [_plus(m, x2) for m, (_, x2) in zip(x1z1z2, pairs)]
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
            q_t = gaussian(t * m2)
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
# Constant-power suboptimality
# ----------------------------------------------------------------------


class WitnessUnavailableError(ValueError):
    """No verified positive-gap witness at the requested parameters."""


@dataclass(frozen=True)
class ConstantPowerGapResult:
    gaussian_value: float
    lower_witness: float
    gap: float
    witness_gain: float
    mixing_variance: float
    slack: float
    raw_witness_value: float
    q1: float
    q2: float


def check_mixing_variance(A: float) -> None:
    """Reject a mixing variance that is not finite and nonnegative (ValueError)."""
    if not (math.isfinite(A) and A >= 0):
        raise ValueError(f"mixing variance A must be finite and nonnegative, got {A}")


def constant_power_gap(
    params: ChannelParams,
    A: Optional[float] = None,
    recipe: Optional[SkewRecipe] = None,
    n: int = 8192,
) -> ConstantPowerGapResult:
    """Certified non-Gaussian vs Gaussian values of the constant-power
    weighted rate F_u at the witness cell, for positive u, N1 and N2
    (ValueError otherwise).

    The witness scales the skew recipe so E[X2^2] = N2 (t = N2 / m2(q)) and
    mixes the source with an independent gamma_A; conditioning on the mixing
    device bounds the concave-envelope term below by the skew gain c, while
    the output entropy concedes at most the measured Gaussian slack.  The
    certified lower bound is lndet-term + c/2, valid once slack <= c/2 (A is
    doubled until slack <= c/4 when not supplied).  Raises
    WitnessUnavailableError when the cell has no verified positive gain.
    """
    u, N1, N2 = params.u, params.N1, params.N2
    for name, value in (("u", u), ("N1", N1), ("N2", N2)):
        if not value > 0:
            raise ValueError(f"{name} must be positive for the constant-power witness, got {value}")
    if A is not None:
        check_mixing_variance(A)
    recipe = recipe or default_recipe()
    info = recipe.validate()
    t = N2 / info["m2"]
    x1p = recipe.p.scaled(1.0 / math.sqrt(t))
    # mirror-image interferer, the orientation with the positive skew gain
    x2 = recipe.q.scaled(math.sqrt(t)).reflected()
    [c] = interference_objective(params, [(x1p, x2)], n=n)
    if not 1e-6 < c < math.inf:  # a NaN or infinite c verifies nothing
        raise WitnessUnavailableError(
            f"skew gain c = {c:.3e} is not a verified positive gap at N2={N2}"
        )
    var1 = x1p.second_moment()
    q2v = x2.second_moment()

    def slack_for(a: float) -> float:
        big = x1p.convolve_gaussian(a + N1 + N2).convolve(x2)
        q1v = var1 + a
        return gaussian_entropy(q1v + q2v + N1 + N2) - mixture_entropy(big, n=n)

    if A is None:
        A = max(4.0 * (var1 + N1 + 2.0 * N2), 1.0)
        for _ in range(60):
            slack = slack_for(A)
            if slack <= c / 4.0:
                break
            A *= 2.0
        else:
            raise WitnessUnavailableError("could not drive the mixing slack below c/4")
    else:
        slack = slack_for(A)
    if slack > c / 2.0:
        raise WitnessUnavailableError(
            f"mixing slack {slack:.3e} exceeds c/2 = {c/2:.3e}; increase A"
        )
    q1v = var1 + A
    lndet_term = 0.5 * math.log((q1v + q2v + N1 + N2) / N1)
    lower_witness = lndet_term + c / 2.0
    raw_witness = lndet_term - slack + c

    # the Gaussian term: half the capped psi with second-noise variance N2
    best, _ = capped_gauss_objective(q1v, q2v, u, N1, N2)
    gaussian_value = lndet_term + 0.5 * best
    return ConstantPowerGapResult(
        gaussian_value=gaussian_value,
        lower_witness=lower_witness,
        gap=lower_witness - gaussian_value,
        witness_gain=c,
        mixing_variance=A,
        slack=slack,
        raw_witness_value=raw_witness,
        q1=q1v,
        q2=q2v,
    )


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

    Telescopes against the perturbed source: the sum of the two is
    ``partner_sum``'s two-term law.  Every j >= 1 term is of derivative
    order >= 3, so the second moment stays exactly L.  The series itself
    serves the positivity checks and E[Y^2] = L.
    """
    return GaussDerivMixture(tuple(_partner_term(L, delta, eps, j) for j in range(J + 1)))


def _partner_term(L: float, delta: float, eps: float, j: int) -> DerivTerm:
    return DerivTerm(eps**j, 3 * j, L - j * delta)


def partner_sum(
    source: GaussDerivMixture, L: float, delta: float, eps: float, J: int
) -> GaussDerivMixture:
    """The law of source + partner_series(L, delta, eps, J), telescoped.

    ``source`` is gamma_A - eps D^3 gamma_{A-delta}: the perturbed source,
    or its law plus independent Gaussian noise (A = K + noise).  Term j + 1
    of the partner against gamma_A cancels term j against the source's D^3
    term, so the sum is gamma_{A+L} - eps^{J+1} D^{3J+3}
    gamma_{(A-delta)+(L-J delta)}.  Those two terms are formed as
    ``convolve`` forms them, from the source's own terms (variances
    v0 + (L - 0 delta) and v3 + (L - J delta), coefficients c0 * 1 and
    c3 * eps**J); the pairs that cancel are left out, where ``convolve``
    keeps any pair whose variances differ by an ulp as two terms (18 terms
    at L = 1.1, J = 20 in the limit functional).
    """
    orders = tuple(t.order for t in source.terms)
    if orders != (0, 3):
        raise ValueError(f"the source must hold one D^0 and one D^3 term, got orders {orders}")
    s0, s3 = source.terms
    if s0.mean or s3.mean:
        raise ValueError(f"the source terms must be centered, got means {s0.mean}, {s3.mean}")
    first, last = _partner_term(L, delta, eps, 0), _partner_term(L, delta, eps, J)
    return GaussDerivMixture(
        (
            DerivTerm(s0.coeff * first.coeff, first.order, s0.variance + first.variance),
            DerivTerm(s3.coeff * last.coeff, 3 + last.order, s3.variance + last.variance),
        )
    )


# The objectives add the source's D^3 term to the partner's D^{3J} term,
# so 3J + 3 is the highest derivative order they evaluate.
MAX_J = (MAX_ORDER - 3) // 3


def _check_J(J: int) -> None:
    """Reject a partner series of fewer than one term past gamma_L, or one
    whose convolution with the perturbed source passes gaussmix's
    derivative-order limit (ValueError)."""
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if J > MAX_J:
        raise ValueError(
            f"J must be <= {MAX_J} (the derivative order 3J + 3 must not exceed "
            f"{MAX_ORDER}), got {J}"
        )


class _DensityMinima:
    """Least density value of a mixture on 4096 points over its +-12 sigma
    window: the positivity check grid.

    The checks ask this of mixtures that differ only in eps, that is in
    their coefficients, so each grid column D^m gamma_v(. - mu) is
    tabulated once and kept, keyed on the window and the term's order,
    variance and mean.  The density sums coeff * column in the mixture's
    term order, as ``pdf_many`` does, so each minimum has the bits of
    ``m.pdf``'s on the grid.
    """

    def __init__(self):
        self._columns: dict[tuple[tuple[float, float], int, float, float], np.ndarray] = {}

    def __call__(self, m: GaussDerivMixture) -> float:
        window = m.window()
        density = np.zeros(4096)
        for t in m.terms:
            key = (window, *t[1:])
            if key not in self._columns:
                x = np.linspace(*window, 4096)
                self._columns[key] = gauss_deriv_pdf(x - t.mean if t.mean else x, t.variance, t.order)
            density += t.coeff * self._columns[key]
        return float(density.min())


def select_epsilon(
    K: float, L: float, delta: float, J: int, minima: Optional[_DensityMinima] = None
) -> float:
    """Largest eps in {2^-k} keeping both perturbed densities pointwise
    nonnegative on the check grid, then halved once for margin.  The grid
    columns come from ``minima`` when given, so a later check can reuse
    them."""
    minima = _DensityMinima() if minima is None else minima
    for k in range(1, 44):
        eps = 2.0**-k
        if (
            minima(perturbed_source(K, delta, eps)) >= 0.0
            and minima(partner_series(L, delta, eps, J)) >= 0.0
        ):
            return eps / 2.0
    raise NegativeDensityError("no positive eps admits nonnegative densities")


def eps_ladder(eps0: float) -> tuple[float, float, float]:
    """The eps values richardson_quadratic evaluates: eps0, eps0/2, eps0/4."""
    return (eps0, eps0 / 2.0, eps0 / 4.0)


def _entropy_magnitude(v: float) -> float:
    """|h(gamma_v)| = |ln(2 pi e) + ln v| / 2, with no overflow for v up to
    the float max."""
    return abs(0.5 * (math.log(2.0 * math.pi * math.e) + math.log(v)))


def objective_rounding_floor(K: float, L: float, u: float) -> float:
    """Least rounding error of the vertical-perturbation objective
    u h(X1+Z1+Z2+X2) + h(X1+Z1) - (1+u) h(X1+Z1+Z2), N1 = 0, N2 = u.

    Each of its three terms is a float, so it carries a rounding error of
    up to one unit roundoff 2^-53 of its magnitude, and the sum of the
    terms cannot resolve a change below 2^-53 times the sum of their
    magnitudes.  At small eps the entropies are those of the Gaussian laws
    of variances K+u+L, K and K+u, so the floor is
    2^-53 (u |h(K+u+L)| + |h(K)| + (1+u) |h(K+u)|).
    """
    h = _entropy_magnitude
    return 2.0**-53 * (u * h(K + u + L) + h(K) + (1.0 + u) * h(K + u))


class _PerturbationLadder:
    """Validation shared by the eps ladders of the third-derivative
    perturbation: X1 = gamma_K - eps D^3 gamma_{K-delta} against the partner
    series on L, for the channel objective (VerticalPerturbation) and the
    Fisher limit functional (FisherPerturbation).

    A subclass is a frozen dataclass with the fields K, L, its objective's
    own parameters, delta, eps and J.  It sets DELTA_DIVISOR (delta
    defaults to min(K, L/J) over it), WIDEST (the parameters whose sum is
    the variance of the widest law it tabulates) and CLOSED_FORM (the name
    of its closed-form eps^2 coefficient), and supplies rounding_floor()
    and closed_form(), the objective's rounding floor and that coefficient.
    The coefficient depends on every parameter but L.  Every check runs
    before eps is scanned, except the last two of _check_eps_ladder.
    """

    DELTA_DIVISOR: float
    WIDEST: tuple[str, ...]
    CLOSED_FORM: str

    def __post_init__(self):
        _check_J(self.J)
        if self.delta is None:
            object.__setattr__(self, "delta", min(self.K, self.L / self.J) / self.DELTA_DIVISOR)
        params = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("eps", "J")}
        names = ", ".join(params)
        if not all(map(math.isfinite, params.values())):
            raise ValueError(f"{names} must be finite")
        for name, value in params.items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        # 144 v is the square of the widest law's +-12 sd window in gamma_v's x*x
        widest = sum(params[name] for name in self.WIDEST)
        if not math.isfinite(144.0 * widest):
            terms = "+".join(self.WIDEST)
            values = ", ".join(f"{name}={params[name]}" for name in self.WIDEST)
            raise ValueError(
                f"term variance {terms} = {widest} too large: 144 ({terms}) overflows on the "
                f"+-12 sd window ({values})"
            )
        if not self.K - self.delta > 0:
            raise ValueError("need K - delta > 0")
        if not self.L - self.J * self.delta > 0:
            raise ValueError("need L - J*delta > 0")
        minima = _DensityMinima()
        if self.eps is None:
            object.__setattr__(self, "eps", select_epsilon(self.K, self.L, self.delta, self.J, minima))
        elif not math.isfinite(self.eps):
            raise ValueError(f"{names}, eps must be finite")
        elif not self.eps > 0:
            raise ValueError(f"{names}, eps must be positive")
        self._check_eps_ladder(", ".join(f"{k}={v}" for k, v in params.items() if k != "L"), minima)

    def _check_eps_ladder(self, at: str, minima: _DensityMinima) -> None:
        """Reject an eps whose ladder richardson_quadratic cannot divide by
        (an e**2 overflows or underflows to 0), whose partner series
        overflows (eps**J is not finite), or whose smallest eps^2 step
        (eps/4)**2 falls below the objective's rounding floor, so that every
        ratio (value - reference) / e**2 is rounding noise (ValueError); then
        one whose densities go negative (NegativeDensityError), or whose
        closed-form step |closed_form()| (eps/4)**2 misses the floor, so
        that the sign of the eps^2 coefficient is undecidable (ValueError,
        naming the closed form's parameters ``at``)."""
        eps, J = self.eps, self.J
        try:
            squares = [e**2 for e in eps_ladder(eps)]
            eps**J
        except OverflowError:
            raise ValueError(f"eps too large: eps**2 or eps**J overflows at J={J}, got {eps}") from None
        if 0.0 in squares:
            raise ValueError(f"eps too small: (eps/4)**2 underflows to 0, got {eps}")
        floor = self.rounding_floor()
        if squares[-1] < floor:
            raise ValueError(
                f"eps too small: (eps/4)**2 = {squares[-1]:.3e} is below the objective's "
                f"rounding floor {floor:.3e}, got {eps}"
            )
        if minima(self.x1()) < -1e-12 or minima(self.x2()) < -1e-12:
            raise NegativeDensityError("eps too large: perturbed density goes negative on the grid")
        change = abs(self.closed_form()) * squares[-1]
        if not change >= floor:  # NaN where the closed form's terms are both infinite
            raise ValueError(
                f"eps too small: the closed-form change |{self.CLOSED_FORM}| (eps/4)**2 = "
                f"{change:.3e} does not reach the objective's rounding floor {floor:.3e} at "
                f"{at}, got {eps}"
            )

    def x1(self, eps: Optional[float] = None) -> GaussDerivMixture:
        return perturbed_source(self.K, self.delta, self.eps if eps is None else eps)

    def x2(self, eps: Optional[float] = None) -> GaussDerivMixture:
        return partner_series(
            self.L, self.delta, self.eps if eps is None else eps, self.J
        )

    def plus_x2(self, eps: float) -> Callable[[GaussDerivMixture], GaussDerivMixture]:
        """Adds x2(eps) to a law of x1(eps) plus Gaussian noise, telescoped
        (partner_sum): the X2 of an objective's pair."""
        return lambda law: partner_sum(law, self.L, self.delta, eps, self.J)


@dataclass(frozen=True)
class VerticalPerturbation(_PerturbationLadder):
    """Validated parameter bundle for the density-perturbation pipeline;
    delta defaults to min(K, L/J)/10, eps to select_epsilon's choice;
    either passes the checks of _PerturbationLadder, against
    objective_rounding_floor and deriv_norm_balance/2."""

    K: float
    L: float
    u: float
    delta: Optional[float] = None
    eps: Optional[float] = None
    J: int = 2

    DELTA_DIVISOR = 10.0
    # the widest law the objective tabulates, X1+Z2+X2, has variance K+u+L
    WIDEST = ("K", "u", "L")
    CLOSED_FORM = "deriv_norm_balance/2"

    def rounding_floor(self) -> float:
        return objective_rounding_floor(self.K, self.L, self.u)

    def closed_form(self) -> float:
        return 0.5 * deriv_norm_balance(self.K, self.u, self.delta)


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
    psi(x1_eps, x2_eps) - psi(gamma_K, gamma_L), whose closed form is
    deriv_norm_balance(K, u, delta)/2.  Raises
    NotStationaryError when L <= 1, where no stationary K exists.
    """
    k_star = stationary_source_variance(vp.L, vp.u)
    # half of psi is u h(gamma_{K+u+L}) + h(gamma_K) - (1+u) h(gamma_{K+u})
    gaussian_value = 0.5 * gauss_psi(k_star, vp.L, vp.u, 0.0, vp.u)
    base = 0.5 * gauss_psi(vp.K, vp.L, vp.u, 0.0, vp.u)
    params = ChannelParams(u=vp.u, N2=vp.u)
    values, coeff = richardson_quadratic(
        lambda eps: interference_objective(
            params, [(vp.x1(e), vp.plus_x2(e)) for e in eps], n=n
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
# Fisher-information limit functional
# ----------------------------------------------------------------------


def limit_functional(
    pairs: Sequence[tuple[GaussDerivMixture, Addend]], n: int = 16384
) -> list[float]:
    """h(X + Y) - h(X) - J(X)/2 for each pair of independent X and Y, each
    entropy and the Fisher information on an n-point grid over the law's
    window; Y is a mixture, or the function that adds it to X (the
    telescoped partner sum).  The X laws are one grid batch and the X + Y
    laws another, so the pairs of an eps ladder share one tabulation per
    grid."""
    h_xy = mixture_entropies([_plus(x, y) for x, y in pairs], n=n)
    return [
        h - r.entropy - 0.5 * r.fisher
        for h, r in zip(h_xy, mixture_integrals([x for x, _ in pairs], n=n, fisher=True))
    ]


def fisher_limit_gaussian(K: float, L: float) -> float:
    """Closed form of the limit functional at X = gamma_K."""
    return 0.5 * math.log((K + L) / K) - 1.0 / (2.0 * K)


def fisher_stationary_variance(L: float) -> float:
    if L <= 1:
        raise NoGaussianMaxError("stationary variance L/(L-1) needs L > 1")
    return L / (L - 1.0)


def limit_rounding_floor(K: float, L: float) -> float:
    """Least rounding error of the limit functional h(X+Y) - h(X) - J(X)/2
    near X = gamma_K, Y of variance L: 2^-53 times the sum of its terms'
    magnitudes, 2^-53 (|h(K+L)| + |h(K)| + 1/(2K)), as in
    objective_rounding_floor."""
    h = _entropy_magnitude
    return 2.0**-53 * (h(K + L) + h(K) + 1.0 / (2.0 * K))


def fisher_limit_coefficient(K: float, delta: float) -> float:
    """Closed-form eps^2 coefficient of the limit functional at
    X = gamma_K - eps a, a = D^3 gamma_v, v = K - delta, with the partner
    series, which leaves X+Y Gaussian but for a remainder of order
    eps^{J+1}, so h(X+Y) moves by O(eps^{2(J+1)}) only:
    c = 1/2 [int a^2/gamma_K - int gamma_K ((a/gamma_K)')^2].

    The first term is -h's and the second -J/2's second variation.
    gamma_K (a/gamma_K)' = a' + (x/K) a = v^{-2} (He_4 - r z He_3) gamma_v
    with z = x/sqrt(v) and r = v/K, so
    c = 1/2 [N(He_3)/v^3 - N(He_4 - r z He_3)/v^4] in the norm N of
    _weighted_sq_norm.  At delta = 0 it is (3/K^3)(1 - 3/K), positive iff
    K > 3.
    """
    v = K - delta
    r = v / K
    d3 = gauss_deriv_poly(3, 1.0).tolist()  # -He_3
    d4 = gauss_deriv_poly(4, 1.0).tolist()  # He_4
    shifted = [a + r * b for a, b in zip(d4, [0.0, *d3])]
    return 0.5 * (
        _weighted_sq_norm(d3, v, K) / v / v / v - _weighted_sq_norm(shifted, v, K) / v / v / v / v
    )


@dataclass(frozen=True)
class FisherPerturbation(_PerturbationLadder):
    """Validated parameter bundle for the limit functional's perturbation;
    delta defaults to min(K, L/J)/20, eps to select_epsilon's choice;
    either passes the checks of _PerturbationLadder, against
    limit_rounding_floor and fisher_limit_coefficient."""

    K: float
    L: float
    delta: Optional[float] = None
    eps: Optional[float] = None
    J: int = 2

    DELTA_DIVISOR = 20.0
    # the widest law the functional tabulates, X+Y, has variance K+L
    WIDEST = ("K", "L")
    CLOSED_FORM = "fisher_limit_coefficient"

    def rounding_floor(self) -> float:
        return limit_rounding_floor(self.K, self.L)

    def closed_form(self) -> float:
        return fisher_limit_coefficient(self.K, self.delta)


@dataclass(frozen=True)
class FisherLimitGain:
    L: float
    K: float
    eps0: float
    gaussian_value: float
    gains: tuple[float, float, float]
    quadratic_coeff: float
    closed_form: float


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
    which keeps E[Y^2] = L exactly.  X+Y is partner_sum's telescoped law,
    gamma_{K+L} less one term of order eps^{J+1}, so h(X+Y) moves by
    O(eps^{2(J+1)}) only.  The parameters pass FisherPerturbation's checks, so
    eps0 moves the functional by at least its rounding floor; the eps^2
    coefficient's closed form is fisher_limit_coefficient(K, delta).
    """
    fp = FisherPerturbation(K=fisher_stationary_variance(L), L=L, delta=delta, eps=eps0, J=J)
    gaussian_value = fisher_limit_gaussian(fp.K, L)
    values, coeff = richardson_quadratic(
        lambda eps: limit_functional([(fp.x1(e), fp.plus_x2(e)) for e in eps], n=n),
        gaussian_value,
        fp.eps,
    )
    return FisherLimitGain(
        L=L,
        K=fp.K,
        eps0=fp.eps,
        gaussian_value=gaussian_value,
        gains=tuple(v - gaussian_value for v in values),
        quadratic_coeff=coeff,
        closed_form=fp.closed_form(),
    )
