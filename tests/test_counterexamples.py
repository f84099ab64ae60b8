"""Counterexample pipelines against closed forms and quadrature oracles."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import moment_sum_sq_norm, outer_entropy_defect
from ziclab import counterexamples as cx
from ziclab import gaussmix
from ziclab.entropy import NegativeDensityError, gaussian_entropy, mixture_entropies, mixture_entropy, mixture_to_grid
from ziclab.gaussmix import MAX_ORDER, GaussMixture, gaussian
from ziclab.hessian import (
    NotStationaryError,
    gauss_psi,
    stability_threshold,
    stationary_source_variance,
)


def balance_closed_form(K: float, u: float, delta: float) -> float:
    """Independent oracle for the derivative-norm balance at any delta:
    int (D^3 g_v)^2 / g_K = sqrt(K w) (15 w^3/v^7 - 18 w^2/v^6 + 9 w/v^5)
    with w = v K/(2K - v), from Gaussian moment algebra."""

    def sq_norm(base: float) -> float:
        v = base - delta
        w = v * base / (2 * base - v)
        return math.sqrt(base * w) * (
            15 * w**3 / v**7 - 18 * w**2 / v**6 + 9 * w / v**5
        )

    return -sq_norm(K) + (1 + u) * sq_norm(K + u)


# ----------------------------------------------------------------------
# interference objective
# ----------------------------------------------------------------------


def test_gaussian_objective_vanishes_from_below():
    params = cx.ChannelParams(u=1.0, N1=0.0, N2=1.0)
    prev = -math.inf
    for K in (10.0, 100.0, 1000.0):
        [val] = cx.interference_objective(params, [(gaussian(K), gaussian(1.0))], n=8192)
        assert val < 0
        assert val > prev
        prev = val
    assert prev > -1e-3


def test_objective_matches_closed_form_on_grid():
    params = cx.ChannelParams(u=1.0, N1=0.3, N2=1.0)
    for K in (0.5, 1.0, 2.0, 4.0, 8.0):
        for Lv in (0.5, 1.0, 2.0, 4.0, 8.0):
            [num] = cx.interference_objective(params, [(gaussian(K), gaussian(Lv))], n=8192)
            closed = 0.5 * gauss_psi(K, Lv, params.u, params.N1, params.N2)
            assert num == pytest.approx(closed, abs=1e-6)


@pytest.mark.parametrize(
    "kwargs",
    [{"u": math.nan}, {"u": 1.0, "N1": math.inf}, {"u": 1.0, "N2": math.nan}],
)
def test_channel_params_reject_non_finite(kwargs):
    # no CLI input reaches ChannelParams unvalidated: constant-power-gap
    # builds it from HKParams, which rejects the same values first
    with pytest.raises(ValueError):
        cx.ChannelParams(**kwargs)


def test_recipe_objective_positive_at_small_t(recipe):
    # the skew witness beats all Gaussian pairs (whose supremum is 0):
    # X2 ~ mirrored q unscaled, sqrt(t) X1 ~ p, N2 = m2(q)
    t = 0.01
    m2 = recipe.q.second_moment()
    params = cx.ChannelParams(u=1.0, N1=0.0, N2=m2)
    x1 = recipe.p.scaled(1.0 / math.sqrt(t))
    x2 = recipe.q.reflected()
    [val] = cx.interference_objective(params, [(x1, x2)], n=8192)
    assert val > 1e-6


# ----------------------------------------------------------------------
# skewed-interferer gap
# ----------------------------------------------------------------------


def test_skewness_gap_positive_and_matches_quadrature(recipe):
    info = recipe.validate()
    t_grid = np.geomspace(1e-3, 1e-2, 6)
    rows = cx.skewness_gap(t_grid, recipe, n=8192)
    assert np.all(rows[:2, 1] > 1e-6)
    coeff = cx.gap_coefficient(rows)
    assert coeff == pytest.approx(info["gap_coefficient"], rel=0.05)
    assert info["gap_coefficient"] > 0


def test_skewness_gap_gaussian_control(recipe):
    t_grid = np.geomspace(1e-3, 1e-2, 6)
    rows = cx.skewness_gap(t_grid, recipe, gaussian_x2=True, n=8192)
    assert np.all(rows[:, 1] <= 1e-6)


def test_skewness_gap_symmetric_interferer_is_second_order():
    sym = GaussMixture((0.5, 0.5), (-1.2, 1.2), (1.0, 1.0))
    base = GaussMixture((0.7, 0.3), (0.75, -1.75), (1.0, 1.0))
    recipe = cx.SkewRecipe(p=base, q=sym)
    with pytest.raises(cx.RecipeRejectedError):
        recipe.validate()  # m3 = 0 fails the precondition
    # run the pipeline pieces directly: the fitted t^{3/2} term vanishes
    t_grid = np.geomspace(1e-3, 1e-2, 6)
    m2 = sym.second_moment()
    gaps = []
    for t in t_grid:
        c = base.convolve_gaussian(t * m2)
        a = c.convolve(sym.scaled(math.sqrt(t)).reflected())
        gaps.append(
            mixture_entropy(a) + mixture_entropy(base) - 2 * mixture_entropy(c)
        )
    rows = np.column_stack([t_grid, gaps])
    coeff = cx.gap_coefficient(rows)
    # pure O(t^2) behavior: the fitted half-power slot only carries Taylor
    # leakage, a few percent of the genuinely skewed recipe's coefficient
    skewed = cx.default_recipe().validate()["gap_coefficient"]
    assert abs(coeff) < 0.05 * skewed
    assert np.all(np.abs(rows[:, 1]) < 2.5 * rows[:, 0] ** 2)


def test_recipe_rejection_modes(recipe):
    flipped_p = cx.SkewRecipe(p=recipe.p.reflected(), q=recipe.q)
    with pytest.raises(cx.RecipeRejectedError):
        flipped_p.validate()  # int p''' ln p < 0
    flipped_q = cx.SkewRecipe(p=recipe.p, q=recipe.q.reflected())
    with pytest.raises(cx.RecipeRejectedError):
        flipped_q.validate()  # m3 > 0


def test_skewness_gap_runs_no_recipe_quadrature(recipe, monkeypatch):
    # m2 comes from the closed-form moments, the same bits validate() reports
    assert recipe.q.second_moment() == recipe.validate()["m2"]

    def no_quadrature(*args):
        raise AssertionError("skewness_gap ran the recipe quadrature")

    monkeypatch.setattr(cx, "log_weighted_deriv_integral", no_quadrature)
    rows = cx.skewness_gap([1e-3, 1e-2], recipe, n=4096)
    assert rows.shape == (2, 2)


def test_skewness_gap_with_noise_and_cost(recipe):
    # positive-noise variant: X1+Z1 as the new source plus a small
    # quadratic cost keeps the gap strictly positive
    t = np.array([5e-3, 1e-2])
    m2p = recipe.p.second_moment()
    sigma1 = 1e-7 * t[0]  # cost term ~1e-7 * m2p, well under the gap
    rows = cx.skewness_gap(t, recipe, N1=1.0, Sigma1=sigma1, n=8192)
    assert np.all(rows[:, 1] > 1e-6)


@pytest.mark.parametrize(
    "kwargs", [{"N1": -1.0}, {"Sigma1": -1.0}, {"N1": math.nan}, {"Sigma1": math.inf}]
)
def test_skewness_gap_rejects_bad_noise_and_cost(recipe, kwargs):
    # a negative N1 used to be skipped silently, as if it were 0
    (name, value), = kwargs.items()
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative, got {value}"):
        cx.skewness_gap([1e-2], recipe, n=1024, **kwargs)


def test_skewness_gap_is_the_channel_objective(recipe):
    # the gap row is the three-entropy combination, evaluated exactly as
    # assembled by hand (u = 1, N2 = t m2, no extra N1 smoothing)
    t = 4e-3
    m2 = recipe.q.second_moment()
    c = recipe.p.convolve_gaussian(t * m2)
    a = c.convolve(recipe.q.scaled(math.sqrt(t)).reflected())
    by_hand = (
        mixture_entropy(a, n=2048) + mixture_entropy(recipe.p, n=2048)
        - 2.0 * mixture_entropy(c, n=2048)
    )
    assert cx.skewness_gap([t], recipe, n=2048)[0, 1] == by_hand


@pytest.mark.parametrize("rows", [np.array([]), np.array([[1e-3, 0.1]])])
def test_gap_coefficient_needs_two_rows(rows):
    with pytest.raises(ValueError, match="needs at least 2 t values"):
        cx.gap_coefficient(rows)


def test_richardson_quadratic_exact_to_sixth_order():
    # two Richardson rounds remove the eps^4 and eps^6 terms of an even series
    def value(e):
        return 0.5 + 3.0 * e**2 - 7.0 * e**4 + 11.0 * e**6

    values, coeff = cx.richardson_quadratic(lambda eps: [value(e) for e in eps], 0.5, 0.1)
    assert values == [value(0.1), value(0.05), value(0.025)]
    assert coeff == pytest.approx(3.0, rel=1e-12)


# ----------------------------------------------------------------------
# vertical perturbation
# ----------------------------------------------------------------------


def test_threshold_value():
    assert stability_threshold(1.0) == pytest.approx(1.0 / (2 ** (1 / 3) - 1), rel=1e-12)
    assert stability_threshold(1.0) == pytest.approx(3.8473221018, abs=1e-9)


def test_vertical_gap_unstable_case():
    # u=1, L=1.4 -> stationary K=6 above threshold: positive coefficient
    delta = 0.07
    eps = cx.select_epsilon(6.0, 1.4, delta, 2)
    vp = cx.VerticalPerturbation(K=6.0, L=1.4, u=1.0, delta=delta, eps=eps, J=2)
    res = cx.vertical_gap(vp)
    assert res.stationary_K == pytest.approx(6.0, rel=1e-12)
    assert res.quadratic_coeff > 0
    # measured 4.2e-8 off, the Richardson step's error
    assert res.quadratic_coeff == pytest.approx(
        0.5 * balance_closed_form(6.0, 1.0, delta), rel=1e-6
    )
    # the perturbed pair genuinely beats the Gaussian supremum
    assert res.perturbed_value > res.gaussian_value + 1e-8


def test_vertical_gap_stable_case():
    delta = 0.05
    eps = cx.select_epsilon(2.0, 3.0, delta, 2)
    vp = cx.VerticalPerturbation(K=2.0, L=3.0, u=1.0, delta=delta, eps=eps, J=2)
    res = cx.vertical_gap(vp)
    assert res.quadratic_coeff < 0
    # measured 1.0e-9 off
    assert res.quadratic_coeff == pytest.approx(
        0.5 * balance_closed_form(2.0, 1.0, delta), rel=1e-6
    )
    # stable direction cannot beat the Gaussian maximum
    assert res.perturbed_value < res.gaussian_value


def test_vertical_gap_requires_L_above_1():
    vp = cx.VerticalPerturbation(K=4.0, L=0.9, u=1.0, delta=0.05, eps=1e-3, J=2)
    with pytest.raises(NotStationaryError, match="needs L > 1, got 0.9"):
        cx.vertical_gap(vp)


def test_vertical_perturbation_validation():
    with pytest.raises(ValueError):
        cx.VerticalPerturbation(K=1.0, L=3.0, u=1.0, delta=1.5, eps=1e-3, J=2)
    with pytest.raises(ValueError):
        cx.VerticalPerturbation(K=2.0, L=0.3, u=1.0, delta=0.2, eps=1e-3, J=2)
    with pytest.raises(NegativeDensityError):
        cx.VerticalPerturbation(K=2.0, L=3.0, u=1.0, delta=0.05, eps=0.5, J=2)


def test_epsilon_selection_keeps_densities_positive():
    eps = cx.select_epsilon(2.0, 3.0, 0.3, 1)
    vp = cx.VerticalPerturbation(K=2.0, L=3.0, u=1.0, delta=0.3, eps=eps, J=1)
    for mix in (vp.x1(), vp.x2()):
        g = mixture_to_grid(mix, *mix.window(), 4096)
        assert g.values.min() >= 0.0
    # doubling the selected eps must break positivity somewhere
    with pytest.raises(NegativeDensityError):
        cx.VerticalPerturbation(K=2.0, L=3.0, u=1.0, delta=0.3, eps=4 * eps, J=1)


def test_outer_entropy_epsilon_exponent():
    # the triple convolution stays Gaussian up to O(eps^{2(J+1)})
    K, L, u, delta, J = 2.0, 3.0, 1.0, 0.3, 1
    eps0 = cx.select_epsilon(K, L, delta, J)
    vp = cx.VerticalPerturbation(K=K, L=L, u=u, delta=delta, eps=eps0, J=J)
    eps = np.array([eps0, eps0 / 2, eps0 / 4])
    defects = np.array([outer_entropy_defect(vp, e, n=8192) for e in eps])
    assert np.all(defects > 0)
    slope = np.polyfit(np.log(eps), np.log(defects), 1)[0]
    assert slope >= 2 * (J + 1) - 0.2


def test_vertical_perturbation_resolves_defaults():
    vp = cx.VerticalPerturbation(K=6.0, L=1.4, u=1.0, J=3)
    assert vp.delta == min(6.0, 1.4 / 3) / 10.0
    assert vp.eps == cx.select_epsilon(6.0, 1.4, vp.delta, 3)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"J": 0}, "J must be >= 1"),
        ({"K": math.inf}, "K, L, u, delta must be finite"),
        ({"delta": -0.1}, "delta must be positive, got -0.1"),
        ({"delta": 7.0}, r"need K - delta > 0"),
        ({"delta": 1.0}, r"need L - J\*delta > 0"),
        ({"eps": math.nan}, "K, L, u, delta, eps must be finite"),
        ({"eps": 0.0}, "K, L, u, delta, eps must be positive"),
        ({"J": 21}, r"J must be <= 20 \(the derivative order 3J \+ 3 must not exceed 64\), got 21"),
    ],
)
def test_vertical_perturbation_rejects_before_eps_scan(kwargs, message, monkeypatch):
    def no_scan(*args):
        raise AssertionError("the eps scan ran on a rejected parameter")

    monkeypatch.setattr(cx, "select_epsilon", no_scan)
    with pytest.raises(ValueError, match=message):
        cx.VerticalPerturbation(**{"K": 6.0, "L": 1.4, "u": 1.0, **kwargs})


def test_J_bound_follows_max_order(monkeypatch):
    # the objectives convolve D^3 with the partner's D^{3J}: order 3J + 3
    assert 3 * cx.MAX_J + 3 <= MAX_ORDER < 3 * (cx.MAX_J + 1) + 3

    def no_scan(*args):
        raise AssertionError("the eps scan ran on a rejected J")

    monkeypatch.setattr(cx, "select_epsilon", no_scan)
    with pytest.raises(ValueError, match=f"J must be <= {cx.MAX_J} .*, got {cx.MAX_J + 1}"):
        cx.fisher_limit_gain(1.2, J=cx.MAX_J + 1)


def test_vertical_gap_value_is_the_channel_objective():
    # perturbed_value is u h(X1+Z2+X2) + h(X1) - (1+u) h(X1+Z2), Z2 ~ gamma_u,
    # evaluated exactly as assembled by hand
    vp = cx.VerticalPerturbation(K=2.0, L=3.0, u=0.7, delta=0.3, eps=1e-3, J=1)
    x1z = vp.x1().convolve(gaussian(vp.u))
    by_hand = (
        vp.u * mixture_entropy(x1z.convolve(vp.x2()), n=2048)
        + mixture_entropy(vp.x1(), n=2048)
        - (1.0 + vp.u) * mixture_entropy(x1z, n=2048)
    )
    assert cx.vertical_gap(vp, n=2048).perturbed_value == by_hand


def count_grid_columns(monkeypatch, n):
    """Patch gaussmix's kernel to count its calls on n-point grids, keyed by
    (grid ends, order, variance)."""
    kernel = gaussmix.gauss_deriv_pdf
    calls = {}

    def counted(x, variance, order=0, out=None):
        if np.size(x) == n:
            key = (float(x[0]), float(x[-1]), order, variance)
            calls[key] = calls.get(key, 0) + 1
        return kernel(x, variance, order, out=out)

    monkeypatch.setattr(gaussmix, "gauss_deriv_pdf", counted)
    return calls


def test_vertical_gap_tabulates_each_term_once_per_grid(monkeypatch):
    # the eps ladder's three objectives share their (order, variance) terms
    # on each grid; before the batch each column was evaluated three times
    vp = cx.VerticalPerturbation(K=2.0, L=3.0, u=0.7, delta=0.3, eps=1e-3, J=2)
    calls = count_grid_columns(monkeypatch, 2048)
    cx.vertical_gap(vp, n=2048)
    assert calls and set(calls.values()) == {1}
    grids = {key[:2] for key in calls}
    assert len(grids) == 3  # X1+Z1+Z2+X2, X1+Z1 and X1+Z1+Z2 windows


def test_fisher_limit_gain_tabulates_each_term_once_per_grid(monkeypatch):
    calls = count_grid_columns(monkeypatch, 2048)
    cx.fisher_limit_gain(1.2, J=3, eps0=2.0**-8, n=2048)
    assert calls and set(calls.values()) == {1}
    assert len({key[:2] for key in calls}) == 2  # X and X + Y windows


def test_vertical_gap_ladder_matches_single_pair_objectives():
    vp = cx.VerticalPerturbation(K=2.0, L=3.0, u=0.7, delta=0.3, eps=1e-3, J=2)
    res = cx.vertical_gap(vp, n=2048)
    params = cx.ChannelParams(u=vp.u, N2=vp.u)
    singles = [
        cx.interference_objective(params, [(vp.x1(e), vp.x2(e))], n=2048)[0]
        for e in cx.eps_ladder(vp.eps)
    ]
    _, coeff = cx.richardson_quadratic(lambda eps: singles, res.base_value, vp.eps)
    assert res.perturbed_value == singles[0]
    assert res.quadratic_coeff == coeff


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # OverflowError in partner_series (eps**j)
        ({"K": 1e300, "delta": 2.5011080795048392e-272, "eps": 2.298404453637188e221},
         r"eps too large: eps\*\*2 or eps\*\*J overflows at J=2, got 2.298404453637188e\+221"),
        ({"eps": 1e200, "J": 1}, r"eps too large: .* overflows at J=1, got 1e\+200"),
        # ZeroDivisionError in richardson_quadratic: (eps/4)**2 underflowed to 0
        ({"K": 8.043241841108752e256, "delta": 5.062894561534945e-23, "eps": 9.43946782688377e-284},
         r"eps too small: \(eps/4\)\*\*2 underflows to 0, got 9.43946782688377e-284"),
        # the eps^2 coefficient was rounding noise: -1.87 at 1e-7, -1.87e286 at 1e-150
        ({"eps": 1e-7}, r"eps too small: \(eps/4\)\*\*2 = 6.250e-16 is below the objective's rounding floor"),
        ({"eps": 1e-150}, r"eps too small: \(eps/4\)\*\*2 = 6.250e-302 is below the objective's rounding floor"),
    ],
)
def test_vertical_perturbation_rejects_eps_ladder_before_tabulation(kwargs, message, monkeypatch):
    def no_tabulation(*args):
        raise AssertionError("a density was tabulated for a rejected eps")

    monkeypatch.setattr(gaussmix, "gauss_deriv_pdf", no_tabulation)
    with pytest.raises(ValueError, match=message):
        cx.VerticalPerturbation(**{"K": 6.0, "L": 1.4, "u": 1.0, **kwargs})


@pytest.mark.parametrize("eps", [None, 2.0**-7])
def test_eps_must_decide_the_closed_form_sign(eps):
    # at u = 1e-300 the eps^2 change of the objective, O(u), reads 0 in
    # closed form: below the rounding floor for the default eps and an
    # explicit one alike, although (eps/4)**2 clears that floor
    K, L, u = 3.5, 1.4, 1e-300
    assert (2.0**-7 / 4.0) ** 2 > cx.objective_rounding_floor(K, L, u)
    with pytest.raises(ValueError, match=r"closed-form change \|deriv_norm_balance/2\| "
                                         r"\(eps/4\)\*\*2 = 0.000e\+00 does not reach"):
        cx.VerticalPerturbation(K=K, L=L, u=u, eps=eps)


def test_objective_rounding_floor_is_unit_roundoff_of_the_terms():
    K, L, u = 6.0, 1.4, 1.0
    h = [abs(gaussian_entropy(v)) for v in (K + u + L, K, K + u)]
    expected = 2.0**-53 * (u * h[0] + h[1] + (1.0 + u) * h[2])
    assert cx.objective_rounding_floor(K, L, u) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("u, L, J", [(1.0, 1.4, 2), (2.0, 3.0, 8), (0.5, 2.0, 4)])
def test_default_eps_passes_the_rounding_floor_check(u, L, J):
    # the README and benchmark commands' select_epsilon choices, given explicitly
    K = stationary_source_variance(L, u)
    chosen = cx.VerticalPerturbation(K=K, L=L, u=u, J=J).eps
    assert chosen >= 2.0**-9
    vp = cx.VerticalPerturbation(K=K, L=L, u=u, eps=chosen, J=J)
    assert (vp.eps / 4.0) ** 2 > 1e6 * cx.objective_rounding_floor(K, L, u)


def test_partner_series_budget_neutral():
    y = cx.partner_series(3.0, 0.1, 0.05, 3)
    assert y.mass == pytest.approx(1.0, abs=1e-15)
    assert y.moments(2)[1] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("J", range(1, cx.MAX_J + 1))
def test_partner_sum_is_the_convolved_law_without_its_cancelling_pairs(J):
    # the convolution keeps the ulp-apart pairs; its first and last terms
    # are the telescoped law's, formed the same way
    K, L, u, eps = 3.0, 2.2, 0.7, 0.013
    delta = min(K, L / J) / 10.0
    x1 = cx.perturbed_source(K, delta, eps)
    for source in (x1, x1.convolve(gaussian(u))):
        law = cx.partner_sum(source, L, delta, eps, J)
        convolved = source.convolve(cx.partner_series(L, delta, eps, J))
        assert len(law.terms) == 2
        assert law.terms == (convolved.terms[0], convolved.terms[-1])
        assert law.terms[1].order == 3 * J + 3


def test_partner_sum_needs_the_perturbed_source():
    with pytest.raises(ValueError, match=r"one D\^0 and one D\^3 term, got orders \(0,\)"):
        cx.partner_sum(gaussian(2.0), 1.5, 0.1, 0.01, 2)
    shifted = cx.perturbed_source(2.0, 0.1, 0.01).convolve(GaussMixture((1.0,), (0.5,), (1.0,)))
    with pytest.raises(ValueError, match="must be centered"):
        cx.partner_sum(shifted, 1.5, 0.1, 0.01, 2)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    K=st.floats(0.3, 30.0),
    L=st.floats(1.01, 8.0),
    u=st.floats(0.05, 6.0),
    J=st.integers(1, cx.MAX_J),
    scale=st.floats(0.26, 1.0),
)
def test_partner_sum_entropy_matches_the_convolved_law(K, L, u, J, scale):
    # eps below select_epsilon's choice, mostly not a power of 2; the
    # convolved law is the oracle, within each objective's rounding floor
    delta = min(K, L / J) / 10.0
    eps = cx.select_epsilon(K, L, delta, J) * scale
    x1 = cx.perturbed_source(K, delta, eps)
    y = cx.partner_series(L, delta, eps, J)
    noisy = x1.convolve(gaussian(u))
    telescoped = mixture_entropies(
        [cx.partner_sum(noisy, L, delta, eps, J), cx.partner_sum(x1, L, delta, eps, J)], n=2048
    )
    convolved = mixture_entropies([noisy.convolve(y), x1.convolve(y)], n=2048)
    assert u * abs(telescoped[0] - convolved[0]) <= cx.objective_rounding_floor(K, L, u)
    assert abs(telescoped[1] - convolved[1]) <= cx.limit_rounding_floor(K, L)


def old_select_epsilon(K, L, delta, J):
    """select_epsilon with every eps's densities tabulated afresh."""
    for k in range(1, 44):
        eps = 2.0**-k
        if all(
            m.pdf(np.linspace(*m.window(), 4096)).min() >= 0.0
            for m in (cx.perturbed_source(K, delta, eps), cx.partner_series(L, delta, eps, J))
        ):
            return eps / 2.0
    raise AssertionError("no eps")


@pytest.mark.parametrize("K, L, J", [(6.0, 1.4, 2), (2.0, 3.0, 8), (11.0, 1.1, 20), (1.2, 6.0, 5)])
def test_positivity_scan_tabulates_once_and_keeps_the_bits(K, L, J):
    delta = min(K, L / J) / 10.0
    minima = cx._DensityMinima()
    assert cx.select_epsilon(K, L, delta, J, minima) == old_select_epsilon(K, L, delta, J)
    for eps in (2.0**-3, 2.0**-9, 0.0123):
        for m in (cx.perturbed_source(K, delta, eps), cx.partner_series(L, delta, eps, J)):
            expected = m.pdf(np.linspace(*m.window(), 4096)).min()
            assert np.float64(minima(m)).tobytes() == expected.tobytes()
    # J + 3 columns on two grids, whatever the number of eps asked
    assert len(minima._columns) == J + 3


def test_positivity_scan_keys_columns_on_the_mean():
    # equal windows and equal (order, variance), different means: a column
    # keyed without the mean would give the second law the first one's
    minima = cx._DensityMinima()
    for m in (
        GaussMixture((0.5, 0.5), (-1.0, 1.0), (1.0, 1.0)),
        GaussMixture((0.25, 0.5, 0.25), (-1.0, 0.0, 1.0), (1.0, 1.0, 1.0)),
    ):
        expected = m.pdf(np.linspace(*m.window(), 4096)).min()
        assert np.float64(minima(m)).tobytes() == expected.tobytes()
    assert len(minima._columns) == 3


# ----------------------------------------------------------------------
# derivative-norm balance
# ----------------------------------------------------------------------


def test_balance_examples():
    # delta=0: -6/K^3 + 6(1+u)/(K+u)^3 exactly
    val = cx.deriv_norm_balance(4.0, 1.0, 0.0)
    assert val == pytest.approx(-6 / 64 + 12 / 125, abs=1e-10)
    assert val == pytest.approx(0.00225, abs=1e-10)
    thr = 1.0 / (2 ** (1 / 3) - 1)
    assert cx.deriv_norm_balance(thr, 1.0, 0.0) == pytest.approx(0.0, abs=1e-10)
    v_small = cx.deriv_norm_balance(4.0, 1.0, 0.01)
    assert v_small == pytest.approx(val, rel=0.01)


def test_balance_matches_closed_form_at_positive_delta():
    for (K, u, d) in ((4.0, 1.0, 0.4), (2.0, 0.5, 0.1), (6.0, 2.0, 0.6)):
        assert cx.deriv_norm_balance(K, u, d) == pytest.approx(
            balance_closed_form(K, u, d), rel=1e-9
        )


def test_balance_matches_adaptive_quadrature():
    from scipy.integrate import quad

    def gauss(x, v):
        return math.exp(-x * x / (2 * v)) / math.sqrt(2 * math.pi * v)

    def sq_norm(base, delta):
        v = base - delta

        def f(x):
            d3 = -(x**3 / v**3 - 3 * x / v**2) * gauss(x, v)
            return d3 * d3 / gauss(x, base)

        r = 14 * math.sqrt(base)
        return quad(f, -r, r, epsabs=1e-13, epsrel=1e-13, limit=300)[0]

    for (K, u, d) in ((4.0, 1.0, 0.0), (2.0, 0.5, 0.0), (4.0, 1.0, 0.4), (6.0, 2.0, 0.6)):
        expected = -sq_norm(K, d) + (1 + u) * sq_norm(K + u, d)
        assert cx.deriv_norm_balance(K, u, d) == pytest.approx(expected, rel=1e-10)


def test_balance_matches_the_moment_sum_in_x():
    # the standardized kernel against the moment sum in x it replaced, within
    # 16 ulps of the terms' magnitude sum (10.1 measured); past K = 1e50 the
    # oracle's squared 1/v^3 coefficient runs into the subnormals
    rng = np.random.default_rng(18)
    for _ in range(5000):
        K = 10.0 ** rng.uniform(-3.0, 50.0)
        u = 10.0 ** rng.uniform(-3.0, 3.0)
        delta = K * rng.uniform(0.0, 0.99)
        t1 = moment_sum_sq_norm(K, delta)
        t2 = (1.0 + u) * moment_sum_sq_norm(K + u, delta)
        bound = 16 * 2.0**-52 * (abs(t1) + abs(t2))
        assert abs(cx.deriv_norm_balance(K, u, delta) - (t2 - t1)) <= bound, (K, u, delta)


@pytest.mark.parametrize("K", [1e160, 1e306])
@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_balance_underflows_to_zero_at_large_K(K, delta):
    # the moment sum in x read nan from K = 1.34e154: v * base overflowed
    assert cx.deriv_norm_balance(K, 1.0, delta) == 0.0


def test_stability_root_unchanged_from_the_moment_sum(monkeypatch):
    roots = {u: cx.stability_root(u, tol=1e-8) for u in (0.001, 0.5, 1.0, 2.0, 7.0, 100.0)}
    calls = []

    def moment_sum_balance(K, u, d=0.0):
        calls.append(K)
        return -moment_sum_sq_norm(K, d) + (1 + u) * moment_sum_sq_norm(K + u, d)

    # the balance is patched where stability_root reads it, and the root
    # must have called the patched one
    monkeypatch.setattr(sys.modules[cx.stability_root.__module__], "deriv_norm_balance",
                        moment_sum_balance)
    assert roots == {u: cx.stability_root(u, tol=1e-8) for u in roots}
    assert len(calls) >= len(roots)


def test_stability_root_matches_threshold():
    for u in (0.5, 1.0, 2.0):
        root = cx.stability_root(u, tol=1e-8)
        assert root == pytest.approx(stability_threshold(u), abs=1e-8)


def test_stability_root_ends_below_float_spacing():
    # the least accepted tol is the float spacing at the bracket end 3 + u;
    # below it the bracket could not shrink to tol, so it is rejected.  At
    # it the bisection ends, at a midpoint within about 1e-14 of the root
    # whose balance lies within its rounding floor; 1e-12 is reached
    for u in (0.5, 1.0, 2.0):
        least = math.ulp(3.0 + u)
        with pytest.raises(ValueError, match="is within its rounding floor"):
            cx.stability_root(u, tol=least)
        root = cx.stability_root(u, tol=1e-12)
        assert abs(root - stability_threshold(u)) <= 1e-12
        for tol in (1e-300, 0.5 * least):
            with pytest.raises(ValueError, match="tolerance must be at least"):
                cx.stability_root(u, tol=tol)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            cx.stability_root(1.0, tol=tol)


def test_balance_single_sign_change():
    u = 1.0
    ks = np.linspace(0.3, 100.0, 400)
    vals = np.array([balance_closed_form(k, u, 0.0) for k in ks])
    signs = np.sign(vals)
    changes = np.sum(signs[:-1] != signs[1:])
    assert changes == 1


def test_vertical_sign_flip_by_bisection():
    # the eps^2-coefficient changes sign at the stability threshold
    u, delta, J = 1.0, 0.02, 2

    def coeff(K: float) -> float:
        L = (K + u) / (K - 1.0)  # makes K the stationary variance
        eps = cx.select_epsilon(K, L, delta, J)
        vp = cx.VerticalPerturbation(K=K, L=L, u=u, delta=delta, eps=eps, J=J)
        return cx.vertical_gap(vp, n=4096).quadratic_coeff

    lo, hi = 3.0, 4.6
    assert coeff(lo) < 0 < coeff(hi)
    while hi - lo > 5e-4:
        mid = 0.5 * (lo + hi)
        if coeff(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(stability_threshold(u), abs=1e-3)


# ----------------------------------------------------------------------
# Fisher limit functional
# ----------------------------------------------------------------------


def test_limit_functional_gaussian_closed_form():
    for K, L in ((2.0, 2.0), (1.7, 1.2)):
        [val] = cx.limit_functional([(gaussian(K), gaussian(L))])
        assert val == pytest.approx(cx.fisher_limit_gaussian(K, L), abs=1e-10)


def test_stationary_variance_is_maximum():
    L = 2.0
    k0 = cx.fisher_stationary_variance(L)
    assert k0 == pytest.approx(2.0, rel=1e-12)
    base = cx.fisher_limit_gaussian(k0, L)
    for k in (0.8 * k0, 1.2 * k0):
        assert cx.fisher_limit_gaussian(k, L) < base


def mp_fisher_coefficient(K: float, delta: float):
    """1/2 int [a^2 - (a' + x a/K)^2] / gamma_K, a = D^3 gamma_{K-delta},
    by 30-digit quadrature: -h's and -J/2's second variations."""
    with mpmath.workdps(30):
        K, v = mpmath.mpf(K), mpmath.mpf(K) - mpmath.mpf(delta)

        def gauss(x, w):
            return mpmath.exp(-x * x / (2 * w)) / mpmath.sqrt(2 * mpmath.pi * w)

        def f(x):
            a = -(x**3 / v**3 - 3 * x / v**2) * gauss(x, v)
            da = (x**4 / v**4 - 6 * x**2 / v**3 + 3 / v**2) * gauss(x, v)
            return (a * a - (da + x * a / K) ** 2) / gauss(x, K)

        return mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]) / 2


# the README's limit-functional L at J = 2, delta = min(K, L/J)/20
FISHER_COEFFICIENTS = {
    1.2: 0.0069447337773047299,
    1.6: -0.019931292756235835,
    2.0: -0.18926262744159333,
}


@pytest.mark.parametrize("L", FISHER_COEFFICIENTS)
def test_fisher_coefficient_matches_mpmath(L):
    K = cx.fisher_stationary_variance(L)
    delta = min(K, L / 2) / 20.0
    exact = mp_fisher_coefficient(K, delta)
    assert float(exact) == pytest.approx(FISHER_COEFFICIENTS[L], rel=1e-15)
    assert cx.fisher_limit_coefficient(K, delta) == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("K", [0.5, 2.0, 3.0, 6.0, 1e3, 1e100])
def test_fisher_coefficient_at_delta_0(K):
    # the abstract's window: positive iff K > 3; to rounding of its two terms
    expected = 3.0 / K**3 * (1.0 - 3.0 / K)
    bound = 8 * 2.0**-52 * (6.0 / K**3 + 18.0 / K**3 / K) / 2
    assert abs(cx.fisher_limit_coefficient(K, 0.0) - expected) <= bound


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"J": 0}, "J must be >= 1, got 0"),
        ({"L": math.nan}, "K, L, delta must be finite"),
        ({"delta": -0.1}, "delta must be positive, got -0.1"),
        ({"delta": 7.0}, r"need K - delta > 0"),
        ({"delta": 1.0}, r"need L - J\*delta > 0"),
        ({"eps0": math.nan}, "K, L, delta, eps must be finite"),
        ({"eps0": 0.0}, "K, L, delta, eps must be positive"),
        ({"eps0": 1e200, "J": 1}, r"eps too large: .* overflows at J=1, got 1e\+200"),
        ({"eps0": 1e-8}, r"eps too small: \(eps/4\)\*\*2 = 6.250e-18 is below the objective's rounding floor "
                         r"5.334e-16, got 1e-08"),
    ],
)
def test_fisher_limit_gain_runs_the_ladder_checks(kwargs, message, monkeypatch):
    # the checks of VerticalPerturbation, before any density is tabulated
    def no_tabulation(*args, **kwargs):
        raise AssertionError("a density was tabulated for a rejected parameter")

    monkeypatch.setattr(gaussmix, "gauss_deriv_pdf", no_tabulation)
    with pytest.raises(ValueError, match=message):
        cx.fisher_limit_gain(**{"L": 1.2, **kwargs})


def test_fisher_limit_gain_rejects_an_undecidable_sign():
    # K = 10001: c = 3.0e-12, whose change at (eps/4)^2 is below the floor;
    # the grid once read -8.6e-11 here and called the K > 3 rule broken
    with pytest.raises(ValueError, match=r"closed-form change \|fisher_limit_coefficient\| "
                                         r"\(eps/4\)\*\*2 = 4.575e-17 does not reach"):
        cx.fisher_limit_gain(1.0001, n=1024)
    with pytest.raises(NegativeDensityError):
        cx.fisher_limit_gain(1.2, eps0=0.5, n=1024)


def test_fisher_limit_gain_reports_its_closed_form():
    # with the exact p' the extrapolated coefficient is 7.1e-8 off at
    # n = 16384, the Richardson step's error
    res = cx.fisher_limit_gain(1.2)
    assert res.closed_form == cx.fisher_limit_coefficient(res.K, min(res.K, 0.6) / 20.0)
    assert res.quadratic_coeff == pytest.approx(res.closed_form, rel=1e-6)


def test_fisher_limit_gain_signs():
    res_low = cx.fisher_limit_gain(1.2, n=8192)
    assert res_low.K == pytest.approx(6.0, rel=1e-12)
    assert res_low.quadratic_coeff > 0
    assert max(res_low.gains) > 0  # beats the Gaussian stationary value
    res_high = cx.fisher_limit_gain(2.0, n=8192)
    assert res_high.K == pytest.approx(2.0, rel=1e-12)
    assert res_high.quadratic_coeff < 0
    assert all(g < 0 for g in res_high.gains)
