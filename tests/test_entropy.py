"""Grid entropy, Fisher information, and the smoothing expansion against
closed forms and quadrature oracles."""

import math

import numpy as np
import pytest

from _oracles import convolve_grids, grid_smoothing_curve
from ziclab.entropy import (
    GridDensity,
    NegativeDensityError,
    NonNormalizedError,
    check_expansion_count,
    differential_entropy,
    expansion_targets,
    fisher_information,
    fit_expansion,
    gaussian_entropy,
    check_fit_t,
    log_weighted_deriv_integral,
    mixture_entropies,
    mixture_entropy,
    mixture_to_grid,
    power_fit,
    smoothing_curve,
)
from ziclab.gaussmix import DerivTerm, GaussDerivMixture, GaussMixture, gaussian


def grid_from_mixture(m, n):
    """The mixture tabulated on n points over its own window."""
    return mixture_to_grid(m, *m.window(), n)


def unit_gaussian(variance):
    """gamma_variance as a one-component location mixture."""
    return GaussMixture((1.0,), (0.0,), (variance,))


def expansion(p, q, t, n=8192):
    """(c1, c15, residual slope) of p smoothed by the law of sqrt(t) q."""
    curve = smoothing_curve(p, q, t, n=n)
    return fit_expansion(curve[:, 0], curve[:, 1])


def test_gaussian_entropy_closed_form():
    for K in (1.0, 3.0):
        g = grid_from_mixture(gaussian(K), n=4096)
        assert differential_entropy(g) == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e * K), abs=1e-9
        )


def test_far_separated_mixture_entropy():
    # components at +-5, variance 1: h = single-component entropy + ln 2
    # up to exponentially small overlap corrections
    m = GaussMixture((0.5, 0.5), (-5.0, 5.0), (1.0, 1.0))
    h = mixture_entropy(m, n=8192)
    assert h == pytest.approx(0.5 * math.log(2 * math.pi * math.e) + math.log(2), abs=1e-5)


def test_entropy_requires_normalization():
    x = np.linspace(-10, 10, 2048)
    vals = np.exp(-(x**2) / 2)  # unnormalized
    g = GridDensity(-10, 10, 2048, vals)
    with pytest.raises(NonNormalizedError):
        differential_entropy(g)


def test_negative_density_rejected():
    x = np.linspace(-10, 10, 2048)
    vals = np.exp(-(x**2) / 2) / math.sqrt(2 * math.pi)
    vals[100] = -1e-6
    with pytest.raises(NegativeDensityError):
        GridDensity(-10, 10, 2048, vals)


def test_minimum_grid_size_enforced():
    g = grid_from_mixture(gaussian(1.0), n=512)
    with pytest.raises(ValueError):
        differential_entropy(g)


def test_mixture_to_grid_mass_and_positivity():
    g = mixture_to_grid(gaussian(1.0), -10, 10, 4096)
    assert g.mass() == pytest.approx(1.0, abs=1e-9)
    bad = GaussDerivMixture(((1.0, 0, 1.0), (-0.5, 3, 0.5)))
    with pytest.raises(NegativeDensityError):
        mixture_to_grid(bad, -10, 10, 4096)
    ok = GaussDerivMixture(((1.0, 0, 1.0), (-0.001, 3, 0.9)))
    g2 = mixture_to_grid(ok, -12, 12, 4096)
    assert g2.values.min() >= 0.0


def test_window_reaches_12_sd_past_every_component():
    # grid integrals are the trapezoid sum alone: past 12 sd a unit-weight
    # Gaussian keeps mass 1.8e-33, far below one ulp of any entropy
    loc = GaussMixture((0.8, 0.2), (0.3, -1.2), (0.25, 4.0))
    lo, hi = loc.window()
    for mu, v in zip(loc.means, loc.variances):
        assert lo <= mu - 12 * math.sqrt(v) and mu + 12 * math.sqrt(v) <= hi
    deriv = GaussDerivMixture(((1.0, 0, 2.0), (-0.01, 3, 1.8), (0.01, 6, 2.6)))
    lo, hi = deriv.window()
    for _, _, v, _ in deriv.terms:
        assert lo <= -12 * math.sqrt(v) and 12 * math.sqrt(v) <= hi


def test_entropy_translation_invariance():
    m = GaussMixture((0.7, 0.3), (0.75, -1.75), (1.0, 1.0))
    shift = 2.5
    shifted = GaussMixture((0.7, 0.3), (0.75 + shift, -1.75 + shift), (1.0, 1.0))
    lo, hi = m.window(12.0)
    h1 = differential_entropy(mixture_to_grid(m, lo, hi, 8192))
    h2 = differential_entropy(mixture_to_grid(shifted, lo + shift, hi + shift, 8192))
    assert h2 == pytest.approx(h1, abs=1e-9)


def test_entropy_scaling_law():
    m = GaussMixture((0.7, 0.3), (0.75, -1.75), (1.0, 1.0))
    h = mixture_entropy(m, n=8192)
    for a in (0.5, 2.0):
        ha = mixture_entropy(m.scaled(a), n=8192)
        assert ha == pytest.approx(h + math.log(a), abs=1e-6)


def test_convolution_increases_entropy(rng):
    for _ in range(8):
        v1 = float(rng.integers(8, 32)) / 16.0
        v2 = float(rng.integers(8, 32)) / 16.0
        eps = float(rng.uniform(0, 5e-4))
        a = GaussDerivMixture(((1.0, 0, v1), (-eps, 3, 0.9 * v1)))
        b = gaussian(v2)
        ha = mixture_entropy(a)
        hb = mixture_entropy(b)
        hc = mixture_entropy(a.convolve(b))
        assert hc >= max(ha, hb) - 1e-7


def test_fisher_information_gaussian():
    # J(gamma_K) = 1/K; measured 2.2e-16 off with the exact derivative
    for K in (0.25, 1.0, 4.0):
        assert fisher_information(gaussian(K), n=8192) * K == pytest.approx(1.0, abs=1e-14)


def test_fisher_two_resolution_consistency():
    # the trapezoid sum of a smooth decaying integrand has converged to
    # rounding by n = 2048 (measured equal bits at n = 8192)
    m = GaussDerivMixture(((1.0, 0, 1.0), (-0.001, 3, 0.9)))
    fine = fisher_information(m, n=8192)
    coarse = fisher_information(m, n=2048)
    assert fine == pytest.approx(coarse, rel=1e-14)


def de_bruijn_laws(recipe):
    """The recipe's p, p smoothed by the reflected sqrt(0.01) q, and gamma_2.5."""
    return (recipe.p, recipe.p.convolve(recipe.q.scaled(0.1).reflected()), gaussian(2.5))


# The Fisher integral and the log-weighted quadrature are separate
# trapezoid sums of up to 2^16 terms, each rounding within about log2(n)
# ulps (numpy's pairwise sum), so they agree to 1e-14 relative; measured
# at most 4.4e-16.
DE_BRUIJN_REL = 1e-14


@pytest.mark.parametrize("n", (2048, 8192, 65536))
def test_fisher_information_is_minus_int_p2_ln_p(recipe, n):
    # integration by parts (de Bruijn's identity, Stam 1959): J(p) =
    # int (p')^2/p = -int p'' ln p, the second from the exact p'' on its
    # own 32768-point +-14 sigma grid
    for m in de_bruijn_laws(recipe):
        assert fisher_information(m, n) == pytest.approx(-log_weighted_deriv_integral(m, 2), rel=DE_BRUIJN_REL)


@pytest.mark.parametrize("n", (2048, 8192, 65536))
def test_c1_target_is_half_m2_times_fisher(recipe, n):
    # c1 = m2(q) (-1/2 int p'' ln p) = m2(q)/2 J(p): verify-lemma1's c1
    # quadrature against an independent Fisher integral
    m2 = recipe.q.moments(2)[1]
    for m in de_bruijn_laws(recipe):
        c1, _ = expansion_targets(m, recipe.q)
        assert c1 == pytest.approx(m2 / 2 * fisher_information(m, n), rel=DE_BRUIJN_REL)


def test_grid_convolution_matches_exact_algebra():
    a, b = 1.3, 0.8
    ga = grid_from_mixture(gaussian(a), n=4096)
    step = ga.step
    half = int(math.ceil(12 * math.sqrt(b) / step))
    gb = mixture_to_grid(gaussian(b), -half * step, half * step, 2 * half + 1)
    conv = convolve_grids(ga, gb)
    assert conv.mass() == pytest.approx(1.0, abs=1e-9)
    assert differential_entropy(conv) == pytest.approx(gaussian_entropy(a + b), abs=1e-7)
    with pytest.raises(ValueError):
        convolve_grids(ga, grid_from_mixture(gaussian(b), n=1000))


# ----------------------------------------------------------------------
# smoothing expansion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("t_max", [0.2, math.nan])
def test_smoothing_curve_rejects_t_outside_range(t_max):
    # a nan t used to pass the range test
    with pytest.raises(ValueError, match=r"t values must lie in \(0, 0.1\]"):
        smoothing_curve(unit_gaussian(1.0), unit_gaussian(1.0), [1e-3, t_max], n=1024)


def test_smoothing_expansion_needs_six_points():
    with pytest.raises(ValueError, match="need at least 6 t values, got 5"):
        check_expansion_count(len(np.geomspace(1e-4, 1e-2, 5)))


def test_power_fit_recovers_exact_combination():
    t = np.geomspace(1e-4, 1e-2, 8)
    y = 0.5 * t - 2.0 * t**1.5 + 7.0 * t**2 + 3.0 * t**2.5
    coef = power_fit(t, y, (1, 1.5, 2, 2.5))
    assert coef == pytest.approx([0.5, -2.0, 7.0, 3.0], rel=1e-7)


def test_expansion_gaussian_by_gaussian():
    # h(gamma_{1+t}) - h(gamma_1) = ln(1+t)/2: c1 = 1/2, c15 = 0
    t = np.geomspace(1e-4, 1e-2, 10)
    c1, c15, _ = expansion(unit_gaussian(1.0), unit_gaussian(1.0), t)
    assert c1 == pytest.approx(0.5, rel=1e-4)
    # no half-power present; the residual 1e-4 is t^3 leakage into the basis
    assert abs(c15) < 5e-4


def test_expansion_symmetric_kernel_kills_half_power(recipe):
    # shorter t range keeps the integer-power Taylor tail from leaking
    # into the (genuinely absent) half-power coefficient
    t = np.geomspace(1e-4, 2e-3, 8)
    sym = GaussMixture((0.5, 0.5), (-1.0, 1.0), (0.7, 0.7))
    c1, c15, _ = expansion(recipe.p, sym, t)
    target_c1, _ = expansion_targets(recipe.p, sym)
    assert c1 == pytest.approx(target_c1, rel=0.02)
    assert abs(c15) < 0.01 * abs(c1)


def test_expansion_skewed_kernel_positive_half_power(recipe):
    t = np.geomspace(1e-4, 1e-2, 10)
    c1, c15, slope = expansion(recipe.p, recipe.q, t)
    c1_target, c15_target = expansion_targets(recipe.p, recipe.q)
    assert c15_target > 0
    assert c1 == pytest.approx(c1_target, rel=0.02)
    assert c15 == pytest.approx(c15_target, rel=0.05)
    assert abs(slope - 2.0) <= 0.25


def test_expansion_c1_across_pairs(recipe):
    t = np.geomspace(3e-4, 1e-2, 8)
    unit = GaussMixture((1.0,), (0.0,), (1.0,))
    pairs = [
        (unit_gaussian(1.0), unit_gaussian(0.5)),
        (recipe.p, unit),
        (recipe.p, recipe.q),
    ]
    for p, q in pairs:
        c1, _, _ = expansion(p, q, t)
        if p == unit_gaussian(1.0):
            # gaussian p: c1 = m2(q)/(2 K)
            c1_target = q.moments(2)[1] / (2.0 * p.variances[0])
        else:
            c1_target, _ = expansion_targets(p, q)
        assert c1 == pytest.approx(c1_target, rel=0.02)


def test_expansion_grid_density_route(recipe):
    # the exact-mixture curve against grid quadrature: p tabulated on a
    # grid, the kernel convolved with it by direct quadrature
    t = np.geomspace(2e-3, 2e-2, 6)
    pgrid = grid_from_mixture(recipe.p, n=8192)
    c1_grid, _, _ = fit_expansion(*grid_smoothing_curve(pgrid, recipe.q, t).T)
    c1_exact, _, _ = expansion(recipe.p, recipe.q, t)
    assert c1_grid == pytest.approx(c1_exact, rel=5e-3)


def test_expansion_rejects_bad_kernel():
    t = np.geomspace(1e-4, 1e-2, 8)
    off_center = GaussMixture((1.0,), (0.5,), (1.0,))
    with pytest.raises(ValueError):
        smoothing_curve(unit_gaussian(1.0), off_center, t)
    with pytest.raises(ValueError):
        smoothing_curve(unit_gaussian(1.0), unit_gaussian(1.0), np.geomspace(1e-4, 0.5, 8))


def test_log_weighted_deriv_integral_gaussian():
    # int gamma'' ln gamma = -1 for the standard gaussian
    g = GaussMixture((1.0,), (0.0,), (1.0,))
    assert log_weighted_deriv_integral(g, 2) == pytest.approx(-1.0, abs=1e-9)


def test_mixture_entropies_equal_each_law_alone():
    # interleaved windows and families: every entropy is the one its
    # mixture gets alone, in input order
    def perturbed(eps):
        return GaussDerivMixture((DerivTerm(1.0, 0, 2.0), DerivTerm(-eps, 3, 1.8)))

    mixtures = [
        gaussian(2.0),
        GaussMixture((0.5, 0.5), (-1.0, 1.0), (0.3, 0.3)),
        perturbed(0.01),
        gaussian(3.0),
        perturbed(0.02),
    ]
    assert mixture_entropies(mixtures, n=2048) == [mixture_entropy(m, n=2048) for m in mixtures]


@pytest.mark.parametrize(
    "t, powers, message",
    [
        (np.full(6, 0.1), (1, 1.5, 2, 2.5), "at least 4 distinct values .* got 1"),
        (np.array([0.1, 0.1, 0.1, 0.0999999999999999]), (1, 1.5, 2, 2.5), "got 2"),
        (np.array([1e120, 1e200]), (1.5, 2), "finite and nonzero"),
        (np.array([1e-300, 2e-300]), (1.5, 2), "finite and nonzero"),
    ],
)
def test_fit_rejects_t_values_it_cannot_use(t, powers, message):
    # equal t left lstsq rank-deficient (a RankWarning in the slope fit);
    # t^2 = inf or 0 made the column scaling divide by inf or 0
    with pytest.raises(ValueError, match=message):
        check_fit_t(t, powers)
    with pytest.raises(ValueError, match=message):
        power_fit(t, np.ones_like(t), powers)
