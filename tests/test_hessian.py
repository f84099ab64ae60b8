"""Hessian ledger, stability classifier, and local-optimality certificate."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ziclab import counterexamples as cx
from ziclab.hessian import (
    HermiteCoeffVector,
    NotStationaryError,
    gauss_argmax,
    hessian_quadratic_form,
    local_optimality_radius,
    phase_diagram,
    stability_classify,
    stability_threshold,
    stationary_source_variance,
)


def coeffs(**orders):
    return HermiteCoeffVector({int(k.lstrip("a")): v for k, v in orders.items()})


def test_first_order_ledger_value():
    # u=1, L=3 -> K=2; the first-order term is
    # -2u/(K+u+L)^2 - 2/K^2 + 2(1+u)/(K+u)^2 = -2/36 - 2/4 + 4/9 = -1/9
    rep = hessian_quadratic_form(3.0, 1.0, coeffs(a1=1.0), coeffs())
    assert rep.K == 2.0
    assert rep.per_alpha_terms[1] == pytest.approx(-1.0 / 9.0, abs=1e-14)
    assert rep.total == pytest.approx(-1.0 / 9.0, abs=1e-14)
    assert rep.classification == "stable"


def test_second_order_instability_witness():
    # u=1, L=1.4 -> K=6 above threshold: B2=-A2 makes I2 positive
    rep = hessian_quadratic_form(1.4, 1.0, coeffs(a2=1.0), coeffs(a2=-1.0))
    assert rep.K == pytest.approx(6.0, rel=1e-14)
    assert rep.per_alpha_terms[2] > 0
    assert rep.classification == "unstable"


def test_zero_coefficients_zero_total():
    rep = hessian_quadratic_form(3.0, 1.0, coeffs(), coeffs())
    assert rep.total == 0.0
    assert rep.per_alpha_terms == {}


def test_cancellation_identity_exact(rng):
    # for B_alpha = -A_alpha the interferer and cross terms cancel the
    # outer-entropy term: I_alpha/(alpha+1)! = -A^2/K^{a+1} + (1+u)A^2/(K+u)^{a+1}
    for _ in range(50):
        u = float(rng.uniform(0.3, 3.0))
        L = float(rng.uniform(1.1, 6.0))
        K = stationary_source_variance(L, u)
        a = float(rng.normal())
        for alpha in (2, 3, 4, 5):
            rep = hessian_quadratic_form(
                L, u, coeffs(**{f"a{alpha}": a}), coeffs(**{f"a{alpha}": -a})
            )
            assert rep.K == K
            expected = math.factorial(alpha + 1) * (
                -(a * a) / K ** (alpha + 1) + (1 + u) * a * a / (K + u) ** (alpha + 1)
            )
            assert rep.per_alpha_terms[alpha] == pytest.approx(expected, abs=1e-12)


def test_first_order_term_nonpositive(rng):
    for _ in range(200):
        u = float(rng.uniform(0.2, 4.0))
        L = float(rng.uniform(1.05, 10.0))
        rep = hessian_quadratic_form(L, u, coeffs(a1=1.0), coeffs())
        assert rep.per_alpha_terms[1] <= 0


def test_total_is_ledger_sum():
    rep = hessian_quadratic_form(3.0, 1.0, coeffs(a1=0.7, a2=1.1, a4=-0.3), coeffs(a2=0.4, a4=0.9))
    assert rep.total == sum(rep.per_alpha_terms.values())


def test_stationarity_enforced():
    for L in (1.0, 0.5, math.nan):
        with pytest.raises(NotStationaryError, match="needs L > 1"):
            hessian_quadratic_form(L, 1.0, coeffs(a1=1.0), coeffs())
    with pytest.raises(ValueError):
        hessian_quadratic_form(3.0, 1.0, coeffs(), coeffs(a1=1.0))


def test_worst_direction_sign_tracks_classification(rng):
    for _ in range(100):
        u = float(rng.uniform(0.3, 3.0))
        L = float(rng.uniform(1.05, 8.0))
        K = stationary_source_variance(L, u)
        cls = stability_classify(K, u)
        if cls == "critical":
            continue
        # I_2 at the extremal pairing A_2 = 1, B_2 = -1 (cross terms cancel
        # the outer-entropy term): 3! (-1/K^3 + (1+u)/(K+u)^3)
        w = hessian_quadratic_form(L, u, coeffs(a2=1.0), coeffs(a2=-1.0)).per_alpha_terms[2]
        assert (w > 0) == (cls == "unstable")


def test_classifier_examples_and_exact_critical_pair():
    assert stability_classify(2.0, 1.0) == "stable"
    assert stability_classify(6.0, 1.0) == "unstable"
    thr = stability_threshold(3.0)
    assert thr == pytest.approx(3.0 / (4.0 ** (1 / 3) - 1.0), rel=1e-14)
    assert stability_classify(thr + 1e-8, 3.0) == "unstable"
    assert stability_classify(thr - 1e-8, 3.0) == "stable"
    # (1+u) K^3 = (K+u)^3 exactly at u = K = 7 (8 * 343 = 14^3); the old
    # 1e-9 band read all three of these critical
    assert stability_threshold(7.0) == 7.0
    assert stability_classify(7.0, 7.0) == "critical"
    assert stability_classify(math.nextafter(7.0, 8.0), 7.0) == "unstable"
    assert stability_classify(math.nextafter(7.0, 6.0), 7.0) == "stable"
    # a larger u raises the threshold past K = 7
    assert stability_classify(7.0, math.nextafter(7.0, 8.0)) == "stable"
    assert stability_classify(7.0, math.nextafter(7.0, 6.0)) == "unstable"


@pytest.mark.parametrize("K, u", [(math.inf, 1.0), (math.nan, 1.0), (2.0, math.inf),
                                  (2.0, math.nan), (0.0, 1.0), (2.0, -1.0)])
def test_classifier_rejects_non_finite_or_non_positive(K, u):
    with pytest.raises(ValueError, match="K and u must be positive and finite"):
        stability_classify(K, u)


def test_classifier_matches_mpmath_sign(rng):
    # the integer sign against 60-digit arithmetic, on inputs within a few
    # ulps of the rounded threshold, where the float cubes cannot decide
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for _ in range(200):
            u = float(rng.uniform(0.01, 50.0))
            thr = stability_threshold(u)
            K = thr + float(rng.integers(-4, 5)) * math.ulp(thr)
            gap = (1 + mpmath.mpf(u)) * mpmath.mpf(K) ** 3 - (mpmath.mpf(K) + mpmath.mpf(u)) ** 3
            want = "stable" if gap < 0 else "unstable" if gap > 0 else "critical"
            assert stability_classify(K, u) == want


def test_vertical_gap_sign_agrees_with_classifier():
    # cross-validation against the density-perturbation pipeline
    u = 1.0
    for L in (1.3, 1.6, 3.0):
        K = stationary_source_variance(L, u)
        delta = 0.02
        eps = cx.select_epsilon(K, L, delta, 2)
        vp = cx.VerticalPerturbation(K=K, L=L, u=u, delta=delta, eps=eps, J=2)
        res = cx.vertical_gap(vp, n=4096)
        assert (res.quadratic_coeff > 0) == (stability_classify(K, u) == "unstable")


# ----------------------------------------------------------------------
# local-optimality certificate
# ----------------------------------------------------------------------


def test_certificate_scalar_example():
    # d=1, u=1, L=3 -> K=2: the cubic condition gives eps2 = 11/43
    cert = local_optimality_radius([3.0], 1.0)
    assert cert is not None
    assert cert.K == (2.0,)
    assert cert.eps2 == pytest.approx(11.0 / 43.0, abs=1e-9)
    assert cert.cubic_ratio == pytest.approx(16.0 / 27.0, rel=1e-12)
    assert 0 < cert.eps <= cert.eps2
    assert cert.eps1 > 0


def test_certificate_none_at_threshold():
    u = 1.0
    thr = stability_threshold(u)
    L = (thr + u) / (thr - 1.0)  # L making the maximizer sit at the threshold
    K = stationary_source_variance(L, u)
    assert K == pytest.approx(thr, rel=1e-12)
    assert local_optimality_radius([L], u) is None


# L from just above 1 up to the float max; u from the least subnormal to inf
L_ABOVE_1 = st.one_of(
    st.floats(min_value=1.0, max_value=1.0 + 1e-9, exclude_min=True),
    st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
)
U_POSITIVE = st.floats(min_value=0.0, exclude_min=True)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(L_ABOVE_1, U_POSITIVE)
@example(math.nextafter(1.0, 2.0), 1.0)
@example(1.0 + 2.0**-30, 1e300)
@example(1.7976931348623157e308, 1.0)
@example(1e300, 1e300)
@example(3.0, 5e-324)
@example(1.5, math.inf)
def test_stationary_variance_is_the_array_argmax_bit_for_bit(L, u):
    # the stationary variance computes (L+u)/(L-1); the maximizer behind
    # f1 is gauss_argmax at N1 = 0, N = u, whose quotient may overflow to inf
    k = gauss_argmax(L, u, 0.0, u)
    if math.isfinite(k):
        assert stationary_source_variance(L, u).hex() == k.hex()
    else:
        with pytest.raises(ValueError, match="is not finite"):
            stationary_source_variance(L, u)


def test_certificate_hypothesis_is_the_classifier():
    # L = 7/3 rounds to a stationary K of exactly 7 at u = 7: critical, so no
    # certificate
    assert stationary_source_variance(7 / 3, 7.0) == 7.0
    assert local_optimality_radius([7 / 3], 7.0) is None
    # at u = 1 the stationary K of these L are stable by the exact sign, but
    # the float cubic ratio reads 1 - 2^-52 and 1 + 2^-52 (the old 1 - 1e-15
    # margin returned None): eps2 is tiny, then clamped to the degenerate 0
    for L, ratio in ((1.7024143839193153, 1.0 - 2.0**-52), (1.7024143839193155, 1.0 + 2.0**-52)):
        assert stability_classify(stationary_source_variance(L, 1.0), 1.0) == "stable"
        cert = local_optimality_radius([L], 1.0)
        assert cert is not None and cert.cubic_ratio == ratio
        assert cert.eps2 == max(0.0, (1.0 - ratio) / (1.0 + ratio)) == cert.eps


def test_certificate_diagonal_example():
    # d=2, u=1, L=diag(3,4): K=diag(2, 5/3), both below threshold
    cert = local_optimality_radius([3.0, 4.0], 1.0)
    assert cert is not None
    assert cert.K == pytest.approx([2.0, 5.0 / 3.0], rel=1e-12)
    assert cert.eps > 0
    # the binding order-3 index concentrates on the largest k
    assert cert.cubic_ratio == pytest.approx(2.0 * (2.0 / 3.0) ** 3, rel=1e-12)


def test_certificate_requires_maximizer():
    with pytest.raises(NotStationaryError):
        local_optimality_radius([3.0, 0.9], 1.0)


def test_certificate_monotone_in_max_eigenvalue():
    # smaller L -> larger K -> smaller certificate radius
    u = 1.0
    eps_values = []
    for L in (6.0, 4.0, 3.0, 2.5, 2.0):
        K = stationary_source_variance(L, u)
        cert = local_optimality_radius([L], u)
        assert cert is not None
        assert cert.K == (K,)
        eps_values.append(cert.eps)
    assert all(a >= b - 1e-12 for a, b in zip(eps_values, eps_values[1:]))


def test_rayleigh_min_matches_generalized_eigh(rng):
    from scipy.linalg import eigh

    for d in (1, 2, 3, 4):
        for _ in range(5):
            u = rng.uniform(0.2, 3.0)
            L = rng.uniform(3.0, 20.0, d)
            k = (L + u) / (L - 1.0)
            m = 1.0 / (k + L)
            num, den = [], []
            for i in range(d):
                for j in range(i, d):
                    scale = 2.0 if i == j else 1.0
                    num.append(scale * (1.0 / (k[i] * k[j]) + m[i] * m[j]))
                    den.append(scale * (1.0 + u) / ((k[i] + u) * (k[j] + u)))
            expected = eigh(np.diag(num), np.diag(den), eigvals_only=True).min()
            cert = local_optimality_radius(L.tolist(), u)
            assert cert is not None
            assert cert.K == pytest.approx(k, rel=1e-15)
            assert cert.rayleigh_min == pytest.approx(expected, rel=1e-13)


def test_rayleigh_certificate_rejects_unstable():
    u = 1.0
    L = 1.4  # K = 6 above threshold
    assert local_optimality_radius([L], u) is None


# ----------------------------------------------------------------------
# phase diagram
# ----------------------------------------------------------------------


def test_phase_diagram_cells():
    cells = phase_diagram([1.0], [1.4, 3.0])
    by_L = {c.L: c for c in cells}
    assert by_L[1.4].K == pytest.approx(6.0)
    assert by_L[1.4].classification == "unstable"
    assert by_L[3.0].K == pytest.approx(2.0)
    assert by_L[3.0].classification == "stable"


def test_phase_diagram_large_L_always_stable():
    us = [0.25, 1.0, 4.0]
    cells = phase_diagram(us, [50.0, 200.0])
    for c in cells:
        assert c.classification == "stable"
        assert c.K > 1.0
    for u in us:
        assert stability_threshold(u) > 1.0


@pytest.mark.parametrize("u", [5e-324, 1e-323, 2e-323, 1e-15, 1e-9, 1e-3, 0.3, 1.0, 1e3])
def test_stability_threshold_matches_mpmath(u):
    # u/((1+u)^{1/3} - 1) in floats cancels at small u (2.2518 at u = 1e-15);
    # at subnormal u, log1p(u)/3 lost digits (5e-324 divided by 0, 2e-323
    # gave 4).  The reference keeps 40 digits past u's exponent in 1 + u.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 - math.floor(math.log10(u))):
        exact = float(mpmath.mpf(u) / (mpmath.cbrt(1 + mpmath.mpf(u)) - 1))
    assert abs(stability_threshold(u) - exact) <= 1e-15 * exact


def test_phase_diagram_validation():
    with pytest.raises(ValueError):
        phase_diagram([], [2.0])
    with pytest.raises(NotStationaryError, match="needs L > 1, got 0.9"):
        phase_diagram([1.0], [0.9, 2.0])


def test_local_optimality_radius_rejects_overflowing_ledger():
    # (K + u)^2 overflowed: RuntimeWarnings, then a certificate from den = 0
    u, L = 1.49e181, 9.26e61
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="local optimality ledger overflows"):
            local_optimality_radius([L], u)
