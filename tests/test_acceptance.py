"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with ``pytest tests/test_acceptance.py -s``)."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from _oracles import decreasing_alignment, hermite_weighted_norm, increasing_alignment, power_control_value_2d
from ziclab import counterexamples as cx
from ziclab import geometry as geo
from ziclab import hessian as hs
from ziclab import hkregion as hk
from ziclab._util import rng_for
from ziclab.entropy import expansion_targets, fit_expansion, smoothing_curve
from ziclab.gaussmix import gauss_deriv_pdf


def report(num: int, name: str, passed: bool, elapsed: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {status} ({elapsed:.2f}s) {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_hermite_weighted_norms():
    t0 = time.time()
    worst = 0.0
    for k in range(7):
        for K in (0.5, 1.0, 2.0, 4.0):
            r = 14.0 * math.sqrt(K)
            val, _ = quad(
                lambda x: gauss_deriv_pdf(x, K, k) ** 2 / gauss_deriv_pdf(x, K),
                -r,
                r,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=200,
            )
            worst = max(worst, abs(val - hermite_weighted_norm(k, K)))
    elapsed = time.time() - t0
    report(
        1,
        "hermite weighted norms vs adaptive quadrature",
        worst <= 1e-8 and elapsed < 1.0,
        elapsed,
        f"worst |closed - quadrature| = {worst:.2e}",
    )


def test_criterion_02_entropy_expansion_fit():
    t0 = time.time()
    recipe = cx.default_recipe()
    t = np.geomspace(1e-4, 1e-2, 10)
    curve = smoothing_curve(recipe.p, recipe.q, t, n=8192)
    c1, c15, slope = fit_expansion(curve[:, 0], curve[:, 1])
    c1_t, c15_t = expansion_targets(recipe.p, recipe.q)
    ok = (
        abs(c1 - c1_t) <= 0.02 * abs(c1_t)
        and abs(c15 - c15_t) <= 0.05 * abs(c15_t)
        and abs(slope - 2.0) <= 0.25
    )
    elapsed = time.time() - t0
    report(
        2,
        "smoothing expansion coefficients vs quadrature",
        ok and elapsed < 30.0,
        elapsed,
        f"c1 {c1:.6f}/{c1_t:.6f}, c15 {c15:.6f}/{c15_t:.6f}, slope {slope:.3f}",
    )


def test_criterion_03_skew_gap_positive():
    t0 = time.time()
    recipe = cx.default_recipe()
    t_grid = np.geomspace(1e-3, 1e-2, 6)
    rows = cx.skewness_gap(t_grid, recipe, n=8192)
    control = cx.skewness_gap(t_grid, recipe, gaussian_x2=True, n=8192)
    ok = bool(np.all(rows[:2, 1] > 1e-6) and np.all(control[:, 1] <= 1e-6))
    elapsed = time.time() - t0
    report(
        3,
        "skewed-interferer gap strictly positive, Gaussian control flat",
        ok and elapsed < 60.0,
        elapsed,
        f"gaps {rows[0, 1]:.2e}, {rows[1, 1]:.2e}; max control {control[:, 1].max():.2e}",
    )


def test_criterion_04_threshold_root_and_sign_grid():
    t0 = time.time()
    root_ok = True
    details = []
    for u in (0.5, 1.0, 2.0):
        root = cx.stability_root(u, tol=1e-8)
        thr = hs.stability_threshold(u)
        root_ok &= abs(root - thr) <= 1e-8
        details.append(f"u={u}: |root-thr|={abs(root - thr):.1e}")
    sign_ok = True
    for u in (0.5, 1.0, 2.0):
        thr = hs.stability_threshold(u)
        for frac in (0.7, 1.2, 1.6):
            K = frac * thr
            L = (K + u) / (K - 1.0)
            delta = 0.02
            eps = cx.select_epsilon(K, L, delta, 2)
            vp = cx.VerticalPerturbation(K=K, L=L, u=u, delta=delta, eps=eps, J=2)
            res = cx.vertical_gap(vp, n=4096)
            agrees = (res.quadratic_coeff > 0) == (
                hs.stability_classify(K, u) == "unstable"
            )
            sign_ok &= agrees
    elapsed = time.time() - t0
    report(
        4,
        "bisection root matches threshold; eps^2 sign matches classifier (3x3)",
        root_ok and sign_ok and elapsed < 300.0,
        elapsed,
        "; ".join(details),
    )


def test_criterion_05_ledger_properties():
    t0 = time.time()
    rng = rng_for(5, "acceptance-ledger")
    i1_ok = True
    cancel_ok = True
    for _ in range(200):
        u = float(rng.uniform(0.2, 4.0))
        L = float(rng.uniform(1.05, 10.0))
        K = hs.stationary_source_variance(L, u)
        rep = hs.hessian_quadratic_form(
            L, u, hs.HermiteCoeffVector({1: float(rng.normal())}), hs.HermiteCoeffVector({})
        )
        i1_ok &= rep.per_alpha_terms.get(1, 0.0) <= 0
        a2 = float(rng.normal())
        rep2 = hs.hessian_quadratic_form(
            L, u, hs.HermiteCoeffVector({2: a2}), hs.HermiteCoeffVector({2: -a2})
        )
        expected = 6.0 * (-(a2 * a2) / K**3 + (1 + u) * a2 * a2 / (K + u) ** 3)
        cancel_ok &= abs(rep2.per_alpha_terms.get(2, 0.0) - expected) <= 1e-12
    thr = hs.stability_threshold(1.3)
    # u = K = 7 is exactly critical, 8 * 7^3 = 14^3, and one ulp flips it
    flip_ok = (
        hs.stability_classify(7.0, 7.0) == "critical"
        and hs.stability_classify(math.nextafter(7.0, 8.0), 7.0) == "unstable"
        and hs.stability_classify(math.nextafter(7.0, 6.0), 7.0) == "stable"
        and hs.stability_classify(thr + 1.01e-9, 1.3) == "unstable"
        and hs.stability_classify(thr - 1.01e-9, 1.3) == "stable"
    )
    elapsed = time.time() - t0
    report(
        5,
        "ledger: I1 <= 0, alpha=2 cancellation 1e-12, flip at threshold",
        i1_ok and cancel_ok and flip_ok,
        elapsed,
    )


def test_criterion_06_maximizer_bound_and_tensorization():
    t0 = time.time()
    configs = [
        (0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.5), (1.0, 1.0),
        (0.7, 0.2), (3.0, 0.0), (1.5, 1.0), (2.0, 0.5), (0.5, 1.0),
    ]
    applicable = 0
    violations = 0
    for i, (u, N1) in enumerate(configs):
        params = hk.HKParams(u=u, N1=N1)
        repo = hk.eigenvalue_bound_audit(1, params, 20, rng_for(7, f"acc6-{i}"))
        applicable += repo.applicable
        violations += repo.violations
    params = hk.HKParams(u=1.0, N1=1.0)
    tens_worst = 0.0
    for (a, b) in ((5.0, 2.0), (10.0, 4.0), (3.0, 1.0), (8.0, 8.0), (2.0, 6.0)):
        g2 = power_control_value_2d(2 * a, 2 * b, params, grid_n=97)
        g1 = hk.power_control_value(a, b, params, grid_n=129)
        tens_worst = max(tens_worst, abs(g2 - 2 * g1))
    ok = violations == 0 and applicable >= 100 and tens_worst <= 5e-3
    elapsed = time.time() - t0
    report(
        6,
        "maximizer bound on 200 random cells; g2(2q)=2g1(q) within 5e-3",
        ok,
        elapsed,
        f"{applicable} applicable, {violations} violations; tensorization dev {tens_worst:.2e}",
    )


def test_criterion_07_alignment_property_suites():
    t0 = time.time()
    rng = rng_for(9, "acceptance-alignments")

    def random_psd(d, scale=2.0):
        a = rng.normal(size=(d, d)) * scale
        return a @ a.T / d

    # rotation stationarity iff commuting (max over 3 random directions)
    prop3_ok = True
    for _ in range(500):
        d = int(rng.integers(2, 4))
        k = random_psd(d)
        commuting = bool(rng.integers(0, 2))
        if commuting:
            l = 0.5 * k @ k + 0.3 * k + 0.2 * np.eye(d)
        else:
            l = random_psd(d)
            if np.abs(k @ l - l @ k).max() < 1e-8:
                continue
        best = 0.0
        for _ in range(3):
            h = rng.normal(size=(d, d))
            h = h - h.T
            t = 1e-7
            fp = np.linalg.slogdet(k + (np.eye(d) + t * h).T @ l @ (np.eye(d) + t * h))[1]
            fm = np.linalg.slogdet(k + (np.eye(d) - t * h).T @ l @ (np.eye(d) - t * h))[1]
            best = max(best, abs((fp - fm) / (2 * t)))
        commutes = np.abs(k @ l - l @ k).max() < 1e-8
        prop3_ok &= (best <= 1e-6) == commutes
    # alignment lndet inequality
    prop4_ok = True
    for _ in range(500):
        d = int(rng.integers(2, 5))
        k, l = random_psd(d), random_psd(d)
        kbar, _ = decreasing_alignment(k)
        lbar, _ = increasing_alignment(l)
        lhs = np.linalg.slogdet(k + l)[1]
        rhs = np.linalg.slogdet(kbar.entries + lbar.entries)[1]
        prop4_ok &= lhs <= rhs + 1e-10
        if abs(lhs - rhs) <= 1e-9:
            prop4_ok &= np.abs(k @ l - l @ k).max() < 1e-8
    # alignment preserves the semidefinite order eigenvalue-wise
    prop5_ok = True
    for _ in range(500):
        d = int(rng.integers(2, 5))
        k = random_psd(d)
        kp = k + random_psd(d, scale=1.0)
        kbar = np.diag(decreasing_alignment(k)[0].entries)
        kpbar = np.diag(decreasing_alignment(kp)[0].entries)
        prop5_ok &= bool(np.all(kbar <= kpbar + 1e-10))
    elapsed = time.time() - t0
    report(
        7,
        "alignment property suites (500 draws each)",
        prop3_ok and prop4_ok and prop5_ok and elapsed < 60.0,
        elapsed,
    )


def test_criterion_08_local_optimality_certificate():
    t0 = time.time()
    cert = hs.local_optimality_radius([3.0], 1.0)
    ok = cert is not None and abs(cert.eps2 - 11.0 / 43.0) <= 1e-9
    thr = hs.stability_threshold(1.0)
    L_at = (thr + 1.0) / (thr - 1.0)
    at_thr = hs.local_optimality_radius([L_at], 1.0)
    ok = ok and at_thr is None
    elapsed = time.time() - t0
    report(
        8,
        "certificate eps2 = 11/43 at (u=1, L=3); None at the threshold",
        ok,
        elapsed,
        f"eps2 = {cert.eps2 if cert else float('nan')}",
    )


def test_criterion_09_volume_ratio_sweep():
    t0 = time.time()
    sweep_ok = all(geo.volume_ratio(t) > 1.0 for t in np.arange(20.0, 201.0, 10.0))
    ball_ok = all(
        geo.volume_ratio(t, round_interferer=True) <= 1.0
        for t in np.arange(20.0, 201.0, 10.0)
    )
    coeff = geo.ratio_leading_coefficient()
    coeff_ok = abs(coeff - geo.RATIO_COEFFICIENT_EXACT) <= 0.01 * geo.RATIO_COEFFICIENT_EXACT
    elapsed = time.time() - t0
    report(
        9,
        "volume ratio > 1 on [20, 200]; round control <= 1; 1/t coefficient 1%",
        sweep_ok and ball_ok and coeff_ok and elapsed < 1.0,
        elapsed,
        f"coefficient {coeff:.8f} vs exact {geo.RATIO_COEFFICIENT_EXACT:.8f}",
    )


def test_criterion_10_fisher_limit_window():
    t0 = time.time()
    res_12 = cx.fisher_limit_gain(1.2, n=16384)
    res_16 = cx.fisher_limit_gain(1.6, n=16384)
    res_20 = cx.fisher_limit_gain(2.0, n=16384)
    ok = (
        res_12.quadratic_coeff > 0
        and max(res_12.gains) > 0
        and res_16.quadratic_coeff < 0
        and all(g < 0 for g in res_16.gains)
        and res_20.quadratic_coeff < 0
        and all(g < 0 for g in res_20.gains)
    )
    elapsed = time.time() - t0
    report(
        10,
        "third-derivative gain: positive at L=1.2, negative at L=1.6, 2.0",
        ok and elapsed < 120.0,
        elapsed,
        f"coeffs {res_12.quadratic_coeff:+.2e}, {res_16.quadratic_coeff:+.2e}, "
        f"{res_20.quadratic_coeff:+.2e}",
    )
