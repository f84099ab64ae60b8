"""The closed-form volume-ratio sweep against a convex-hull oracle and a
50-digit evaluation."""

import math
import warnings

import contextlib
import io

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from _oracles import ratio_fit_lstsq
from ziclab.cli import main

from ziclab.geometry import (
    RATIO_COEFFICIENT_EXACT,
    T_MAX,
    area_gap,
    ratio_leading_coefficient,
    volume_ratio,
)


def square_vertices(side, angle=0.0):
    h = side / 2.0
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[-h, -h], [h, -h], [h, h], [-h, h]]) @ np.array([[c, s], [-s, c]])


def hull(points):
    """(area, perimeter) of the convex hull; in 2-D Qhull's ``volume`` is
    the area and its ``area`` the perimeter."""
    h = ConvexHull(points)
    return h.volume, h.area


def minkowski_hull(a, b):
    return hull((a[:, None, :] + b[None, :, :]).reshape(-1, 2))


def hull_ratio(t, round_interferer=False):
    """The ratio from Qhull areas: tK (+) L as the hull of all pairwise
    vertex sums, the disc B of radius r added by Steiner's formula
    area + r per + pi r^2."""
    tk = square_vertices(t)
    area_tk, per_tk = hull(tk)
    kb = area_tk + 0.5 * per_tk + math.pi / 4.0
    if round_interferer:
        kbl = area_tk + per_tk + math.pi
    else:
        area_kl, per_kl = minkowski_hull(tk, square_vertices(math.pi / 4.0, math.pi / 4.0))
        kbl = area_kl + 0.5 * per_kl + math.pi / 4.0
    return math.sqrt(kbl * area_tk) / kb


def test_ratio_matches_hull_oracle():
    # L and B share mean width (perimeter / pi) 1; B's through a fine
    # inscribed polygon, whose perimeter falls short by about pi^3 / (6 n^2)
    _, per_l = hull(square_vertices(math.pi / 4.0, math.pi / 4.0))
    assert per_l / math.pi == pytest.approx(1.0, abs=1e-14)
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    _, per_b = hull(0.5 * np.column_stack([np.cos(theta), np.sin(theta)]))
    assert per_b / math.pi == pytest.approx(1.0, abs=1e-6)
    for t in [*np.arange(10.0, 201.0, 10.0), 1e3, 3.7e4, 1e6]:
        for round_interferer in (False, True):
            assert volume_ratio(t, round_interferer) == pytest.approx(
                hull_ratio(t, round_interferer), rel=1e-13
            )


def mp_ratio(t, round_interferer):
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        pi = mpmath.pi
        kb = t * t + 2 * t + pi / 4
        if round_interferer:
            kbl = t * t + 4 * t + pi
        else:
            kbl = t * t + t * pi * mpmath.sqrt(2) / 2 + pi**2 / 16 + 2 * t + pi / 2 + pi / 4
        return mpmath.sqrt(kbl * t * t) / kb


def test_volume_ratio_within_4_ulps_of_mpmath():
    # summed polygon areas cancel at large t (about 1000 ulps off on this
    # grid, and ratio < 1 at t = 1e13, where it is 1 + 1.1e-14)
    for t in np.logspace(-3.0, math.log10(T_MAX), 400):
        t = min(float(t), T_MAX)
        for round_interferer in (False, True):
            exact = mp_ratio(t, round_interferer)
            err = abs(mpmath.mpf(volume_ratio(t, round_interferer)) - exact)
            assert err <= 4 * math.ulp(float(exact)), (t, round_interferer)


def test_volume_ratio_exceeds_one_on_sweep():
    for t in np.arange(20.0, 201.0, 10.0):
        assert volume_ratio(t) > 1.0


def test_volume_ratio_ball_control():
    for t in np.arange(10.0, 201.0, 10.0):
        assert volume_ratio(t, round_interferer=True) <= 1.0


def test_volume_ratio_tends_to_one():
    r_small = volume_ratio(50.0)
    r_big = volume_ratio(5000.0)
    assert abs(r_big - 1.0) < abs(r_small - 1.0)
    assert r_big == pytest.approx(1.0, abs=1e-3)


def test_ratio_leading_coefficient():
    coeff = ratio_leading_coefficient()
    assert RATIO_COEFFICIENT_EXACT == pytest.approx(
        (math.pi * math.sqrt(2) / 2.0 - 2.0) / 2.0, abs=1e-15
    )
    assert RATIO_COEFFICIENT_EXACT > 0
    assert coeff == pytest.approx(RATIO_COEFFICIENT_EXACT, rel=0.01)


def test_ratio_leading_coefficient_matches_lstsq():
    # Forming A^T A and A^T y, m-term sums over the m x n basis A, perturbs
    # the normal-equation solution by at most about m n kappa(A)^2 u |x|
    # to first order (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 20.4), u = 2^-53; the bound doubles that
    # for the 2 x 2 solve and for lstsq's own error, which is about
    # kappa(A) u |x| plus kappa(A)^2 u |x| times the relative residual (7e-4
    # here).  The two fits differ by 5.7e-16, 41 ulps of the coefficient.
    basis, coef = ratio_fit_lstsq()
    m, n = basis.shape
    bound = 2 * m * n * np.linalg.cond(basis) ** 2 * 2.0**-53 * np.linalg.norm(coef)
    assert abs(ratio_leading_coefficient() - coef[0]) <= bound


def test_exact_ratio_value_at_t():
    # closed-form cross-check of the full ratio at one t
    t = 40.0
    sq_area = t * t
    # tK + L: area t^2 + 2 t A(K,L) + area(L); then + B via Steiner
    a_kl = math.pi * math.sqrt(2) / 4.0
    area_tkl = sq_area + 2 * t * a_kl + (math.pi / 4.0) ** 2
    perim_tkl = 4 * t + math.pi
    area_tkbl = area_tkl + 0.5 * perim_tkl + math.pi * 0.25
    area_tkb = sq_area + 0.5 * (4 * t) + math.pi * 0.25
    expected = math.sqrt(area_tkbl * sq_area) / area_tkb
    assert volume_ratio(t) == pytest.approx(expected, rel=1e-14)


def test_volume_ratio_finite_up_to_t_max():
    # past T_MAX the product of the two O(t^2) areas overflowed: ratio inf
    # (reported null, yet "ratio_gt_1": true), and past ~1e154 warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for round_interferer in (False, True):
            assert math.isfinite(volume_ratio(T_MAX, round_interferer))
        for t in (math.nextafter(T_MAX, math.inf), 1e100, 1e300):
            with pytest.raises(ValueError, match="t must be at most"):
                volume_ratio(t)


def mp_area_gap(t, round_interferer):
    """area(tK+B+L) area(tK) - area(tK+B)^2 from the Steiner areas, unexpanded:
    the t^4 terms cancel, so up to T_MAX = 5.8e76 it needs 400 digits."""
    with mpmath.workdps(400):
        t = mpmath.mpf(t)
        pi = mpmath.pi
        kb = t * t + 2 * t + pi / 4
        if round_interferer:
            kbl = t * t + 4 * t + pi
        else:
            kbl = t * t + t * pi * mpmath.sqrt(2) / 2 + pi**2 / 16 + 2 * t + pi / 2 + pi / 4
        return kbl * t * t - kb * kb


def test_area_gap_has_the_sign_of_the_exact_gap():
    # the expanded polynomial against the unexpanded areas; the ratio itself
    # rounds to 1 from t of about 3e15 on (the round one from about 1e8)
    for t in [*np.logspace(-3.0, math.log10(T_MAX), 400), T_MAX, 12.85, 12.86]:
        t = min(float(t), T_MAX)
        for round_interferer in (False, True):
            assert (area_gap(t, round_interferer) > 0) == (mp_area_gap(t, round_interferer) > 0)
    assert area_gap(12.85) < 0 < area_gap(12.86)
    for t in (0.0, -1.0, math.nextafter(T_MAX, math.inf)):
        with pytest.raises(ValueError, match="t must be"):
            area_gap(t)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.floats(min_value=0.0, max_value=T_MAX, exclude_min=True))
@example(1e16)
@example(5e-324)
@example(T_MAX)
def test_geometry_passes_its_checks_for_every_t(t):
    # the ratio's rounding decided the signs: t = 1e16 exited 3
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["geometry", "--t", repr(t)]) == 0
