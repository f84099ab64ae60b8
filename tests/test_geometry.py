"""Exact planar Minkowski/mixed-area computations and the ratio sweep."""

import math
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from _oracles import centroid, mixed_area, mixed_area_via_minkowski
from ziclab.geometry import (
    RATIO_COEFFICIENT_EXACT,
    T_MAX,
    ConvexBody2D,
    NonConvexInputError,
    RoundedBody,
    area,
    disc,
    minkowski_sum,
    polygon,
    ratio_leading_coefficient,
    reference_bodies,
    square,
    volume_ratio,
)


def random_convex_polygon(rng, n_pts=12, scale=2.0):
    pts = rng.normal(size=(n_pts, 2)) * scale
    hull = ConvexHull(pts)
    return polygon(pts[hull.vertices])


def test_polygon_validation():
    with pytest.raises(NonConvexInputError):
        polygon([[0, 0], [1, 0], [1, 1], [0.6, 0.2]])  # reflex vertex
    with pytest.raises(NonConvexInputError):
        polygon([[0, 0], [1, 0]])
    # collinear midpoints are merged away
    p = polygon([[0, 0], [0.5, 0.0], [1, 0], [1, 1], [0, 1]])
    assert len(p.vertices) == 4
    assert p.area() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bodies_reject_non_finite(bad):
    with pytest.raises(ValueError, match="vertices must be finite"):
        polygon([[0, 0], [1, 0], [1, bad], [0, 1]])
    with pytest.raises(ValueError, match="radius must be finite"):
        disc(bad)
    with pytest.raises(ValueError, match="radius must be finite"):
        ConvexBody2D("disc", radius=bad)


def test_square_metrics():
    s = square(2.0)
    assert s.area() == pytest.approx(4.0, abs=1e-12)
    assert s.perimeter() == pytest.approx(8.0, abs=1e-12)
    assert np.allclose(centroid(s), [0, 0], atol=1e-14)


def test_minkowski_square_plus_square():
    out = minkowski_sum(square(1.0), square(1.0))
    assert isinstance(out, ConvexBody2D)
    assert out.area() == pytest.approx(4.0, abs=1e-12)
    assert out.perimeter() == pytest.approx(8.0, abs=1e-12)


def test_minkowski_square_plus_disc_steiner():
    out = minkowski_sum(square(1.0), disc(0.5))
    assert isinstance(out, RoundedBody)
    assert area(out) == pytest.approx(1.0 + 4 * 0.5 + math.pi * 0.25, abs=1e-12)
    assert area(out) == pytest.approx(3.0 + math.pi / 4.0, abs=1e-12)


def test_minkowski_octagon_mixed_area():
    # unit square + pi/4-side square rotated 45 degrees: octagon with
    # area 1 + pi sqrt(2)/2 + (pi/4)^2 via the mixed-area formula
    k = square(1.0)
    l = square(math.pi / 4.0, math.pi / 4.0)
    out = minkowski_sum(k, l)
    assert len(out.vertices) == 8
    expected = 1.0 + math.pi * math.sqrt(2) / 2.0 + (math.pi / 4.0) ** 2
    assert out.area() == pytest.approx(expected, abs=1e-12)
    assert mixed_area(k, l) == pytest.approx(math.pi * math.sqrt(2) / 4.0, abs=1e-12)


def test_minkowski_disc_disc():
    out = minkowski_sum(disc(0.5), disc(0.25))
    assert out.kind == "disc"
    assert out.radius == pytest.approx(0.75)


def test_rounded_body_composition():
    kb = minkowski_sum(square(2.0), disc(0.5))
    kbl = minkowski_sum(kb, square(1.0, math.pi / 4.0))
    assert isinstance(kbl, RoundedBody)
    # polygon part is the square+square sum; radius carried through
    assert kbl.radius == pytest.approx(0.5)
    kbb = minkowski_sum(kb, disc(0.5))
    assert kbb.radius == pytest.approx(1.0)


def mean_width(body):
    """Expected directional width of a planar convex body: perimeter/pi."""
    return body.perimeter() / math.pi


def test_mean_widths():
    assert mean_width(disc(0.5)) == pytest.approx(1.0, abs=1e-14)
    assert mean_width(square(math.pi / 4.0, math.pi / 4.0)) == pytest.approx(
        1.0, abs=1e-14
    )
    assert mean_width(square(1.0)) == pytest.approx(4.0 / math.pi, abs=1e-14)


def test_reference_bodies_share_width():
    k, b, l = reference_bodies()
    assert mean_width(b) == pytest.approx(1.0, abs=1e-14)
    assert mean_width(l) == pytest.approx(1.0, abs=1e-14)


def test_steiner_formula_exactness(rng):
    for _ in range(20):
        p = random_convex_polygon(rng)
        for r in (0.1, 1.0):
            out = minkowski_sum(p, disc(r))
            steiner = p.area() + p.perimeter() * r + math.pi * r * r
            assert area(out) == pytest.approx(steiner, abs=1e-12 * max(1, steiner))


def test_brunn_minkowski_superadditivity(rng):
    for _ in range(100):
        a = random_convex_polygon(rng, n_pts=int(rng.integers(5, 15)))
        b = random_convex_polygon(rng, n_pts=int(rng.integers(5, 15)))
        s = minkowski_sum(a, b)
        assert math.sqrt(s.area()) >= math.sqrt(a.area()) + math.sqrt(b.area()) - 1e-9


def test_mixed_area_symmetry_and_oracle(rng):
    for _ in range(50):
        a = random_convex_polygon(rng, n_pts=8)
        b = random_convex_polygon(rng, n_pts=8)
        m1 = mixed_area(a, b)
        m2 = mixed_area(b, a)
        scale = max(1.0, abs(m1))
        assert m1 == pytest.approx(m2, abs=1e-12 * scale)
        assert m1 == pytest.approx(mixed_area_via_minkowski(a, b), abs=1e-10 * scale)


def test_mixed_area_disc_is_half_perimeter_radius():
    p = square(2.0)
    assert mixed_area(p, disc(0.5)) == pytest.approx(0.25 * p.perimeter(), abs=1e-12)
    assert mixed_area(disc(0.5), p) == pytest.approx(0.25 * p.perimeter(), abs=1e-12)


def test_volume_ratio_exceeds_one_on_sweep():
    for t in np.arange(20.0, 201.0, 10.0):
        assert volume_ratio(t) > 1.0


def test_volume_ratio_ball_control():
    for t in np.arange(10.0, 201.0, 10.0):
        assert volume_ratio(t, round_interferer=True) <= 1.0 + 1e-9


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
