"""The volume-ratio sweep with a non-round width-1 body, in closed form.

K is the unit square, B the disc of radius 1/2 and L the square of side
pi/4 turned by pi/4; B and L share mean width 1.  Every area in the ratio
sqrt(area(tK+B+L) area(tK)) / area(tK+B) follows from Steiner's formula
area(C + B_r) = area(C) + r per(C) + pi r^2 and the mixed area
2 A(K, L) = pi sqrt(2) / 2: area(tK+L) = t^2 + t pi sqrt(2)/2 + pi^2/16 and
per(tK+L) = 4t + pi.  No polygonal area is summed, so nothing cancels at
large t.  Whether the ratio exceeds 1 is read from ``area_gap``, the
expanded difference of the areas, not from the rounded ratio.
"""

from __future__ import annotations

import math
import sys

# The ratio multiplies two areas of order t^2 (K is the unit square), so
# t^4 must stay below the float range.
T_MAX = sys.float_info.max ** 0.25 / 2.0


def _check_t(t: float) -> None:
    """Reject a t outside (0, T_MAX] (ValueError)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if t > T_MAX:
        raise ValueError(
            f"t must be at most {T_MAX:.6g} (the ratio multiplies two areas of order t^2), got {t}"
        )


def volume_ratio(t: float, round_interferer: bool = False) -> float:
    """sqrt(area(tK+B+L) area(tK)) / area(tK+B) with the reference bodies
    (L replaced by B when ``round_interferer``); all bodies centered."""
    _check_t(t)
    tk = t * t
    kb = tk + 2.0 * t + math.pi / 4.0
    if round_interferer:
        # tK + B + B = tK + B_1
        kbl = tk + 4.0 * t + math.pi
    else:
        kl = tk + t * math.pi * math.sqrt(2.0) / 2.0 + math.pi**2 / 16.0
        kbl = kl + 0.5 * (4.0 * t + math.pi) + math.pi / 4.0
    return math.sqrt(kbl * tk) / kb


def area_gap(t: float, round_interferer: bool = False) -> float:
    """area(tK+B+L) area(tK) - area(tK+B)^2, whose sign is the sign of
    volume_ratio(t) - 1, as a polynomial in t.

    Expanding the Steiner areas, the t^4 terms cancel:
    (pi sqrt(2)/2 - 2) t^3 + (pi^2/16 + pi/4 - 4) t^2 - pi t - pi^2/16,
    with one positive root near 12.85; with the round interferer,
    -((4 - pi/2) t^2 + pi t + pi^2/16), negative for every t > 0.  The
    rounded ratio cannot give this sign once its distance from 1 falls
    below an ulp: at t = 1e16 it is 1.1e-17 and the ratio reads 1.0.  In
    Horner's rule the sign is right except within a few ulps of the root
    (one float, the one 1 ulp above it, reads wrong against 60-digit
    mpmath).
    """
    _check_t(t)
    if round_interferer:
        return -(((4.0 - math.pi / 2.0) * t + math.pi) * t + math.pi**2 / 16.0)
    a = math.pi * math.sqrt(2.0) / 2.0 - 2.0
    b = math.pi**2 / 16.0 + math.pi / 4.0 - 4.0
    return ((a * t + b) * t - math.pi) * t - math.pi**2 / 16.0


def ratio_leading_coefficient() -> float:
    """Fitted t^{-1} coefficient of (ratio - 1): the least-squares fit in
    the basis {1/t, 1/t^2} at t = 50, 100, 200, solved from its 2x2 normal
    equations by Cramer's rule; exact value ((pi sqrt(2) / 2) - 2) / 2 from
    the mixed-area computation."""
    ts = (50.0, 100.0, 200.0)
    a = [1.0 / t for t in ts]
    b = [1.0 / t**2 for t in ts]
    y = [volume_ratio(t) - 1.0 for t in ts]

    def dot(p, q):
        return sum(x * z for x, z in zip(p, q))

    return (dot(b, b) * dot(a, y) - dot(a, b) * dot(b, y)) / (dot(a, a) * dot(b, b) - dot(a, b) ** 2)


RATIO_COEFFICIENT_EXACT = (math.pi * math.sqrt(2.0) / 2.0 - 2.0) / 2.0
