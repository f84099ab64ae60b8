"""Exact planar convex geometry: Minkowski sums, Steiner bundles, and the
volume-ratio sweep with a non-round width-1 body.

Polygons are strictly convex counterclockwise vertex lists; a polygon plus
a disc stays symbolic (area = A + P r + pi r^2 exactly), so large-t
coefficient fits are not polluted by polygonal approximation of arcs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np


class NonConvexInputError(ValueError):
    pass


def _clean_vertices(vertices: np.ndarray) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        raise NonConvexInputError("polygon needs an (n, 2) vertex array, n >= 3")
    if not np.isfinite(v).all():
        raise ValueError("polygon vertices must be finite")
    scale = max(1.0, float(np.abs(v).max()))
    # drop consecutive duplicates
    keep = [0]
    for i in range(1, len(v)):
        if np.linalg.norm(v[i] - v[keep[-1]]) > 1e-12 * scale:
            keep.append(i)
    if np.linalg.norm(v[keep[-1]] - v[keep[0]]) <= 1e-12 * scale:
        keep.pop()
    v = v[keep]
    if len(v) < 3:
        raise NonConvexInputError("fewer than 3 distinct vertices")
    # merge collinear runs, then demand strict convexity
    out = []
    n = len(v)
    for i in range(n):
        a, b, c = v[(i - 1) % n], v[i], v[(i + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if abs(cross) > 1e-12 * scale * scale:
            out.append(v[i])
    v = np.array(out)
    if len(v) < 3:
        raise NonConvexInputError("degenerate polygon after collinear merge")
    n = len(v)
    for i in range(n):
        a, b, c = v[(i - 1) % n], v[i], v[(i + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 0:
            raise NonConvexInputError(
                "vertices are not in strictly convex counterclockwise position"
            )
    return v


@dataclass(frozen=True)
class ConvexBody2D:
    """Convex polygon (counterclockwise vertices) or origin-centered disc."""

    kind: str
    vertices: np.ndarray | None = None
    radius: float = 0.0

    def __post_init__(self):
        if self.kind == "polygon":
            object.__setattr__(self, "vertices", _clean_vertices(self.vertices))
        elif self.kind == "disc":
            if not math.isfinite(self.radius):
                raise ValueError("disc radius must be finite")
            if self.radius <= 0:
                raise ValueError("disc radius must be positive")
        else:
            raise ValueError("kind must be 'polygon' or 'disc'")

    # -- metrics ------------------------------------------------------

    def area(self) -> float:
        if self.kind == "disc":
            return math.pi * self.radius**2
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def perimeter(self) -> float:
        if self.kind == "disc":
            return 2.0 * math.pi * self.radius
        v = self.vertices
        return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))

    def scaled(self, s: float) -> "ConvexBody2D":
        if s <= 0:
            raise ValueError("scale must be positive")
        if self.kind == "disc":
            return ConvexBody2D("disc", radius=s * self.radius)
        return ConvexBody2D("polygon", s * self.vertices)


def polygon(vertices) -> ConvexBody2D:
    return ConvexBody2D("polygon", np.asarray(vertices, dtype=float))


def disc(radius: float) -> ConvexBody2D:
    return ConvexBody2D("disc", radius=radius)


def square(side: float, angle: float = 0.0) -> ConvexBody2D:
    """Origin-centered square of the given side, rotated by ``angle``."""
    h = side / 2.0
    base = np.array([[-h, -h], [h, -h], [h, h], [-h, h]])
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return polygon(base @ rot.T)


@dataclass(frozen=True)
class RoundedBody:
    """Symbolic Steiner bundle polygon (+) disc with exact area."""

    poly: ConvexBody2D
    radius: float

    def area(self) -> float:
        a = self.poly.area()
        p = self.poly.perimeter()
        return a + p * self.radius + math.pi * self.radius**2


Body = Union[ConvexBody2D, RoundedBody]


def area(body: Body) -> float:
    return body.area()


# ----------------------------------------------------------------------
# Minkowski sums
# ----------------------------------------------------------------------


def _edge_chain(p: ConvexBody2D) -> tuple[np.ndarray, np.ndarray]:
    """(start vertex, edges in ccw order) beginning at the lowest vertex,
    so edge polar angles increase through [0, 2 pi)."""
    v = p.vertices
    i0 = int(np.lexsort((v[:, 0], v[:, 1]))[0])
    v = np.roll(v, -i0, axis=0)
    edges = np.roll(v, -1, axis=0) - v
    return v[0], edges


def _merge_polygons(a: ConvexBody2D, b: ConvexBody2D) -> ConvexBody2D:
    sa, ea = _edge_chain(a)
    sb, eb = _edge_chain(b)

    def angles(edges):
        ang = np.arctan2(edges[:, 1], edges[:, 0])
        return np.mod(ang, 2.0 * math.pi)

    aa, ab = angles(ea), angles(eb)
    i = j = 0
    merged = []
    while i < len(ea) or j < len(eb):
        if j >= len(eb):
            pick = ea[i]; i += 1
        elif i >= len(ea):
            pick = eb[j]; j += 1
        elif abs(aa[i] - ab[j]) <= 1e-12:
            pick = ea[i] + eb[j]; i += 1; j += 1
        elif aa[i] < ab[j]:
            pick = ea[i]; i += 1
        else:
            pick = eb[j]; j += 1
        merged.append(pick)
    verts = np.cumsum(np.vstack([[sa + sb], merged[:-1]]), axis=0)
    return ConvexBody2D("polygon", verts)


def minkowski_sum(a: Body, b: Body) -> Body:
    """Exact Minkowski sum: polygon (+) polygon by edge merge, any disc
    content stays a symbolic Steiner bundle."""
    if isinstance(a, RoundedBody) or isinstance(b, RoundedBody):
        ra = a if isinstance(a, RoundedBody) else None
        rb = b if isinstance(b, RoundedBody) else None
        if ra and rb:
            return RoundedBody(_merge_polygons(ra.poly, rb.poly), ra.radius + rb.radius)
        rnd, other = (ra, b) if ra else (rb, a)
        if isinstance(other, ConvexBody2D) and other.kind == "disc":
            return RoundedBody(rnd.poly, rnd.radius + other.radius)
        return RoundedBody(_merge_polygons(rnd.poly, other), rnd.radius)
    if a.kind == "disc" and b.kind == "disc":
        return disc(a.radius + b.radius)
    if a.kind == "disc":
        return RoundedBody(b, a.radius)
    if b.kind == "disc":
        return RoundedBody(a, b.radius)
    return _merge_polygons(a, b)


# ----------------------------------------------------------------------
# Volume-ratio sweep
# ----------------------------------------------------------------------


def reference_bodies() -> tuple[ConvexBody2D, ConvexBody2D, ConvexBody2D]:
    """Unit square, disc of radius 1/2, and the pi/4-side square rotated by
    pi/4; the last two share mean width 1."""
    return square(1.0), disc(0.5), square(math.pi / 4.0, math.pi / 4.0)


# The ratio multiplies two areas of order t^2 (K is the unit square), so
# t^4 must stay below the float range.
T_MAX = sys.float_info.max ** 0.25 / 2.0


def volume_ratio(t: float, round_interferer: bool = False) -> float:
    """sqrt(area(tK+B+L) area(tK)) / area(tK+B) with the reference bodies
    (L replaced by B when ``round_interferer``); all bodies centered."""
    if t <= 0:
        raise ValueError("t must be positive")
    if t > T_MAX:
        raise ValueError(
            f"t must be at most {T_MAX:.6g} (the ratio multiplies two areas of order t^2), got {t}"
        )
    k, b, l = reference_bodies()
    tk = k.scaled(t)
    if round_interferer:
        l = b
    kbl = minkowski_sum(minkowski_sum(tk, l), b)
    kb = minkowski_sum(tk, b)
    return math.sqrt(area(kbl) * tk.area()) / area(kb)


def ratio_leading_coefficient(ts=(50.0, 100.0, 200.0)) -> float:
    """Fitted t^{-1} coefficient of (ratio - 1); exact value
    ((pi sqrt(2) / 2) - 2) / 2 from the mixed-area computation."""
    ts = np.asarray(ts, dtype=float)
    y = np.array([volume_ratio(t) - 1.0 for t in ts])
    basis = np.stack([1.0 / ts, 1.0 / ts**2], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(coef[0])


RATIO_COEFFICIENT_EXACT = (math.pi * math.sqrt(2.0) / 2.0 - 2.0) / 2.0
