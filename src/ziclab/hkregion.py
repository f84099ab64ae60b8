"""Gaussian weighted-rate quantities for the Z-channel with and without
power control, and the maximizer-variance audits.

The scalar building block is
    psi(K, L) = u ln(K+N1+u+L) + ln(K+N1) - (u+1) ln(K+N1+u),
its capped supremum over K <= J, the fixed-power value
    f1(q1, q2) = sup_{J<=q1, L<=q2} { ln(J+N1+u+L) + phi(J, L) },
attained at the corner (J, L) = (q1, q2), and the power-control value
g1 = upper concave envelope of f1 in (q1, q2), realized by randomizing the
transmit powers (by Caratheodory at most three support points).
Envelope values are linear programs over the f1 lattice, solved by a
three-row simplex; whether f1 = g1 is decided by the tangent plane of f1.
The d = 2 audit reduces to the d = 1 cell q/2 by tensorization,
g2(q) = 2 g1(q/2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from . import counterexamples as cx
from . import hessian as hs

# fewest lattice nodes per axis an envelope can be built from
MIN_ENVELOPE_GRID = 2
# simplex pivots per envelope query before it gives up (RuntimeError);
# queries on lattices up to 1025^2 take at most a few dozen
MAX_PIVOTS = 1000
# consecutive degenerate pivots after which the entering point follows
# Bland's rule until a pivot makes progress, so the simplex cannot cycle
BLAND_AFTER = 8
# an envelope lattice spans [0, MARGIN * max(q, 1)] per axis; the margin
# doubles up to MAX_MARGIN while support sits on the outer boundary
MARGIN, MAX_MARGIN = 4, 32
# the audits draw each power log-uniformly from this range
AUDIT_Q_LOW, AUDIT_Q_HIGH = 0.05, 30.0


class GridTooSmallError(ValueError):
    """Envelope support points reached the outer tabulation boundary."""


class NotApplicableError(ValueError):
    """Cell has f1 < g1; the fixed-power bound does not apply."""


class WitnessUnavailableError(ValueError):
    """No verified positive-gap witness at the requested parameters."""


# ----------------------------------------------------------------------
# Scalar Gaussian objective
# ----------------------------------------------------------------------


_LN_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class HKParams:
    """Weighted-rate parameters.  The fixed-power quantities normalize the
    second noise to variance u; N2 enters only the constant-power witness."""

    u: float
    N1: float = 0.0
    N2: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.u, self.N1, self.N2))):
            raise ValueError("u, N1, N2 must be finite")
        if self.u <= 0:
            raise ValueError("u must be positive")
        # tangent_witness's rounding term 4 (u+1) logs must be finite on
        # every cell; its logs stay below 2 + 2|ln u| + 2 ln(float max), and
        # below such a u the terms u ln(.) of f1 are finite too
        logs = 2.0 + 2.0 * abs(math.log(self.u)) + 2.0 * _LN_FLOAT_MAX
        if not math.isfinite(4.0 * (self.u + 1.0) * logs):
            raise ValueError(
                f"u too large: the f1 = g1 rounding bound 4 (u+1) (2 + 2 ln u + "
                f"2 ln(float max)) overflows, got {self.u}"
            )
        if self.N1 < 0:
            raise ValueError("N1 must be nonnegative")
        if self.N2 <= 0:
            raise ValueError("N2 must be positive")


def unconstrained_argmax(L, u: float, N1: float = 0.0, N: Optional[float] = None):
    """argmax_K psi(K, L) with second-noise variance N (default u):
    (N+L)/((u/N) L - 1) - N1 where u L > N, +inf otherwise."""
    N = u if N is None else N
    L = np.asarray(L, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where((u / N) * L > 1.0, hs.gauss_argmax(L, u, N1, N), np.inf)
    return k if k.ndim else float(k)


def capped_gauss_objective(J, L, u: float, N1: float = 0.0, N: Optional[float] = None):
    """(value, argmax K) of sup_{0 <= K <= J} psi(K, L), scalar closed form:
    K = min(J, unconstrained_argmax) clipped at 0.  N is the second-noise
    variance (default u, the HK normalization)."""
    N = u if N is None else N
    J = np.asarray(J, dtype=float)
    L = np.asarray(L, dtype=float)
    k = np.clip(unconstrained_argmax(L, u, N1, N), 0.0, J)
    val = hs.gauss_psi(k, L, u, N1, N)
    if k.ndim:
        return val, k
    return float(val), float(k)


# ----------------------------------------------------------------------
# Fixed-power value f1 and its vectorized tabulation
# ----------------------------------------------------------------------


def _corner_value(q1, q2, u: float, N1: float):
    """f1(q1, q2) = ln(q1+N1+u+q2) + phi(q1, q2), elementwise.

    The supremum over J <= q1, L <= q2 sits at the corner: psi(K, L)
    increases in L for every K, so phi(J, L) = sup_{K<=J} psi(K, L) is
    nondecreasing in J and in L, and the log term strictly increases in
    both.  Every f1 value in this module comes from this one expression,
    so scalar results agree bit for bit with the tabulated nodes.
    """
    val, _ = capped_gauss_objective(q1, q2, u, N1)
    return np.log(np.asarray(q1, dtype=float) + N1 + u + np.asarray(q2, dtype=float)) + val


def _corner_gradient(q1: float, q2: float, u: float, N1: float) -> tuple[float, float]:
    """Gradient of f1 at q1 > 0, q2 >= 0 by the envelope theorem: d psi/dK
    enters only where the cap K = q1 binds, and it vanishes at the cap
    q1 = K*(q2), so f1 is C^1."""
    _, k = capped_gauss_objective(q1, q2, u, N1)
    s = 1.0 / (q1 + N1 + u + q2)
    x = k + N1
    d_psi_dk = u / (x + u + q2) + 1.0 / x - (u + 1.0) / (x + u)
    return s + (d_psi_dk if k == q1 else 0.0), s + u / (x + u + q2)


@dataclass(frozen=True)
class FixedPowerResult:
    value: float
    J: float
    L: float
    K: float


def fixed_power_value(q1: float, q2: float, params: HKParams) -> FixedPowerResult:
    """sup over J in [0, q1], L in [0, q2] of ln(J+N1+u+L) + phi(J, L).

    Closed form: the supremum is attained at (J, L) = (q1, q2) with K the
    capped argmax; the value equals the f1_table node at (q1, q2) exactly.
    """
    u, N1 = params.u, params.N1
    _, k = capped_gauss_objective(q1, q2, u, N1)
    value = float(_corner_value(q1, q2, u, N1))
    return FixedPowerResult(value=value, J=float(q1), L=float(q2), K=k)


def f1_table(q1_nodes: np.ndarray, q2_nodes: np.ndarray, params: HKParams) -> np.ndarray:
    """f1 on the product grid, as the corner value broadcast over the nodes.
    Checked in the tests against a brute-force grid over (J, L, K)."""
    q1 = np.asarray(q1_nodes, dtype=float)[:, None]
    q2 = np.asarray(q2_nodes, dtype=float)[None, :]
    return _corner_value(q1, q2, params.u, params.N1)


# ----------------------------------------------------------------------
# Concave envelope
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SupportPoint:
    q1: float
    q2: float
    value: float
    weight: float


@dataclass(frozen=True)
class EnvelopeValue:
    value: float
    f_value: float
    support: tuple[SupportPoint, ...]


class Envelope2D:
    """Upper concave envelope of a tabulated function, one linear program
    per query.

    By Caratheodory the envelope at q is
        max sum_i w_i f(p_i)  s.t.  sum_i w_i (p_i, 1) = (q, 1),  w >= 0
    over the finite lattice points p_i, a program with three equality rows.
    ``value`` solves it by a primal simplex whose basis is a triangle of
    lattice points holding q.  The plane through the lifted basis prices
    every point in one vectorized pass; the query ends when that plane
    majorizes every lifted point, which certifies the value.
    """

    def __init__(self, xg: np.ndarray, yg: np.ndarray, table: np.ndarray):
        self.xg = np.asarray(xg, dtype=float)
        self.yg = np.asarray(yg, dtype=float)
        self.table = np.asarray(table, dtype=float)
        finite = np.isfinite(self.table)
        X, Y = np.meshgrid(self.xg, self.yg, indexing="ij")
        self._x, self._y, self._f = X[finite], Y[finite], self.table[finite]
        # flat index of each finite node, -1 elsewhere
        self._index = np.full(self.table.shape, -1)
        self._index[finite] = np.arange(self._f.size)
        scale = float(np.abs(self._f).max()) if self._f.size else 0.0
        self._tol = 1e-12 * max(1.0, scale)

    def value(self, qx: float, qy: float) -> EnvelopeValue:
        x, y, f = self._x, self._y, self._f
        basis, w = self._start(qx, qy)
        degenerate_run = 0
        for _ in range(MAX_PIVOTS):
            # columns (x, y, 1) of the basis points; plane = f_B^T B^-1 (p, 1)
            binv = np.linalg.inv(np.array([x[basis], y[basis], np.ones(3)]))
            a, b, c = f[basis] @ binv
            if not (math.isfinite(a) and math.isfinite(b)):
                # LAPACK's inverse divides a power by the basis triangle's
                # extent along the other axis; past the float range a slope
                # is lost and no pivot can restore it
                raise ValueError(
                    f"envelope query ({qx}, {qy}) too large for its lattice: a slope of "
                    f"the plane through a basis triangle is not finite (a power over "
                    f"the other axis's lattice step passes the float range)"
                )
            r = f - (a * x + b * y + c)
            j = int(np.argmax(r))
            if r[j] <= self._tol:
                break
            if degenerate_run >= BLAND_AFTER:
                # Bland's rule: lowest-index entering point, so degenerate
                # pivots cannot cycle
                j = int(np.flatnonzero(r > self._tol)[0])
            d = binv @ np.array([x[j], y[j], 1.0])
            leave, theta = _ratio_test(w, d, basis)
            degenerate_run = degenerate_run + 1 if theta == 0.0 else 0
            w = np.maximum(w - theta * d, 0.0)
            w[leave] = theta
            basis[leave] = j
        else:
            raise RuntimeError(
                f"envelope simplex at ({qx}, {qy}) did not converge in {MAX_PIVOTS} pivots"
            )
        tri = np.column_stack([x[basis], y[basis], f[basis]])
        w = _barycentric(tri[:, :2], np.array([qx, qy]))
        val = float(w @ tri[:, 2])
        support = tuple(
            SupportPoint(q1=float(p[0]), q2=float(p[1]), value=float(p[2]), weight=float(wi))
            for p, wi in zip(tri, w)
            if wi > 1e-9
        )
        self._check_boundary(support)
        fq = self._table_value(qx, qy)
        if fq is not None and val < fq:
            val = fq  # envelope majorizes the function; guard fp dust
        return EnvelopeValue(value=val, f_value=fq if fq is not None else math.nan, support=support)

    def _start(self, qx: float, qy: float) -> tuple[np.ndarray, np.ndarray]:
        """Feasible basis: a triangle of finite corners of q's lattice cell
        that holds q; when q is a node it is a corner of weight 1."""
        idx = self._index
        i = int(np.clip(np.searchsorted(self.xg, qx, side="right") - 1, 0, len(self.xg) - 2))
        j = int(np.clip(np.searchsorted(self.yg, qy, side="right") - 1, 0, len(self.yg) - 2))
        corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
        for k in range(4):
            basis = np.array([idx[c] for c in corners[k:] + corners[:k]][:3])
            if (basis >= 0).all():
                t = np.column_stack([self._x[basis], self._y[basis]])
                q = np.array([qx, qy])
                if (_barycentric_raw(t, q) >= -1e-12).all():
                    return basis, _barycentric(t, q)
        raise ValueError(f"envelope query ({qx}, {qy}) lies outside the finite lattice points")

    def _table_value(self, qx: float, qy: float) -> Optional[float]:
        ix = np.argmin(np.abs(self.xg - qx))
        iy = np.argmin(np.abs(self.yg - qy))
        if abs(self.xg[ix] - qx) < 1e-9 * max(1.0, abs(qx)) and abs(
            self.yg[iy] - qy
        ) < 1e-9 * max(1.0, abs(qy)):
            v = self.table[ix, iy]
            return float(v) if np.isfinite(v) else None
        return None

    def _check_boundary(self, support: tuple[SupportPoint, ...]):
        x_hi, y_hi = self.xg[-1], self.yg[-1]
        for s in support:
            if s.weight <= 1e-9:
                continue
            if s.q1 >= x_hi - 1e-9 * max(1.0, x_hi) or s.q2 >= y_hi - 1e-9 * max(1.0, y_hi):
                raise GridTooSmallError(
                    f"envelope support point ({s.q1}, {s.q2}) lies on the outer "
                    "tabulation boundary; enlarge the margin"
                )


def _ratio_test(w: np.ndarray, d: np.ndarray, basis: np.ndarray) -> tuple[int, float]:
    """Leaving slot and step of a pivot whose entering point has barycentric
    coordinates d in the basis: the first weight w - theta d to reach zero,
    ties to the lowest point index."""
    pos = d > 1e-12 * np.abs(d).max()
    ratios = np.full(3, np.inf)
    ratios[pos] = w[pos] / d[pos]
    theta = ratios.min()
    ties = np.flatnonzero(ratios == theta)
    return int(ties[np.argmin(basis[ties])]), float(theta)


def _barycentric_raw(tri: np.ndarray, q: np.ndarray) -> np.ndarray:
    t = np.column_stack([tri[0] - tri[2], tri[1] - tri[2]])
    try:
        w12 = np.linalg.solve(t, q - tri[2])
    except np.linalg.LinAlgError:
        w12, *_ = np.linalg.lstsq(t, q - tri[2], rcond=None)
    return np.array([w12[0], w12[1], 1.0 - w12[0] - w12[1]])


def _barycentric(tri: np.ndarray, q: np.ndarray) -> np.ndarray:
    w = _barycentric_raw(tri, q)
    w[np.abs(w) < 1e-12] = 0.0
    return np.clip(w, 0.0, None) / max(np.clip(w, 0.0, None).sum(), 1e-300)


def check_envelope_grid(grid_n: int) -> None:
    """Reject lattices too small to span a hull (ValueError)."""
    if grid_n < MIN_ENVELOPE_GRID:
        raise ValueError(
            f"envelope grid must have at least {MIN_ENVELOPE_GRID} nodes per axis, got {grid_n}"
        )


def _lattice_with_node(width: float, q: float, n: int) -> np.ndarray:
    """Grid over [0, width] containing q as an exact node."""
    xs = np.linspace(0.0, width, n)
    i = int(np.argmin(np.abs(xs - q)))
    if 0 < i < n - 1:
        xs[i] = q
        return xs
    return np.unique(np.concatenate([xs, [q]]))


def envelope_for(
    q1: float, q2: float, params: HKParams, grid_n: int = 257, margin: int = MARGIN
) -> Envelope2D:
    """Build the f1 envelope on [0, margin*max(q, 1)]^2.

    The floor of 1 keeps the window wide enough for tiny queries, whose
    envelope support points sit at O(1)-scale powers."""
    if q1 <= 0 or q2 <= 0:
        raise ValueError("envelope queries need positive powers")
    check_envelope_grid(grid_n)
    xg = _lattice_with_node(margin * max(q1, 1.0), q1, grid_n)
    yg = _lattice_with_node(margin * max(q2, 1.0), q2, grid_n)
    return Envelope2D(xg, yg, f1_table(xg, yg, params))


def power_control_envelope(
    q1: float, q2: float, params: HKParams, grid_n: int = 257
) -> EnvelopeValue:
    """Envelope value with support points; the margin doubles from MARGIN
    (up to MAX_MARGIN) when support hits the outer tabulation boundary,
    after which GridTooSmallError propagates."""
    m = MARGIN
    while True:
        try:
            return envelope_for(q1, q2, params, grid_n, m).value(q1, q2)
        except GridTooSmallError:
            if m >= MAX_MARGIN:
                raise
            m *= 2


def power_control_value(q1: float, q2: float, params: HKParams, grid_n: int = 257) -> float:
    """g1(q1, q2): least concave majorant of f1 evaluated at (q1, q2)."""
    return power_control_envelope(q1, q2, params, grid_n).value


def concave_envelope_1d(xs: np.ndarray, fs: np.ndarray, q: float) -> float:
    """Upper concave envelope at q of a sampled one-variable function: the
    best chord over pairs of finite samples x_i <= q <= x_j."""
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    keep = np.isfinite(fs)
    xs, fs = xs[keep], fs[keep]
    lo, hi = xs <= q, xs >= q
    if not lo.any() or not hi.any():
        raise ValueError(f"envelope query {q} lies outside the finite samples")
    xl, fl = xs[lo][:, None], fs[lo][:, None]
    xr, fr = xs[hi][None, :], fs[hi][None, :]
    dx = xr - xl
    t = np.where(dx > 0, (q - xl) / np.where(dx > 0, dx, 1.0), 0.0)
    return float((fl + t * (fr - fl)).max())


# ----------------------------------------------------------------------
# f1 = g1 by the tangent plane at q
# ----------------------------------------------------------------------


def _quadratic_roots(c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of c2 t^2 + c1 t + c0 (c0 != 0) by the cancellation-free
    formula, on coefficients scaled to at most 1 so that no square overflows."""
    m = max(abs(c2), abs(c1), abs(c0))
    c2, c1, c0 = c2 / m, c1 / m, c0 / m
    if c2 == 0.0:
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    h = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [h / c2, c0 / h]


def _plane_contacts(a: float, b: float, u: float, N1: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (p1, p2) of the at most eight points p >= 0 among which the
    maximum of f1(p) - a p1 - b p2 (a, b > 0) lies.  With s = N1 + u, S = p1 +
    p2 + s and x = p1 + N1, f1 is C^1, a stationary point of each smooth piece
    solves at most a quadratic, and f1(p1, 0) = ln x, f1(0, p2) = (1+u) ln S + c."""
    s = N1 + u
    pts = [(0.0, 0.0), (1.0 / a - N1, 0.0), (0.0, (1.0 + u) / b - s)]
    # cap binds, f1 = (1+u) ln S + ln x - (1+u) ln(x+u): S = (1+u)/b and
    # (a-b) x^2 + ((a-b) u + u) x - u = 0
    pts += [(x - N1, (1.0 + u) / b - u - x) for x in _quadratic_roots(a - b, (a - b) * u + u, -u)]
    # K = K*(p2) > 0, f1 = ln S + phi(L), phi'(L) = u (L-1)/(L (u+L)) with
    # L = p2: S = 1/a and (b-a) L^2 + ((b-a) u - u) L + u = 0
    pts += [(1.0 / a - s - L, L) for L in _quadratic_roots(b - a, (b - a) * u - u, u)]
    # K clipped to 0, f1 = ln S + u ln(p2+s) + c: S = 1/a and p2 + s = u/(b-a)
    pts += [(1.0 / a - u / (b - a), u / (b - a) - s)] if b > a else []
    p = np.array(pts)
    keep = ((p >= 0.0) & (p < math.inf)).all(axis=1)
    return p[keep, 0], p[keep, 1]


def _not_finite(q1: float, q2: float, what: str) -> str:
    return f"tangent-plane test at cell (q1={q1}, q2={q2}): its {what} is not finite"


def tangent_witness(q1: float, q2: float, params: HKParams) -> Optional[tuple[float, float]]:
    """A point where f1 lies above its tangent plane l at q, or None.

    f1 is C^1, so g1(q) = f1(q) exactly when l majorizes f1 (the supporting
    hyperplanes of a concave envelope; Rockafellar, Convex Analysis, 1970).
    A point p with f1(p) > l(p) certifies g1(q) > f1(q): weights on p and
    on a point a small step past q along the chord from p beat f1(q).

    The maximum of f1 - l over p >= 0 is attained at one of the closed-form
    points of ``_plane_contacts``; the test returns the one of largest
    excess f1 - l above 8 ulps of the magnitudes of the terms of f1 and l
    (the log arguments of f1 other than K+N1 lie in [u, p1+p2+N1+u]).  For
    q2 = 0 the support of g1 stays on the q1 axis, where f1(p1, 0) =
    ln(p1 + N1) is concave, so the answer is None.  A cell whose tangent
    plane is not finite, or whose excess at a contact point is NaN or +inf
    (q near the ends of the float range), raises ValueError: a NaN excess
    holds no witness and would read as f1 = g1.
    """
    if not (q1 > 0 and q2 >= 0):
        raise ValueError(f"the tangent-plane test needs q1 > 0 and q2 >= 0, got ({q1}, {q2})")
    u, N1 = params.u, params.N1
    fq = float(_corner_value(q1, q2, u, N1))
    d1, d2 = _corner_gradient(q1, q2, u, N1)
    if not all(map(math.isfinite, (fq, d1, d2))):
        raise ValueError(_not_finite(q1, q2, "tangent plane"))
    if q2 == 0:
        return None
    x, y = _plane_contacts(d1, d2, u, N1)
    f = _corner_value(x, y, u, N1)
    rise = d1 * (x - q1) + d2 * (y - q2)
    logs = 2.0 + 2.0 * abs(math.log(u)) + abs(math.log(q1 + q2 + N1 + u))
    logs = logs + np.abs(np.log(x + y + N1 + u))
    terms = np.abs(f) + abs(fq) + np.abs(d1 * (x - q1)) + np.abs(d2 * (y - q2)) + 4 * (u + 1) * logs
    over = f - fq - rise - 8.0 * np.finfo(float).eps * terms
    # -inf is f1's true value where K + N1 = 0; NaN or +inf decides nothing
    if not (over < math.inf).all():
        raise ValueError(_not_finite(q1, q2, "contact excess"))
    i = int(np.argmax(over))
    return (float(x[i]), float(y[i])) if over[i] > 0 else None


# ----------------------------------------------------------------------
# Maximizer-variance bound checks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MaximizerBoundResult:
    K: float
    bound_holds: bool
    case: int
    bound: float


def maximizer_bound_check(Jv: float, Lv: float, params: HKParams) -> MaximizerBoundResult:
    """At an applicable cell (f1 = g1: no ``tangent_witness``), the capped
    argmax satisfies K + N1 <= 1 + sqrt(1+u).  Raises NotApplicableError
    otherwise.

    Case 1: cap slack (L > 1, J above the unconstrained argmax);
    case 2: cap binds (L <= 1 or J below it); case 3: exactly at it.
    """
    u, N1 = params.u, params.N1
    witness = tangent_witness(Jv, Lv, params)
    if witness is not None:
        raise NotApplicableError(
            f"f1 < g1 at (J={Jv}, L={Lv}): f1 at {witness} lies above its tangent plane"
        )
    kthr = unconstrained_argmax(Lv, u, N1)
    case = 3 if abs(Jv - kthr) <= 1e-9 else 1 if Jv > kthr else 2
    K = Jv if case == 3 else capped_gauss_objective(Jv, Lv, u, N1)[1]
    bound = 1.0 + math.sqrt(1.0 + u)
    return MaximizerBoundResult(
        K=float(K), bound_holds=bool(K + N1 <= bound + 1e-6), case=case, bound=bound
    )


# ----------------------------------------------------------------------
# Dimension 2: the best split of f1
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPower2DResult:
    value: float
    split: tuple[float, float]
    cells: tuple[FixedPowerResult, FixedPowerResult]


def fixed_power_value_2d(
    q1: float, q2: float, params: HKParams, grid_n: int = 257
) -> FixedPower2DResult:
    """A lower bound on f2(q1, q2) through aligned diagonal inputs: the best
    split max_{a, b} f1(a, b) + f1(q1-a, q2-b) over a grid of splits, one
    broadcast.  The true best split may fall between grid nodes: at
    (4.297, 0.325) with u = 0.5, N1 = 0.2 the default grid is 6.1e-7 short
    of a 3001^2 brute-force split.  An even grid_n is raised by one: an odd
    grid keeps the symmetric split q/2, where f2 = 2 f1(q/2) on cells with
    f1 = g1 at q/2.
    """
    n = grid_n | 1
    a_nodes = np.linspace(0.0, q1, n)[:, None]
    b_nodes = np.linspace(0.0, q2, n)[None, :]
    u, N1 = params.u, params.N1
    tot = _corner_value(a_nodes, b_nodes, u, N1) + _corner_value(q1 - a_nodes, q2 - b_nodes, u, N1)
    i, j = np.unravel_index(int(np.argmax(tot)), tot.shape)
    a, b = float(a_nodes[i, 0]), float(b_nodes[0, j])
    cells = (fixed_power_value(a, b, params), fixed_power_value(q1 - a, q2 - b, params))
    return FixedPower2DResult(value=cells[0].value + cells[1].value, split=(a, b), cells=cells)


# ----------------------------------------------------------------------
# Audits
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AuditRecord:
    q1: float
    q2: float
    applicable: bool
    max_eigenvalue: float
    bound_holds: bool
    case: int


@dataclass(frozen=True)
class AuditReport:
    records: tuple[AuditRecord, ...]
    applicable: int
    violations: int
    bound: float


def eigenvalue_bound_audit(
    d: int,
    params: HKParams,
    samples: int,
    rng: np.random.Generator,
) -> AuditReport:
    """Random audit of the maximizer-eigenvalue bound 1 + sqrt(1+u) - N1.

    d=1 samples (J, L) cells and checks each with ``maximizer_bound_check``.
    d=2 samples powers q and checks the d=1 cell q/2: f2(q) >= 2 f1(q/2)
    and g2(q) = 2 g1(q/2) (tensorization), so where f1 = g1 at q/2 the
    symmetric split is optimal and the largest eigenvalue is K(q/2).  Any
    other optimal split {p, q-p}, and f2(q) = g2(q) where f1 < g1 at q/2,
    needs both p and q-p on the plane that supports g1 at q/2, a
    measure-zero event the audit does not look for.
    """
    if d not in (1, 2):
        raise ValueError("audit supports d in {1, 2}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    bound = 1.0 + math.sqrt(1.0 + params.u)
    records = []
    violations = 0
    applicable = 0
    for _ in range(samples):
        a = float(np.exp(rng.uniform(math.log(AUDIT_Q_LOW), math.log(AUDIT_Q_HIGH))))
        b = float(np.exp(rng.uniform(math.log(AUDIT_Q_LOW), math.log(AUDIT_Q_HIGH))))
        cell = (a, b) if d == 1 else (a / 2.0, b / 2.0)
        try:
            res = maximizer_bound_check(*cell, params)
        except NotApplicableError:
            records.append(AuditRecord(a, b, False, math.nan, True, 0))
            continue
        applicable += 1
        if not res.bound_holds:
            violations += 1
        records.append(
            AuditRecord(a, b, True, res.K, res.bound_holds, res.case if d == 1 else 0)
        )
    return AuditReport(
        records=tuple(records),
        applicable=applicable,
        violations=violations,
        bound=bound,
    )


# ----------------------------------------------------------------------
# Constant-power suboptimality
# ----------------------------------------------------------------------


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
    params: HKParams,
    A: Optional[float] = None,
    recipe: Optional[cx.SkewRecipe] = None,
    n: int = 8192,
) -> ConstantPowerGapResult:
    """Certified non-Gaussian vs Gaussian values of the constant-power
    weighted rate F_u at the witness cell.

    The witness scales the skew recipe so E[X2^2] = N2 (t = N2 / m2(q)) and
    mixes the source with an independent gamma_A; conditioning on the mixing
    device bounds the concave-envelope term below by the skew gain c, while
    the output entropy concedes at most the measured Gaussian slack.  The
    certified lower bound is lndet-term + c/2, valid once slack <= c/2 (A is
    doubled until slack <= c/4 when not supplied).  Raises
    WitnessUnavailableError when the cell has no verified positive gain.
    """
    if params.N1 <= 0:
        raise ValueError("constant-power comparison needs N1 > 0")
    if A is not None:
        check_mixing_variance(A)
    recipe = recipe or cx.default_recipe()
    info = recipe.validate()
    u, N1, N2 = params.u, params.N1, params.N2
    t = N2 / info["m2"]
    x1p = recipe.p.scaled(1.0 / math.sqrt(t))
    # mirror-image interferer, the orientation with the positive skew gain
    x2 = recipe.q.scaled(math.sqrt(t)).reflected()
    [c] = cx.interference_objective(
        cx.ChannelParams(u=u, N1=N1, N2=N2, A2=N2 + 1e-9), [(x1p, x2)], n=n
    )
    if c <= 1e-6:
        raise WitnessUnavailableError(
            f"skew gain c = {c:.3e} is not a verified positive gap at N2={N2}"
        )
    var1 = x1p.second_moment()
    q2v = x2.second_moment()

    def slack_for(a: float) -> float:
        big = x1p.convolve_gaussian(a + N1 + N2).convolve(x2)
        q1v = var1 + a
        return cx.gaussian_entropy(q1v + q2v + N1 + N2) - cx.mixture_entropy(big, n=n)

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
# Power-control footprint map
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PowerControlCell:
    u: float
    q1: float
    q2: float
    f1: float
    g1: float
    f1_eq_g1: bool
    stationary_K: float


def power_control_cell(
    q1: float, q2: float, params: HKParams, grid_n: int = 129
) -> PowerControlCell:
    """f1, g1 and the f1 = g1 verdict of one cell q1 > 0, q2 >= 0, with the
    capped argmax K at the f1-optimal matrices.

    g1 is the lattice envelope value (``power_control_value``).  On a
    q2 = 0 cell every support point of a randomization that averages to
    (q1, 0) lies on the q1 axis, where f1(p1, 0) = ln(p1 + N1) is concave,
    so g1 = f1 there in closed form.  f1 = g1 is decided by
    ``tangent_witness``.  A cell whose widest lattice window
    MAX_MARGIN max(q, 1), or whose f1 log argument q1 + q2 + N1 + u, is not
    finite is rejected (ValueError) before anything is tabulated; a lattice
    LP whose plane leaves the float range is rejected by ``Envelope2D.value``
    (ValueError).
    """
    if not (q1 > 0 and q2 >= 0):
        raise ValueError(f"power-control cells need q1 > 0 and q2 >= 0, got ({q1}, {q2})")
    u, N1 = params.u, params.N1
    if not (math.isfinite(MAX_MARGIN * max(q1, q2, 1.0)) and math.isfinite(q1 + q2 + N1 + u)):
        raise ValueError(
            f"power-control cell (q1={q1}, q2={q2}) too large: its lattice window "
            f"{MAX_MARGIN} max(q, 1) or its f1 log argument q1+q2+N1+u is not finite"
        )
    check_envelope_grid(grid_n)
    res = fixed_power_value(q1, q2, params)
    g1 = power_control_value(q1, q2, params, grid_n=grid_n) if q2 > 0 else res.value
    return PowerControlCell(
        u=u,
        q1=q1,
        q2=q2,
        f1=res.value,
        g1=g1,
        f1_eq_g1=tangent_witness(q1, q2, params) is None,
        stationary_K=res.K,
    )


def power_control_map(
    u_grid: Iterable[float],
    q_grid: Iterable[float],
    params: HKParams,
    grid_n: int = 129,
) -> list[PowerControlCell]:
    """``power_control_cell`` over every (u, q1, q2) of the sorted grids,
    with params.u replaced by each u.  Points with q1 <= 0 are dropped, so
    one grid holding 0 gives the q2 = 0 column without a q1 = 0 row."""
    qs = sorted(float(q) for q in q_grid)
    return [
        power_control_cell(q1, q2, replace(params, u=u), grid_n)
        for u in sorted(float(x) for x in u_grid)
        for q1 in qs
        if q1 > 0
        for q2 in qs
    ]
