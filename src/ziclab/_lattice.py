"""The lattice linear program for the concave envelope of f1, kept as
the tests' lower-bound oracle.

No command imports this module: ``hkregion.power_control_cell`` takes g1
from the Fenchel dual on Python floats.  Here g1 is the value of one
three-row linear program per query over f1 tabulated on a lattice, solved
by a primal simplex (``Envelope2D``), a lower bound on g1 because it sees
only lattice points; the tests check LP <= g1 <= the dual's upper bound.
The best-split lower bound on f2 and the sampled one-variable envelope
live here too.  f1 on arrays is the corner value of ``hkregion`` written
with numpy, in the same operations on the same inputs, so each node holds
``hkregion._corner_value`` wherever numpy's log agrees with the C
library's (it may differ by an ulp).  ``hkregion`` forwards the names the
benchmark's tracer hooks (``perfbench/trace_run.py``) to this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hkregion import FixedPowerResult, HKParams, fixed_power_value

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


class GridTooSmallError(ValueError):
    """Envelope support points reached the outer tabulation boundary."""


def corner_values(q1, q2, u: float, N1: float) -> np.ndarray:
    """f1 = ln(q1+N1+u+q2) + psi(K, q2) elementwise, K the argmax
    (q2+u)/(q2-1) - N1 clipped to [0, q1] (+inf before the clip where
    q2 <= 1): ``hkregion._corner_value`` on arrays."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.where(q2 > 1.0, (u + q2) / (q2 - 1.0) - N1, np.inf)
        x = np.clip(k, 0.0, q1) + N1
        psi = (
            u * np.log(x + u + q2)
            + np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
            - (u + 1.0) * np.log(x + u)
        )
        return np.log(q1 + N1 + u + q2) + psi


def f1_table(q1_nodes: np.ndarray, q2_nodes: np.ndarray, params: HKParams) -> np.ndarray:
    """f1 on the product grid, as the corner value broadcast over the nodes.
    Checked in the tests against a brute-force grid over (J, L, K)."""
    q1 = np.asarray(q1_nodes, dtype=float)[:, None]
    q2 = np.asarray(q2_nodes, dtype=float)[None, :]
    return corner_values(q1, q2, params.u, params.N1)


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


def lattice_value(q1: float, q2: float, params: HKParams, grid_n: int = 257) -> float:
    """The lattice LP's lower bound on g1(q1, q2)."""
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
    tot = corner_values(a_nodes, b_nodes, u, N1) + corner_values(q1 - a_nodes, q2 - b_nodes, u, N1)
    i, j = np.unravel_index(int(np.argmax(tot)), tot.shape)
    a, b = float(a_nodes[i, 0]), float(b_nodes[0, j])
    cells = (fixed_power_value(a, b, params), fixed_power_value(q1 - a, q2 - b, params))
    return FixedPower2DResult(value=cells[0].value + cells[1].value, split=(a, b), cells=cells)
