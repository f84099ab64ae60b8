"""Gaussian weighted-rate quantities for the Z-channel with and without
power control, and the maximizer-variance audits.

The scalar building block is
    psi(K, L) = u ln(K+N1+u+L) + ln(K+N1) - (u+1) ln(K+N1+u),
its capped supremum over K <= J (``hessian.capped_gauss_objective``), the
fixed-power value
    f1(q1, q2) = sup_{J<=q1, L<=q2} { ln(J+N1+u+L) + phi(J, L) },
attained at the corner (J, L) = (q1, q2), and the power-control value
g1 = upper concave envelope of f1 in (q1, q2), realized by randomizing the
transmit powers (by Caratheodory at most three support points).  Whether
f1 = g1 is decided by the tangent plane of f1; g1 comes from the Fenchel
dual, minimized by a nested one-variable convex search, with an upper and
a lower bound that bracket it.  The d = 2 audit reduces to the
d = 1 cell q/2 by tensorization, g2(q) = 2 g1(q/2).

Everything here computes on Python floats with ``math``, so the HK
commands load no numpy, and its records are named tuples, so they load
no ``dataclasses`` either.  The lattice linear program that g1 replaced is
the tests' lower-bound oracle in ``_lattice``; the names of it that the
benchmark's tracer hooks on this module are forwarded there on access.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Iterable, NamedTuple, Optional

from . import hessian as hs

# the audits draw each power log-uniformly from this range
AUDIT_Q_LOW, AUDIT_Q_HIGH = 0.05, 30.0
# quadruplings of a or b that widen a bracket of the dual's search before it
# gives up: 4^520 spans the float range
_BRACKET_STEPS = 520

# the lattice LP's names that perfbench/trace_run.py hooks on this module
_LATTICE_NAMES = frozenset(
    {
        "Envelope2D",
        "concave_envelope_1d",
        "envelope_for",
        "f1_table",
        "fixed_power_value_2d",
        "power_control_envelope",
    }
)


def __getattr__(name: str):
    if name in _LATTICE_NAMES:
        from . import _lattice

        return getattr(_lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotApplicableError(ValueError):
    """Cell has f1 < g1; the fixed-power bound does not apply."""


_LN_FLOAT_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon


class _HKFields(NamedTuple):
    u: float
    N1: float


class HKParams(_HKFields):
    """Weighted-rate parameters; the fixed-power quantities normalize the
    second noise to variance u.  ``_replace`` and ``_make`` skip these
    checks: build a new HKParams instead."""

    __slots__ = ()

    def __new__(cls, u: float, N1: float = 0.0):
        if not (math.isfinite(u) and math.isfinite(N1)):
            raise ValueError("u and N1 must be finite")
        if u <= 0:
            raise ValueError("u must be positive")
        # tangent_witness's rounding term 4 (u+1) logs must be finite on
        # every cell; its logs stay below 2 + 2|ln u| + 2 ln(float max), and
        # below such a u the terms u ln(.) of f1 are finite too
        logs = 2.0 + 2.0 * abs(math.log(u)) + 2.0 * _LN_FLOAT_MAX
        if not math.isfinite(4.0 * (u + 1.0) * logs):
            raise ValueError(
                f"u too large: the f1 = g1 rounding bound 4 (u+1) (2 + 2 ln u + "
                f"2 ln(float max)) overflows, got {u}"
            )
        if N1 < 0:
            raise ValueError("N1 must be nonnegative")
        return super().__new__(cls, u, N1)


# ----------------------------------------------------------------------
# Fixed-power value f1
# ----------------------------------------------------------------------


def _corner_value(q1: float, q2: float, u: float, N1: float) -> float:
    """f1(q1, q2) = ln(q1+N1+u+q2) + phi(q1, q2).

    The supremum over J <= q1, L <= q2 sits at the corner: psi(K, L)
    increases in L for every K, so phi(J, L) = sup_{K<=J} psi(K, L) is
    nondecreasing in J and in L, and the log term strictly increases in
    both.  Every f1 value in this module comes from this one expression,
    so the reported f1 and the dual's values agree bit for bit.
    """
    val, _ = hs.capped_gauss_objective(q1, q2, u, N1, u)
    return math.log(q1 + N1 + u + q2) + val


def _corner_gradient(q1: float, q2: float, u: float, N1: float) -> tuple[float, float]:
    """Gradient of f1 at q1 > 0, q2 >= 0 by the envelope theorem: d psi/dK
    enters only where the cap K = q1 binds, and it vanishes at the cap
    q1 = K*(q2), so f1 is C^1."""
    _, k = hs.capped_gauss_objective(q1, q2, u, N1, u)
    s = 1.0 / (q1 + N1 + u + q2)
    x = k + N1
    d_psi_dk = u / (x + u + q2) + 1.0 / x - (u + 1.0) / (x + u)
    return s + (d_psi_dk if k == q1 else 0.0), s + u / (x + u + q2)


def _log_scale(p1: float, p2: float, u: float, N1: float) -> float:
    """4 (u+1) times a bound on the magnitudes of the logs in f1(p): the log
    arguments other than K+N1 lie in [u, p1+p2+N1+u]."""
    return 4.0 * (u + 1.0) * (1.0 + abs(math.log(u)) + abs(math.log(p1 + p2 + N1 + u)))


class FixedPowerResult(NamedTuple):
    value: float
    J: float
    L: float
    K: float


def fixed_power_value(q1: float, q2: float, params: HKParams) -> FixedPowerResult:
    """sup over J in [0, q1], L in [0, q2] of ln(J+N1+u+L) + phi(J, L).

    Closed form: the supremum is attained at (J, L) = (q1, q2) with K the
    capped argmax.
    """
    u, N1 = params.u, params.N1
    _, k = hs.capped_gauss_objective(q1, q2, u, N1, u)
    return FixedPowerResult(value=_corner_value(q1, q2, u, N1), J=float(q1), L=float(q2), K=k)


# ----------------------------------------------------------------------
# Contact points of a plane
# ----------------------------------------------------------------------


def _quadratic_roots(c2: float, c1: float, c0: float) -> tuple[float, float]:
    """The real roots (h/c2, c0/h) of c2 t^2 + c1 t + c0 (c0 != 0) by the
    cancellation-free formula, h = -(c1 + sign(c1) sqrt(disc))/2, on
    coefficients scaled to at most 1 so that no square overflows.  Each
    root keeps its slot as the coefficients move: h/c2 is NaN where c2 = 0
    (that root went to infinity), and both are NaN where disc < 0."""
    m = max(abs(c2), abs(c1), abs(c0))
    c2, c1, c0 = c2 / m, c1 / m, c0 / m
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return math.nan, math.nan
    h = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return (h / c2 if c2 != 0.0 else math.nan), c0 / h


def _contact_slots(a: float, b: float, u: float, N1: float) -> list[Optional[tuple[float, float]]]:
    """The at most eight points p >= 0 among which the maximum of
    f1(p) - a p1 - b p2 (a, b > 0) lies, each in a fixed slot (None where
    the slot has no point p >= 0 in the float range), so that a slot's point
    moves continuously with (a, b).

    With s = N1 + u, S = p1 + p2 + s and x = p1 + N1, f1 is C^1, a
    stationary point of each smooth piece solves at most a quadratic, and
    f1(p1, 0) = ln x, f1(0, p2) = (1+u) ln S + c.  Slots: 0 the corner,
    1 and 2 the stationary points on the edges, 3 and 4 the cap binding
    (f1 = (1+u) ln S + ln x - (1+u) ln(x+u): S = (1+u)/b and
    (a-b) x^2 + ((a-b) u + u) x - u = 0), 5 and 6 K = K*(p2) > 0
    (f1 = ln S + phi(L), phi'(L) = u (L-1)/(L (u+L)) with L = p2: S = 1/a
    and (b-a) L^2 + ((b-a) u - u) L + u = 0), 7 K clipped to 0
    (f1 = ln S + u ln(p2+s) + c: S = 1/a and p2 + s = u/(b-a)).
    """
    s = N1 + u
    x1, x2 = _quadratic_roots(a - b, (a - b) * u + u, -u)
    L1, L2 = _quadratic_roots(b - a, (b - a) * u - u, u)
    t = u / (b - a) if b > a else math.nan
    pts = (
        (0.0, 0.0),
        (1.0 / a - N1, 0.0),
        (0.0, (1.0 + u) / b - s),
        (x1 - N1, (1.0 + u) / b - u - x1),
        (x2 - N1, (1.0 + u) / b - u - x2),
        (1.0 / a - s - L1, L1),
        (1.0 / a - s - L2, L2),
        (1.0 / a - t, t - s),
    )
    return [p if 0.0 <= p[0] < math.inf and 0.0 <= p[1] < math.inf else None for p in pts]


def _not_finite(q1: float, q2: float, what: str) -> str:
    return f"tangent-plane test at cell (q1={q1}, q2={q2}): its {what} is not finite"


def tangent_witness(q1: float, q2: float, params: HKParams) -> Optional[tuple[float, float]]:
    """A point where f1 lies above its tangent plane l at q, or None.

    f1 is C^1, so g1(q) = f1(q) exactly when l majorizes f1 (the supporting
    hyperplanes of a concave envelope; Rockafellar, Convex Analysis, 1970).
    A point p with f1(p) > l(p) certifies g1(q) > f1(q): weights on p and
    on a point a small step past q along the chord from p beat f1(q).

    The maximum of f1 - l over p >= 0 is attained at one of the closed-form
    points of ``_contact_slots``; the test returns the one of largest
    excess f1 - l above 8 ulps of the magnitudes of the terms of f1 and l
    (``_log_scale`` bounds the logs of f1).  For q2 = 0 the support of g1
    stays on the q1 axis, where f1(p1, 0) = ln(p1 + N1) is concave, so the
    answer is None.  A cell whose tangent plane is not finite, or whose
    excess at a contact point is NaN or +inf (q near the ends of the float
    range), raises ValueError: a NaN excess holds no witness and would read
    as f1 = g1.
    """
    if not (q1 > 0 and q2 >= 0):
        raise ValueError(f"the tangent-plane test needs q1 > 0 and q2 >= 0, got ({q1}, {q2})")
    u, N1 = params.u, params.N1
    fq = _corner_value(q1, q2, u, N1)
    d1, d2 = _corner_gradient(q1, q2, u, N1)
    if not all(map(math.isfinite, (fq, d1, d2))):
        raise ValueError(_not_finite(q1, q2, "tangent plane"))
    if q2 == 0:
        return None
    scale_q = _log_scale(q1, q2, u, N1)
    best, witness = 0.0, None
    for x, y in filter(None, _contact_slots(d1, d2, u, N1)):
        f = _corner_value(x, y, u, N1)
        r1, r2 = d1 * (x - q1), d2 * (y - q2)
        terms = abs(f) + abs(fq) + abs(r1) + abs(r2) + scale_q + _log_scale(x, y, u, N1)
        over = f - fq - r1 - r2 - 8.0 * _EPS * terms
        # -inf is f1's true value where K + N1 = 0; NaN or +inf decides nothing
        if not over < math.inf:
            raise ValueError(_not_finite(q1, q2, "contact excess"))
        if over > best:
            best, witness = over, (x, y)
    return witness


# ----------------------------------------------------------------------
# g1 by the Fenchel dual
# ----------------------------------------------------------------------


class PowerControlBracket(NamedTuple):
    """g1(q) = value, with the dual's upper bound ``upper`` and the
    rounding bound that upper - value must stay within, and the support
    points (p1, p2, weight) of the randomization that attains ``value``."""

    value: float
    upper: float
    rounding: float
    support: tuple[tuple[float, float, float], ...]

    @property
    def within_rounding(self) -> bool:
        return abs(self.upper - self.value) <= self.rounding


def _log_root(evaluate, x: float, secant):
    """The sign change of the nondecreasing slope s of a convex function of
    x > 0, searched in ln x.

    ``evaluate(x)`` returns (s(x) < 0, state, stop), and a true stop ends
    the search there.  From x the bracket widens by factors of 4 until its
    ends straddle the sign change.  Each step then goes to the root in ln x
    of the secant through ``secant(state_lo, state_hi)`` = (F_lo, F_hi),
    the values at the ends of a function with F_lo >= 0 >= F_hi whose root
    the step aims at (None: bisect).  An end kept twice running has its F
    halved (Illinois); a step that would not move less than half the move
    before last bisects instead (Brent); and every step lands at least 4
    ulps inside the bracket, so an end that converges on the root is
    crossed.  The search ends when no float lies strictly between the
    ends.  Returns the ends (x, state) below and above the sign change;
    raises ArithmeticError where none lies in the float range.
    """
    neg, state, stop = evaluate(x)
    lo = hi = (x, state, neg)
    for _ in range(_BRACKET_STEPS):
        if stop or (lo[2] and not hi[2]):
            break
        x = hi[0] * 4.0 if hi[2] else lo[0] * 0.25
        if not 0.0 < x < math.inf:
            break
        neg, state, stop = evaluate(x)
        if hi[2]:
            lo, hi = hi, (x, state, neg)
        else:
            lo, hi = (x, state, neg), lo
    if not (stop or lo[2] and not hi[2]):
        raise ArithmeticError("no bracket of the dual's minimizer in the float range")
    ends, scale, kept, moves = [lo, hi], [1.0, 1.0], None, [math.inf, math.inf]
    while not stop:
        (x_lo, s_lo, _), (x_hi, s_hi, _) = ends
        span = math.log(x_hi / x_lo)
        t, f = 0.5, secant(s_lo, s_hi)
        if f is not None:
            f_lo, f_hi = f[0] * scale[0], f[1] * scale[1]
            if 0.0 < f_lo - f_hi < math.inf:
                t = f_lo / (f_lo - f_hi)
        edge = 4.0 * _EPS / span if span > 8.0 * _EPS else 0.5
        y = x_lo * math.exp(min(max(t, edge), 1.0 - edge) * span)
        if abs(math.log(y / x)) >= 0.5 * moves[0]:
            y = x_lo * math.exp(0.5 * span)
        if not x_lo < y < x_hi:
            break
        moves = [moves[1], abs(math.log(y / x))]
        x = y
        neg, state, stop = evaluate(x)
        side = 0 if neg else 1
        ends[side], scale[side] = (x, state, neg), 1.0
        if kept == 1 - side:
            scale[kept] *= 0.5
        kept = 1 - side
    return ends[0][:2], ends[1][:2]


class _Dual:
    """The dual function D(a, b) = a q1 + b q2 + M(a, b) of one cell, with
    M(a, b) the maximum of f1(p) - a p1 - b p2 over ``_contact_slots``."""

    def __init__(self, q1: float, q2: float, u: float, N1: float):
        self.q1, self.q2, self.u, self.N1 = q1, q2, u, N1

    def heights(self, a: float, b: float):
        """(slot points, heights f1(p) - a p1 - b p2, None where no point,
        and the slot of the maximum M(a, b), the first of a tie)."""
        pts = _contact_slots(a, b, self.u, self.N1)
        hs_ = [
            None if p is None else _corner_value(p[0], p[1], self.u, self.N1) - a * p[0] - b * p[1]
            for p in pts
        ]
        # the corner (0, 0) is always a point, so the maximum exists
        return pts, hs_, max((i for i, h in enumerate(hs_) if h is not None), key=lambda i: hs_[i])

    def inner(self, a: float, b: float) -> tuple[float, tuple[int, int], float]:
        """min over b of D(a, b) by ``_log_root`` from b: D(a, .) is convex
        with slope q2 - p2 at its top contact p.  Where the bracket's ends
        have different top slots i and j, the step aims at their height tie
        h_i = h_j; where one slot tops both, at p_i2 = q2.  Returns the
        bracket's lower end b, the top slots at the ends, and the slope
        q1 - (lam p1 + (1-lam) r1) of g(a) = min over b of D(a, b), with p
        and r the contacts at the ends and lam the weight that makes them
        average to q2."""
        q2 = self.q2

        def evaluate(b):
            pts, hs_, top = self.heights(a, b)
            return pts[top][1] > q2, (pts, hs_, top), False

        def secant(lo, hi):
            (pl, hl, i), (ph, hh, j) = lo, hi
            if i == j:
                return pl[i][1] - q2, ph[i][1] - q2
            if hl[j] is None or hh[i] is None:
                return None
            return hl[i] - hl[j], hh[i] - hh[j]

        (b, (pl, _, i)), (_, (ph, _, j)) = _log_root(evaluate, b, secant)
        p, r = pl[i], ph[j]
        lam = (q2 - r[1]) / (p[1] - r[1])
        return b, (i, j), self.q1 - (lam * p[0] + (1.0 - lam) * r[0])

    def certify(self, a: float, b: float, active: list[int]) -> Optional[PowerControlBracket]:
        """The bracket at (a, b) with the tied slots ``active``, or None
        where their points do not hold q in their hull.

        The weights are the barycentric coordinates of q for three points,
        and for two the projection of q on their line; one point then moves
        so that sum w_i p_i = q.  Weak duality gives f1's values
        sum w_i f1(p_i) <= g1(q) <= D(a, b), and the width is
        sum_i w_i (M - h_i), zero at the dual minimizer in exact
        arithmetic.  Rounding: each f1 value carries at
        most a few roundings of each of its terms, whose magnitudes
        ``_log_scale`` bounds, each product a p1, b p2 one rounding and
        each sum one of its partial sums; the moved points average to q to
        rounding in their coordinates, which moves the lower bound by at
        most the rounding of the terms a p_i1, b p_i2.  So 8 ulps of the magnitudes |a q1| + |b q2| + max_i
        (|f1(p_i)| + |a p_i1| + |b p_i2| + _log_scale(p_i)), with p_i over
        the tied points and the top contact, bound the width at the
        minimizer.
        """
        q1, q2, u, N1 = self.q1, self.q2, self.u, self.N1
        pts, hs_, top = self.heights(a, b)
        if any(pts[i] is None for i in active):
            return None
        P = [pts[i] for i in active]
        if len(P) == 2:
            (x0, y0), (x1, y1) = P
            dx, dy = x0 - x1, y0 - y1
            w0 = ((q1 - x1) * dx + (q2 - y1) * dy) / (dx * dx + dy * dy)
            w = [w0, 1.0 - w0]
        else:
            (x0, y0), (x1, y1), (x2, y2) = P
            det = (x0 - x2) * (y1 - y2) - (x1 - x2) * (y0 - y2)
            w0 = ((q1 - x2) * (y1 - y2) - (x1 - x2) * (q2 - y2)) / det
            w1 = ((x0 - x2) * (q2 - y2) - (q1 - x2) * (y0 - y2)) / det
            w = [w0, w1, 1.0 - w0 - w1]
        if not all(0.0 <= wk <= 1.0 for wk in w):
            return None
        # in each coordinate, the point of largest weight that stays in
        # p >= 0 absorbs the residual of q - sum w_i p_i, so that the points
        # average to q and their values bound g1(q) from below; at a
        # contact point f1 has gradient (a, b) (an edge point: at most b or
        # a across the edge), so a move changes the value by at most
        # (a, b) times the residual to first order, as it moves q's side;
        # each math.fsum is of a convex combination (weights in [0, 1]), so
        # no partial sum passes the float range where its terms do not
        for c, qc in ((0, q1), (1, q2)):
            r = qc - math.fsum(wk * p[c] for wk, p in zip(w, P))
            k = max(
                (k for k in range(len(P)) if w[k] > 0.0 and P[k][c] + r / w[k] >= 0.0),
                key=lambda k: w[k],
                default=None,
            )
            if k is None:
                return None
            P[k] = (P[k][0] + r / w[k], P[k][1]) if c == 0 else (P[k][0], P[k][1] + r / w[k])
        ends = [*P, pts[top]]
        values = [_corner_value(p[0], p[1], u, N1) for p in ends]
        value = math.fsum(wk * v for wk, v in zip(w, values))
        upper = a * q1 + b * q2 + hs_[top]
        terms = [
            abs(v) + abs(a * p[0]) + abs(b * p[1]) + _log_scale(p[0], p[1], u, N1)
            for p, v in zip(ends, values)
        ]
        rounding = 8.0 * _EPS * (abs(a * q1) + abs(b * q2) + max(terms))
        support = tuple((p[0], p[1], wk) for p, wk in zip(P, w) if wk > 0.0)
        if not all(map(math.isfinite, (value, upper, rounding))):
            return None
        return PowerControlBracket(value=value, upper=upper, rounding=rounding, support=support)


def _bracket(q1: float, q2: float, u: float, N1: float, witness) -> PowerControlBracket:
    """g1(q1, q2) by the Fenchel dual (Rockafellar, Convex Analysis, §12),
    given the cell's ``tangent_witness``:

        g1(q) = min over a, b > 0 of  a q1 + b q2 + M(a, b),

    M(a, b) the exact maximum of f1(p) - a p1 - b p2 over the closed-form
    ``_contact_slots``, so every (a, b) gives an upper bound; the tied
    contact points whose hull holds q give a lower bound, the reported
    value.  Where the witness is None, no point lies above the tangent
    plane and g1 = f1 exactly (a bracket of width and rounding 0).

    Otherwise the minimum comes from a nested one-variable convex search,
    over b inside a: g(a) = min over b of D(a, b) (``_Dual.inner``) is
    convex, as D is jointly convex, so ``_log_root`` finds the sign change
    of its slope from the tangent plane's (a, b).  Each a certifies
    (``_Dual.certify``) every two and three of its top slots and those of
    the last a on the other side of the sign change; the search stops at
    the first bracket of width 0, or where its own bracket collapses, and
    the narrowest bracket is kept.  A search that divides by zero,
    overflows or finds no bracket in the float range (ArithmeticError)
    ends there.  The value is never below f1(q): a cell where no bracket
    holds q, or whose value does not exceed f1 although a witness lies
    above the tangent plane, is a ValueError.
    """
    fq = _corner_value(q1, q2, u, N1)
    if witness is None:
        return PowerControlBracket(value=fq, upper=fq, rounding=0.0, support=((q1, q2, 1.0),))
    dual = _Dual(q1, q2, u, N1)
    a, b = _corner_gradient(q1, q2, u, N1)
    best = None
    # the top slots at the last a on each side of g's minimum
    sides = {True: (), False: ()}

    def evaluate(a):
        nonlocal b, best
        b, slots, slope = dual.inner(a, b)
        neg = slope < 0.0
        pool = sorted({*slots, *sides[not neg]})
        sides[neg] = slots
        for group in itertools.chain(*(itertools.combinations(pool, n) for n in (2, 3))):
            try:
                cert = dual.certify(a, b, list(group))
            except ArithmeticError:
                cert = None
            if cert and (best is None or abs(cert.upper - cert.value) < abs(best.upper - best.value)):
                best = cert
        return neg, slope, best is not None and best.upper <= best.value

    # the secant steps aim at the root of g's slope
    try:
        _log_root(evaluate, a, lambda lo, hi: (-lo, -hi))
    except ArithmeticError:
        pass
    if best is None:
        raise ValueError(
            f"power-control cell (q1={q1}, q2={q2}): the dual found no contact points "
            f"whose hull holds q"
        )
    if not best.value > fq:
        raise ValueError(
            f"power-control cell (q1={q1}, q2={q2}): a point lies above the tangent plane, "
            f"but g1 - f1 is below f1's rounding (the dual's value {best.value!r}, "
            f"f1 = {fq!r})"
        )
    return best


def power_control_value(q1: float, q2: float, params: HKParams) -> float:
    """g1(q1, q2): least concave majorant of f1 evaluated at (q1, q2), the
    lower end of the dual bracket of ``power_control_cell``."""
    return power_control_cell(q1, q2, params).g1


# ----------------------------------------------------------------------
# Maximizer-variance bound checks
# ----------------------------------------------------------------------


def variance_bound_holds(K: float, N1: float, u: float) -> bool:
    """Exact K + N1 <= 1 + sqrt(1+u): x - 1 = s/(b d) <= 0 or (x-1)^2 <= 1+u."""
    if not all(map(math.isfinite, (K, N1, u))):
        raise ValueError(f"K, N1 and u must be finite, got K={K}, N1={N1}, u={u}")
    (a, b), (c, d), (e, f) = (float(v).as_integer_ratio() for v in (K, N1, u))
    s = a * d + c * b - b * d
    return s <= 0 or s * s * f <= (f + e) * (b * d) ** 2


class MaximizerBoundResult(NamedTuple):
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
    kthr = hs.gauss_argmax(Lv, u, N1, u)
    case = 3 if Jv == kthr else 1 if Jv > kthr else 2
    K = hs.capped_gauss_objective(Jv, Lv, u, N1, u)[1]
    return MaximizerBoundResult(
        K=K, bound_holds=variance_bound_holds(K, N1, u), case=case, bound=1.0 + math.sqrt(1.0 + u)
    )


# ----------------------------------------------------------------------
# Audits
# ----------------------------------------------------------------------


class AuditRecord(NamedTuple):
    q1: float
    q2: float
    applicable: bool
    max_eigenvalue: float
    bound_holds: bool
    case: int


class AuditReport(NamedTuple):
    records: tuple[AuditRecord, ...]
    applicable: int
    violations: int
    bound: float


def eigenvalue_bound_audit(d: int, params: HKParams, samples: int, rng) -> AuditReport:
    """Random audit of the maximizer-eigenvalue bound 1 + sqrt(1+u) - N1.

    ``rng`` draws ``uniform(low, high)`` (``_util.rng_for``); each power is
    exp of a uniform draw on [ln AUDIT_Q_LOW, ln AUDIT_Q_HIGH].
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
    low, high = math.log(AUDIT_Q_LOW), math.log(AUDIT_Q_HIGH)
    records = []
    violations = 0
    applicable = 0
    for _ in range(samples):
        a = math.exp(rng.uniform(low, high))
        b = math.exp(rng.uniform(low, high))
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
# Power-control footprint map
# ----------------------------------------------------------------------


class PowerControlCell(NamedTuple):
    u: float
    q1: float
    q2: float
    f1: float
    g1: float
    f1_eq_g1: bool
    stationary_K: float
    bracket: PowerControlBracket


def power_control_cell(q1: float, q2: float, params: HKParams) -> PowerControlCell:
    """f1, g1 and the f1 = g1 verdict of one cell q1 > 0, q2 >= 0, with the
    capped argmax K at the f1-optimal matrices and g1's dual bracket.

    The one entry from a cell to g1: g1 is the lower end of the Fenchel
    dual's bracket (``_bracket``), never below f1; f1 = g1 is decided by
    ``tangent_witness``, and where it finds no witness (on the q2 = 0
    axis among others) g1 = f1.  A cell whose f1 log argument
    q1 + q2 + N1 + u is not finite is rejected (ValueError).
    """
    if not (q1 > 0 and q2 >= 0):
        raise ValueError(f"power-control cells need q1 > 0 and q2 >= 0, got ({q1}, {q2})")
    u, N1 = params.u, params.N1
    if not math.isfinite(q1 + q2 + N1 + u):
        raise ValueError(
            f"power-control cell (q1={q1}, q2={q2}) too large: its f1 log argument "
            f"q1+q2+N1+u is not finite"
        )
    res = fixed_power_value(q1, q2, params)
    witness = tangent_witness(q1, q2, params)
    bracket = _bracket(q1, q2, u, N1, witness)
    return PowerControlCell(
        u=u,
        q1=q1,
        q2=q2,
        f1=res.value,
        g1=bracket.value,
        f1_eq_g1=witness is None,
        stationary_K=res.K,
        bracket=bracket,
    )


def power_control_map(
    u_grid: Iterable[float], q_grid: Iterable[float], params: HKParams
) -> list[PowerControlCell]:
    """``power_control_cell`` over every (u, q1, q2) of the sorted grids,
    with params.u replaced by each u in a new, checked HKParams.  Points
    with q1 <= 0 are dropped, so
    one grid holding 0 gives the q2 = 0 column without a q1 = 0 row."""
    qs = sorted(float(q) for q in q_grid)
    return [
        power_control_cell(q1, q2, HKParams(u, params.N1))
        for u in sorted(float(x) for x in u_grid)
        for q1 in qs
        if q1 > 0
        for q2 in qs
    ]
