"""Independent oracles for the reports of the `ziclab` commands the
benchmark runs.

Nothing here imports `ziclab`.  Every check recomputes a reported number
from its closed form or from the benchmark's own quadrature, with the
derivation in the docstring, and none compares against a stored copy of an
earlier report.  `check_report(argv, text)` is the entry point: it returns
a list of `Check` tuples for one command's report.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

SQRT2PI = math.sqrt(2.0 * math.pi)

# default skew recipe of the lemma commands (README "verify-lemma1/2"):
# base p and interferer q as (weights, means, variances)
RECIPE_P = ((0.8, 0.2), (0.3, -1.2), (0.25, 0.25))
RECIPE_Q = ((0.95, 0.05), (0.15, -2.85), (0.05, 0.05))

# a two-point power randomization must not beat f1 by more than this on a
# cell the program reports as f1 = g1 or as applicable
RANDOMIZATION_TOL = 1e-6


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _agree(name: str, got: float, want: float, tol: float) -> Check:
    return Check(
        name, _close(got, want, tol), f"report {got!r} vs oracle {want!r} (tol {tol:g})"
    )


# ----------------------------------------------------------------------
# Argument parsing shared by the checks
# ----------------------------------------------------------------------


def sweep_values(text: str) -> list[float]:
    """The CLI's sweep syntax: 'lo:hi:step', a comma list, or one number.

    A range holds lo + i*step for i = 0 .. floor((hi-lo)/step), with a 1e-9
    allowance so that the end point survives rounding.
    """
    if ":" in text:
        lo, hi, step = (float(p) for p in text.split(":"))
        n = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return [lo + i * step for i in range(n)]
    if "," in text:
        return [float(p) for p in text.split(",") if p.strip()]
    return [float(text)]


def _option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


# ----------------------------------------------------------------------
# Gaussian derivatives by the Hermite recurrence
# ----------------------------------------------------------------------


def hermite_e(n: int, z: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite polynomial He_n(z) by the three-term
    recurrence He_{k+1} = z He_k - k He_{k-1} (the program expands the same
    polynomials in monomials, so this is a separate route)."""
    prev, cur = np.ones_like(z), z
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, z * cur - k * prev
    return cur


def gauss_deriv(x: np.ndarray, variance: float, n: int) -> np.ndarray:
    """D^n gamma_v(x) = (-1)^n v^{-n/2} He_n(x/sqrt v) gamma_v(x)
    (Rodrigues' formula for He_n)."""
    s = math.sqrt(variance)
    g = np.exp(-x * x / (2.0 * variance)) / (SQRT2PI * s)
    return (-1) ** n * hermite_e(n, x / s) * g / s**n


def _mixture_deriv(x: np.ndarray, mix, n: int) -> np.ndarray:
    out = np.zeros_like(x)
    for w, mu, v in zip(*mix):
        out += w * gauss_deriv(x - mu, v, n)
    return out


def _mixture_moment(mix, k: int) -> float:
    """E[X^k] of a location mixture; only k = 2, 3 are needed:
    E[(mu+Z)^2] = mu^2 + v and E[(mu+Z)^3] = mu^3 + 3 mu v."""
    w, mu, v = (np.asarray(a, dtype=float) for a in mix)
    per = {2: mu**2 + v, 3: mu**3 + 3.0 * mu * v}[k]
    return float(np.sum(w * per) / np.sum(w))


def _mixture_grid(mix, n: int = 200001, width: float = 14.0) -> np.ndarray:
    r = width * math.sqrt(max(mix[2]))
    return np.linspace(min(mix[1]) - r, max(mix[1]) + r, n)


def expansion_coefficients(p=RECIPE_P, q=RECIPE_Q) -> tuple[float, float]:
    """(c1, c15) of h(p_t) - h(p) = c1 t + c15 t^{3/2} + O(t^2).

    Smoothing p by the reflected kernel sqrt(t) q and expanding the
    entropy gives c1 = m2(q) * J(p) / 2 with the Fisher information
    J(p) = int p'^2/p (de Bruijn's identity), and
    c15 = m3(q) * (-1/6 int p''' ln p).  The program computes c1 as
    m2 * (-1/2 int p'' ln p); integrating by parts once turns that into
    J(p)/2, so the two routes share no quadrature.
    """
    x = _mixture_grid(p)
    p0 = _mixture_deriv(x, p, 0)
    p1 = _mixture_deriv(x, p, 1)
    p3 = _mixture_deriv(x, p, 3)
    ok = p0 > 1e-300
    fisher = float(np.trapezoid(np.where(ok, p1 * p1 / np.where(ok, p0, 1.0), 0.0), x))
    i3 = float(np.trapezoid(np.where(ok, p3 * np.log(np.where(ok, p0, 1.0)), 0.0), x))
    return _mixture_moment(q, 2) * fisher / 2.0, _mixture_moment(q, 3) * (-i3 / 6.0)


def _weighted_norm(order: int, v: float, base: float) -> float:
    """int (D^order gamma_v)^2 / gamma_base by the trapezoid rule (v < 2 base,
    so the integrand decays like a Gaussian of variance v base/(2 base - v))."""
    r = 16.0 * math.sqrt(v * base / (2.0 * base - v))
    x = np.linspace(-r, r, 40001)
    d = gauss_deriv(x, v, order)
    return float(np.trapezoid(d * d / gauss_deriv(x, base, 0), x))


def norm_balance(K: float, u: float, delta: float) -> float:
    """Derivative-norm balance
    B = -int (D^3 gamma_{K-delta})^2/gamma_K
        + (1+u) int (D^3 gamma_{K+u-delta})^2/gamma_{K+u}.

    At delta = 0 it is -3!/K^3 + 3!(1+u)/(K+u)^3 (Hermite norms), which
    vanishes at K = u/((1+u)^{1/3} - 1)."""
    return -_weighted_norm(3, K - delta, K) + (1.0 + u) * _weighted_norm(
        3, K + u - delta, K + u
    )


def stability_threshold(u: float) -> float:
    """Root of the delta = 0 balance: (K+u)^3 = (1+u) K^3, i.e.
    K = u/((1+u)^{1/3} - 1)."""
    return u / ((1.0 + u) ** (1.0 / 3.0) - 1.0)


def classify(K: float, u: float) -> str:
    """Stable below the threshold, unstable above it; within 1e-9 of it
    (the CLI's stated critical band) the point is critical."""
    thr = stability_threshold(u)
    if abs(K - thr) < 1e-9:
        return "critical"
    return "stable" if K < thr else "unstable"


def gaussian_entropy(v: float) -> float:
    return 0.5 * math.log(2.0 * math.pi * math.e * v)


def limit_coefficient(K: float, delta: float) -> float:
    """eps^2 coefficient of h(X+Y) - h(X) - J(X)/2 for X = gamma_K + eps q,
    q = -D^3 gamma_{K-delta}, with the budget-neutral partner Y that keeps
    h(X+Y) fixed to O(eps^{2(J+1)}).

    With p = gamma_K: -h(p + eps q) contributes +eps^2/2 int q^2/p (the
    first-order term int q ln p vanishes because int q x^2 = 0), and
    -J(p + eps q)/2 contributes -eps^2/2 int p ((q/p)')^2.  Using
    p'/p = -x/K, p ((q/p)')^2 = (q' + x q/K)^2 / p.
    """
    r = 16.0 * math.sqrt(K)
    x = np.linspace(-r, r, 80001)
    p = gauss_deriv(x, K, 0)
    q = -gauss_deriv(x, K - delta, 3)
    dq = -gauss_deriv(x, K - delta, 4)
    return 0.5 * float(np.trapezoid(q * q / p, x)) - 0.5 * float(
        np.trapezoid((dq + x * q / K) ** 2 / p, x)
    )


# ----------------------------------------------------------------------
# Han-Kobayashi quantities
# ----------------------------------------------------------------------


def f1_closed(q1, q2, u: float, N1: float):
    """Fixed-power value f1(q1, q2) = ln(q1+N1+u+q2) + psi(min(q1, K*(q2)), q2).

    psi(K, L) = u ln(K+N1+u+L) + ln(K+N1) - (u+1) ln(K+N1+u) increases in L
    for every K, so sup_{K<=J} psi is nondecreasing in J and L, and
    ln(J+N1+u+L) increases strictly in both: the supremum over J <= q1,
    L <= q2 sits at the corner (q1, q2).  In K, psi is maximized at
    K*(L) = (u+L)/(L-1) - N1 for L > 1 (clipped at 0) and increases
    without bound for L <= 1.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        kstar = np.where(q2 > 1.0, (u + q2) / np.where(q2 > 1.0, q2 - 1.0, 1.0) - N1, np.inf)
        k = np.minimum(q1, np.maximum(kstar, 0.0))
        x = k + N1
        out = (
            np.log(q1 + N1 + u + q2)
            + u * np.log(x + u + q2)
            + np.log(x)
            - (u + 1.0) * np.log(x + u)
        )
    return np.where(x > 0.0, out, -np.inf)


def capped_argmax(J: float, L: float, u: float, N1: float) -> float:
    """argmax of psi(K, L) over 0 <= K <= J: min(J, K*(L)) clipped at 0."""
    if L > 1.0:
        return min(J, max((u + L) / (L - 1.0) - N1, 0.0))
    return J


class Randomization(NamedTuple):
    gain: float
    weight: float
    a: tuple[float, float]
    b: tuple[float, float]


def best_two_point(q1: float, q2: float, u: float, N1: float) -> Randomization:
    """Best two-point power randomization at q found by search.

    Power control may split time between powers a and b with
    lambda a + (1-lambda) b = q, earning lambda f1(a) + (1-lambda) f1(b).
    g1(q) is the supremum over splits into at most three points
    (Caratheodory), so any two-point split bounds g1(q) from below.  The
    gain over f1(q) is searched over chords
    a = q + s d, b = q - t d in the box [0, 16 max(q1, q2, 1)]^2: a grid of
    180 directions d and 32 relative lengths each for s and t (the grid
    includes the box boundary, where support points often sit), then a
    shrinking local grid around the three best directions.  A positive gain
    is a certificate that g1(q) > f1(q): the chord is explicit.
    """
    f = lambda a1, a2: f1_closed(a1, a2, u, N1)  # noqa: E731
    fq = float(f(q1, q2))
    width = 16.0 * max(q1, q2, 1.0)
    theta = np.arange(180) * (2.0 * math.pi / 180.0)
    frac = np.concatenate([np.geomspace(1e-4, 1.0, 31), [0.0]])

    def chord(th, sf, tf):
        d1, d2 = np.cos(th), np.sin(th)
        d1 = np.where(np.abs(d1) < 1e-12, 0.0, d1)
        d2 = np.where(np.abs(d2) < 1e-12, 0.0, d2)
        smax = np.minimum(_reach(q1, d1, width), _reach(q2, d2, width))
        tmax = np.minimum(_reach(q1, -d1, width), _reach(q2, -d2, width))
        s, t = smax * sf, tmax * tf
        a1, a2 = q1 + s * d1, q2 + s * d2
        b1, b2 = q1 - t * d1, q2 - t * d2
        with np.errstate(invalid="ignore", divide="ignore"):
            val = (t * f(np.maximum(a1, 0.0), np.maximum(a2, 0.0))
                   + s * f(np.maximum(b1, 0.0), np.maximum(b2, 0.0))) / (s + t)
        val = np.where(s + t > 0, val, fq)
        return np.where(np.isfinite(val), val, -np.inf) - fq, (a1, a2, b1, b2, s, t)

    th = theta[:, None, None]
    gain, _ = chord(th, frac[None, :, None], frac[None, None, :])
    per_dir = gain.reshape(len(theta), -1).max(axis=1)
    best = Randomization(0.0, 1.0, (q1, q2), (q1, q2))
    for i in np.argsort(-per_dir, kind="stable")[:3]:
        j, k = np.unravel_index(int(np.argmax(gain[i])), gain[i].shape)
        c = np.array([theta[i], frac[j], frac[k]])
        h = np.array([2.0 * math.pi / 180.0, 0.3, 0.3])
        step = np.linspace(-1.0, 1.0, 9)
        for _ in range(20):
            g0 = c[0] + h[0] * step[:, None, None]
            g1 = np.clip(c[1] + h[1] * step[None, :, None], 0.0, 1.0)
            g2 = np.clip(c[2] + h[2] * step[None, None, :], 0.0, 1.0)
            g, _ = chord(g0, g1, g2)
            a, b, e = np.unravel_index(int(np.argmax(g)), g.shape)
            c = np.array([g0[a, 0, 0], g1[0, b, 0], g2[0, 0, e]])
            h = h / 3.0
        g, (a1, a2, b1, b2, s, t) = chord(*c)
        if float(g) > best.gain:
            lam = float(t / (s + t))
            best = Randomization(float(g), lam, (float(a1), float(a2)), (float(b1), float(b2)))
    return best


def _reach(q: float, d, width: float):
    """Largest step along d keeping the coordinate q + step*d in [0, width]."""
    with np.errstate(divide="ignore"):
        return np.where(d > 0, (width - q) / np.where(d > 0, d, 1.0),
                        np.where(d < 0, q / np.where(d < 0, -d, 1.0), np.inf))


def _randomization_check(label: str, q1: float, q2: float, u: float, N1: float) -> Check:
    r = best_two_point(q1, q2, u, N1)
    detail = (
        f"best two-point split gains {r.gain:.3e} over f1"
        f" (weight {r.weight:.4f} at ({r.a[0]:.5f}, {r.a[1]:.5f}),"
        f" weight {1.0 - r.weight:.4f} at ({r.b[0]:.5f}, {r.b[1]:.5f}))"
    )
    return Check(f"no_randomization_beats_f1{label}", r.gain <= RANDOMIZATION_TOL, detail)


# ----------------------------------------------------------------------
# Per-subcommand checks
# ----------------------------------------------------------------------


def check_condition54_root(argv, rep) -> list[Check]:
    """Bisection root against the closed-form threshold u/((1+u)^{1/3}-1)."""
    tol = rep["config"]["tolerance"]
    return [
        Check(
            f"root_u={r['u']:g}",
            abs(r["root"] - stability_threshold(r["u"])) <= tol,
            f"root {r['root']!r} vs threshold {stability_threshold(r['u'])!r}",
        )
        for r in rep["results"]
    ]


def check_phase_diagram(argv, text: str) -> list[Check]:
    """Every (u, L) row: K = (L+u)/(L-1), the stationary source variance, and
    the class from the threshold; rows in sorted-u, then sorted-L order."""
    rows = list(csv.DictReader(io.StringIO(text)))
    us = sorted(sweep_values(_option(argv, "--u")))
    ls = sorted(sweep_values(_option(argv, "--L")))
    want = [(u, L) for u in us for L in ls]
    checks = [Check("row_count", len(rows) == len(want), f"{len(rows)} rows, want {len(want)}")]
    bad = []
    for row, (u, L) in zip(rows, want):
        K = (L + u) / (L - 1.0)
        ok = (
            _close(float(row["u"]), u, 1e-12)
            and _close(float(row["L"]), L, 1e-12)
            and _close(float(row["K"]), K, 1e-12)
            and row["classification"] == classify(K, u)
        )
        if not ok:
            bad.append(row)
    checks.append(Check("rows_match_threshold", not bad, f"{len(bad)} rows disagree {bad[:2]}"))
    return checks


def _hermite_orders(text: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for piece in filter(None, text.split(",")):
        a, c = piece.split(":")
        out[int(a)] = float(c)
    return out


def check_hessian(argv, rep) -> list[Check]:
    """Per-order Hessian ledger at the stationary point K = (L+u)/(L-1).

    With M = K+u+L: I_1 = A_1^2 (-2u/M^2 - 2/K^2 + 2(1+u)/(K+u)^2), and for
    alpha >= 2, I_alpha = (alpha+1)! [-u (A+B)^2/M^{alpha+1} - A^2/K^{alpha+1}
    + (1+u) A^2/(K+u)^{alpha+1}] from the Hermite norms k!/K^k of the three
    entropy terms (the output term sees the sum of both perturbations).
    """
    cfg = rep["config"]
    u, L = cfg["u"], cfg["L"]
    K = (L + u) / (L - 1.0)
    M = K + u + L
    A, B = _hermite_orders(cfg["A"]), _hermite_orders(cfg["B"])
    want = {}
    if A.get(1, 0.0):
        want[1] = A[1] ** 2 * (-2.0 * u / M**2 - 2.0 / K**2 + 2.0 * (1.0 + u) / (K + u) ** 2)
    for a in sorted(o for o in {*A, *B} if o >= 2):
        x, y = A.get(a, 0.0), B.get(a, 0.0)
        want[a] = math.factorial(a + 1) * (
            -u * (x + y) ** 2 / M ** (a + 1)
            - x * x / K ** (a + 1)
            + (1.0 + u) * x * x / (K + u) ** (a + 1)
        )
    *ledger, summary = rep["results"]
    got = {r["alpha"]: r["I_alpha"] for r in ledger}
    checks = [Check("ledger_orders", sorted(got) == sorted(want), f"{sorted(got)}")]
    checks += [_agree(f"I_{a}", got.get(a, math.nan), v, 1e-12) for a, v in want.items()]
    checks += [
        _agree("total", summary["total"], sum(want.values()), 1e-12),
        _agree("K", summary["K"], K, 1e-14),
        _agree("threshold", summary["threshold"], stability_threshold(u), 1e-14),
        Check("classification", summary["classification"] == classify(K, u), summary["classification"]),
    ]
    return checks


def check_theorem5(argv, rep) -> list[Check]:
    """Local-optimality radius at K = (L+u)/(L-1) per diagonal entry.

    eps2 solves (1-eps)/(1+eps) = (1+u) (kmax/(kmax+u))^3, computed here in
    exact rational arithmetic (at u = 1, L = 3, 4: kmax = 2, ratio 16/27,
    eps2 = 11/43).  eps1 must solve (1+eps)^2/(1-eps) = rho for the
    reported Rayleigh minimum rho, and eps = min(eps1, eps2).
    """
    cfg = rep["config"]
    u = Fraction(cfg["u"])
    ks = [(Fraction(L) + u) / (Fraction(L) - 1) for L in cfg["L"]]
    kmax = max(ks)
    ratio = (1 + u) * (kmax / (kmax + u)) ** 3
    eps2 = (1 - ratio) / (1 + ratio)
    r = rep["results"][0]
    rho, eps1 = r["rayleigh_min"], r["eps1"]
    return [
        _agree("eps2", r["eps2"], float(eps2), 1e-15),
        Check("K", all(_close(a, float(b), 1e-15) for a, b in zip(r["K"], ks)), f"{r['K']}"),
        _agree("eps1_solves_rayleigh", (1.0 + eps1) ** 2 / (1.0 - eps1), rho, 1e-12),
        Check("eps_is_min", r["eps"] == min(eps1, r["eps2"]), f"eps {r['eps']!r}"),
    ]


def steiner_ratio(t: float, round_interferer: bool = False) -> float:
    """sqrt(area(tK+L+B) area(tK)) / area(tK+B) for K the unit square, B the
    disc of radius 1/2 and L the square of side pi/4 turned by pi/4.

    Steiner: area(C + B_r) = area(C) + r per(C) + pi r^2.  Mixed area of
    the square and L: 2 A(K, L) = sum over the edges of L of h_K(n)|e| =
    4 (pi/4)(sqrt 2/2), so area(tK+L) = t^2 + t pi sqrt2/2 + pi^2/16 and
    per(tK+L) = 4t + pi.  With the round interferer, L = B and
    tK+B+B = tK + B_1.
    """
    tk = t * t
    kb = tk + 2.0 * t + math.pi / 4.0
    if round_interferer:
        kbl = tk + 4.0 * t + math.pi
    else:
        kl = tk + t * math.pi * math.sqrt(2.0) / 2.0 + math.pi**2 / 16.0
        kbl = kl + 0.5 * (4.0 * t + math.pi) + math.pi / 4.0
    return math.sqrt(kbl * tk) / kb


STEINER_COEFFICIENT = (math.pi * math.sqrt(2.0) / 2.0 - 2.0) / 2.0
"""lim t (ratio - 1) from the expansion of steiner_ratio:
ratio = 1 + ((pi sqrt2/2 + 2)/2 - 2)/t + O(1/t^2)."""


def check_geometry(argv, rep) -> list[Check]:
    """Both ratios per t against the Steiner/mixed-area closed form (to one
    unit in the last place of a number near 1, 2.2e-16),
    and the fitted 1/t coefficient against the exact one within the
    command's stated 1%."""
    *rows, summary = rep["results"]
    ts = sweep_values(_option(argv, "--t", "10:200:10"))
    err = max(
        max(abs(r["ratio"] - steiner_ratio(r["t"])),
            abs(r["ratio_round_interferer"] - steiner_ratio(r["t"], True)))
        for r in rows
    )
    flags = all(r["ratio_gt_1"] == (steiner_ratio(r["t"]) > 1.0) for r in rows)
    return [
        Check("t_grid", [r["t"] for r in rows] == ts, f"{len(rows)} rows"),
        Check("ratios_match_steiner", err <= 2.0**-52, f"max abs error {err:.2e}"),
        Check("ratio_gt_1_flags", flags, "flag equals ratio > 1"),
        _agree("exact_coefficient", summary["exact_coefficient"], STEINER_COEFFICIENT, 1e-15),
        Check(
            "fitted_coefficient",
            abs(summary["fitted_inverse_t_coefficient"] - STEINER_COEFFICIENT)
            <= 0.01 * abs(STEINER_COEFFICIENT),
            f"fit {summary['fitted_inverse_t_coefficient']!r}",
        ),
    ]


def _recipe_checks(cfg) -> list[Check]:
    got_p = (tuple(cfg["p_weights"]), tuple(cfg["p_means"]), tuple(cfg["p_variances"]))
    got_q = (tuple(cfg["q_weights"]), tuple(cfg["q_means"]), tuple(cfg["q_variances"]))
    return [Check("recipe", got_p == RECIPE_P and got_q == RECIPE_Q, "default skew recipe")]


def check_verify_lemma1(argv, rep) -> list[Check]:
    """Quadrature targets against c1 = m2(q) J(p)/2 and
    c15 = m3(q) (-1/6 int p''' ln p); the fitted coefficients within the
    command's own relative tolerances of those."""
    cfg = rep["config"]
    c1, c15 = expansion_coefficients()
    s = rep["results"][-1]
    return _recipe_checks(cfg) + [
        _agree("c1_quadrature", s["c1_quadrature"], c1, 1e-8),
        _agree("c15_quadrature", s["c15_quadrature"], c15, 1e-8),
        Check("c1_fit", abs(s["c1"] - c1) <= cfg["c1_tol"] * abs(c1), f"fit {s['c1']!r} vs {c1!r}"),
        Check("c15_fit", abs(s["c15"] - c15) <= cfg["c15_tol"] * abs(c15), f"fit {s['c15']!r} vs {c15!r}"),
        Check("curve_length", len(rep["results"]) == cfg["t_count"] + 1, "one row per t"),
    ]


def check_verify_lemma2(argv, rep) -> list[Check]:
    """Gap coefficient m3(q) (-1/6 int p''' ln p), the moments of q, and the
    Gaussian control: with X2 Gaussian of the same variance the gap is
    h(p * gamma_{2s}) + h(p) - 2 h(p * gamma_s), which is <= 0 because
    entropy is concave along the heat flow."""
    cfg = rep["config"]
    _, c15 = expansion_coefficients()
    *rows, s = rep["results"]
    worst = max(r["gaussian_control_gap"] for r in rows)
    checks = _recipe_checks(cfg) + [
        _agree("m2", cfg["m2"], _mixture_moment(RECIPE_Q, 2), 1e-12),
        _agree("m3", cfg["m3"], _mixture_moment(RECIPE_Q, 3), 1e-12),
        _agree("quadrature_coefficient", s["quadrature_coefficient"], c15, 1e-8),
        Check("t32_fit", abs(s["fitted_t32_coefficient"] - c15) <= 0.05 * abs(c15),
              f"fit {s['fitted_t32_coefficient']!r} vs {c15!r}"),
        Check("gaussian_control_nonpositive", worst <= 0.0, f"max control gap {worst:.3e}"),
    ]
    if cfg["N1"] == 0.0 and cfg["Sigma1"] == 0.0:
        # without noise and cost the gap starts like c15 t^{3/2} > 0
        checks.append(Check("gap_positive", all(r["gap"] > 0.0 for r in rows[:2]), "two smallest t"))
    return checks


def check_verify_vertical(argv, rep) -> list[Check]:
    """The eps^2 coefficient equals half the derivative-norm balance at
    (K, delta): the partner series keeps the output term Gaussian to
    O(eps^{J+1}), so only h(X1) and h(X1+Z2) move at second order, each by
    -eps^2/2 int (D^3 gamma)^2/gamma (agrees to 1e-6).  The Gaussian value
    is u h(K+u+L) + h(K) - (1+u) h(K+u) at K = (L+u)/(L-1)."""
    cfg = rep["config"]
    r = rep["results"][0]
    u, L, J = cfg["u"], cfg["L"], cfg["J"]
    K = (L + u) / (L - 1.0) if _option(argv, "--K") is None else cfg["K"]
    delta = min(K, L / J) / 10.0 if _option(argv, "--delta") is None else cfg["delta"]
    coeff = 0.5 * norm_balance(K, u, delta)
    ks = (L + u) / (L - 1.0)
    gval = u * gaussian_entropy(ks + u + L) + gaussian_entropy(ks) - (1.0 + u) * gaussian_entropy(ks + u)
    cls = classify(K, u)
    return [
        _agree("K", cfg["K"], K, 1e-14),
        _agree("delta", cfg["delta"], delta, 1e-14),
        Check("quadratic_coeff_is_half_balance", abs(r["quadratic_coeff"] - coeff) <= 1e-6,
              f"report {r['quadratic_coeff']!r} vs 1/2 balance {coeff!r}"),
        _agree("gaussian_value", r["gaussian_value"], gval, 1e-12),
        Check("classification", r["classification"] == cls, r["classification"]),
        Check("sign", cls == "critical" or (coeff > 0) == (cls == "unstable"),
              f"oracle coefficient {coeff:+.3e} at {cls}"),
    ]


def check_limit_functional(argv, rep) -> list[Check]:
    """Per L: K = L/(L-1), delta = min(K, L/J)/20 (the documented default),
    the eps^2 coefficient against limit_coefficient (agrees to 1e-4), its
    sign positive exactly when K > 3, and the Gaussian value
    1/2 ln((K+L)/K) - 1/(2K)."""
    J = rep["config"]["J"]
    checks = []
    for r in rep["results"]:
        L = r["L"]
        K = L / (L - 1.0)
        c = limit_coefficient(K, min(K, L / J) / 20.0)
        sign_ok = abs(K - 3.0) < 1e-9 or (c > 0) == (K > 3.0) == r["perturbation_beats_gaussian"]
        checks += [
            _agree(f"K_L={L:g}", r["K"], K, 1e-12),
            Check(f"coeff_L={L:g}", abs(r["quadratic_coeff"] - c) <= 1e-4 * max(abs(c), 1e-3),
                  f"report {r['quadratic_coeff']!r} vs oracle {c!r}"),
            Check(f"sign_L={L:g}", sign_ok, f"oracle {c:+.3e}, K {K:.6f}"),
            _agree(f"gaussian_L={L:g}", r["gaussian_value"],
                   0.5 * math.log((K + L) / K) - 1.0 / (2.0 * K), 1e-12),
        ]
    return checks


def check_constant_power_gap(argv, rep) -> list[Check]:
    """Gaussian-restricted value at the witness powers (q1, q2):
    1/2 ln((q1+q2+N1+N2)/N1) + max_{0<=K<=q1} 1/2 [u ln(x+c) + ln x - (u+1) ln(x+d)]
    with x = K+N1, c = N2+q2, d = N2.  The derivative u/(x+c) + 1/x
    - (u+1)/(x+d) has the x^2 terms cancel, leaving the single root
    x* = c d / (u c - (u+1) d); the maximum is at x* clipped to the
    interval (or at an end point)."""
    cfg = rep["config"]
    r = rep["results"][0]
    u, N1, N2 = cfg["u"], cfg["N1"], cfg["N2"]
    q1, q2 = r["q1"], r["q2"]
    c, d = N2 + q2, N2

    def env(K):
        x = K + N1
        return 0.5 * (u * math.log(x + c) + math.log(x) - (u + 1.0) * math.log(x + d))

    cands = [0.0, q1]
    den = u * c - (u + 1.0) * d
    if den > 0:
        cands.append(min(max(c * d / den - N1, 0.0), q1))
    gval = 0.5 * math.log((q1 + q2 + N1 + N2) / N1) + max(env(k) for k in cands)
    return [
        _agree("gaussian_value", r["gaussian_value"], gval, 1e-10),
        Check("witness_beats_gaussian", r["lower_witness"] - gval > 0.0,
              f"gap {r['lower_witness'] - gval:.3e}"),
    ]


def check_hk_region(argv, rep) -> list[Check]:
    """Each f1 against the corner closed form (4e-14), g1 >= f1, and no
    two-point randomization beats f1 on a cell reported as f1 = g1."""
    cfg = rep["config"]
    u, N1 = cfg["u"], cfg["N1"]
    rows = rep["results"]
    cells = [(q1, q2) for q1 in cfg["q1"] for q2 in cfg["q2"]]
    err = max(abs(r["f1"] - float(f1_closed(r["q1"], r["q2"], u, N1))) for r in rows)
    checks = [
        Check("cells", [(r["q1"], r["q2"]) for r in rows] == cells, f"{len(rows)} cells"),
        Check("f1_is_corner_value", err <= 4e-14, f"max abs error {err:.2e}"),
        Check("g1_majorizes_f1", all(r["g1"] >= r["f1"] for r in rows), "g1 >= f1"),
    ]
    checks += [
        _randomization_check(f"(q1={r['q1']:g},q2={r['q2']:g})", r["q1"], r["q2"], u, N1)
        for r in rows
        if r["f1_eq_g1"]
    ]
    return checks


def check_conjecture2_map(argv, rep) -> list[Check]:
    """Per cell: f1 against the corner closed form, g1 >= f1, the reported K
    against the capped argmax, K + N1 <= 1 + sqrt(1+u) on equality cells
    with q2 > 0, and no two-point randomization beats f1 on cells reported
    as f1 = g1 (for q2 = 0 both support points stay on the q1 axis)."""
    N1 = rep["config"]["N1"]
    rows = rep["results"]
    err = max(abs(r["f1"] - float(f1_closed(r["q1"], r["q2"], r["u"], N1))) for r in rows)
    kerr = max(abs(r["stationary_K"] - capped_argmax(r["q1"], r["q2"], r["u"], N1)) for r in rows)
    bound_bad = [
        r for r in rows
        if r["f1_eq_g1"] and r["q2"] > 0
        and capped_argmax(r["q1"], r["q2"], r["u"], N1) + N1 > 1.0 + math.sqrt(1.0 + r["u"]) + 1e-6
    ]
    checks = [
        Check("f1_is_corner_value", err <= 4e-14, f"max abs error {err:.2e}"),
        Check("g1_majorizes_f1", all(r["g1"] >= r["f1"] for r in rows), "g1 >= f1"),
        Check("stationary_K", kerr <= 1e-9, f"max abs error {kerr:.2e}"),
        Check("equal_cells_respect_bound", not bound_bad, f"{len(bound_bad)} cells"),
    ]
    checks += [
        _randomization_check(f"(u={r['u']:g},q1={r['q1']:g},q2={r['q2']:g})", r["q1"], r["q2"], r["u"], N1)
        for r in rows
        if r["f1_eq_g1"]
    ]
    return checks


def check_lemma5_audit(argv, rep) -> list[Check]:
    """Each applicable record: K recomputed from (J, L) as the capped argmax,
    K + N1 <= 1 + sqrt(1+u), and no two-point randomization beats f1 at
    (J, L), since applicable means f1 = g1 there."""
    cfg = rep["config"]
    u, N1 = cfg["u"], cfg["N1"]
    bound = 1.0 + math.sqrt(1.0 + u)
    checks = [Check("records", len(rep["results"]) == cfg["samples"], f"{len(rep['results'])} records")]
    for i, r in enumerate(rep["results"]):
        if not r["applicable"]:
            continue
        K = capped_argmax(r["J"], r["L"], u, N1)
        checks.append(Check(
            f"record_{i}_bound",
            _close(r["K"], K, 1e-12) and K + N1 <= bound + 1e-6 and r["bound_holds"],
            f"K {r['K']!r} vs {K!r}, bound {bound:.6f}",
        ))
        checks.append(_randomization_check(f"_record_{i}(J={r['J']:.5f},L={r['L']:.5f})", r["J"], r["L"], u, N1))
    return checks


def check_theorem4_audit(argv, rep) -> list[Check]:
    """Every applicable record keeps its largest eigenvalue within
    1 + sqrt(1+u) - N1 and says so."""
    cfg = rep["config"]
    bound = 1.0 + math.sqrt(1.0 + cfg["u"]) - cfg["N1"]
    bad = [r for r in rep["results"] if r["applicable"]
           and not (r["max_eigenvalue"] <= bound + 1e-6 and r["bound_holds"])]
    return [
        Check("records", len(rep["results"]) == cfg["samples"], f"{len(rep['results'])} records"),
        Check("applicable_within_bound", not bad, f"{len(bad)} records exceed {bound:.6f}"),
    ]


CHECKS: dict[str, Callable] = {
    "condition54-root": check_condition54_root,
    "hessian": check_hessian,
    "theorem5-epsilon": check_theorem5,
    "geometry": check_geometry,
    "verify-lemma1": check_verify_lemma1,
    "verify-lemma2": check_verify_lemma2,
    "verify-vertical": check_verify_vertical,
    "limit-functional": check_limit_functional,
    "constant-power-gap": check_constant_power_gap,
    "hk-region": check_hk_region,
    "conjecture2-map": check_conjecture2_map,
    "lemma5-audit": check_lemma5_audit,
    "theorem4-audit": check_theorem4_audit,
}


def check_report(argv: list[str], text: str) -> list[Check]:
    """Oracle checks for the report `text` that `ziclab <argv>` printed."""
    sub = argv[0]
    if sub == "phase-diagram":
        return check_phase_diagram(argv, text)
    rep = json.loads(text)
    checks = [Check("all_program_checks_pass", all(c["passed"] for c in rep["checks"]),
                    ", ".join(c["name"] for c in rep["checks"] if not c["passed"]))]
    return checks + CHECKS[sub](argv, rep)
