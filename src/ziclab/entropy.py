"""High-accuracy differential entropy, Fisher information, and small-t
expansion coefficients for one-dimensional densities.

Densities are tabulated on uniform grids, and every integral is the
composite trapezoid sum on the grid alone.  The trapezoid rule converges
super-algebraically for smooth rapidly-decaying integrands, so on a
mixture's +-12 sigma window (``window()``, which reaches 12 sd past every
component) the quadrature error sits at machine precision.  Nothing is
added for the tails beyond the window: past 12 sd a unit-weight Gaussian
keeps mass Q(12) = 1.8e-33 and second-moment tail 2.6e-31, so the
omitted entropy and Fisher terms lie far below one ulp of any value
reported here.

This module is the independent oracle for every closed form downstream:
nothing here reuses the exact mixture algebra except to evaluate pointwise
densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .gaussmix import GaussDerivMixture, GaussMixture

Mixture = Union[GaussDerivMixture, GaussMixture]

_TINY = 1e-300
_NEG_TOL = -1e-12
_MASS_TOL = 1e-7


class NonNormalizedError(ValueError):
    """Grid density mass deviates from 1 beyond tolerance."""


class NegativeDensityError(ValueError):
    """Density negative beyond -1e-12 somewhere on the grid."""


@dataclass(frozen=True)
class GridDensity:
    """Tabulated nonnegative density on a uniform grid."""

    lo: float
    hi: float
    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.n < 2 or len(vals) != self.n:
            raise ValueError("values length must equal n >= 2")
        if not self.hi > self.lo:
            raise ValueError("need hi > lo")
        if vals.min() < _NEG_TOL:
            raise NegativeDensityError(
                f"density reaches {vals.min():.3e} < -1e-12 on the grid"
            )
        vals = np.clip(vals, 0.0, None)
        object.__setattr__(self, "values", vals)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def integral(self, integrand: np.ndarray) -> float:
        """Trapezoid integral of ``integrand`` tabulated on this grid.

        ``np.trapezoid``'s expression d * (y[1:] + y[:-1]) / 2.0, summed,
        built in one buffer.
        """
        y = np.asarray(integrand, dtype=float)
        buf = np.add(y[1:], y[:-1])
        buf *= self.step
        buf /= 2.0
        return float(buf.sum())

    def mass(self) -> float:
        return self.integral(self.values)

    def check_normalized(self, what: str) -> None:
        """Entropy and Fisher precondition: n >= 1024, unit mass within 1e-7."""
        if self.n < 1024:
            raise ValueError(f"{what} evaluation requires n >= 1024")
        mass = self.mass()
        if abs(mass - 1.0) > _MASS_TOL:
            raise NonNormalizedError(f"density mass {mass} deviates from 1 beyond 1e-7")


def mixtures_to_grids(
    ms: Sequence[Mixture], lo: float, hi: float, n: int
) -> Iterator[GridDensity]:
    """Tabulate mixtures of one family on n points over [lo, hi], yielding
    their GridDensity in order.

    One ``pdf_many`` call tabulates them all, so a term several mixtures
    hold is evaluated once, and each density has the bits it has alone.
    Each GridDensity is built when it is reached.  It raises
    NegativeDensityError when the density dips below -1e-12 anywhere on
    the grid, which signals a perturbation amplitude too large for
    pointwise positivity.
    """
    values = type(ms[0]).pdf_many(ms, np.linspace(lo, hi, n))
    values.reverse()
    while values:
        yield GridDensity(lo, hi, n, values.pop())


def mixture_to_grid(m: Mixture, lo: float, hi: float, n: int) -> GridDensity:
    """Tabulate a mixture density on n points over [lo, hi]."""
    return next(mixtures_to_grids((m,), lo, hi, n))


def grids_from_mixtures(ms: Sequence[Mixture], n: int = 8192) -> Iterator[GridDensity]:
    """Each mixture tabulated on n points over its own window(), in order.

    Mixtures of one family with equal windows are tabulated together by
    ``mixtures_to_grids`` when the first of them is reached, so each grid is
    the one the mixture gets alone.  The rest of such a group waits for its
    turn: listing a group's members together keeps one group in memory.
    """
    pending: dict[int, Iterator[GridDensity]] = {}
    for i, m in enumerate(ms):
        if i not in pending:
            window = m.window()
            group = [
                j for j in range(i, len(ms))
                if type(ms[j]) is type(m) and ms[j].window() == window
            ]
            grids = mixtures_to_grids([ms[j] for j in group], *window, n)
            pending.update((j, grids) for j in group)
        yield next(pending.pop(i))


def _zero_below_tiny(integrand: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Zero ``integrand`` in place where not vals > 1e-300, NaN included, as
    np.where(vals > 1e-300, integrand, 0.0) would."""
    below = vals > _TINY
    np.logical_not(below, out=below)
    np.copyto(integrand, 0.0, where=below)
    return integrand


def differential_entropy(p: GridDensity) -> float:
    """-int p ln p by the composite trapezoid rule on the grid.

    Points with p < 1e-300 are excluded from the log (their contribution is
    analytically below any tolerance used here).
    """
    p.check_normalized("entropy")
    vals = p.values
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.log(vals)
        integrand *= vals
    np.negative(integrand, out=integrand)
    return p.integral(_zero_below_tiny(integrand, vals))


def fisher_information(p: GridDensity) -> float:
    """int (p')^2 / p with p' from central differences on the grid."""
    p.check_normalized("fisher")
    vals = p.values
    integrand = np.gradient(vals, p.step)
    integrand *= integrand
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        integrand /= vals
    return p.integral(_zero_below_tiny(integrand, vals))


def mixture_entropies(ms: Sequence[Mixture], n: int = 8192) -> list[float]:
    """Entropy of each mixture via tabulation on its natural window;
    mixtures that share a window share one tabulation (grids_from_mixtures)."""
    return [differential_entropy(g) for g in grids_from_mixtures(ms, n=n)]


def mixture_entropy(m: Mixture, n: int = 8192) -> float:
    """Entropy of a mixture via tabulation on its natural window."""
    return mixture_entropies((m,), n=n)[0]


def gaussian_entropy(variance: float) -> float:
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def log_weighted_deriv_integral(p: GaussMixture, k: int) -> float:
    """Quadrature of int p^{(k)}(x) ln p(x) dx for a location mixture, on
    32768 points over the +-14 sigma window.

    The k-th derivative is evaluated exactly per component; only the log
    weight comes from the tabulated density.
    """
    x = np.linspace(*p.window(14.0), 32768)
    vals = p.pdf(x)
    dk = p.pdf_deriv(x, k)
    ok = vals > _TINY
    integrand = np.where(ok, dk * np.log(np.where(ok, vals, 1.0)), 0.0)
    return float(np.trapezoid(integrand, x))


def smoothing_curve(
    p: GaussMixture,
    q: GaussMixture,
    t_grid: np.ndarray,
    n: int = 8192,
) -> np.ndarray:
    """Rows (t, h(p_t) - h(p)) for the smoothing p_t(y) = int p(y + sqrt(t) u) q(u) du.

    The kernel enters reflected (equivalently, p_t is the law of
    X - sqrt(t) U): under this convention the half-power coefficient is
    m3(q) * (-1/6 int p''' ln p); plain convolution would flip its sign for
    skewed kernels.  For symmetric q the two conventions coincide.

    Each p_t is an exact mixture from the convolution algebra.  All
    entropies share one grid so quadrature wiggle cancels in the
    difference.
    """
    t = np.asarray(t_grid, dtype=float)
    for end in (t.min(), t.max()):
        check_smoothing_t(end)
    qm = q.moments(3)
    if abs(q.mass - 1.0) > 1e-9:
        raise ValueError("q must have unit mass")
    if abs(qm[0]) > 1e-9:
        raise ValueError("q must be centered (m1 = 0)")
    t = np.sort(t)
    smoothed = [p.convolve(q.scaled(math.sqrt(ti)).reflected()) for ti in t]
    lo0, hi0 = p.window()
    lo1, hi1 = smoothed[-1].window()
    lo, hi = min(lo0, lo1), max(hi0, hi1)
    h0 = differential_entropy(mixture_to_grid(p, lo, hi, n))
    dh = np.array(
        [
            differential_entropy(mixture_to_grid(s, lo, hi, n)) - h0
            for s in smoothed
        ]
    )
    return np.column_stack([t, dh])


def check_smoothing_t(t: float) -> None:
    """Reject a t outside (0, 0.1], the small-t range (ValueError)."""
    if not 0 < t <= 0.1:
        raise ValueError(f"t values must lie in (0, 0.1], got {t}")


def check_expansion_count(count: int) -> None:
    """Reject fewer than 6 t values: 4 fit columns, 2 for the residual slope."""
    if count < 6:
        raise ValueError(f"need at least 6 t values, got {count}")


def check_fit_t(t: np.ndarray, powers: tuple[float, ...]) -> None:
    """Reject t values the fit in the basis {t^p for p in powers} cannot
    use (ValueError): fewer distinct values than columns, or a column whose
    norm, which scales it, is not finite and positive."""
    t = np.asarray(t, dtype=float)
    distinct = len(set(t.tolist()))
    if distinct < len(powers):
        raise ValueError(
            f"t values must take at least {len(powers)} distinct values "
            f"for the fit in t^p, p in {powers}, got {distinct}"
        )
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(np.stack([t**p for p in powers], axis=1), axis=0)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise ValueError(
            f"t values must keep every fit column t^p, p in {powers}, finite "
            f"and nonzero, got t from {t.min()} to {t.max()}"
        )


def power_fit(t: np.ndarray, y: np.ndarray, powers: tuple[float, ...]) -> np.ndarray:
    """Least-squares coefficients of y in the basis {t^p for p in powers},
    solved with each column scaled to unit norm (check_fit_t's t only)."""
    check_fit_t(t, powers)
    basis = np.stack([t**p for p in powers], axis=1)
    scale = np.linalg.norm(basis, axis=0)
    coef, *_ = np.linalg.lstsq(basis / scale, y, rcond=None)
    return coef / scale


# the small-t expansion's fit columns: c1, c15 and two that absorb the tail
EXPANSION_POWERS = (1, 1.5, 2, 2.5)


def fit_expansion(t: np.ndarray, dh: np.ndarray) -> tuple[float, float, float]:
    """(c1, c15, residual log-log slope) of dh in {t, t^1.5, t^2, t^2.5}."""
    coef = power_fit(t, dh, EXPANSION_POWERS)
    resid = dh - coef[0] * t - coef[1] * t**1.5
    ok = np.abs(resid) > 1e-14
    if ok.sum() >= 2:
        slope = float(np.polyfit(np.log(t[ok]), np.log(np.abs(resid[ok])), 1)[0])
    else:
        slope = 2.0  # residual at noise floor: expansion exact to this order
    return float(coef[0]), float(coef[1]), slope


def expansion_targets(p: GaussMixture, q: Mixture) -> tuple[float, float]:
    """Quadrature targets: c1 = m2(q) * (-1/2 int p'' ln p),
    c15 = m3(q) * (-1/6 int p''' ln p)."""
    m = q.moments(3)
    i2 = log_weighted_deriv_integral(p, 2)
    i3 = log_weighted_deriv_integral(p, 3)
    return float(m[1] * (-0.5 * i2)), float(m[2] * (-i3 / 6.0))
