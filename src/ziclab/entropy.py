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

One blocked kernel computes every grid integral.  A pass walks the grid in
blocks of at most ``BLOCK`` trapezoid terms: it tabulates the mixtures of
one window on the block's own points (each distinct term column once),
tracks their least value for the -1e-12 check, clips, and writes the
trapezoid terms of the mass, of -p ln p and, when asked, of (p')^2/p into
rows of at most ``BLOCK`` + 1 floats.  p' is the exact derivative mixture
``m.derivative(1)``, tabulated in the same call on the same points.  Each
element goes through the ufuncs of the whole-array expressions.  The
blocks are the nodes of numpy's pairwise-sum tree over the n - 1 terms
(Higham, SISC 1993): each row's ``np.sum`` over a block is that node's
sum, and adding the block sums in the tree's order gives the bits of one
``np.sum`` over the whole term array.  So the results have the bits of
tabulating the whole grid at once (``tests/_oracles.py`` keeps that
path), a block's buffers stay in the CPU caches, and a call's memory is
O(BLOCK * laws), whatever n is.
``tests/test_grid_kernel.py::test_block_sums_follow_numpys_pairwise_tree``
pins numpy's tree, so a numpy that sums otherwise fails it.

This module is the independent oracle for every closed form downstream:
nothing here reuses the exact mixture algebra except to evaluate pointwise
densities and their first derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .gaussmix import MAX_ORDER, GaussDerivMixture

_TINY = 1e-300
_NEG_TOL = -1e-12
_MASS_TOL = 1e-7

# most trapezoid terms per block of a pass: a block's buffers of 256 KiB
# each stay in the CPU caches, where whole-grid temporaries stream through
# memory
BLOCK = 1 << 15


class NonNormalizedError(ValueError):
    """Grid density mass deviates from 1 beyond tolerance."""


class NegativeDensityError(ValueError):
    """Density negative beyond -1e-12 somewhere on the grid."""


def _check_grid(lo: float, hi: float, n: int) -> None:
    if n < 2:
        raise ValueError("values length must equal n >= 2")
    if not hi > lo:
        raise ValueError("need hi > lo")


def _check_nonnegative(low: float) -> None:
    """Reject a density whose least grid value is below -1e-12."""
    if low < _NEG_TOL:
        raise NegativeDensityError(f"density reaches {low:.3e} < -1e-12 on the grid")


def _check_normalized(n: int, mass: float, what: str) -> None:
    """Entropy and Fisher precondition: n >= 1024, unit mass within 1e-7."""
    if n < 1024:
        raise ValueError(f"{what} evaluation requires n >= 1024")
    if abs(mass - 1.0) > _MASS_TOL:
        raise NonNormalizedError(f"density mass {mass} deviates from 1 beyond 1e-7")


@dataclass(frozen=True)
class GridDensity:
    """Tabulated nonnegative density on a uniform grid."""

    lo: float
    hi: float
    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if len(vals) != self.n:
            raise ValueError("values length must equal n >= 2")
        _check_grid(self.lo, self.hi, self.n)
        _check_nonnegative(vals.min())
        vals = np.clip(vals, 0.0, None)
        object.__setattr__(self, "values", vals)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def integral(self, integrand: np.ndarray) -> float:
        """Trapezoid integral of ``integrand`` tabulated on this grid:
        ``np.trapezoid``'s expression d * (y[1:] + y[:-1]) / 2.0, summed
        block by block with the bits of one np.sum."""
        y = np.asarray(integrand, dtype=float)
        [total] = _Workspace(1, self.n).sums(
            self.n, 1, lambda a, b, terms: _trapezoid_terms(y[a : b + 1], self.step, terms[0])
        )
        return total

    def mass(self) -> float:
        return self.integral(self.values)

    def check_normalized(self, what: str) -> None:
        """Entropy precondition: n >= 1024, unit mass within 1e-7."""
        _check_normalized(self.n, self.mass(), what)


def _grid(x: np.ndarray, lo: float, hi: float, n: int, last: bool) -> np.ndarray:
    """The points of np.linspace(lo, hi, n) whose indices x holds (as
    floats), in place and bit for bit: index times (hi - lo)/(n - 1), plus
    lo, and hi at index n - 1 (``last``), with linspace's own operations
    and its path for a step that underflows to 0."""
    delta = np.subtract(hi, lo)
    step = delta / (n - 1)
    if step == 0:
        x /= n - 1
        x *= delta
    else:
        x *= step
    x += lo
    if last:
        x[-1] = hi
    return x


def _trapezoid_terms(y: np.ndarray, step: float, out: np.ndarray) -> None:
    """``np.trapezoid``'s terms step * (y[1:] + y[:-1]) / 2.0, into out."""
    np.add(y[1:], y[:-1], out=out)
    out *= step
    out /= 2.0


def _half(m: int) -> int:
    """The terms of the first child of a node of m terms in numpy's
    pairwise sum: half of m, down to a multiple of its 8-way unroll."""
    return m // 2 - (m // 2) % 8


def _spans(n: int) -> Iterator[tuple[int, int]]:
    """The blocks of a pass over n points, in order: (a, b) for the
    trapezoid terms a..b-1, which read the integrands at points a..b.

    The blocks are the nodes of numpy's pairwise-sum tree over the n - 1
    terms: a node of more than BLOCK terms splits into its first _half and
    the rest, and a node of at most BLOCK terms is a block."""
    nodes = [(0, n - 1)]
    while nodes:
        a, b = nodes.pop()
        if b - a > BLOCK:
            h = a + _half(b - a)
            nodes += [(h, b), (a, h)]
        else:
            yield a, b


def _total(m: int, sums: Iterator[np.ndarray]) -> np.ndarray:
    """np.sum over m terms, from the sums of _spans's blocks over them in
    order, added as numpy's pairwise sum adds the nodes of its tree."""
    if m <= BLOCK:
        return next(sums)
    h = _half(m)
    return _total(h, sums) + _total(m - h, sums)


class _Workspace:
    """The buffers of one call, allocated once and reused by each of its
    passes, all sized for one block's points: ``rows`` trapezoid term rows
    (one float wider than a block's terms, so that a row can first hold an
    integrand at the block's points), the point indices and points, the
    values of up to ``laws`` mixtures, two work buffers (``pdf_many``'s,
    then an integrand's) and a mask.  None grows with n beyond BLOCK, and
    reuse keeps a pass from allocating, and so from faulting in fresh
    pages, block after block."""

    def __init__(self, rows: int, n: int, laws: int = 0):
        if n < 2:
            raise ValueError("values length must equal n >= 2")
        size = min(BLOCK + 1, n)
        self.terms = np.empty((rows, size))
        self.index = np.arange(size, dtype=np.int32)  # half a float index's bytes
        self.x = np.empty(size)
        self.values = np.empty((laws, size))
        self.work = np.empty((2, size))
        self.mask = np.empty(size, dtype=bool)

    def points(self, lo: float, hi: float, n: int, start: int, stop: int) -> np.ndarray:
        """np.linspace(lo, hi, n)[start:stop], bit for bit, in the points
        buffer."""
        x = np.add(self.index[: stop - start], float(start), out=self.x[: stop - start])
        return _grid(x, lo, hi, n, stop == n)

    def sums(self, n: int, rows: int, fill: Callable[[int, int, np.ndarray], None]) -> list[float]:
        """The whole-grid sums of the first ``rows`` term rows over a pass
        on n points, where fill(a, b, terms) writes the terms of _spans's
        block (a, b) into terms[:, : b - a].  Each sum has the bits of
        np.sum over that row's n - 1 terms written at once."""
        sums = []
        for a, b in _spans(n):
            terms = self.terms[:rows, : b - a]
            fill(a, b, terms)
            sums.append(terms.sum(axis=1))
        return _total(n - 1, iter(sums)).tolist()

    def integrand_terms(self, integrand: np.ndarray, p: np.ndarray, step: float, out: np.ndarray) -> None:
        """Trapezoid terms of ``integrand`` zeroed where not p > 1e-300, NaN
        included, as np.where(p > 1e-300, integrand, 0.0) would."""
        below = np.greater(p, _TINY, out=self.mask[: len(p)])
        np.logical_not(below, out=below)
        np.copyto(integrand, 0.0, where=below)
        _trapezoid_terms(integrand, step, out)

    def entropy_terms(self, p: np.ndarray, step: float, out: np.ndarray) -> None:
        """Trapezoid terms of -p ln p at the density values p, one more than
        out holds.  Points with p < 1e-300 are excluded from the log (their
        contribution is analytically below any tolerance used here)."""
        integrand = self.work[0, : len(p)]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(p, out=integrand)
            integrand *= p
        np.negative(integrand, out=integrand)
        self.integrand_terms(integrand, p, step, out)

    def fisher_terms(self, dp: np.ndarray, p: np.ndarray, step: float, out: np.ndarray) -> None:
        """Trapezoid terms of (p')^2/p at the values dp of p' and p of the
        density, one more than out holds.  dp becomes the integrand, so out
        may start where dp does."""
        dp *= dp
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dp /= p
        self.integrand_terms(dp, p, step, out)


class GridIntegrals(NamedTuple):
    """A tabulated density's least value and its trapezoid mass, entropy
    and, when asked for, Fisher information."""

    low: float
    mass: float
    entropy: float
    fisher: Optional[float] = None

    def checked(self, n: int, what: str) -> "GridIntegrals":
        """These integrals, once GridDensity's check and then the n-point
        grid and unit-mass checks of ``what`` (the quantity named in the
        error) pass, and the least value is not NaN.  A NaN there is the
        law's own tabulation overflowing, and it makes the mass NaN, which
        both checks would let through; a GridDensity's given NaN points
        pass them and count as 0 in its entropy."""
        if math.isnan(self.low):
            raise NegativeDensityError("density is NaN on the grid")
        _check_nonnegative(self.low)
        _check_normalized(n, self.mass, what)
        return self


def _integrate(
    ms: Sequence[GaussDerivMixture], lo: float, hi: float, n: int, ws: _Workspace, fisher: bool = False
) -> list[GridIntegrals]:
    """Unchecked GridIntegrals of mixtures on n points over [lo, hi], from
    one blocked pass.

    Each block is one ``pdf_many`` call on the block's points, over the
    mixtures and, for Fisher information, their exact derivatives
    ``m.derivative(1)``, so a term several of them hold is evaluated once
    per block.  With k mixtures, mixture j writes its mass terms into row
    j of the workspace, its entropy terms into row k + j and its Fisher
    terms into row 2k + j; that row first holds p' at the block's points.
    The blocks are nodes of numpy's pairwise-sum tree (``_spans``), so each
    integral has the bits of one np.sum over its n - 1 terms, from rows of
    at most BLOCK + 1 floats whatever n is (``_Workspace.sums``; the test
    ``test_block_sums_follow_numpys_pairwise_tree`` pins the tree).
    """
    _check_grid(lo, hi, n)
    step = (hi - lo) / (n - 1)
    k = len(ms)
    rows = (3 if fisher else 2) * k
    tabulated = [*ms, *(m.derivative(1) for m in ms)] if fisher else ms
    lows = [np.inf] * k

    def fill(a: int, b: int, terms: np.ndarray) -> None:
        values = ws.values[:k, : b + 1 - a]
        slopes = ws.terms[2 * k : rows, : b + 1 - a]
        x = ws.points(lo, hi, n, a, b + 1)
        GaussDerivMixture.pdf_many(tabulated, x, out=[*values, *slopes], work=ws.work[:, : b + 1 - a])
        for j, p in enumerate(values):
            lows[j] = np.minimum(lows[j], p.min())  # a NaN stays, as in p.min()
            np.clip(p, 0.0, None, out=p)
            _trapezoid_terms(p, step, terms[j])
            ws.entropy_terms(p, step, terms[k + j])
        for p, dp, out in zip(values, slopes, terms[2 * k :]):
            ws.fisher_terms(dp, p, step, out)

    sums = ws.sums(n, rows, fill)
    return [GridIntegrals(low, *sums[j::k]) for j, low in enumerate(lows)]


def _window_groups(ms: Sequence[GaussDerivMixture]) -> dict[int, list[int]]:
    """The indices of mixtures with equal windows, keyed by the first of
    them."""
    first: dict[tuple[float, float], int] = {}
    groups: dict[int, list[int]] = {}
    for i, m in enumerate(ms):
        groups.setdefault(first.setdefault(m.window(), i), []).append(i)
    return groups


def mixture_integrals(
    ms: Sequence[GaussDerivMixture], n: int = 8192, fisher: bool = False
) -> list[GridIntegrals]:
    """GridIntegrals of each mixture on n points over its own window(), in
    order, with Fisher information when ``fisher``.

    Mixtures with equal windows share one blocked pass, run when the first
    of them is reached, so a term several of them hold is evaluated once,
    and each value has the bits the mixture gets alone under ``pdf_many``'s
    condition.  Raises law by law as GridDensity and differential_entropy
    would: NegativeDensityError when a density dips below -1e-12 anywhere
    on its grid, which signals a perturbation amplitude too large for
    pointwise positivity, and NonNormalizedError when its mass is off; and
    NegativeDensityError where its tabulation is NaN (``GridIntegrals.checked``).
    Fisher information tabulates each law's derivative, whose orders are
    one higher, so it first rejects any law with a term of order MAX_ORDER
    (ValueError).
    """
    if fisher:
        top = max((t.order for m in ms for t in m.terms), default=0)
        if top >= MAX_ORDER:
            raise ValueError(
                f"Fisher information needs each law's derivative, so term orders below "
                f"MAX_ORDER = {MAX_ORDER}, got order {top}"
            )
    groups = _window_groups(ms)
    if not groups:
        return []
    laws = max(map(len, groups.values()))
    ws = _Workspace((3 if fisher else 2) * laws, n, laws)
    done: dict[int, GridIntegrals] = {}
    checked = []
    for i, m in enumerate(ms):
        if i in groups:
            group = [ms[j] for j in groups[i]]
            done.update(zip(groups[i], _integrate(group, *m.window(), n, ws, fisher)))
        checked.append(done.pop(i).checked(n, "Fisher information" if fisher else "entropy"))
    return checked


def mixture_to_grid(m: GaussDerivMixture, lo: float, hi: float, n: int) -> GridDensity:
    """Tabulate a mixture density on n points over [lo, hi]."""
    return GridDensity(lo, hi, n, m.pdf(np.linspace(lo, hi, n)))


def differential_entropy(p: GridDensity) -> float:
    """-int p ln p by the composite trapezoid rule on the grid, in blocks.

    Points with p < 1e-300 are excluded from the log (their contribution is
    analytically below any tolerance used here).
    """
    p.check_normalized("entropy")
    ws = _Workspace(1, p.n)
    [h] = ws.sums(p.n, 1, lambda a, b, terms: ws.entropy_terms(p.values[a : b + 1], p.step, terms[0]))
    return h


def fisher_information(m: GaussDerivMixture, n: int = 8192) -> float:
    """int (p')^2 / p of a mixture via tabulation, with its exact
    derivative, on its natural window (mixture_integrals)."""
    return mixture_integrals((m,), n, fisher=True)[0].fisher


def mixture_entropies(ms: Sequence[GaussDerivMixture], n: int = 8192) -> list[float]:
    """Entropy of each mixture via tabulation on its natural window;
    mixtures that share a window share one pass (mixture_integrals)."""
    return [r.entropy for r in mixture_integrals(ms, n)]


def mixture_entropy(m: GaussDerivMixture, n: int = 8192) -> float:
    """Entropy of a mixture via tabulation on its natural window."""
    return mixture_entropies((m,), n=n)[0]


def gaussian_entropy(variance: float) -> float:
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def log_weighted_deriv_integral(p: GaussDerivMixture, k: int) -> float:
    """Quadrature of int p^{(k)}(x) ln p(x) dx on 32768 points over the
    +-14 sigma window.

    The k-th derivative is the exact mixture ``p.derivative(k)``; only the
    log weight comes from the tabulated density.
    """
    x = np.linspace(*p.window(14.0), 32768)
    vals = p.pdf(x)
    dk = p.derivative(k).pdf(x)
    ok = vals > _TINY
    integrand = np.where(ok, dk * np.log(np.where(ok, vals, 1.0)), 0.0)
    return float(np.trapezoid(integrand, x))


def smoothing_curve(
    p: GaussDerivMixture,
    q: GaussDerivMixture,
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
    difference; their passes run one after another in one workspace.
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
    ws = _Workspace(2, n, 1)

    def entropy(m: GaussDerivMixture) -> float:
        [r] = _integrate([m], lo, hi, n, ws)
        return r.checked(n, "entropy").entropy

    h0 = entropy(p)
    dh = np.array([entropy(s) - h0 for s in smoothed])
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


def expansion_targets(p: GaussDerivMixture, q: GaussDerivMixture) -> tuple[float, float]:
    """Quadrature targets: c1 = m2(q) * (-1/2 int p'' ln p),
    c15 = m3(q) * (-1/6 int p''' ln p)."""
    m = q.moments(3)
    i2 = log_weighted_deriv_integral(p, 2)
    i3 = log_weighted_deriv_integral(p, 3)
    return float(m[1] * (-0.5 * i2)), float(m[2] * (-i3 / 6.0))
