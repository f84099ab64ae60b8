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

One blocked kernel computes every mixture integral.  A pass walks the grid
in blocks of at most ``BLOCK`` trapezoid terms: it tabulates the mixtures
of one window and, when asked, their exact derivatives ``m.derivative(1)``
on the block's own points (each distinct term column once), tracks their
least value for the -1e-12 check, clips, and writes into rows of at most
``BLOCK`` + 1 floats the trapezoid terms of the mass, of -p ln p and, when
asked, of the score's moments (p')^2/p and (p')^3/p^2.  By parts these
give the expansion targets: int p'' ln p = -J(p) and int p''' ln p =
-1/2 int (p')^3/p^2.  Each element goes through the ufuncs of the
whole-array expressions.  One recursive function, ``_tree_sums``, walks
numpy's pairwise-sum tree over the n - 1 terms (Higham, SISC 1993): a
node of at most ``BLOCK`` terms is a block, whose rows' ``np.sum`` is that
node's sum, and a larger node adds its two children's sums as numpy does.
So each integral has the bits of one ``np.sum`` over the whole term array
and the results those of tabulating the whole grid at once
(``tests/_oracles.py`` keeps that path).  A pass allocates one block's
buffers, reuses them block after block in the CPU caches and frees them
when it ends, so its memory is O(BLOCK * laws), whatever n is.
``tests/test_grid_kernel.py`` pins numpy's tree, so a numpy that sums
otherwise fails it, and the traced peak of each kernel path.  A density
given as values (``GridDensity``) is already in memory whole, so its
integrals are numpy's ``np.trapezoid`` itself.

This module is the independent oracle for every closed form downstream:
nothing here reuses the exact mixture algebra except to evaluate pointwise
densities and their first derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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
    """Density NaN, or negative beyond -1e-12, somewhere on the grid."""


GRID_MIN_N = 1024  # the fewest grid points an entropy or Fisher evaluation takes


def check_grid_n(n: int) -> None:
    """Reject a grid of fewer than GRID_MIN_N points (ValueError)."""
    if n < GRID_MIN_N:
        raise ValueError(f"the grid needs n >= {GRID_MIN_N} points, got {n}")


def _check_n(n: int, what: str) -> None:
    """Reject a grid of fewer than GRID_MIN_N points for an evaluation of
    ``what`` (the quantity named in the error)."""
    if n < GRID_MIN_N:
        raise ValueError(f"{what} evaluation requires n >= {GRID_MIN_N}")


def _check_grid(lo: float, hi: float) -> None:
    if not hi > lo:
        raise ValueError("need hi > lo")


def _check_nonnegative(low: float) -> None:
    """Reject a density whose least grid value is NaN or below -1e-12."""
    if math.isnan(low):
        raise NegativeDensityError("density is NaN on the grid")
    if not low >= _NEG_TOL:
        raise NegativeDensityError(f"density reaches {low:.3e} < -1e-12 on the grid")


def _check_normalized(mass: float) -> None:
    """Entropy and Fisher precondition: unit mass within 1e-7 (a NaN mass
    is rejected)."""
    if not abs(mass - 1.0) <= _MASS_TOL:
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
        if len(vals) != self.n or self.n < 2:
            raise ValueError("values length must equal n >= 2")
        _check_grid(self.lo, self.hi)
        _check_nonnegative(vals.min())
        vals = np.clip(vals, 0.0, None)
        object.__setattr__(self, "values", vals)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def integral(self, integrand: np.ndarray) -> float:
        """Trapezoid integral of ``integrand`` tabulated on this grid."""
        return float(np.trapezoid(np.asarray(integrand, dtype=float), dx=self.step))

    def mass(self) -> float:
        return self.integral(self.values)


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


def _tree_sums(a: int, b: int, block_sums: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """np.sum over trapezoid terms a..b-1 of each term row, as numpy's
    pairwise sum adds them: a node of at most BLOCK terms is a block, whose
    row sums block_sums(a, b) gives, and a larger node is the sum of its
    first _half and the rest.  The callback comes in as an argument, not
    as a closure that calls itself, whose reference cycle would keep every
    pass's buffers alive until the cyclic collector ran."""
    if b - a <= BLOCK:
        return block_sums(a, b)
    h = a + _half(b - a)
    return _tree_sums(a, h, block_sums) + _tree_sums(h, b, block_sums)


def _entropy_integrand(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-p ln p at the density values p, into out."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(p, out=out)
        out *= p
    return np.negative(out, out=out)


def _score_integrands(dp: np.ndarray, p: np.ndarray, cube: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p')^2/p into dp, the values of p', and (p')^3/p^2 into cube, as the
    score p'/p times the first, at the density values p."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(dp, p, out=cube)
        dp *= dp
        dp /= p
        cube *= dp
    return dp, cube


class GridIntegrals(NamedTuple):
    """A tabulated density's least value, trapezoid mass and entropy and, when
    asked for, Fisher information and the score cube int (p')^3/p^2."""

    low: float
    mass: float
    entropy: float
    fisher: Optional[float] = None
    score3: Optional[float] = None

    def checked(self) -> "GridIntegrals":
        """These integrals, once GridDensity's check (a NaN least value,
        here the law's own tabulation overflowing, included) and then the
        unit-mass check pass."""
        _check_nonnegative(self.low)
        _check_normalized(self.mass)
        return self


def _integrate(
    ms: Sequence[GaussDerivMixture], lo: float, hi: float, n: int, fisher: bool = False
) -> list[GridIntegrals]:
    """Unchecked GridIntegrals of mixtures on n points over [lo, hi], from
    one blocked pass.

    Each block is one ``pdf_many`` call on the block's points, over the
    mixtures and, for Fisher information, their exact derivatives
    ``m.derivative(1)``, so a term several of them hold is evaluated once
    per block.  With k mixtures, mixture j's rows are j (mass), k + j
    (entropy), 2k + j (Fisher) and 3k + j (score cube).  The mass row first
    holds p at the block's points and gets its terms last, and the Fisher
    row first holds p'.  The blocks are the leaves of numpy's pairwise-sum
    tree (``_tree_sums``), so each integral has the bits of one np.sum over
    its n - 1 terms (``test_block_sums_follow_numpys_pairwise_tree``).  The
    pass allocates one block's buffers and reuses them block after block:
    term rows one float wider than a block's terms (so that a row can first
    hold an integrand at the block's points), the point indices and
    points, two work rows (``pdf_many``'s, then an integrand's) and a mask.
    None grows with n beyond BLOCK, and reuse keeps the pass from faulting
    in fresh pages block after block.
    """
    _check_grid(lo, hi)
    step = (hi - lo) / (n - 1)
    k = len(ms)
    tabulated = [*ms, *(m.derivative(1) for m in ms)] if fisher else ms
    size = min(BLOCK + 1, n)
    rows = np.empty(((4 if fisher else 2) * k, size))
    index = np.arange(size, dtype=np.int32)  # half a float index's bytes
    points, works, mask = np.empty(size), np.empty((2, size)), np.empty(size, dtype=bool)
    lows = [np.inf] * k

    def block_sums(a: int, b: int) -> np.ndarray:
        width = b + 1 - a  # the block reads points a..b
        block, work, below = rows[:, :width], works[:, :width], mask[:width]
        x = _grid(np.add(index[:width], float(a), out=points[:width]), lo, hi, n, b == n - 1)
        GaussDerivMixture.pdf_many(tabulated, x, out=[*block[:k], *block[2 * k : 3 * k]], work=work)
        terms = rows[:, : b - a]
        for j, p in enumerate(block[:k]):
            lows[j] = np.minimum(lows[j], p.min())  # a NaN stays, as in p.min()
            np.clip(p, 0.0, None, out=p)
            # zero each integrand but the mass where not p > 1e-300, NaN
            # included, as np.where does: a contribution below any tolerance
            np.logical_not(np.greater(p, _TINY, out=below), out=below)
            integrands = [_entropy_integrand(p, work[0])]
            if fisher:
                integrands += _score_integrands(block[2 * k + j], p, block[3 * k + j])
            for y, out in zip(integrands, terms[k + j :: k]):
                np.copyto(y, 0.0, where=below)
                _trapezoid_terms(y, step, out)
            _trapezoid_terms(p, step, terms[j])
        return terms.sum(axis=1)

    sums = _tree_sums(0, n - 1, block_sums).tolist()
    return [GridIntegrals(low, *sums[j::k]) for j, low in enumerate(lows)]


def mixture_integrals(
    ms: Sequence[GaussDerivMixture], n: int = 8192, fisher: bool = False
) -> list[GridIntegrals]:
    """GridIntegrals of each mixture on n points over its own window(), in
    order, with Fisher information when ``fisher``.

    Mixtures with equal windows share one blocked pass, run when the first
    of them is reached, so a term several of them hold is evaluated once,
    and each value has the bits the mixture gets alone under ``pdf_many``'s
    condition.  Rejects n < GRID_MIN_N (ValueError) before any pass, then
    raises law by law as GridDensity and differential_entropy would:
    NegativeDensityError when a density dips below -1e-12 anywhere on its
    grid, which signals a perturbation amplitude too large for pointwise
    positivity, and NonNormalizedError when its mass is off; and
    NegativeDensityError where its tabulation is NaN (``GridIntegrals.checked``).
    Fisher information tabulates each law's derivative, whose orders are
    one higher, so it first rejects any law with a term of order MAX_ORDER
    (ValueError).
    """
    _check_n(n, "Fisher information" if fisher else "entropy")
    if fisher:
        top = max((t.order for m in ms for t in m.terms), default=0)
        if top >= MAX_ORDER:
            raise ValueError(
                f"Fisher information needs each law's derivative, so term orders below "
                f"MAX_ORDER = {MAX_ORDER}, got order {top}"
            )
    groups: dict[tuple[float, float], list[int]] = {}
    for i, m in enumerate(ms):
        groups.setdefault(m.window(), []).append(i)
    done: dict[int, GridIntegrals] = {}
    checked = []
    for i, m in enumerate(ms):
        if i not in done:
            group = groups[m.window()]
            done.update(zip(group, _integrate([ms[j] for j in group], *m.window(), n, fisher)))
        checked.append(done[i].checked())
    return checked


def mixture_to_grid(m: GaussDerivMixture, lo: float, hi: float, n: int) -> GridDensity:
    """Tabulate a mixture density on n points over [lo, hi]."""
    return GridDensity(lo, hi, n, m.pdf(np.linspace(lo, hi, n)))


def differential_entropy(p: GridDensity) -> float:
    """-int p ln p by the composite trapezoid rule on the grid.

    Points with p < 1e-300 are excluded from the log (their contribution is
    analytically below any tolerance used here).
    """
    _check_n(p.n, "entropy")
    _check_normalized(p.mass())
    v = p.values
    with np.errstate(divide="ignore", invalid="ignore"):
        return p.integral(np.where(v > _TINY, -(np.log(v) * v), 0.0))


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
    """int p^{(k)} ln p for k = 2 or 3, from one Fisher pass of
    mixture_integrals on p's own window.

    Integration by parts (de Bruijn's identity; Stam 1959) makes both
    moments of the score p'/p: int p'' ln p = -int (p')^2/p = -J(p), and
    int p''' ln p = -int p'' p'/p = -1/2 int (p')^3/p^2.  No command calls
    it; it remains because the benchmark's tracer (``perfbench/trace_run.py``)
    hooks it by name.
    """
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    r = mixture_integrals((p,), fisher=True)[0]
    return -r.fisher if k == 2 else -0.5 * r.score3


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
    difference; their passes run one after another.  Rejects n <
    GRID_MIN_N (ValueError) before any of them.
    """
    _check_n(n, "entropy")
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

    def entropy(m: GaussDerivMixture) -> float:
        [r] = _integrate([m], lo, hi, n)
        return r.checked().entropy

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


def check_fit_tolerance(tol: float) -> None:
    """Reject a relative fit tolerance that is not finite and nonnegative
    (ValueError)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"fit tolerance must be finite and nonnegative, got {tol}")


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
    """Quadrature targets c1 = m2(q) * (-1/2 int p'' ln p) = m2(q) J(p)/2
    and c15 = m3(q) * (-1/6 int p''' ln p), both from the score's moments
    (``log_weighted_deriv_integral``'s identities) of one Fisher pass."""
    m = q.moments(3)
    r = mixture_integrals((p,), fisher=True)[0]
    i2, i3 = -r.fisher, -0.5 * r.score3
    return float(m[1] * (-0.5 * i2)), float(m[2] * (-i3 / 6.0))
