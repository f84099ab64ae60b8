"""Reference implementations that the tests compare the package against.

No `ziclab` command runs any of these.  Each one is an independent route
to a quantity the package computes (or the closed form that a quadrature
oracle checks), so it lives with the tests rather than in `src/ziclab`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ziclab import _lattice as lat
from ziclab import hkregion as hk
from ziclab._util import stream_key
from ziclab.counterexamples import VerticalPerturbation
from ziclab.entropy import (
    GridDensity,
    differential_entropy,
    gaussian_entropy,
    mixture_entropy,
    mixture_to_grid,
)
from ziclab.gaussmix import MAX_ORDER, GaussDerivMixture, gauss_deriv_poly, gauss_raw_moment, gaussian
from ziclab.geometry import volume_ratio

# ----------------------------------------------------------------------
# Random streams
# ----------------------------------------------------------------------


def rng_for(seed: int, stream: str, counter: int = 0) -> np.random.Generator:
    """numpy's Philox4x64-10 generator under the key of ``_util.rng_for``:
    the oracle for the package's pure-Python stream, whose uniforms it must
    equal bit for bit, and the tests' own generator."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, stream), counter=counter))


# ----------------------------------------------------------------------
# The Gaussian objective
# ----------------------------------------------------------------------


def psi_written_out(K, L, u, N1, N):
    """psi with second-noise variance N, written out independently of the
    package: u ln(K+N1+N+L) + ln(K+N1) - (u+1) ln(K+N1+N)."""
    return u * np.log(K + N1 + N + L) + np.log(K + N1) - (u + 1) * np.log(K + N1 + N)


# ----------------------------------------------------------------------
# Gaussian-derivative coefficients
# ----------------------------------------------------------------------


def deriv_column(x, variance: float, order: int = 0) -> np.ndarray:
    """D^order gamma_v(x) over gamma_v(0) = 1/(sqrt(2 pi) sqrt(v)) as array
    expressions: P(x) = x^(order mod 2) Q(x^2) (DLMF §18.9), so Horner's
    rule in y = x*x over P's coefficients of order's parity, times x at odd
    order, times exp(y * (-0.5/v)).  The column ``pdf_many`` shares between
    the terms of a key, whose bits it must give."""
    x = np.asarray(x, dtype=float)
    y = x * x
    e = np.exp(y * (-0.5 / variance))
    if order == 0:
        return e
    q = gauss_deriv_poly(order, variance)[order % 2 :: 2]
    h = np.full_like(x, q[-1])
    for c in q[-2::-1]:
        h *= y
        h += c
    if order % 2:
        h *= x
    return h * e


def first_plus_the_rest(products: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """The sum ``pdf_many`` forms: the first product + the next ..., with
    no 0.0 in front to turn a -0.0 into +0.0; 0.0 shaped like x for no
    products."""
    return sum(products[1:], products[0]) if products else np.zeros_like(x)


def gauss_deriv_coeffs_every_slot(order: int, variance: float) -> list[float]:
    """``hessian.gauss_deriv_coeffs``'s recursion P_{k+1} = P_k' - (x/v) P_k
    over every slot of P_k, the zeros of the other parity included: the
    bitwise oracle for the recursion that skips them."""
    p = [1.0]
    for k in range(1, order + 1):
        q = [0.0] * (k + 1)
        for j in range(1, k):
            q[j - 1] += p[j] * j
        for j in range(k):
            q[j + 1] -= p[j] / variance
        p = q
    return p


# ----------------------------------------------------------------------
# Hermite-weighted norms and the outer-entropy defect
# ----------------------------------------------------------------------


def hermite_weighted_norm(k: int, K: float) -> float:
    """int (D^k gamma_K)^2 / gamma_K = k! / K^k, exactly."""
    if K <= 0:
        raise ValueError("K must be positive")
    if k < 0 or k > MAX_ORDER:
        raise ValueError(f"k must be in [0, {MAX_ORDER}]")
    return math.factorial(k) / K**k


def moment_sum_sq_norm(base: float, delta: float) -> float:
    """int (D^3 gamma_v)^2 / gamma_base, v = base - delta, as Gaussian
    moments in x: (D^3 gamma_v)^2/gamma_base = P^2 gamma_v^2/gamma_base for
    the polynomial P of D^3 gamma_v, and gamma_v^2/gamma_base is
    sqrt(base s2)/v times the N(0, s2) density, s2 = v base/(2 base - v).

    P's leading coefficient is -1/v^3, so its square underflows past
    v of about 3e51, and v base overflows past about 1.3e154."""
    v = base - delta
    s2 = v * base / (2.0 * base - v)
    p = gauss_deriv_poly(3, v).tolist()
    p2 = [sum(p[i] * p[j - i] for i in range(max(0, j - 3), min(j, 3) + 1)) for j in range(7)]
    while len(p2) > 1 and p2[-1] == 0.0:
        p2.pop()
    moments = sum(c * gauss_raw_moment(j, s2) for j, c in enumerate(p2))
    return math.sqrt(base * s2) / v * moments


def outer_entropy_defect(vp: VerticalPerturbation, eps: float, n: int = 8192) -> float:
    """|h(X1 * gamma_u * X2) - h(gamma_{K+u+L})| at the given eps."""
    trip = vp.x1(eps).convolve(gaussian(vp.u)).convolve(vp.x2(eps))
    return abs(mixture_entropy(trip, n=n) - gaussian_entropy(vp.K + vp.u + vp.L))


# ----------------------------------------------------------------------
# Whole-grid entropy and Fisher information
# ----------------------------------------------------------------------


def whole_grid_integrands(
    m: GaussDerivMixture, lo: float, hi: float, n: int, fisher: bool = True
) -> tuple[float, list[np.ndarray]]:
    """(least value, integrand rows) of a mixture tabulated on the whole
    n-point grid over [lo, hi] at once: one ``pdf`` call on np.linspace,
    np.clip, and the np.where integrands of mass, entropy and, with
    ``fisher``, Fisher information and the score cube, with p' from
    ``m.derivative(1).pdf`` on the same points (the cube as the score p'/p
    times the Fisher integrand)."""
    x = np.linspace(lo, hi, n)
    raw = m.pdf(x)
    vals = np.clip(raw, 0.0, None)
    ok = vals > 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        integrands = [vals, np.where(ok, -vals * np.log(np.where(ok, vals, 1.0)), 0.0)]
        if fisher:
            dp = m.derivative(1).pdf(x)
            safe = np.where(ok, vals, 1.0)
            integrands.append(np.where(ok, dp * dp / safe, 0.0))
            integrands.append(np.where(ok, dp / safe * (dp * dp / safe), 0.0))
    return raw.min(), integrands


def whole_grid_integrals(
    m: GaussDerivMixture, lo: float, hi: float, n: int, fisher: bool = True
) -> tuple[float, float, float, float | None, float | None]:
    """(least value, mass, entropy, Fisher information or None, score cube
    int (p')^3/p^2 or None) of ``whole_grid_integrands``, each integral the
    step times its integrand's one np.sum.  That is the blocked kernel's
    path written for the whole grid, and the kernel must give these bits.
    On that path a least value below -1e-12 raised NegativeDensityError,
    and entropy and Fisher information raised on n < 1024 or a mass off 1
    by more than 1e-7."""
    low, integrands = whole_grid_integrands(m, lo, hi, n, fisher)
    step = (hi - lo) / (n - 1)
    sums = [float(step * np.sum(y)) for y in integrands]
    return (low, *sums) if fisher else (low, *sums, None, None)


def log_deriv_integral(m: GaussDerivMixture, k: int) -> float:
    """int m^{(k)} ln m by the trapezoid rule on 32768 points over its own
    window, 14 sd past every component: the exact k-th derivative
    ``m.derivative(k).pdf`` times ln m of the tabulated density, zeroed
    where m is not above 1e-300.  It uses no integration by parts and not
    the blocked kernel, so it checks ``entropy``'s by-parts targets
    int p'' ln p = -J(p) and int p''' ln p = -1/2 int (p')^3/p^2."""
    r = 14.0 * math.sqrt(max(m.variances))
    x = np.linspace(min(m.means) - r, max(m.means) + r, 32768)
    vals = m.pdf(x)
    ok = vals > 1e-300
    integrand = np.where(ok, m.derivative(k).pdf(x) * np.log(np.where(ok, vals, 1.0)), 0.0)
    return float(np.trapezoid(integrand, x))


# ----------------------------------------------------------------------
# Grid-quadrature smoothing
# ----------------------------------------------------------------------


def convolve_grids(a: GridDensity, b: GridDensity) -> GridDensity:
    """Direct-quadrature convolution of two grid densities (no transform).

    Requires equal steps; the output lives on the sum grid.
    """
    ha, hb = a.step, b.step
    if abs(ha - hb) > 1e-12 * max(ha, hb):
        raise ValueError(f"grid steps differ: {ha} vs {hb}")
    vals = np.convolve(a.values, b.values) * ha
    lo = a.lo + b.lo
    n = a.n + b.n - 1
    hi = lo + ha * (n - 1)
    return GridDensity(lo, hi, n, vals)


def grid_smoothing_curve(p: GridDensity, q: GaussDerivMixture, t_grid: np.ndarray) -> np.ndarray:
    """Rows (t, h(p_t) - h(p)) of ``entropy.smoothing_curve`` for a density
    p known only on a grid: p is convolved by direct quadrature against the
    reflected kernel sqrt(t) q, tabulated on the step of p."""
    t = np.sort(np.asarray(t_grid, dtype=float))
    h0 = differential_entropy(p)
    dh = np.empty(len(t))
    for i, ti in enumerate(t):
        qt = q.scaled(math.sqrt(ti)).reflected()
        qlo, qhi = qt.window()
        # tabulate the kernel on the same step as p
        kn = max(int(math.ceil((qhi - qlo) / p.step)) + 1, 9)
        qgrid = mixture_to_grid(qt, qlo, qlo + (kn - 1) * p.step, kn)
        dh[i] = differential_entropy(convolve_grids(p, qgrid)) - h0
    return np.column_stack([t, dh])


# ----------------------------------------------------------------------
# PSD matrices and alignments
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PsdMatrix:
    """Symmetric positive-semidefinite matrix with cached spectrum.

    Asymmetry beyond 1e-12 or eigenvalues below -1e-10 are rejected;
    eigenvalues in [-1e-10, 0) are clamped to 0.  The spectrum comes from
    LAPACK (``np.linalg.eigh``): eigenvalues ascending, eigenvectors as
    columns, each signed so that its largest-magnitude component is
    positive.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        scale = max(1.0, float(np.abs(a).max()))
        if float(np.abs(a - a.T).max()) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric to 1e-12")
        a = 0.5 * (a + a.T)
        vals, vecs = np.linalg.eigh(a)
        lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(a.shape[0])]
        vecs = np.where(lead < 0, -vecs, vecs)
        if vals.min() < -1e-10:
            raise ValueError(f"matrix is not PSD: min eigenvalue {vals.min():.3e}")
        vals = np.clip(vals, 0.0, None)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "_eigvals", vals)
        object.__setattr__(self, "_eigvecs", vecs)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigvals.copy()

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigvecs.copy()


def _as_psd(m: Union[PsdMatrix, np.ndarray, Sequence[Sequence[float]]]) -> PsdMatrix:
    return m if isinstance(m, PsdMatrix) else PsdMatrix(np.asarray(m, dtype=float))


def decreasing_alignment(m: Union[PsdMatrix, np.ndarray]) -> tuple[PsdMatrix, np.ndarray]:
    """Diagonal matrix of eigenvalues sorted decreasing, plus the conjugator
    Q with Q^T M Q equal to the aligned matrix."""
    p = _as_psd(m)
    order = np.argsort(-p.eigenvalues, kind="stable")
    q = p.eigenvectors[:, order]
    aligned = PsdMatrix(np.diag(p.eigenvalues[order]))
    return aligned, q


def increasing_alignment(m: Union[PsdMatrix, np.ndarray]) -> tuple[PsdMatrix, np.ndarray]:
    p = _as_psd(m)
    order = np.argsort(p.eigenvalues, kind="stable")
    q = p.eigenvectors[:, order]
    aligned = PsdMatrix(np.diag(p.eigenvalues[order]))
    return aligned, q


# ----------------------------------------------------------------------
# Dimension 2: the max-plus table and its envelope
# ----------------------------------------------------------------------


def maxplus_self_convolution(table: np.ndarray) -> np.ndarray:
    """(f [max-plus] f)[i, j] = max_{k<=i, l<=j} f[k,l] + f[i-k, j-l] on a
    uniform lattice anchored at 0."""
    n, m = table.shape
    out = np.full((n, m), -np.inf)
    for k in range(n):
        row = table[k]
        for l in range(m):
            v = row[l]
            if not np.isfinite(v):
                continue
            np.maximum(out[k:, l:], v + table[: n - k, : m - l], out=out[k:, l:])
    return out


def _uniform_lattice_with_node(
    width: float, q: float, n: int
) -> np.ndarray:
    """Uniform grid from 0 of ~n nodes reaching ~width with q = k*step
    exactly (max-plus index arithmetic needs uniformity from 0).  k >= 2
    where n allows it: with N1 = 0 the max-plus rows 0 and 1 are -inf."""
    k = min(n - 1, max(2, round(q * (n - 1) / width)))
    step = q / k
    return step * np.arange(n)


def power_control_value_2d(
    q1: float, q2: float, params: hk.HKParams, grid_n: int = 97
) -> float:
    """g2(q1, q2): envelope of the max-plus f2 table (independent of the
    tensorization identity, which the tests verify against 2 g1)."""
    if q1 <= 0 or q2 <= 0:
        raise ValueError("envelope queries need positive powers")
    lat.check_envelope_grid(grid_n)
    xg = _uniform_lattice_with_node(lat.MARGIN * max(q1, 1.0), q1, grid_n)
    yg = _uniform_lattice_with_node(lat.MARGIN * max(q2, 1.0), q2, grid_n)
    f1tab = lat.f1_table(xg, yg, params)
    f2tab = maxplus_self_convolution(f1tab)
    env = lat.Envelope2D(xg, yg, f2tab)
    return env.value(q1, q2).value


# ----------------------------------------------------------------------
# The volume-ratio fit
# ----------------------------------------------------------------------


def ratio_fit_lstsq() -> tuple[np.ndarray, np.ndarray]:
    """(basis, coefficients) of LAPACK's least-squares fit of
    volume_ratio(t) - 1 in the basis {1/t, 1/t^2} at t = 50, 100, 200: the
    fit that ``geometry.ratio_leading_coefficient`` solves by its normal
    equations."""
    ts = np.array([50.0, 100.0, 200.0])
    basis = np.stack([1.0 / ts, 1.0 / ts**2], axis=1)
    y = np.array([volume_ratio(t) - 1.0 for t in ts])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return basis, coef
