"""Exact algebra of one-dimensional Gaussian mixtures.

Two closed families are implemented:

* ``GaussDerivMixture`` -- finite signed combinations of derivatives of
  centered Gaussian densities, ``sum_j c_j D^{m_j} gamma_{v_j}``.  The family
  is closed under convolution through the identity
  ``D^m gamma_a * D^n gamma_b = D^{m+n} gamma_{a+b}``, which is what makes
  telescoping perturbation constructions exact to machine precision.
* ``GaussMixture`` -- nonnegative Gaussian location mixtures, closed under
  convolution in the usual way.

Everything is immutable and pure; results never depend on evaluation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_ORDER = 64

_SQRT2PI = math.sqrt(2.0 * math.pi)


class DerivTerm(NamedTuple):
    coeff: float
    order: int
    variance: float


@functools.lru_cache(maxsize=1024)
def gauss_deriv_poly(order: int, variance: float) -> np.ndarray:
    """Coefficients (ascending) of P with D^order gamma_v = P * gamma_v.

    Built by the recursion P_{k+1} = P_k' - (x/v) P_k, so the leading
    coefficient is (-1/v)^order.  Memoized per (order, variance), since
    pointwise callers such as adaptive quadrature ask for the same
    polynomial many times; the returned array is read-only because it is
    shared.
    """
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
    if variance <= 0:
        raise ValueError("variance must be positive")
    p = np.array([1.0])
    for _ in range(order):
        dp = np.polynomial.polynomial.polyder(p) if len(p) > 1 else np.array([0.0])
        xp = np.concatenate([[0.0], p]) / variance
        n = max(len(dp), len(xp))
        q = np.zeros(n)
        q[: len(dp)] += dp
        q[: len(xp)] -= xp
        p = q
    p.setflags(write=False)
    return p


def gauss_deriv_pdf(x: np.ndarray | float, variance: float, order: int = 0) -> np.ndarray:
    """Evaluate D^order gamma_variance pointwise."""
    x = np.asarray(x, dtype=float)
    g = np.exp(-x * x / (2.0 * variance)) / (_SQRT2PI * math.sqrt(variance))
    if order == 0:
        return g
    poly = gauss_deriv_poly(order, variance)
    return np.polynomial.polynomial.polyval(x, poly) * g


def gauss_raw_moment(j: int, variance: float) -> float:
    """E[Z^j] for Z ~ N(0, variance)."""
    if j % 2:
        return 0.0
    return float(math.prod(range(j - 1, 0, -2)) * variance ** (j // 2)) if j else 1.0


def _falling(i: int, m: int) -> int:
    return math.prod(range(i, i - m, -1))


@dataclass(frozen=True)
class GaussDerivMixture:
    """Signed combination sum_j coeff_j * D^{order_j} gamma_{variance_j}.

    Terms with identical (order, variance) are merged by coefficient
    addition at construction; no epsilon-merging, so the algebra stays
    predictable.  Only the order-0 terms carry mass.
    """

    terms: tuple[DerivTerm, ...]

    def __post_init__(self):
        merged: dict[tuple[int, float], float] = {}
        for coeff, order, variance in self.terms:
            order = int(order)
            variance = float(variance)
            if variance <= 0:
                raise ValueError(f"variance must be positive, got {variance}")
            if order < 0 or order > MAX_ORDER:
                raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
            key = (order, variance)
            merged[key] = merged.get(key, 0.0) + float(coeff)
        out = tuple(
            DerivTerm(c, o, v) for (o, v), c in sorted(merged.items()) if c != 0.0
        )
        object.__setattr__(self, "terms", out)

    @property
    def mass(self) -> float:
        return sum(t.coeff for t in self.terms if t.order == 0)

    @property
    def max_variance(self) -> float:
        return max(t.variance for t in self.terms)

    @property
    def max_order(self) -> int:
        return max(t.order for t in self.terms)

    def window(self, width: float = 12.0) -> tuple[float, float]:
        r = width * math.sqrt(self.max_variance)
        return (-r, r)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for coeff, order, variance in self.terms:
            out += coeff * gauss_deriv_pdf(x, variance, order)
        return out

    def convolve(self, other: "GaussDerivMixture") -> "GaussDerivMixture":
        if not isinstance(other, GaussDerivMixture):
            raise TypeError(
                "GaussDerivMixture only convolves with GaussDerivMixture; "
                "got " + type(other).__name__
            )
        terms = [
            DerivTerm(c1 * c2, o1 + o2, v1 + v2)
            for c1, o1, v1 in self.terms
            for c2, o2, v2 in other.terms
        ]
        return GaussDerivMixture(tuple(terms))

    def convolve_gaussian(self, variance: float) -> "GaussDerivMixture":
        """Law of X + Z with Z ~ gamma_variance; variance 0 returns self."""
        if variance == 0.0:
            return self
        return self.convolve(gaussian(variance))

    def scaled(self, s: float) -> "GaussDerivMixture":
        """Law of s*X: c D^m gamma_v maps to c s^m D^m gamma_{s^2 v}."""
        if s <= 0:
            raise ValueError("scale must be positive")
        return GaussDerivMixture(
            tuple(DerivTerm(c * s**o, o, s * s * v) for c, o, v in self.terms)
        )

    def reflected(self) -> "GaussDerivMixture":
        """Law of -X: odd-order coefficients flip sign."""
        return GaussDerivMixture(
            tuple(DerivTerm(c * (-1) ** o, o, v) for c, o, v in self.terms)
        )

    def moments(self, up_to: int) -> np.ndarray:
        """Raw moments m_1..m_up_to (requires unit mass).

        Uses int x^i D^m gamma_v = (-1)^m * i!/(i-m)! * E[Z^{i-m}],
        Z ~ N(0, v), from m integrations by parts.
        """
        if abs(self.mass - 1.0) > 1e-9:
            raise ValueError(f"moments need a unit-mass mixture, mass={self.mass}")
        out = np.zeros(up_to)
        for i in range(1, up_to + 1):
            acc = 0.0
            for coeff, order, variance in self.terms:
                if order > i:
                    continue
                acc += (
                    coeff
                    * (-1) ** order
                    * _falling(i, order)
                    * gauss_raw_moment(i - order, variance)
                )
            out[i - 1] = acc
        return out

    def second_moment(self) -> float:
        return float(self.moments(2)[1])


def gaussian(variance: float) -> GaussDerivMixture:
    """The centered Gaussian gamma_variance as a one-term mixture."""
    return GaussDerivMixture((DerivTerm(1.0, 0, float(variance)),))


def hermite_weighted_norm(k: int, K: float) -> float:
    """int (D^k gamma_K)^2 / gamma_K = k! / K^k, exactly."""
    if K <= 0:
        raise ValueError("K must be positive")
    if k < 0 or k > MAX_ORDER:
        raise ValueError(f"k must be in [0, {MAX_ORDER}]")
    return math.factorial(k) / K**k


@dataclass(frozen=True)
class GaussMixture:
    """Nonnegative Gaussian location mixture sum_j w_j gamma_{v_j}(. - mu_j)."""

    weights: tuple[float, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        m = tuple(float(x) for x in self.means)
        v = tuple(float(x) for x in self.variances)
        if not (len(w) == len(m) == len(v)) or not w:
            raise ValueError("weights, means, variances must be equal-length, nonempty")
        if not all(map(math.isfinite, w + m + v)):
            raise ValueError("weights, means, variances must be finite")
        if any(x <= 0 for x in w):
            raise ValueError("weights must be positive")
        if any(x <= 0 for x in v):
            raise ValueError("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def mass(self) -> float:
        return sum(self.weights)

    @property
    def max_variance(self) -> float:
        return max(self.variances)

    def window(self, width: float = 12.0) -> tuple[float, float]:
        r = width * math.sqrt(self.max_variance)
        return (min(self.means) - r, max(self.means) + r)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        return self.pdf_deriv(x, 0)

    def pdf_deriv(self, x: np.ndarray | float, order: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for w, mu, v in zip(self.weights, self.means, self.variances):
            out += w * gauss_deriv_pdf(x - mu, v, order)
        return out

    def convolve(self, other: "GaussMixture") -> "GaussMixture":
        if not isinstance(other, GaussMixture):
            raise TypeError(
                "GaussMixture only convolves with GaussMixture; got "
                + type(other).__name__
            )
        w, m, v = [], [], []
        for w1, m1, v1 in zip(self.weights, self.means, self.variances):
            for w2, m2, v2 in zip(other.weights, other.means, other.variances):
                w.append(w1 * w2)
                m.append(m1 + m2)
                v.append(v1 + v2)
        return GaussMixture(tuple(w), tuple(m), tuple(v))

    def convolve_gaussian(self, variance: float) -> "GaussMixture":
        """Law of X + Z with Z ~ gamma_variance; variance 0 returns self."""
        if variance == 0.0:
            return self
        return self.convolve(GaussMixture((1.0,), (0.0,), (float(variance),)))

    def scaled(self, s: float) -> "GaussMixture":
        if s <= 0:
            raise ValueError("scale must be positive")
        return GaussMixture(
            self.weights,
            tuple(s * m for m in self.means),
            tuple(s * s * v for v in self.variances),
        )

    def reflected(self) -> "GaussMixture":
        """Law of -X."""
        return GaussMixture(self.weights, tuple(-m for m in self.means), self.variances)

    def moments(self, up_to: int) -> np.ndarray:
        """Raw moments m_1..m_up_to of the (mass-normalized) mixture."""
        out = np.zeros(up_to)
        mass = self.mass
        for i in range(1, up_to + 1):
            acc = 0.0
            for w, mu, v in zip(self.weights, self.means, self.variances):
                acc += w * sum(
                    math.comb(i, k) * mu ** (i - k) * gauss_raw_moment(k, v)
                    for k in range(0, i + 1, 1)
                )
            out[i - 1] = acc / mass
        return out

    def second_moment(self) -> float:
        return float(self.moments(2)[1])
