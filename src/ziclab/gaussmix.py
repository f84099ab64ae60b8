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
from typing import NamedTuple, Sequence

import numpy as np

from .hessian import gauss_deriv_coeffs, gauss_raw_moment

MAX_ORDER = 64

_SQRT2PI = math.sqrt(2.0 * math.pi)


class DerivTerm(NamedTuple):
    coeff: float
    order: int
    variance: float


@functools.lru_cache(maxsize=1024)
def gauss_deriv_poly(order: int, variance: float) -> np.ndarray:
    """Coefficients (ascending) of P with D^order gamma_v = P * gamma_v.

    The recursion P_{k+1} = P_k' - (x/v) P_k is ``hessian.gauss_deriv_coeffs``,
    which runs on Python floats; this checks order, variance and the float
    range.  Memoized per (order, variance), since pointwise callers such
    as adaptive quadrature ask for the same polynomial many times; the
    returned array is read-only because it is shared.
    """
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
    if variance <= 0:
        raise ValueError("variance must be positive")
    p = np.array(gauss_deriv_coeffs(order, float(variance)))
    if not np.isfinite(p).all():
        raise ValueError(
            f"D^{order} gamma_v has coefficients beyond the float range at v = {variance}"
        )
    p.setflags(write=False)
    return p


def gauss_deriv_pdf(
    x: np.ndarray | float, variance: float, order: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate D^order gamma_variance pointwise, into ``out`` when given.

    gamma_v is built in one buffer: x*x, then / -2v, exp and / sqrt(2 pi v),
    the bits of exp(-x*x / (2v)) / sqrt(2 pi v), since negation is exact
    and rounding is sign-symmetric.  The polynomial factor is Horner's rule
    in one more buffer, h <- h * x + c: the operations of ``polyval``
    without its two temporaries per step.  It runs before gamma_v is
    built, so ``out`` may be ``x`` itself.  A 0-d input returns a scalar.
    """
    x = np.asarray(x, dtype=float)
    h = None
    if order:
        poly = gauss_deriv_poly(order, variance)
        h = np.full_like(x, poly[-1])
        for c in poly[-2::-1]:
            h *= x
            h += c
    if out is None:
        out = np.empty_like(x)
    np.multiply(x, x, out=out)
    out /= -2.0 * variance
    np.exp(out, out=out)
    out /= _SQRT2PI * math.sqrt(variance)
    if h is not None:
        out *= h
    return out[()] if out.ndim == 0 else out


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

    def window(self, width: float = 12.0) -> tuple[float, float]:
        r = width * math.sqrt(self.max_variance)
        return (-r, r)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        return self.pdf_many((self,), x)[0]

    @staticmethod
    def pdf_many(
        mixtures: Sequence["GaussDerivMixture"],
        x: np.ndarray | float,
        out: Sequence[np.ndarray] | None = None,
        work: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Each mixture's density on x, every distinct D^m gamma_v evaluated once.

        Walks the sorted union of the mixtures' (order, variance) keys,
        evaluates each key's column once and adds coeff * column to every
        mixture that holds the key.  A mixture's terms are sorted by the
        same key, so each sum runs in the order of that mixture alone and
        its bits do not depend on the batch.  One column buffer and one
        coeff * column buffer serve every key, beside one accumulator per
        mixture.  The accumulators are ``out`` and the two buffers ``work``
        when given, each shaped like x.
        """
        x = np.asarray(x, dtype=float)
        if out is None:
            outs = [np.zeros_like(x) for _ in mixtures]
        else:
            outs = list(out)
            for acc in outs:
                acc.fill(0.0)
        holders: dict[tuple[int, float], list[tuple[float, np.ndarray]]] = {}
        for acc, m in zip(outs, mixtures):
            for coeff, order, variance in m.terms:
                holders.setdefault((order, variance), []).append((coeff, acc))
        column, scaled = (np.empty_like(x), np.empty_like(x)) if work is None else work
        for order, variance in sorted(holders):
            gauss_deriv_pdf(x, variance, order, out=column)
            for coeff, acc in holders[order, variance]:
                acc += np.multiply(coeff, column, out=scaled)
        return outs

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

    @staticmethod
    def pdf_many(
        mixtures: Sequence["GaussMixture"],
        x: np.ndarray | float,
        out: Sequence[np.ndarray] | None = None,
        work: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Each mixture's density on x (location terms share no columns),
        into ``out`` when given; the first of the buffers ``work``, when
        given, is ``pdf_deriv``'s shift buffer."""
        if out is None:
            return [m.pdf(x) for m in mixtures]
        shift = None if work is None else work[0]
        return [m.pdf_deriv(x, 0, out=acc, work=shift) for m, acc in zip(mixtures, out)]

    def pdf_deriv(
        self,
        x: np.ndarray | float,
        order: int,
        out: np.ndarray | None = None,
        work: np.ndarray | None = None,
    ) -> np.ndarray:
        """D^order of the density on x, into ``out`` when given; every
        component is tabulated in one shift buffer, ``work`` when given
        (shaped like x), w * D^order gamma_v(x - mu) in the bits of that
        expression."""
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.zeros_like(x)
        else:
            out.fill(0.0)
        buf = np.empty_like(x) if work is None else work
        for w, mu, v in zip(self.weights, self.means, self.variances):
            np.subtract(x, mu, out=buf)
            gauss_deriv_pdf(buf, v, order, out=buf)
            buf *= w
            out += buf
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
