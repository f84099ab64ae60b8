"""Exact algebra of one-dimensional Gaussian mixtures.

``GaussDerivMixture`` holds finite signed sums of terms
``c D^m gamma_v(. - mu)``, derivatives of shifted Gaussian densities.  The
family is closed under convolution through the identity
``D^m gamma_a(. - mu) * D^n gamma_b(. - nu) = D^{m+n} gamma_{a+b}(. - mu - nu)``,
which is what makes telescoping perturbation constructions exact to machine
precision, and under scaling, reflection and differentiation.  Both kinds
of mixture the counterexamples use are of this form: the signed
derivative perturbations at mean 0, and the nonnegative location mixtures
(order 0 only) that ``GaussMixture`` builds from weights, means and
variances.

Everything is immutable and pure; results never depend on evaluation order.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .hessian import gauss_deriv_coeffs, gauss_raw_moment

MAX_ORDER = 64

_SQRT2PI = math.sqrt(2.0 * math.pi)
# the least variance v at which gauss_deriv_pdf's exponent factor -0.5/v is finite
_LEAST_VARIANCE = math.nextafter(0.5 / sys.float_info.max, math.inf)


class DerivTerm(NamedTuple):
    """coeff * D^order gamma_variance(. - mean)."""

    coeff: float
    order: int
    variance: float
    mean: float = 0.0


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

    gamma_v is built in one buffer with no division: x*x, times -0.5/v,
    exp, and times 1/(sqrt(2 pi) sqrt(v)), the two scalars formed once per
    call.  The polynomial factor P is Horner's rule in one more buffer,
    h <- h * x + c: the operations of ``polyval`` without its two
    temporaries per step.  It runs before gamma_v is built, so ``out`` may
    be ``x`` itself.  A 0-d input returns a scalar.  Rejects a NaN variance
    and one below ``_LEAST_VARIANCE`` (about 2.8e-309), where -0.5/v
    overflows and 0 * -inf would read NaN at x = 0 (ValueError).

    Rounding, to first order in u = 2^-53, with a = x^2/(2v), while gamma_v
    stays a normal float (Higham, SISC 1993):
    - x*x, -0.5/v and their product round once each, so the exponent is
      -a(1 + t) with |t| <= 3u, which moves exp by 3au relative at most;
    - exp adds E u (numpy's accuracy tests hold float64 exp to one ulp,
      so E = 2);
    - the scale adds 4.5u (sqrt(2 pi) of the rounded pi 1.5u, then
      sqrt(v), the product and the reciprocal u each) and its multiply u,
      so gamma_v is within (3a + 5.5 + E) u of exact, relative;
    - each step of ``gauss_deriv_coeffs`` adds two terms of one sign (the
      Hermite coefficients alternate by twos), so P's coefficients c_i
      are within 2 order u of exact, and Horner adds 2 order u of
      M(x) = sum |c_i| |x|^i; the last multiply rounds once more.
    So D^order gamma_v is within (4 order + 3a + 6.5 + E) u M(x) gamma_v(x)
    of exact for order >= 1, and gamma_v within (3a + 5.5 + E) u gamma_v(x).
    The division sequence this replaced had 2a for 3a and 4.5 for 5.5, so a
    grid integral moves between the two by at most both bounds carried
    through its integrand and the trapezoid sum.  ``tests/test_gaussmix.py``
    checks the bound against mpmath over +-14 sd.
    """
    x = np.asarray(x, dtype=float)
    if not variance >= _LEAST_VARIANCE:
        raise ValueError(
            f"variance must be at least {_LEAST_VARIANCE!r}, where -0.5/v is finite, got {variance}"
        )
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
    out *= -0.5 / variance
    np.exp(out, out=out)
    out *= 1.0 / (_SQRT2PI * math.sqrt(variance))
    if h is not None:
        out *= h
    return out[()] if out.ndim == 0 else out


def _shifted_moment(j: int, variance: float, mean: float) -> float:
    """E[(mean + Z)^j] for Z ~ N(0, variance)."""
    if not mean:
        return gauss_raw_moment(j, variance)
    return math.fsum(
        math.comb(j, k) * mean ** (j - k) * gauss_raw_moment(k, variance) for k in range(j + 1)
    )


@dataclass(frozen=True)
class GaussDerivMixture:
    """Signed combination sum_j coeff_j * D^{order_j} gamma_{variance_j}(. - mean_j).

    Terms with identical (order, variance, mean) are merged by coefficient
    addition at construction; no epsilon-merging, so the algebra stays
    predictable.  The merged terms are kept in a stable sort on (order,
    variance), so terms of one (order, variance) keep the order in which
    they first appear (a location mixture's component order).  Only the
    order-0 terms carry mass.
    """

    terms: tuple[DerivTerm, ...]

    def __post_init__(self):
        merged: dict[tuple[int, float, float], float] = {}
        for term in self.terms:
            coeff, order, variance, mean = DerivTerm(*term)
            coeff, order, variance, mean = float(coeff), int(order), float(variance), float(mean)
            if not all(map(math.isfinite, (coeff, variance, mean))):
                raise ValueError(f"coeff, variance and mean must be finite, got {tuple(term)}")
            if variance <= 0:
                raise ValueError(f"variance must be positive, got {variance}")
            if order < 0 or order > MAX_ORDER:
                raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")
            key = (order, variance, mean)
            merged[key] = merged.get(key, 0.0) + coeff
        out = sorted(
            (DerivTerm(c, *key) for key, c in merged.items() if c != 0.0),
            key=lambda t: (t.order, t.variance),
        )
        object.__setattr__(self, "terms", tuple(out))

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(t.coeff for t in self.terms)

    @property
    def means(self) -> tuple[float, ...]:
        return tuple(t.mean for t in self.terms)

    @property
    def variances(self) -> tuple[float, ...]:
        return tuple(t.variance for t in self.terms)

    @property
    def mass(self) -> float:
        return math.fsum(t.coeff for t in self.terms if t.order == 0)

    @property
    def max_variance(self) -> float:
        return max(t.variance for t in self.terms)

    def window(self) -> tuple[float, float]:
        r = 12.0 * math.sqrt(self.max_variance)
        return (min(self.means) - r, max(self.means) + r)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        return self.pdf_many((self,), x)[0]

    @staticmethod
    def pdf_many(
        mixtures: Sequence["GaussDerivMixture"],
        x: np.ndarray | float,
        out: Sequence[np.ndarray] | None = None,
        work: Sequence[np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Each mixture's density on x, every distinct term column evaluated once.

        Keys the terms on (order, variance, mean) and walks the keys in a
        stable sort on (order, variance), each (order, variance) in the
        order of its keys' first appearance in the batch.  It evaluates each
        key's column once, D^m gamma_v at x - mean (x itself at mean 0),
        and adds coeff * column to every mixture that holds the key.  A
        mixture's sum has the bits it has alone whenever the batch walks
        its keys in its own term order: whenever, for each (order,
        variance) it holds with several means, those keys first appear in
        the batch in the mixture's own order.  The first mixture of a batch
        always qualifies, and so does every mixture that holds each (order,
        variance) with one mean, as zero-mean mixtures do.  Each sum has the
        bits of 0.0 + the first coeff * column + the next ...: the first
        product goes straight into the accumulator, and gets + 0.0, which
        turns -0.0 into 0.0, only where it may hold -0.0 (an order-0 column
        is >= 0, so times a positive coeff it cannot).  A mixture with no
        terms reads 0.0.  One column buffer and one coeff * column buffer
        serve every key, beside one accumulator per mixture.  The
        accumulators are ``out`` and the two buffers ``work`` when given,
        each shaped like x.
        """
        x = np.asarray(x, dtype=float)
        outs = [np.empty_like(x) for _ in mixtures] if out is None else list(out)
        holders: dict[tuple[int, float, float], list[tuple[float, int]]] = {}
        for i, m in enumerate(mixtures):
            for t in m.terms:
                holders.setdefault(t[1:], []).append((t.coeff, i))
        unset = [True] * len(outs)
        column, scaled = (np.empty_like(x), np.empty_like(x)) if work is None else work
        for order, variance, mean in sorted(holders, key=lambda key: key[:2]):
            # x - 0.0 is x, so zero-mean columns skip the shift pass
            shifted = np.subtract(x, mean, out=column) if mean else x
            gauss_deriv_pdf(shifted, variance, order, out=column)
            for coeff, i in holders[order, variance, mean]:
                if unset[i]:
                    np.multiply(coeff, column, out=outs[i])
                    if order or coeff < 0.0:
                        outs[i] += 0.0
                    unset[i] = False
                else:
                    outs[i] += np.multiply(coeff, column, out=scaled)
        for acc, empty in zip(outs, unset):
            if empty:
                acc.fill(0.0)
        return outs

    def convolve(self, other: "GaussDerivMixture") -> "GaussDerivMixture":
        """Law of X + Y: D^m gamma_a(. - mu) * D^n gamma_b(. - nu) =
        D^{m+n} gamma_{a+b}(. - mu - nu), so orders, variances and means add."""
        return GaussDerivMixture(
            tuple(
                DerivTerm(c1 * c2, o1 + o2, v1 + v2, mu1 + mu2)
                for c1, o1, v1, mu1 in self.terms
                for c2, o2, v2, mu2 in other.terms
            )
        )

    def convolve_gaussian(self, variance: float) -> "GaussDerivMixture":
        """Law of X + Z with Z ~ gamma_variance; variance 0 returns self."""
        if variance == 0.0:
            return self
        return self.convolve(gaussian(variance))

    def scaled(self, s: float) -> "GaussDerivMixture":
        """Law of s X for s > 0: coeff s^m, variance s^2 v, mean s mu."""
        if s <= 0:
            raise ValueError("scale must be positive")
        return GaussDerivMixture(
            tuple(DerivTerm(c * s**m, m, s * s * v, s * mu) for c, m, v, mu in self.terms)
        )

    def reflected(self) -> "GaussDerivMixture":
        """Law of -X: coeff (-1)^m, mean -mu."""
        return GaussDerivMixture(
            tuple(DerivTerm(c * (-1) ** m, m, v, -mu) for c, m, v, mu in self.terms)
        )

    def derivative(self, k: int = 1) -> "GaussDerivMixture":
        """D^k of the density (k >= 0): every order plus k."""
        return GaussDerivMixture(tuple(DerivTerm(c, m + k, v, mu) for c, m, v, mu in self.terms))

    def moments(self, up_to: int) -> np.ndarray:
        """Raw moments m_1..m_up_to of the mass-normalized law (ValueError
        unless the mass is positive).

        Uses int x^i D^m gamma_v(x - mu) dx = (-1)^m * i!/(i-m)! *
        E[(mu + Z)^{i-m}], Z ~ N(0, v), from m integrations by parts.
        """
        mass = self.mass
        if not mass > 0:
            raise ValueError(f"moments need a positive mass, got {mass}")
        out = np.zeros(up_to)
        for i in range(1, up_to + 1):
            acc = 0.0
            for coeff, order, variance, mean in self.terms:
                if order <= i:
                    acc += (
                        coeff
                        * (-1) ** order
                        * math.perm(i, order)
                        * _shifted_moment(i - order, variance, mean)
                    )
            out[i - 1] = acc / mass
        return out

    def second_moment(self) -> float:
        return float(self.moments(2)[1])


def gaussian(variance: float) -> GaussDerivMixture:
    """The centered Gaussian gamma_variance as a one-term mixture."""
    return GaussDerivMixture((DerivTerm(1.0, 0, float(variance)),))


class GaussMixture(GaussDerivMixture):
    """Nonnegative Gaussian location mixture sum_j w_j gamma_{v_j}(. - mu_j),
    built from its weights, means and variances."""

    def __init__(self, weights: Sequence[float], means: Sequence[float], variances: Sequence[float]):
        if not len(weights) == len(means) == len(variances) > 0:
            raise ValueError("weights, means, variances must be equal-length, nonempty")
        super().__init__(tuple(map(DerivTerm, weights, [0] * len(weights), variances, means)))
        if not all(w > 0 for w in weights):
            raise ValueError("weights must be positive")

    # its own binding of the method: the benchmark's tracer
    # (perfbench/trace_run.py) hooks GaussMixture.__dict__["convolve"]
    convolve = GaussDerivMixture.convolve
