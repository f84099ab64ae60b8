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


def _check_variance(variance: float) -> None:
    """Reject a NaN variance and one below ``_LEAST_VARIANCE`` (about
    2.8e-309), where -0.5/v overflows and 0 * -inf would read NaN at x = 0
    (ValueError)."""
    if not variance >= _LEAST_VARIANCE:
        raise ValueError(
            f"variance must be at least {_LEAST_VARIANCE!r}, where -0.5/v is finite, got {variance}"
        )


def _scale(variance: float) -> float:
    """gamma_v(0) = 1/(sqrt(2 pi) sqrt(v)), formed once per term: a column
    is D^m gamma_v over it, and each term folds it into its coefficient."""
    return 1.0 / (_SQRT2PI * math.sqrt(variance))


def gauss_deriv_pdf(x: np.ndarray | float, variance: float, order: int = 0) -> np.ndarray:
    """Evaluate D^order gamma_variance pointwise.

    The one-term case of ``pdf_many``'s tabulation (``_tabulate``), so it
    has the bits of ``DerivTerm(1.0, order, variance)``'s density: the
    column P(x) e^{-a}, a = x^2/(2v), times the scale 1/(sqrt(2 pi)
    sqrt(v)).  y = x*x, e = exp(y * (-0.5/v)), and P has one parity (DLMF
    §18.9), so P(x) = x^(order mod 2) Q(y): Horner's rule runs over Q's
    order // 2 + 1 coefficients in y, with no pass that adds 0.0.  A 0-d
    input returns a scalar.  Rejects what
    ``_check_variance`` rejects (ValueError).

    Rounding, to first order in u = 2^-53, while gamma_v stays a normal
    float (Higham, SISC 1993):
    - y, -0.5/v and their product round once each, so the exponent is
      -a(1 + t) with |t| <= 3u, which moves exp by 3au relative at most;
    - exp adds E u (numpy's accuracy tests hold float64 exp to one ulp,
      so E = 2);
    - each step of ``gauss_deriv_coeffs`` adds two terms of one sign (the
      Hermite coefficients alternate by twos), so P's coefficients c_i
      are within 2 order u of exact;
    - Horner's d = order // 2 steps in y add 2d u of
      M(x) = sum |c_i| |x|^i, and y^i's rounding d u more; the multiply by
      x at odd order and the one by e round once each, so the column is
      within (2 order + 3d + 2) u <= (3.5 order + 1) u of M(x), beside e's
      error;
    - the scale adds 4.5u (sqrt(2 pi) of the rounded pi 1.5u, then
      sqrt(v), the product and the reciprocal u each) and its multiply u.
    So D^order gamma_v is within (3.5 order + 3a + 6.5 + E) u M(x)
    gamma_v(x) of exact for order >= 1, and gamma_v, whose bits the column
    form keeps, within (3a + 5.5 + E) u gamma_v(x).  A term coeff D^m
    gamma_v of ``pdf_many`` adds u for coeff * scale: (3.5m + 3a + 7.5 + E)
    u |coeff| M(x) gamma_v(x).  ``tests/test_gaussmix.py`` checks the bound
    against mpmath over +-14 sd.
    """
    x = np.asarray(x, dtype=float)
    _check_variance(variance)
    out = np.empty_like(x)
    _tabulate(x, {(order, variance, 0.0): [(_scale(variance), 0)]}, [out])
    return out[()] if out.ndim == 0 else out


def _tabulate(
    x: np.ndarray,
    walk: dict[tuple[int, float, float], list[tuple[float, int]]],
    outs: Sequence[np.ndarray],
    work: Sequence[np.ndarray] = (),
) -> None:
    """Set each outs[i] to the sum of column * scale over the keys (order,
    variance, mean) of ``walk``, in its order, and their holders (scale, i),
    starting at the first product; to 0.0 where no key has i.

    A key's column is D^order gamma_v(x - mean) / ``_scale(v)``: e itself
    at order 0, else Q(y) z^(order mod 2) e (``gauss_deriv_pdf``), where
    z = x - mean, x itself at mean 0, y = z*z and e = exp(y * (-0.5/v)).
    Keys of one (variance, mean) next to each other in the walk are a run,
    which shares y and e: one exponential per run, and one y = x*x for
    every run at mean 0.  y is finite over a law's ``window()``, which
    rejects a law where it would not be; the exponent may still overflow
    far from a narrow term's mean, to -inf, whose e is the exact 0.  A
    first product goes straight into its accumulator, so a sum may read
    -0.0, as the first product + the next ... does; the last holder of a
    column that no later key reads scales it in place.  The rows past the
    accumulators are ``work``'s, then fresh ones shaped like x: e; y, at
    mean 0 or for Horner past order 1; the Horner column; and a product
    row, for a holder between a column's first and last, or z at an odd
    order past 1 off mean 0.
    Rejects a variance that ``_check_variance`` rejects before its
    exponential, and an order or coefficients that ``gauss_deriv_poly``
    rejects (ValueError).
    """
    rows = [*work, None, None, None, None][:4]

    def row(i: int) -> np.ndarray:
        if rows[i] is None:
            rows[i] = np.empty_like(x)
        return rows[i]

    runs: list[tuple[tuple[float, float], list]] = []
    for (order, variance, mean), holders in walk.items():
        if not runs or runs[-1][0] != (variance, mean):
            runs.append(((variance, mean), []))
        runs[-1][1].append((order, holders))
    unset = [True] * len(outs)
    y_mean = None  # the mean whose (x - mean)^2 the y row holds
    for (variance, mean), run in runs:
        _check_variance(variance)
        e = row(0)
        if not mean or max(order for order, _ in run) >= 2:
            y = row(1)
            if y_mean != mean:
                # x - 0.0 is x, so a zero mean skips the shift pass
                np.square(np.subtract(x, mean, out=y) if mean else x, out=y)
                y_mean = mean
            square = y
        else:
            square = np.square(np.subtract(x, mean, out=e), out=e)
        with np.errstate(over="ignore"):  # -inf, whose exp is the exact 0
            np.multiply(square, -0.5 / variance, out=e)
        np.exp(e, out=e)
        for j, (order, holders) in enumerate(run):
            if not order:
                column = e
            else:
                q = gauss_deriv_poly(order, variance)[order % 2 :: 2]
                column = row(2)
                if len(q) == 1:  # order 1: P = q_0 z
                    np.multiply(np.subtract(x, mean, out=column) if mean else x, q[0], out=column)
                else:
                    np.multiply(y, q[-1], out=column)
                    column += q[-2]
                    for c in q[-3::-1]:
                        column *= y
                        column += c
                    if order % 2:
                        column *= np.subtract(x, mean, out=row(3)) if mean else x
                column *= e
            # the last holder scales the column in place unless it is e and
            # a later key of the run reads it
            disposable = order or j == len(run) - 1
            for h, (scale, i) in enumerate(holders):
                acc = outs[i]
                if unset[i]:
                    np.multiply(column, scale, out=acc)
                    unset[i] = False
                elif disposable and h == len(holders) - 1:
                    column *= scale
                    acc += column
                else:
                    acc += np.multiply(column, scale, out=row(3))
    for acc, empty in zip(outs, unset):
        if empty:
            acc.fill(0.0)


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
        """(lo, hi), 12 sd of the widest term past every mean.  Tabulation
        squares x - mean over it, so a law is rejected (ValueError) where
        the square from a term's mean to the window's far edge is not
        finite: for a centred law of variance v, where (12 sqrt(v))^2 is
        not, about where 144 v is not."""
        r = 12.0 * math.sqrt(self.max_variance)
        low, high = min(self.means), max(self.means)
        lo, hi = low - r, high + r
        far = max(hi - low, high - lo)
        if not math.isfinite(far * far):
            raise ValueError(
                f"law of variance {self.max_variance} too wide: (x - mean)^2 overflows "
                f"on its +-12 sd window [{lo}, {hi}]"
            )
        return lo, hi

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
        key's column once, D^m gamma_v(x - mean) over gamma_v(0), and adds
        column * (coeff * gamma_v(0)) to every mixture that holds the key:
        the scale is each holder's, so the column is shared (``_tabulate``,
        which also bounds the rounding, and ``gauss_deriv_pdf``).  Keys of
        one (variance, mean) next to each other in the walk share one
        exponential, as the orders m and m + 1 of a derivative law and its
        derivative do in a Fisher pass.  A mixture's sum has the bits it has
        alone whenever the batch walks its keys in its own term order:
        whenever, for each (order, variance) it holds with several means,
        those keys first appear in the batch in the mixture's own order.
        The first mixture of a batch always qualifies, and so does every
        mixture that holds each (order, variance) with one mean, as
        zero-mean mixtures do.  Each sum has the bits of the first product
        + the next ...; a mixture with no terms reads 0.0.  The
        accumulators are ``out`` when given, shaped like x; ``work`` lends
        ``_tabulate`` its spare rows, at most four, of x's shape.
        """
        x = np.asarray(x, dtype=float)
        outs = [np.empty_like(x) for _ in mixtures] if out is None else list(out)
        holders: dict[tuple[int, float, float], list[tuple[float, int]]] = {}
        for i, m in enumerate(mixtures):
            for t in m.terms:
                holders.setdefault(t[1:], []).append((t.coeff * _scale(t.variance), i))
        walk = {key: holders[key] for key in sorted(holders, key=lambda key: key[:2])}
        _tabulate(x, walk, outs, () if work is None else work)
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
