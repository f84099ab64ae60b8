"""Exact Gaussian-derivative algebra against quadrature and finite-difference
oracles."""

import math
import re
import struct
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from _oracles import deriv_column, first_plus_the_rest, gauss_deriv_coeffs_every_slot, hermite_weighted_norm
from ziclab import gaussmix
from ziclab.gaussmix import (
    MAX_ORDER,
    DerivTerm,
    GaussDerivMixture,
    GaussMixture,
    gauss_deriv_pdf,
    gauss_deriv_poly,
    gaussian,
)
from ziclab.hessian import gauss_deriv_coeffs


# ----------------------------------------------------------------------
# convolution algebra
# ----------------------------------------------------------------------


def test_gaussian_convolution_identity():
    out = gaussian(2.0).convolve(gaussian(1.0))
    assert out.terms == (DerivTerm(1.0, 0, 3.0),)


def test_perturbed_convolution_keeps_derivative_order():
    K, u, delta, eps = 2.0, 1.0, 0.1, 0.01
    p1 = GaussDerivMixture(((1.0, 0, K), (-eps, 3, K - delta)))
    out = p1.convolve(gaussian(u))
    assert out.terms == (
        DerivTerm(1.0, 0, K + u),
        DerivTerm(-eps, 3, K + u - delta),
    )


def test_telescoping_product_single_step():
    # expanding (gamma_K - eps D^3 g_{K-d}) * (gamma_L + eps D^3 g_{L-d})
    # by hand leaves only the order-0 and order-6 terms
    K, L, delta, eps = 2.0, 1.5, 0.1, 0.01
    p1 = GaussDerivMixture(((1.0, 0, K), (-eps, 3, K - delta)))
    p2 = GaussDerivMixture(((1.0, 0, L), (eps, 3, L - delta)))
    out = p1.convolve(p2)
    assert out.terms == (
        DerivTerm(1.0, 0, K + L),
        DerivTerm(-eps * eps, 6, K + L - 2 * delta),
    )


def test_convolution_commutative_associative(rng):
    # dyadic variances add exactly, so the merged term sets must agree
    # exactly under any association order
    for _ in range(25):
        mixes = []
        for _ in range(3):
            terms = tuple(
                DerivTerm(
                    rng.normal(),
                    int(rng.integers(0, 5)),
                    float(rng.integers(8, 48)) / 16.0,
                )
                for _ in range(int(rng.integers(1, 4)))
            )
            mixes.append(GaussDerivMixture(terms))
        a, b, c = mixes
        ab = a.convolve(b)
        ba = b.convolve(a)
        assert set(t[1:] for t in ab.terms) == set(t[1:] for t in ba.terms)
        for t1, t2 in zip(ab.terms, ba.terms):
            assert t1.coeff == pytest.approx(t2.coeff, abs=1e-12)
        left = ab.convolve(c)
        right = a.convolve(b.convolve(c))
        assert set(t[1:] for t in left.terms) == set(t[1:] for t in right.terms)
        for t1, t2 in zip(left.terms, right.terms):
            assert t1.coeff == pytest.approx(t2.coeff, abs=1e-12)


# dyadic coefficients, means and variances with small numerators: their
# sums and products are exact, so the algebraic laws hold bit for bit
PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=40)


def dyadic(lo, hi, den):
    return st.integers(lo, hi).map(lambda k: k / den)


variances = dyadic(1, 48, 16)
means = dyadic(-24, 24, 8)
location_mixtures = st.lists(
    st.tuples(dyadic(1, 32, 16), means, variances), min_size=1, max_size=3
).map(lambda ts: GaussMixture(*zip(*ts)))
deriv_mixtures = st.lists(
    st.tuples(dyadic(-32, 32, 16), st.integers(0, 4), variances), min_size=1, max_size=3
).map(lambda ts: GaussDerivMixture(tuple(DerivTerm(*t) for t in ts)))
shifted_deriv_mixtures = st.lists(
    st.tuples(dyadic(-32, 32, 16), st.integers(0, 4), variances, means), min_size=1, max_size=3
).map(lambda ts: GaussDerivMixture(tuple(DerivTerm(*t) for t in ts)))
# unit mass: one order-0 term of weight 1, every other term of order >= 1
unit_deriv_mixtures = st.tuples(
    variances,
    st.lists(st.tuples(dyadic(-8, 8, 64), st.integers(1, 4), variances), max_size=3),
).map(lambda a: GaussDerivMixture((DerivTerm(1.0, 0, a[0]),) + tuple(DerivTerm(*t) for t in a[1])))


def location_terms(m):
    return sorted(zip(m.weights, m.means, m.variances))


@PROPERTY
@given(a=location_mixtures, b=location_mixtures, c=location_mixtures)
def test_location_convolution_commutative_associative(a, b, c):
    assert location_terms(a.convolve(b)) == location_terms(b.convolve(a))
    assert location_terms(a.convolve(b).convolve(c)) == location_terms(a.convolve(b.convolve(c)))


@PROPERTY
@given(a=deriv_mixtures, b=deriv_mixtures, c=deriv_mixtures)
def test_deriv_convolution_commutative_associative_exact(a, b, c):
    assert a.convolve(b).terms == b.convolve(a).terms
    assert a.convolve(b).convolve(c).terms == a.convolve(b.convolve(c)).terms


def assert_second_moments_add(a, b):
    ma, mb = a.moments(2), b.moments(2)
    m2 = a.convolve(b).moments(2)[1]
    assert m2 == pytest.approx(ma[1] + mb[1] + 2.0 * ma[0] * mb[0], rel=1e-12, abs=1e-12)


@PROPERTY
@given(a=location_mixtures, b=location_mixtures)
def test_location_second_moments_add(a, b):
    assert_second_moments_add(a, b)


@PROPERTY
@given(a=unit_deriv_mixtures, b=unit_deriv_mixtures)
def test_deriv_second_moments_add(a, b):
    assert_second_moments_add(a, b)


@PROPERTY
@given(a=location_mixtures, b=unit_deriv_mixtures)
def test_location_deriv_second_moments_add(a, b):
    assert_second_moments_add(a, b)
    assert_second_moments_add(b, a)


def test_moments_reject_non_positive_mass():
    for m in (GaussDerivMixture((DerivTerm(1.0, 1, 1.0),)), GaussDerivMixture((DerivTerm(-1.0, 0, 1.0),))):
        with pytest.raises(ValueError, match="positive mass"):
            m.moments(2)


@PROPERTY
@given(a=location_mixtures, d=deriv_mixtures, v=variances)
def test_convolve_gaussian_is_convolution_with_gaussian(a, d, v):
    assert a.convolve_gaussian(v) == a.convolve(GaussMixture((1.0,), (0.0,), (v,)))
    assert d.convolve_gaussian(v).terms == d.convolve(gaussian(v)).terms
    assert a.convolve_gaussian(0.0) is a
    assert d.convolve_gaussian(0.0) is d


def test_validation_rejects_bad_terms():
    with pytest.raises(ValueError):
        GaussDerivMixture(((1.0, 0, 0.0),))
    with pytest.raises(ValueError):
        GaussDerivMixture(((1.0, -1, 1.0),))
    with pytest.raises(ValueError):
        GaussDerivMixture(((1.0, 65, 1.0),))


def window_accepts(m):
    try:
        m.window()
    except ValueError:
        return False
    return True


def test_window_rejects_a_law_whose_square_overflows():
    # the largest centred variance whose window squares to a finite float,
    # by bisection over the positive floats' bit patterns (ordered as ints)
    bits = lambda v: struct.unpack("<q", struct.pack("<d", v))[0]
    value = lambda b: struct.unpack("<d", struct.pack("<q", b))[0]
    lo, hi = bits(1.0), bits(sys.float_info.max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if window_accepts(gaussian(value(mid))) else (lo, mid)
    widest, rejected = value(lo), value(hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = gaussian(widest)
        ends = law.pdf(np.array(law.window()))
    # e^-72 / sqrt(2 pi v) at both edges, about 1.9e-185
    assert ends[0] == ends[1] == pytest.approx(math.exp(-72.0) / math.sqrt(2.0 * math.pi * widest))
    with pytest.raises(ValueError, match=re.escape(f"law of variance {rejected!r} too wide: ")):
        gaussian(rejected).window()
    # the ladder's former bound: the least v where 144 v is not finite
    old = sys.float_info.max / 144.0
    while math.isfinite(144.0 * old):
        old = math.nextafter(old, math.inf)
    assert abs(rejected - old) <= math.ulp(old)
    # a location mixture whose mean spread alone overflows, of two laws
    # that pass on their own
    wide = GaussMixture((0.5, 0.5), (-1e154, 1e154), (1.0, 1.0))
    assert window_accepts(GaussMixture((1.0,), (-1e154,), (1.0,)))
    assert window_accepts(GaussMixture((1.0,), (1e154,), (1.0,)))
    with pytest.raises(ValueError, match=r"law of variance 1.0 too wide: .* \[-1e\+154, 1e\+154\]$"):
        wide.window()


def test_an_exponent_past_the_float_range_reads_an_exact_zero():
    # (x - mean)^2 is finite over the window, but times -0.5/v = -5e199
    # it overflows far from each narrow term's mean: exp(-inf) is the exact
    # 0 that the density rounds to there, with no overflow warning
    m = GaussMixture((0.5, 0.5), (0.0, 1e150), (1e-200, 1e-200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = m.pdf(np.linspace(*m.window(), 5))
    peak = 0.5 / math.sqrt(2.0 * math.pi * 1e-200)
    assert values[0] > 0.0 and values[0] == pytest.approx(peak * math.exp(-72.0))
    assert values[1:4].tolist() == [0.0, 0.0, 0.0]
    assert values[4] == pytest.approx(peak)


# ----------------------------------------------------------------------
# density evaluation
# ----------------------------------------------------------------------


def test_eval_gaussian_at_zero():
    assert gaussian(1.0).pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)


def test_eval_first_derivative_odd():
    m = GaussDerivMixture(((1.0, 1, 1.0),))
    assert m.pdf(0.0) == pytest.approx(0.0, abs=1e-15)


def test_eval_matches_finite_differences():
    # value frozen against central finite differences of gamma_{0.9}
    eps, v, x0 = 0.01, 0.9, 1.3

    def g(x):
        return math.exp(-x * x / (2 * v)) / math.sqrt(2 * math.pi * v)

    h = 1e-3
    # 5-point central third derivative
    d3 = (g(x0 + 2 * h) - 2 * g(x0 + h) + 2 * g(x0 - h) - g(x0 - 2 * h)) / (2 * h**3)
    expected = math.exp(-x0 * x0 / 2) / math.sqrt(2 * math.pi) - eps * d3
    m = GaussDerivMixture(((1.0, 0, 1.0), (-eps, 3, v)))
    assert m.pdf(x0) == pytest.approx(expected, abs=1e-6)


def test_deriv_poly_matches_rodrigues():
    # recursion coefficients agree with (-1)^k v^{-k/2} He_k(x/sqrt v)
    x = np.linspace(-4, 4, 41)
    for k in range(9):
        for v in (0.5, 1.0, 2.7):
            lhs = np.polynomial.polynomial.polyval(x, gauss_deriv_poly(k, v))
            he = np.polynomial.hermite_e.hermeval(x / math.sqrt(v), [0.0] * k + [1.0])
            rhs = (-1) ** k * v ** (-k / 2.0) * he
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_deriv_poly_leading_coefficient():
    for k in range(1, 10):
        for v in (0.5, 1.0, 3.0):
            p = gauss_deriv_poly(k, v)
            assert p[-1] == pytest.approx((-1.0 / v) ** k, rel=1e-12)


# ----------------------------------------------------------------------
# weighted norms and orthogonality
# ----------------------------------------------------------------------


def test_hermite_weighted_norm_trivial():
    assert hermite_weighted_norm(0, 2.0) == 1.0
    assert hermite_weighted_norm(3, 1.0) == 6.0


def test_hermite_weighted_norm_quadrature():
    # k=3, K=2 -> 0.75, and the general identity against adaptive quadrature
    assert hermite_weighted_norm(3, 2.0) == pytest.approx(0.75, abs=1e-12)
    for k in range(7):
        for K in (0.5, 1.0, 2.0, 4.0):
            val, _ = quad(
                lambda x: gauss_deriv_pdf(x, K, k) ** 2 / gauss_deriv_pdf(x, K),
                -14 * math.sqrt(K),
                14 * math.sqrt(K),
                epsabs=1e-12,
                epsrel=1e-12,
                limit=200,
            )
            assert val == pytest.approx(hermite_weighted_norm(k, K), abs=1e-8)


def test_weighted_norm_scaling_exact():
    for k in range(7):
        for K in (0.5, 1.3, 4.0):
            assert hermite_weighted_norm(k, 2 * K) * 2**k == pytest.approx(
                hermite_weighted_norm(k, K), rel=1e-14
            )


def test_orthogonality_of_derivative_system():
    K = 1.7
    r = 14 * math.sqrt(K)
    for j in range(7):
        for k in range(j + 1, 7):
            val, _ = quad(
                lambda x: gauss_deriv_pdf(x, K, j)
                * gauss_deriv_pdf(x, K, k)
                / gauss_deriv_pdf(x, K),
                -r,
                r,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=200,
            )
            assert abs(val) < 1e-8


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------


def test_gaussian_moments():
    m = gaussian(3.0).moments(4)
    assert m == pytest.approx([0.0, 3.0, 0.0, 27.0], abs=1e-12)


def test_third_derivative_term_moment_sign():
    # m3 of gamma_K - eps D^3 gamma_{K-d} is +6 eps: integral x^3 D^3 gamma
    # = -6 by three integrations by parts; the numeric moment oracle below
    # pins the sign convention
    eps = 0.01
    m = GaussDerivMixture(((1.0, 0, 1.0), (-eps, 3, 0.9)))
    mom = m.moments(3)
    assert mom[0] == pytest.approx(0.0, abs=1e-12)
    assert mom[1] == pytest.approx(1.0, abs=1e-12)
    assert mom[2] == pytest.approx(6 * eps, rel=1e-12)
    x = np.linspace(-14, 14, 200001)
    numeric = np.trapezoid(x**3 * m.pdf(x), x)
    assert numeric == pytest.approx(6 * eps, rel=1e-6)


def test_first_derivative_term_moment():
    c = 0.05
    m = GaussDerivMixture(((1.0, 0, 1.0), (c, 1, 0.8)))
    assert m.moments(1)[0] == pytest.approx(-c, abs=1e-14)


def test_unit_mass_integrates_to_one(rng):
    for _ in range(10):
        base_v = float(rng.uniform(0.5, 2.0))
        terms = [DerivTerm(1.0, 0, base_v)]
        for _ in range(int(rng.integers(1, 3))):
            terms.append(
                DerivTerm(
                    float(rng.normal() * 1e-3),
                    int(rng.integers(1, 6)),
                    float(rng.uniform(0.3, base_v)),
                )
            )
        m = GaussDerivMixture(tuple(terms))
        lo, hi = m.window()
        x = np.linspace(lo, hi, 16384)
        assert np.trapezoid(m.pdf(x), x) == pytest.approx(1.0, abs=1e-9)


def test_scaled_law():
    m = GaussMixture((0.7, 0.3), (0.75, -1.75), (1.0, 0.5))
    s = 2.0
    ms = m.scaled(s)
    raw = m.moments(3)
    raws = ms.moments(3)
    assert raws[1] == pytest.approx(s**2 * raw[1], rel=1e-12)
    assert raws[2] == pytest.approx(s**3 * raw[2], rel=1e-12)
    x = np.linspace(-8, 8, 11)
    assert np.allclose(ms.pdf(x), m.pdf(x / s) / s, atol=1e-14)


# ----------------------------------------------------------------------
# location mixtures
# ----------------------------------------------------------------------


def test_location_mixture_moments_match_quadrature():
    q = GaussMixture((0.7, 0.3), (0.75, -1.75), (1.0, 1.0))
    mom = q.moments(3)
    x = np.linspace(-20, 20, 400001)
    p = q.pdf(x)
    for k in (1, 2, 3):
        assert mom[k - 1] == pytest.approx(np.trapezoid(x**k * p, x), abs=1e-8)
    assert mom[0] == pytest.approx(0.0, abs=1e-12)
    assert mom[1] == pytest.approx(2.3125, rel=1e-12)
    assert mom[2] == pytest.approx(-1.3125, rel=1e-12)


def test_location_mixture_convolution_against_grid(rng):
    a = GaussMixture((0.6, 0.4), (-1.0, 1.5), (1.0, 0.5))
    b = GaussMixture((1.0,), (0.3,), (0.7,))
    conv = a.convolve(b)
    x = np.linspace(-15, 15, 2001)
    # direct quadrature of the convolution integral at a few points
    s = np.linspace(-20, 20, 40001)
    for xi in (-2.0, 0.0, 1.3):
        direct = np.trapezoid(a.pdf(s) * b.pdf(xi - s), s)
        assert conv.pdf(xi) == pytest.approx(direct, abs=1e-10)


def test_location_mixture_derivatives_match_fd():
    q = GaussMixture((0.7, 0.3), (0.75, -1.75), (1.0, 1.0))
    h = 1e-3
    for x0 in (-1.0, 0.4):
        fd2 = (q.pdf(x0 + h) - 2 * q.pdf(x0) + q.pdf(x0 - h)) / h**2
        assert q.derivative(2).pdf(np.array(x0)) == pytest.approx(fd2, abs=1e-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_location_mixture_rejects_non_finite(bad):
    # a weight or coeff, a variance or a mean, through either constructor
    for c, v, mu in ((bad, 1.0, 0.5), (0.5, bad, 0.5), (0.5, 1.0, bad)):
        with pytest.raises(ValueError, match="must be finite"):
            GaussMixture((0.5, c), (0.0, mu), (1.0, v))
        with pytest.raises(ValueError, match="must be finite"):
            GaussDerivMixture((DerivTerm(1.0, 0, 1.0), DerivTerm(c, 3, v, mu)))


def term_magnitude(m, x):
    """sum_j |c_j D^m_j gamma_v_j(x - mu_j)|, the scale of the rounding in m.pdf(x)."""
    return sum((abs(c) * np.abs(gauss_deriv_pdf(x - mu, v, o)) for c, o, v, mu in m.terms), np.zeros_like(x))


@PROPERTY
@given(m=shifted_deriv_mixtures, s=dyadic(1, 64, 16))
def test_scaled_and_reflected_laws(m, s):
    # the law of s X has density p(x/s)/s, the law of -X has p(-x)
    x = np.linspace(-30.0, 30.0, 241)
    scale = term_magnitude(m, x / s) / s
    assert np.all(np.abs(m.scaled(s).pdf(x) - m.pdf(x / s) / s) <= 1e-12 * scale + 1e-300)
    assert np.all(np.abs(m.reflected().pdf(x) - m.pdf(-x)) <= 1e-12 * term_magnitude(m, -x) + 1e-300)


# ----------------------------------------------------------------------
# batch tabulation and the kernels under it
# ----------------------------------------------------------------------


def loop_pdf(m, x):
    """The per-term loop of a mixture density, in the mixture's own term
    order: each term's column at x - mean times coeff * gamma_v(0), summed
    from the first product; x - 0.0 is x, bit for bit."""
    products = [
        deriv_column(x - mean, variance, order) * (coeff * (1.0 / (math.sqrt(2.0 * math.pi) * math.sqrt(variance))))
        for coeff, order, variance, mean in m.terms
    ]
    return first_plus_the_rest(products, x)


# terms drawn from a small key pool, so mixtures share keys, with means
# mostly 0; a term drawn with its negative cancels to nothing
batch_keys = st.tuples(
    st.integers(0, 12), st.sampled_from((0.3, 0.75, 1.0, 1.7, 9.0)), st.sampled_from((0.0, 0.0, 1.5, -2.25))
)
batch_terms = st.lists(
    st.tuples(st.floats(-4.0, 4.0, allow_nan=False), batch_keys, st.booleans()), max_size=6
)


def batch_mixture(drawn):
    terms = []
    for coeff, key, cancelled in drawn:
        terms.append(DerivTerm(coeff, *key))
        if cancelled:
            terms.append(DerivTerm(-coeff, *key))
    return GaussDerivMixture(tuple(terms))


def walked_in_own_order(m, batch):
    """pdf_many's condition for m's alone bits: for each (order, variance)
    m holds with several means, those keys first appear in the batch in
    m's own order (m's terms of one (order, variance) are adjacent)."""
    first = {key: i for i, key in enumerate(dict.fromkeys(t[1:] for b in batch for t in b.terms))}
    return all(
        first[s[1:]] < first[t[1:]] for s, t in zip(m.terms, m.terms[1:]) if s[1:3] == t[1:3]
    )


# three means of one (order, variance): the second law follows the first
# one's order, the third does not
SHIFTED_BATCH = [
    GaussDerivMixture((DerivTerm(0.3, 0, 1.0, 1.5), DerivTerm(0.1, 0, 1.0), DerivTerm(0.7, 0, 1.0, -2.25))),
    GaussDerivMixture((DerivTerm(0.6, 0, 1.0), DerivTerm(0.4, 0, 1.0, -2.25), DerivTerm(-0.05, 3, 0.3, 1.5))),
    GaussDerivMixture((DerivTerm(0.5, 0, 1.0, -2.25), DerivTerm(0.2, 0, 1.0, 1.5), DerivTerm(0.3, 0, 1.0))),
]


@PROPERTY
@given(st.lists(batch_terms.map(batch_mixture), min_size=1, max_size=4))
@example(SHIFTED_BATCH)
def test_pdf_many_equals_each_mixture_alone(mixtures):
    x = np.linspace(-40.0, 40.0, 257)
    batch = GaussDerivMixture.pdf_many(mixtures, x)
    assert len(batch) == len(mixtures)
    assert walked_in_own_order(mixtures[0], mixtures)
    for m, values in zip(mixtures, batch):
        assert m.pdf(x).tobytes() == loop_pdf(m, x).tobytes()
        if walked_in_own_order(m, mixtures):
            assert values.tobytes() == m.pdf(x).tobytes()


def test_pdf_many_evaluates_each_shared_term_once(monkeypatch):
    keys = []
    tabulate = gaussmix._tabulate

    def counted(x, walk, outs, work=()):
        keys.extend(walk)
        return tabulate(x, walk, outs, work)

    monkeypatch.setattr(gaussmix, "_tabulate", counted)
    a = GaussDerivMixture((DerivTerm(1.0, 0, 2.0), DerivTerm(-0.1, 3, 1.5)))
    b = GaussDerivMixture((DerivTerm(1.0, 0, 2.0), DerivTerm(-0.05, 3, 1.5), DerivTerm(0.2, 6, 1.0)))
    GaussDerivMixture.pdf_many((a, b), np.linspace(-5.0, 5.0, 11))
    assert keys == [(0, 2.0, 0.0), (3, 1.5, 0.0), (6, 1.0, 0.0)]


def test_a_run_of_keys_shares_one_exponential(exp_sizes):
    # a law and its derivative walk (0, v), (1, v), (3, w), (4, w): two runs,
    # two exponentials; a location law's two means are two runs each
    x = np.linspace(-5.0, 5.0, 11)
    m = GaussDerivMixture((DerivTerm(1.0, 0, 2.0), DerivTerm(-0.1, 3, 1.5)))
    GaussDerivMixture.pdf_many((m, m.derivative(1)), x)
    assert exp_sizes == [11, 11]
    exp_sizes.clear()
    loc = GaussMixture((0.5, 0.5), (-1.0, 1.0), (0.3, 0.3))
    GaussDerivMixture.pdf_many((loc, loc.derivative(1)), x)
    assert exp_sizes == [11] * 4


def test_location_pdf_many_is_each_pdf():
    a = GaussMixture((0.5, 0.5), (-1.0, 1.0), (0.3, 0.7))
    b = GaussMixture((1.0,), (0.25,), (2.0,))
    x = np.linspace(-6.0, 6.0, 101)
    batch = GaussMixture.pdf_many((a, b), x)
    assert [v.tobytes() for v in batch] == [a.pdf(x).tobytes(), b.pdf(x).tobytes()]


def polyder_poly(order, variance):
    """The polyder/concatenate recursion gauss_deriv_poly used before its
    slice form; kept as the bit-for-bit oracle."""
    p = np.array([1.0])
    for _ in range(order):
        dp = np.polynomial.polynomial.polyder(p) if len(p) > 1 else np.array([0.0])
        xp = np.concatenate([[0.0], p]) / variance
        n = max(len(dp), len(xp))
        q = np.zeros(n)
        q[: len(dp)] += dp
        q[: len(xp)] -= xp
        p = q
    return p


def test_deriv_poly_matches_polyder_recursion_bitwise():
    # tobytes also compares signed zeros, which == would not
    for v in (0.3, 1.0, 1.7, 9.0, 123.4, 1e-3):
        for k in range(MAX_ORDER + 1):
            assert gauss_deriv_poly(k, v).tobytes() == polyder_poly(k, v).tobytes(), (k, v)


def test_deriv_pdf_matches_polyval_bitwise():
    # in-place Horner does polyval's operations on Q in y = x*x, out * y + c,
    # then times x at odd order, times e and the scale
    rng = np.random.default_rng(7)
    for v in (0.3, 1.7, 9.0):
        s = math.sqrt(v)
        x = np.concatenate([np.linspace(-12 * s, 12 * s, 1001), rng.normal(0.0, 3 * s, 200), [0.0, -0.0]])
        e = np.exp(x * x * (-0.5 / v))
        for k in range(1, MAX_ORDER + 1):
            q = np.polynomial.polynomial.polyval(x * x, gauss_deriv_poly(k, v)[k % 2 :: 2])
            column = (q * x if k % 2 else q) * e
            expected = column * (1.0 / (math.sqrt(2.0 * math.pi) * s))
            assert gauss_deriv_pdf(x, v, k).tobytes() == expected.tobytes(), (k, v)


def test_deriv_coeffs_skip_the_parity_zeros_bitwise():
    # the recursion over one parity gives the bits of the one over every
    # slot, signed zeros included, at orders 0..64 over e^-40..e^40
    for v in [*np.exp(np.linspace(-40.0, 40.0, 41)).tolist(), 0.3, 1.0, 1.7, 1e-4]:
        for k in range(MAX_ORDER + 1):
            got, expected = gauss_deriv_coeffs(k, v), gauss_deriv_coeffs_every_slot(k, v)
            assert np.array(got).tobytes() == np.array(expected).tobytes(), (k, v)


def test_deriv_poly_rejects_coefficients_beyond_float_range():
    # (1/v)^3 overflowed with a RuntimeWarning at v = 2e-141 and the
    # density read inf and nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="D\\^3 gamma_v has coefficients beyond the float range"):
            gauss_deriv_poly(3, 2.168379929338835e-141)
        assert np.isfinite(gauss_deriv_poly(MAX_ORDER, 1e-4)).all()


def exact_deriv_coeffs(order, variance):
    """gauss_deriv_coeffs's recursion in mpmath: P's exact coefficients at
    the float variance."""
    v, p = mpmath.mpf(variance), [mpmath.mpf(1)]
    for k in range(1, order + 1):
        q = [mpmath.mpf(0)] * (k + 1)
        for j in range(1, k):
            q[j - 1] += p[j] * j
        for j in range(k):
            q[j + 1] -= p[j] / v
        p = q
    return p


def test_deriv_pdf_within_its_rounding_bound():
    # the bound of gauss_deriv_pdf's docstring against 40-digit mpmath, at
    # E = 2 (exp within one ulp), over +-14 sd, where a reaches 98
    u = 2.0**-53
    orders = (0, 1, 2, 3, 7, 33, 60, 63)
    with mpmath.workdps(40):
        coeffs = {(k, v): exact_deriv_coeffs(k, v) for k in orders for v in (0.05, 0.3, 1.0, 2.5, 6.0, 11.0)}
        for (k, v), c in coeffs.items():
            x = np.linspace(-14.0, 14.0, 201) * math.sqrt(v)
            for xi, got in zip(x.tolist(), gauss_deriv_pdf(x, v, k).tolist()):
                xm = mpmath.mpf(xi)
                g = mpmath.exp(-xm * xm / (2 * mpmath.mpf(v))) / mpmath.sqrt(2 * mpmath.pi * v)
                exact = mpmath.polyval(c[::-1], xm) * g
                size = mpmath.polyval([abs(ci) for ci in c[::-1]], abs(xm)) * g
                a = xi * xi / (2.0 * v)
                bound = (3.5 * k + 3 * a + 6.5 + 2 if k else 3 * a + 5.5 + 2) * u * size
                assert abs(got - exact) <= bound, (k, v, xi)


def test_deriv_pdf_top_orders_against_the_column_maximum():
    # 97 points over +-12 sd at v = 1.3: the error relative to the column's
    # largest value, 3.1e-8 and 7.1e-8 at orders 60 and 63 with Horner in x,
    # 1.3e-8 and 4.3e-8 with Horner in x*x
    v = 1.3
    x = np.linspace(-12.0, 12.0, 97) * math.sqrt(v)
    with mpmath.workdps(40):
        for k, most in ((60, 3.1e-8), (63, 7.1e-8)):
            c = exact_deriv_coeffs(k, v)[::-1]
            exact = [
                mpmath.polyval(c, xm) * mpmath.exp(-xm * xm / (2 * mpmath.mpf(v))) / mpmath.sqrt(2 * mpmath.pi * v)
                for xm in map(mpmath.mpf, x.tolist())
            ]
            err = max(abs(got - e) for got, e in zip(gauss_deriv_pdf(x, v, k).tolist(), exact))
            assert err <= most * max(map(abs, exact)), k


def test_deriv_pdf_rejects_a_variance_whose_exponent_factor_overflows():
    # -0.5/v is -inf below about 2.8e-309, where x = 0 read 0 * -inf = NaN
    least = gaussmix._LEAST_VARIANCE
    assert math.isfinite(-0.5 / least) and -0.5 / math.nextafter(least, 0.0) == -math.inf
    assert math.isfinite(gauss_deriv_pdf(0.0, least)) and gauss_deriv_pdf(0.0, least) > 0
    for v in (5e-324, math.nextafter(least, 0.0), 0.0, -1.0, math.nan):
        for k in (0, 3):
            with pytest.raises(ValueError, match="^variance must be at least 2.78"):
                gauss_deriv_pdf(np.array([0.0, 1.0]), v, k)
