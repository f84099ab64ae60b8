"""The in-place tabulation and grid-integral kernels give the bits of the
array expressions they replaced, and leave their inputs alone.

Each ``ref_*`` below is the replaced expression, verbatim; every comparison
is of bytes, so signed zeros and NaN payloads count too.
"""

import math

import numpy as np
import pytest

from ziclab import entropy as en
from ziclab.gaussmix import (
    MAX_ORDER,
    DerivTerm,
    GaussDerivMixture,
    GaussMixture,
    gauss_deriv_pdf,
    gauss_deriv_poly,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)
_TINY = 1e-300


def ref_gauss_deriv_pdf(x, variance, order=0):
    x = np.asarray(x, dtype=float)
    g = np.exp(-x * x / (2.0 * variance)) / (_SQRT2PI * math.sqrt(variance))
    if order == 0:
        return g
    poly = gauss_deriv_poly(order, variance)
    out = np.full_like(x, poly[-1])
    for c in poly[-2::-1]:
        out *= x
        out += c
    out *= g
    return out


def ref_pdf_deriv(m, x, order):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, mu, v in zip(m.weights, m.means, m.variances):
        out += w * ref_gauss_deriv_pdf(x - mu, v, order)
    return out


def ref_pdf_many(mixtures, x):
    x = np.asarray(x, dtype=float)
    outs = [np.zeros_like(x) for _ in mixtures]
    holders = {}
    for out, m in zip(outs, mixtures):
        for coeff, order, variance, _ in m.terms:
            holders.setdefault((order, variance), []).append((coeff, out))
    for order, variance in sorted(holders):
        column = ref_gauss_deriv_pdf(x, variance, order)
        for coeff, out in holders[order, variance]:
            out += coeff * column
    return outs


def ref_integral(p, integrand):
    return float(np.trapezoid(integrand, dx=p.step))


def ref_entropy(p):
    vals = p.values
    integrand = np.where(vals > _TINY, -vals * np.log(np.where(vals > _TINY, vals, 1.0)), 0.0)
    return ref_integral(p, integrand)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# a grid through the kernels' far tails and both signed zeros, plus spot
# values; read-only, so a write into the caller's x raises
X = read_only(np.concatenate([np.linspace(-60.0, 60.0, 2001), [0.0, -0.0, 1e-300, -3.7, 38.6]]))
VARIANCES = (0.3, 1.0, 1.7, 9.0)


@pytest.mark.parametrize("variance", VARIANCES)
def test_gauss_deriv_pdf_matches_reference_at_every_order(variance):
    for k in range(MAX_ORDER + 1):
        assert same_bits(gauss_deriv_pdf(X, variance, k), ref_gauss_deriv_pdf(X, variance, k)), k


@pytest.mark.parametrize("k", [0, 1, 2, 7, 33, 64])
def test_gauss_deriv_pdf_writes_into_out_even_when_out_is_x(k):
    expected = ref_gauss_deriv_pdf(X, 1.7, k)
    buf = np.empty_like(X)
    assert gauss_deriv_pdf(X, 1.7, k, out=buf) is buf
    assert same_bits(buf, expected)
    x = X.copy()
    assert gauss_deriv_pdf(x, 1.7, k, out=x) is x
    assert same_bits(x, expected)


@pytest.mark.parametrize("x", [0.7, -2.5, 0.0, np.float64(1e-300), np.array(3.0)])
def test_gauss_deriv_pdf_0d_input_returns_a_scalar(x):
    for k in (0, 1, 5, 64):
        value = gauss_deriv_pdf(x, 1.7, k)
        assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
        assert same_bits(value, ref_gauss_deriv_pdf(x, 1.7, k)), k


LOCATION = GaussMixture((0.25, 0.5, 0.25), (-1.5, 0.0, 2.0), (0.3, 1.0, 1.7))


def test_derivative_pdf_matches_reference_at_every_order():
    for k in range(MAX_ORDER + 1):
        assert same_bits(LOCATION.derivative(k).pdf(X), ref_pdf_deriv(LOCATION, X, k)), k
    assert same_bits(LOCATION.pdf(X), ref_pdf_deriv(LOCATION, X, 0))


def test_derivative_pdf_0d_input_matches_reference():
    for x in (0.7, np.float64(-38.0), np.array(2.0)):
        for k in (0, 3, 64):
            value = LOCATION.derivative(k).pdf(x)
            assert np.ndim(value) == 0
            assert same_bits(value, ref_pdf_deriv(LOCATION, x, k))


def deriv_mixtures():
    # every order 0..64 once, shared keys, and a term whose coefficient is 0
    # after the merge of equal keys
    a = GaussDerivMixture(
        tuple(DerivTerm(1.0 if k == 0 else 0.5**k, k, VARIANCES[k % 4]) for k in range(MAX_ORDER + 1))
    )
    b = GaussDerivMixture(
        (DerivTerm(1.0, 0, 1.0), DerivTerm(-0.25, 3, 1.7), DerivTerm(0.25, 3, 1.7), DerivTerm(1e-3, 6, 0.5))
    )
    c = GaussDerivMixture((DerivTerm(1.0, 0, 1.0), DerivTerm(-0.01, 3, 0.9)))
    return (a, b, c)


def test_pdf_many_matches_reference():
    ms = deriv_mixtures()
    batch = GaussDerivMixture.pdf_many(ms, X)
    for got, expected in zip(batch, ref_pdf_many(ms, X)):
        assert same_bits(got, expected)
    for m in ms:
        assert same_bits(m.pdf(X), ref_pdf_many((m,), X)[0])


def test_pdf_many_0d_input_matches_reference():
    ms = deriv_mixtures()
    for x in (0.7, np.float64(-12.0), np.array(0.0)):
        for got, expected in zip(GaussDerivMixture.pdf_many(ms, x), ref_pdf_many(ms, x)):
            assert np.ndim(got) == 0
            assert same_bits(got, expected)


def edge_grid():
    """A unit-mass grid with exact zeros in its tails, values at and below
    1e-300 (a subnormal too), a tolerated dip of -1e-13, and a point where
    p = 1 exactly, so -p ln p is -0.0."""
    lo, hi, n = -45.0, 45.0, 4097
    vals = GaussMixture((1.0,), (0.0,), (0.1,)).pdf(np.linspace(lo, hi, n))
    assert (vals == 0.0).any() and ((vals > 0.0) & (vals <= _TINY)).any()
    vals[100:104] = (_TINY, 5e-301, 4e-320, -1e-13)
    i = int(np.argmin(np.abs(vals - 1.0)))
    vals[i + 1] -= 1.0 - vals[i]  # keeps the trapezoid mass
    vals[i] = 1.0
    return en.GridDensity(lo, hi, n, read_only(vals))


def test_grid_integrals_match_reference_on_edge_values():
    p = edge_grid()
    before = p.values.copy()
    assert same_bits(en.differential_entropy(p), ref_entropy(p))
    for y in (p.values, np.gradient(p.values), -p.values, np.full(p.n, -0.0)):
        assert same_bits(p.integral(read_only(y)), ref_integral(p, y))
    assert same_bits(p.values, before)


def test_grid_integrals_zero_nan_points_as_where_did():
    vals = edge_grid().values.copy()
    vals[2000:2003] = np.nan
    p = en.GridDensity(-45.0, 45.0, 4097, vals)
    assert same_bits(en.differential_entropy(p), ref_entropy(p))


def test_mixture_grids_match_reference_entropies():
    # the tabulation and the entropy of the perturbation pipelines, end to end
    for m in (LOCATION, *deriv_mixtures()[1:]):
        lo, hi = m.window()
        p = en.mixture_to_grid(m, lo, hi, 8192)
        x = np.linspace(lo, hi, 8192)
        expected = ref_pdf_deriv(m, x, 0) if isinstance(m, GaussMixture) else ref_pdf_many((m,), x)[0]
        assert same_bits(p.values, np.clip(expected, 0.0, None))
        assert same_bits(en.differential_entropy(p), ref_entropy(p))


def test_grid_density_keeps_its_own_copy():
    vals = GaussMixture((1.0,), (0.0,), (1.0,)).pdf(np.linspace(-12.0, 12.0, 1024))
    p = en.GridDensity(-12.0, 12.0, 1024, vals)
    assert not np.shares_memory(p.values, vals)
