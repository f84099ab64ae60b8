"""The blocked tabulate-and-integrate kernel of ``entropy`` gives the bits of
the whole-grid path it replaced (``_oracles.whole_grid_integrals``), raises
on the same inputs with the same messages, and on a NaN tabulation, which
that path let through, and holds memory of one block's size, whatever the
grid's.

Block edges are where the kernel can go wrong: a block tabulates its own
points a..b-1, the blocks are the nodes of numpy's pairwise-sum tree over
the n points, whose halves are uneven, and the last block ends at hi
itself, as linspace does.  The grid sizes below put the edges everywhere
they can fall.  Every integral is the step times its row's plain sum,
which on the README and benchmark laws has the trapezoid rule's bits.
"""

import math
import tracemalloc

import numpy as np
import pytest

from _oracles import whole_grid_integrands, whole_grid_integrals
from ziclab import counterexamples as cx
from ziclab import entropy as en
from ziclab import hessian as hs
from ziclab.gaussmix import MAX_ORDER, DerivTerm, GaussDerivMixture, gaussian

B = en.BLOCK
SIZES = (1024, B - 1, B, B + 1, 2 * B + 1, 3 * B - 7)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def deriv_laws():
    """An eps ladder of perturbed sources (one window, shared columns) and
    the telescoped sums of another."""
    K, L, delta, J = 2.5, 1.8, 0.2, 3
    ladder = [cx.perturbed_source(K, delta, e) for e in cx.eps_ladder(2.0**-5)]
    sums = [cx.partner_sum(x.convolve(gaussian(0.7)), L, delta, e, J) for x, e in zip(ladder, cx.eps_ladder(2.0**-5))]
    return ladder + sums


def location_laws(recipe):
    return [recipe.p, *(recipe.p.convolve(recipe.q.scaled(math.sqrt(t)).reflected()) for t in (1e-3, 0.1))]


@pytest.mark.parametrize("n", SIZES + (B + 2, 8 * B + 5))
def test_mixture_integrals_match_whole_grid(n, recipe):
    for laws in (deriv_laws(), location_laws(recipe)):
        got = en.mixture_integrals(laws, n=n, fisher=True)
        assert [r.entropy for r in got] == en.mixture_entropies(laws, n=n)
        for m, r in zip(laws, got):
            assert same_bits(tuple(r), whole_grid_integrals(m, *m.window(), n)), (n, m)


@pytest.mark.parametrize("n", SIZES)
def test_grid_density_integrals_match_whole_grid(n):
    m = deriv_laws()[1]
    lo, hi = m.window()
    p = en.mixture_to_grid(m, lo, hi, n)
    _, mass, entropy, *_ = whole_grid_integrals(m, lo, hi, n, fisher=False)
    assert same_bits((p.mass(), en.differential_entropy(p)), (mass, entropy))


def tree_blocks(rows):
    """The blocks (a, b) that _tree_sums visits over the values of ``rows``,
    in order, and the row sums it returns when each block's values are
    copied into a buffer of one block, as the kernel's."""
    blocks = []
    buf = np.empty((len(rows), min(B, rows.shape[1])))

    def block_sums(a, b):
        blocks.append((a, b))
        values = buf[:, : b - a]
        np.copyto(values, rows[:, a:b])
        return values.sum(axis=1)

    return blocks, en._tree_sums(0, rows.shape[1], block_sums).tolist()


def test_block_sums_follow_numpys_pairwise_tree():
    # the kernel's block sums, added in the tree's order, are np.sum over
    # the whole row: every unroll remainder of a short sum, one block and
    # its neighbours, and uneven trees up to the 2^20-point grids
    lengths = [*range(1, 130), B - 1, B, B + 1, 2 * B + 9, (1 << 20) - 1, 1 << 20]
    for m in lengths:
        rng = np.random.default_rng(m)
        x = rng.choice((-1.0, 1.0), (2, m)) * np.exp(rng.uniform(-20.0, 20.0, (2, m)))
        _, got = tree_blocks(x)
        assert same_bits(got, [np.sum(row) for row in x]), m
    assert all(B // 2 <= b - a <= B for a, b in tree_blocks(np.empty((0, 1 << 20)))[0])


def test_grid_points_are_linspace_bit_for_bit():
    for lo, hi, n in ((-3.0, 7.5, 1024), (-15.6, 15.6, 3 * B - 7), (0.1, 0.2, 2 * B + 1)):
        x = np.linspace(lo, hi, n)
        for a, b in tree_blocks(np.empty((0, n)))[0]:
            got = en._grid(np.arange(a, b, dtype=float), lo, hi, n, b == n)
            assert same_bits(got, x[a:b]), (lo, hi, n, a)


def test_smoothing_curve_matches_whole_grid(recipe):
    t = np.array([1e-3, 4e-3, 0.1])
    n = 2 * B + 1
    curve = en.smoothing_curve(recipe.p, recipe.q, t, n=n)
    smoothed = [recipe.p.convolve(recipe.q.scaled(math.sqrt(ti)).reflected()) for ti in t]
    lo = min(recipe.p.window()[0], smoothed[-1].window()[0])
    hi = max(recipe.p.window()[1], smoothed[-1].window()[1])
    h0 = whole_grid_integrals(recipe.p, lo, hi, n)[2]
    dh = [whole_grid_integrals(s, lo, hi, n)[2] - h0 for s in smoothed]
    assert same_bits(curve[:, 1], dh)


def test_nan_and_tiny_points_are_zeroed_across_blocks():
    # D^64 and D^63 gamma_{1e-4}'s polynomials overflow where their Gaussian
    # underflows, which leaves NaN over whole blocks (the order-64 law has no
    # derivative within MAX_ORDER, so it runs the entropy pass alone); the
    # wide D^2 term leaves values at and below 1e-300 and exact zeros in the
    # tails of gamma_1.  The unchecked integrals have the whole grid's bits;
    # the checked call rejects the NaN laws, whose least value and mass are
    # NaN, and passes the tiny one
    nan_laws = [GaussDerivMixture((DerivTerm(1.0, 0, 1.0), DerivTerm(1e-300, k, 1e-4))) for k in (64, 63)]
    tiny_law = GaussDerivMixture((DerivTerm(1.0, 0, 1.0), DerivTerm(1e-300, 2, 400.0)))
    n = 2 * B + 1
    for m, fisher in ((nan_laws[0], False), (nan_laws[1], True), (tiny_law, True)):
        lo, hi = m.window()
        with np.errstate(over="ignore", invalid="ignore"):
            [got] = en._integrate([m], lo, hi, n, fisher)
            expected = whole_grid_integrals(m, lo, hi, n, fisher)
        assert same_bits(tuple(got), expected)
        assert math.isfinite(got.entropy)
        with np.errstate(over="ignore", invalid="ignore"):
            if m is tiny_law:
                assert en.mixture_integrals([m], n=n, fisher=fisher) == [got]
                continue
            assert math.isnan(got.low) and math.isnan(got.mass)
            with pytest.raises(en.NegativeDensityError, match=r"^density is NaN on the grid$"):
                en.mixture_integrals([m], n=n, fisher=fisher)
    for m in nan_laws:
        with np.errstate(over="ignore", invalid="ignore"):
            nan_vals = m.pdf(np.linspace(*m.window(), n))
        assert np.isnan(nan_vals[:B]).any() and np.isnan(nan_vals[B:]).any()
    tiny_vals = tiny_law.pdf(np.linspace(*tiny_law.window(), n))
    assert (tiny_vals == 0.0).any() and ((tiny_vals > 0) & (tiny_vals <= 1e-300)).any()


def test_every_block_path_matches_whole_grid(monkeypatch):
    # tabulation by point index on the grid x = 0, 1, ..., 4B - 1, whose
    # four blocks take each path of the kernel: the first law's least value
    # is above 1e-300 (no clip, no zeroing), at and below 1e-300 (zeroing
    # alone), an exact 0 beside a dip below it (clip and zeroing), and above
    # 1e-300 again; the second law has a NaN in its third block; the third
    # law is at most 1e-300 everywhere, so its entropy sums zeros; and the
    # fourth mixes positive, below-1e-300, NaN and exact-0 points in one
    # block, and holds a value below 1e-300 and an exact 0 at the two ends,
    # which the plain sum weighs as it does every other point
    n = 4 * B
    index = np.arange(n)
    first = 1e-3 * (1.5 + np.sin(index))
    first[B + 100 : B + 103] = (1e-300, 5e-301, 4e-320)
    first[2 * B + 100 : 2 * B + 102] = (0.0, -1e-13)
    second = 1e-3 * (1.5 + np.cos(index))
    second[2 * B + 100] = np.nan
    mixed = 1e-3 * (1.5 + np.sin(0.3 * index))
    mixed[B + 7 : B + 12] = (2e-301, np.nan, 0.0, 1e-300, 7e-3)
    mixed[[0, -1]] = (3e-301, 0.0)
    values = {1.0: first, 2.0: second, 3.0: np.full(n, 1e-301), 4.0: mixed}
    slopes = 1e-4 * np.cos(0.5 * index)

    def tabulate(mixtures, x, out=None, work=None):
        at = np.asarray(x).astype(np.intp)
        outs = [np.empty(at.shape) for _ in mixtures] if out is None else out
        for m, acc in zip(mixtures, outs):
            order, variance = m.terms[0][1:3]
            acc[...] = (slopes if order else values[variance])[at]
        return outs

    monkeypatch.setattr(GaussDerivMixture, "pdf_many", staticmethod(tabulate))
    laws = [gaussian(v) for v in values]
    assert [b - a for a, b in tree_blocks(np.empty((0, n)))[0]] == [B] * 4
    lows = [first[a : a + B].min() for a in range(0, n, B)]
    assert lows[0] > 1e-300 and 0.0 < lows[1] <= 1e-300 and lows[2] < 0.0 and lows[3] > 1e-300
    assert np.isnan(second[2 * B : 3 * B]).any() and not np.isnan(second[: 2 * B]).any()
    for fisher in (False, True):
        with np.errstate(invalid="ignore"):
            got = en._integrate(laws, 0.0, n - 1.0, n, fisher)
        for m, r in zip(laws, got):
            assert same_bits(tuple(r), whole_grid_integrals(m, 0.0, n - 1.0, n, fisher)), (m, fisher)
        assert math.isfinite(got[0].mass) and math.isnan(got[1].mass) and same_bits(got[2].entropy, 0.0)
        assert math.isnan(got[3].mass) and math.isfinite(got[3].entropy)


def report_laws(recipe):
    """The 60 laws that README and benchmark commands integrate: the eps
    ladders of verify-vertical at (u, L, J) = (1, 1.4, 2) and (2, 3, 8),
    each eps's X1+Z1+Z2+X2, X1+Z1 and X1+Z1+Z2 (N1 = 0, N2 = u); those of
    limit-functional at L = 1.2, 1.6, 2.0 with J = 2 and L = 1.1, 1.5, 1.9
    with J = 20, each eps's X and X+Y; and the skew recipe's p with five of
    its smoothed laws over verify-lemma1's default t range."""
    laws = []
    for u, L, J in ((1.0, 1.4, 2), (2.0, 3.0, 8)):
        vp = cx.VerticalPerturbation(K=hs.stationary_source_variance(L, u), L=L, u=u, J=J)
        for e in cx.eps_ladder(vp.eps):
            x1z1z2 = vp.x1(e).convolve_gaussian(u)
            laws += [vp.plus_x2(e)(x1z1z2), vp.x1(e), x1z1z2]
    for Ls, J in (((1.2, 1.6, 2.0), 2), ((1.1, 1.5, 1.9), 20)):
        for L in Ls:
            fp = cx.FisherPerturbation(K=cx.fisher_stationary_variance(L), L=L, J=J)
            laws += [law for e in cx.eps_ladder(fp.eps) for law in (fp.x1(e), fp.plus_x2(e)(fp.x1(e)))]
    smoothed = [recipe.p.convolve(recipe.q.scaled(math.sqrt(t)).reflected()) for t in np.geomspace(1e-4, 1e-2, 5)]
    return [*laws, recipe.p, *smoothed]


def test_plain_sum_keeps_the_trapezoid_bits_on_report_laws(recipe):
    # the trapezoid rule's end terms (y_0 + y_{n-1})/2 are below half an ulp
    # of the plain sum S of every mass, entropy and Fisher row of these
    # laws at n = 8192, so the plain sum is the trapezoid rule there to the
    # bit.  On windows half as wide all 180 rows fail this, so a window
    # change that makes the end terms count breaks it
    laws = report_laws(recipe)
    assert len(laws) == 60
    for m in laws:
        _, rows = whole_grid_integrands(m, *m.window(), 8192)
        for y in rows[:3]:
            total = np.sum(y)
            assert total - 0.5 * (y[0] + y[-1]) == total, m


def test_a_fisher_pass_exponentiates_each_gaussian_once_per_block(exp_sizes):
    # the eps ladder of the limit functional's X laws, and of a partner
    # series: each law and its derivative walk the orders m and m + 1 of
    # one (variance, mean) next to each other, so a block takes one
    # exponential per Gaussian where the term columns number one per key
    fp = cx.FisherPerturbation(K=cx.fisher_stationary_variance(1.5), L=1.5, J=3)
    ladders = [
        [fp.x1(e) for e in cx.eps_ladder(fp.eps)],
        [cx.partner_series(fp.L, fp.delta, e, fp.J) for e in cx.eps_ladder(fp.eps)],
    ]
    n = 3 * B - 7
    blocks = [b - a for a, b in tree_blocks(np.empty((0, n)))[0]]
    for laws in ladders:
        exp_sizes.clear()
        en._integrate(laws, *laws[0].window(), n, fisher=True)
        gaussians = {(t.variance, t.mean) for m in laws for t in m.terms}
        keys = {t[1:] for m in laws for t in m.terms}
        assert len(exp_sizes) == len(blocks) * len(gaussians) < len(blocks) * 2 * len(keys)
        assert sorted(set(exp_sizes)) == sorted(set(blocks))


def test_short_grid_error_names_the_quantity(monkeypatch, recipe):
    # the quantity is the grid's size, in check_grid_n's one message for
    # entropy and Fisher information alike, before any law is tabulated,
    # whatever n below 1024
    calls = []
    pdf_many = GaussDerivMixture.pdf_many
    monkeypatch.setattr(GaussDerivMixture, "pdf_many", staticmethod(lambda *args, **kw: calls.append(1) or pdf_many(*args, **kw)))
    t = np.geomspace(1e-3, 1e-2, 6)
    for n in (1, 1000, 1023):
        with pytest.raises(ValueError, match=rf"^the grid needs n >= 1024 points, got {n}$"):
            en.fisher_information(gaussian(1.0), n=n)
        with pytest.raises(ValueError, match=rf"^the grid needs n >= 1024 points, got {n}$"):
            en.mixture_entropy(gaussian(1.0), n=n)
        with pytest.raises(ValueError, match=rf"^the grid needs n >= 1024 points, got {n}$"):
            en.smoothing_curve(recipe.p, recipe.q, t, n=n)
    assert calls == []
    en.mixture_entropy(gaussian(1.0), n=1024)
    assert calls


def test_fisher_rejects_a_law_without_a_derivative_before_tabulating():
    # D^64's derivative has order 65, past MAX_ORDER; the error names both
    # and comes before any law of the call is tabulated
    top = GaussDerivMixture((DerivTerm(1.0, 0, 1.0), DerivTerm(1e-300, MAX_ORDER, 1e-4)))
    message = rf"Fisher information .* MAX_ORDER = {MAX_ORDER}, got order {MAX_ORDER}$"
    for laws in ([top], [gaussian(1.0), top]):
        with pytest.raises(ValueError, match=message):
            en.mixture_integrals(laws, n=1024, fisher=True)
    with pytest.raises(ValueError, match=message):
        en.fisher_information(top, n=1024)


def test_blocked_errors_match_whole_grid():
    n = 3 * B - 7
    # negative beyond -1e-12 in the first block, least in a later one
    m = GaussDerivMixture((DerivTerm(1.0, 0, 1.0), DerivTerm(-1.0, 2, 100.0), DerivTerm(1.0, 1, 81.0)))
    lo, hi = m.window()
    vals = m.pdf(np.linspace(lo, hi, n))
    assert vals[: B + 2].min() < -1e-12 and np.argmin(vals) > B + 2
    with pytest.raises(en.NegativeDensityError) as whole:
        en.GridDensity(lo, hi, n, vals)
    for call in (lambda: en.mixture_entropies([gaussian(1.0), m], n=n), lambda: en.mixture_integrals([m], n=n)):
        with pytest.raises(en.NegativeDensityError) as blocked:
            call()
        assert str(blocked.value) == str(whole.value) == f"density reaches {vals.min():.3e} < -1e-12 on the grid"
    heavy = GaussDerivMixture((DerivTerm(1.1, 0, 1.0),))
    with pytest.raises(en.NonNormalizedError) as whole:
        en.differential_entropy(en.GridDensity(*heavy.window(), n, heavy.pdf(np.linspace(*heavy.window(), n))))
    with pytest.raises(en.NonNormalizedError) as blocked:
        en.mixture_entropies([heavy], n=n)
    assert str(blocked.value) == str(whole.value)
    with pytest.raises(ValueError, match=r"^the grid needs n >= 1024 points, got 1023$"):
        en.mixture_entropies([gaussian(1.0)], n=1023)
    with pytest.raises(ValueError, match=r"^the grid needs n >= 1024 points, got 1$"):
        en.mixture_entropies([gaussian(1.0)], n=1)


# Peak traced bytes (numpy reports its buffers to tracemalloc) after one
# warm-up call, at n = 2^18: smoothing_curve's 21 laws, and the three laws
# of the verify-vertical benchmark ladder's X1 without and with Fisher
# information.  Each pass allocates one block's buffers, a density row per
# law (and a p' row per law with Fisher information), three spare rows
# (four where laws share a term, as the ladder's do) and the points, and
# frees them when it ends; the peaks measure 1,562,704, 2,332,144 and
# 3,119,752 B under numpy 2.4, rounded up to 10 kB here.  Term rows one
# float wider than a block, beside the density rows, took 1,561,997,
# 2,790,438 and 4,364,902 B; the full-length term arrays before block rows
# took 5.5, 14.6 and 20.9 MB, and a recursion written as a closure that
# calls itself, whose reference cycle keeps each pass's buffers until the
# cyclic collector runs, took 31.1 MB in smoothing_curve.  A pass holds
# O(BLOCK * laws) bytes, so a grid 4 times finer may add no more than
# NO_GROWTH.
PEAK = {"smoothing_curve": 1_570_000, "mixture_entropies": 2_340_000, "mixture_integrals": 3_130_000}
NO_GROWTH = 64 << 10


def traced_peak(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_at_most_the_whole_grid_path(recipe):
    t = np.geomspace(1e-3, 1e-2, 20)
    vp = cx.VerticalPerturbation(K=2.0, L=3.0, u=2.0, J=8)
    ladder = [vp.x1(e) for e in cx.eps_ladder(vp.eps)]
    calls = {
        "smoothing_curve": lambda n: en.smoothing_curve(recipe.p, recipe.q, t, n=n),
        "mixture_entropies": lambda n: en.mixture_entropies(ladder, n=n),
        "mixture_integrals": lambda n: en.mixture_integrals(ladder, n=n, fisher=True),
    }
    for name, call in calls.items():
        peak = traced_peak(lambda: call(1 << 18))
        assert peak <= PEAK[name], (name, peak)
        assert traced_peak(lambda: call(1 << 20)) - peak <= NO_GROWTH, name
