"""Weighted-rate quantities, alignments, envelopes, and audits."""

import dataclasses
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    PsdMatrix,
    _uniform_lattice_with_node,
    decreasing_alignment,
    increasing_alignment,
    maxplus_self_convolution,
    power_control_value_2d,
    rng_for,
)
from ziclab import _lattice as lat
from ziclab import counterexamples as cx
from ziclab import hessian as hs
from ziclab import hkregion as hk
from ziclab.hessian import gauss_psi


def random_psd(rng, d, scale=2.0):
    a = rng.normal(size=(d, d)) * scale
    return a @ a.T / d


# ----------------------------------------------------------------------
# PSD algebra
# ----------------------------------------------------------------------


def test_psd_spectrum_matches_charpoly_roots(rng):
    for d in (2, 3, 5):
        for _ in range(20):
            m = random_psd(rng, d)
            p = PsdMatrix(m)
            vals, vecs = p.eigenvalues, p.eigenvectors
            # roots of the characteristic polynomial as an independent oracle
            roots = np.sort(np.roots(np.poly(m)).real)
            assert np.allclose(vals, roots, atol=1e-8 * max(1, abs(roots).max()))
            assert np.all(np.diff(vals) >= 0)
            assert np.allclose(vecs @ np.diag(vals) @ vecs.T, m, atol=1e-10)
            assert np.allclose(vecs.T @ vecs, np.eye(d), atol=1e-12)
            # sign convention: the largest-magnitude component of each
            # eigenvector is positive
            lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)]
            assert np.all(lead > 0)


def test_psd_validation():
    with pytest.raises(ValueError):
        PsdMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        PsdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # negative eigenvalue
    m = PsdMatrix(np.array([[1.0, 0.0], [0.0, 1e-11]]))
    assert m.eigenvalues.min() >= 0.0


def test_alignment_examples():
    aligned, q = decreasing_alignment(np.diag([1.0, 3.0]))
    assert np.allclose(np.diag(aligned.entries), [3.0, 1.0])
    assert np.allclose(q.T @ np.diag([1.0, 3.0]) @ q, aligned.entries, atol=1e-12)
    already = np.diag([5.0, 2.0, 1.0])
    out, _ = decreasing_alignment(already)
    assert np.allclose(out.entries, already)
    inc, _ = increasing_alignment(already)
    assert np.allclose(np.diag(inc.entries), [1.0, 2.0, 5.0])


def test_alignment_matches_charpoly_roots(rng):
    for _ in range(10):
        m = random_psd(rng, 3)
        aligned, q = decreasing_alignment(m)
        # roots of the characteristic polynomial as an independent oracle
        roots = np.sort(np.roots(np.poly(m)).real)[::-1]
        assert np.allclose(np.diag(aligned.entries), roots, atol=1e-9)
        assert np.allclose(q.T @ m @ q, aligned.entries, atol=1e-9)


def test_lndet_alignment_inequality(rng):
    # decreasing K with increasing L maximizes lndet(K+L) over conjugations
    violations = 0
    for _ in range(500):
        d = int(rng.integers(2, 5))
        k = random_psd(rng, d)
        l = random_psd(rng, d)
        kbar, _ = decreasing_alignment(k)
        lbar, _ = increasing_alignment(l)
        lhs = np.linalg.slogdet(k + l)[1]
        rhs = np.linalg.slogdet(kbar.entries + lbar.entries)[1]
        if lhs > rhs + 1e-10:
            violations += 1
        comm = np.abs(k @ l - l @ k).max()
        if abs(lhs - rhs) <= 1e-9 and comm > 1e-8:
            violations += 1
    assert violations == 0


def test_alignment_preserves_order(rng):
    # K <= K' implies eigenvalue-wise order of the decreasing alignments
    for _ in range(500):
        d = int(rng.integers(2, 5))
        k = random_psd(rng, d)
        bump = random_psd(rng, d, scale=1.0)
        kp = k + bump
        kbar = np.diag(decreasing_alignment(k)[0].entries)
        kpbar = np.diag(decreasing_alignment(kp)[0].entries)
        assert np.all(kbar <= kpbar + 1e-10)


def test_rotation_stationarity_iff_commuting(rng):
    # directional derivative of Q -> lndet(K + Q^T L Q) at Q=I along
    # antisymmetric H vanishes for all H iff K and L commute
    def directional(k, l, h, t=1e-7):
        qp = np.eye(len(k)) + t * h
        qm = np.eye(len(k)) - t * h
        # orthogonalize to first order is enough at t=1e-7
        fp = np.linalg.slogdet(k + qp.T @ l @ qp)[1]
        fm = np.linalg.slogdet(k + qm.T @ l @ qm)[1]
        return (fp - fm) / (2 * t)

    for _ in range(250):
        d = int(rng.integers(2, 4))
        k = random_psd(rng, d)
        h = rng.normal(size=(d, d))
        h = h - h.T
        # commuting pair: polynomial in k
        l_comm = 0.5 * k @ k + 0.3 * k + 0.2 * np.eye(d)
        assert abs(directional(k, l_comm, h)) < 1e-6
    found_nonzero = 0
    for _ in range(250):
        d = int(rng.integers(2, 4))
        k = random_psd(rng, d)
        l = random_psd(rng, d)
        if np.abs(k @ l - l @ k).max() < 1e-8:
            continue
        h = rng.normal(size=(d, d))
        h = h - h.T
        if abs(directional(k, l, h)) > 1e-6:
            found_nonzero += 1
    assert found_nonzero > 200


# ----------------------------------------------------------------------
# scalar objective and capped supremum
# ----------------------------------------------------------------------


def test_gauss_objective_examples():
    # the HK objective is psi with second-noise variance u
    # stationary K=(u+L)/(L-1): psi = 2 ln 4 - ln 3 - 2 ln 2 = ln(4/3)
    val = gauss_psi(2.0, 3.0, 1.0, 0.0, 1.0)
    assert val == pytest.approx(2 * math.log(4) - math.log(3) - 2 * math.log(2), abs=1e-12)
    assert val == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    # direct substitution with K=0
    assert gauss_psi(0.0, 0.0, 1.0, 1.0, 1.0) == pytest.approx(-math.log(2), abs=1e-14)
    assert gauss_psi(0.0, 1.0, 1.0, 0.0, 1.0) == -math.inf


def test_stationary_value_formula(rng):
    # psi((u+L)/(L-1), L) = (u+1) ln(u+L) - ln L - (u+1) ln(u+1)
    for _ in range(50):
        u = float(rng.uniform(0.3, 4.0))
        L = float(rng.uniform(1.05, 9.0))
        K = (u + L) / (L - 1.0)
        lhs = gauss_psi(K, L, u, 0.0, u)
        rhs = (u + 1) * math.log(u + L) - math.log(L) - (u + 1) * math.log(u + 1)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_capped_argmax_cases():
    val, k = hs.capped_gauss_objective(10.0, 3.0, 1.0, 0.0, 1.0)
    assert k == 2.0
    val, k = hs.capped_gauss_objective(10.0, 0.5, 1.0, 0.0, 1.0)
    assert k == 10.0
    val, k = hs.capped_gauss_objective(1.0, 3.0, 1.0, 0.0, 1.0)
    assert k == 1.0


def test_argmax_is_inf_outside_its_domain():
    # psi increases in K where (u/N) L <= 1; the boundary (u/N) L = 1 included
    k = [hs.gauss_argmax(L, 2.0, 0.5, 2.0) for L in (0.0, 0.5, 1.0, 1.5, 3.0)]
    assert k == [math.inf, math.inf, math.inf, (2.0 + 1.5) / 0.5 - 0.5, 5.0 / 2.0 - 0.5]
    assert hs.gauss_argmax(1.0, 2.0, 0.0, 4.0) == math.inf


def psi_written_out(K, L, u, N1, N):
    """psi with second-noise variance N, written out independently of the
    package: u ln(K+N1+N+L) + ln(K+N1) - (u+1) ln(K+N1+N)."""
    return u * np.log(K + N1 + N + L) + np.log(K + N1) - (u + 1) * np.log(K + N1 + N)


def test_argmax_with_noise_variance_matches_grid(rng):
    # N != u: the maximizer (N+L)/((u/N) L - 1) - N1 against a dense K grid
    for _ in range(30):
        u = float(rng.uniform(0.3, 4.0))
        N = float(rng.uniform(0.05, 3.0))
        N1 = float(rng.uniform(0.0, 1.0))
        L = float(rng.uniform(1.05, 4.0)) * N / u  # u L > N: interior root
        k = hs.gauss_argmax(L, u, N1, N)
        cap = 3.0 * (k + N1) + 1.0
        ks = np.linspace(0.0, cap, 400001)
        ks = ks[ks + N1 > 0]
        vals = psi_written_out(ks, L, u, N1, N)
        i = int(np.argmax(vals))
        if k > 0:
            assert abs(ks[i] - k) <= 2 * (ks[1] - ks[0])
        else:
            assert i == 0
        val, kc = hs.capped_gauss_objective(cap, L, u, N1, N)
        assert kc == max(k, 0.0)
        assert vals[i] <= val + 1e-12 and val - vals[i] <= 1e-9
        # u L <= N: psi increases in K, so the cap binds
        assert hs.gauss_argmax(0.9 * N / u, u, N1, N) == math.inf
        val, kc = hs.capped_gauss_objective(cap, 0.9 * N / u, u, N1, N)
        assert kc == cap
        assert val == pytest.approx(psi_written_out(cap, 0.9 * N / u, u, N1, N), abs=1e-12)


# ----------------------------------------------------------------------
# fixed-power value and envelope
# ----------------------------------------------------------------------


def brute_f1(q1, q2, u, N1, n=41, nk=2001):
    """Independent f1 oracle: the maximum over a grid of J <= q1, L <= q2
    and K <= J of ln(J+N1+u+L) + psi(K, L), with psi written out here.

    Returns the maximum and the K step h.  The corner (q1, q2) and K = 0,
    K = q1 are grid nodes, and an interior maximizer has K+N1 > 1, where
    |psi''| < 1.3 for h < 0.02, so the grid maximum is within h^2 of the
    supremum.
    """
    L = np.linspace(0.0, q2, n)[:, None]
    K = np.linspace(0.0, q1, nk)[None, :]
    x = K + N1
    with np.errstate(divide="ignore"):
        psi = u * np.log(x + u + L) + np.log(x) - (u + 1.0) * np.log(x + u)
    best = -math.inf
    for J in np.linspace(0.0, q1, n):
        val = np.log(J + N1 + u + L) + np.where(K <= J, psi, -np.inf)
        best = max(best, float(val.max()))
    return best, q1 / (nk - 1)


def test_f1_matches_brute_force_grid():
    params = hk.HKParams(u=1.0, N1=0.5)
    res = hk.fixed_power_value(7.0, 3.0, params)
    brute, _ = brute_f1(7.0, 3.0, params.u, params.N1)
    assert res.value >= brute - 1e-12
    assert res.value == pytest.approx(brute, abs=1e-4)
    assert (res.J, res.L) == (7.0, 3.0)


def test_f1_monotone_in_powers():
    params = hk.HKParams(u=1.0, N1=0.2)
    vals = np.array(
        [[hk.fixed_power_value(q1, q2, params).value for q2 in (0.5, 1.5, 3.0)]
         for q1 in (0.5, 2.0, 8.0)]
    )
    assert np.all(np.diff(vals, axis=0) >= -1e-12)
    assert np.all(np.diff(vals, axis=1) >= -1e-12)


def test_f1_degenerate_interferer_budget():
    # q2 -> 0 reduces to sup_J ln(J+N1+u) + psi(J, 0)
    params = hk.HKParams(u=1.0, N1=0.3)
    res = hk.fixed_power_value(5.0, 1e-12, params)
    expected = math.log(5.0 + 0.3 + 1.0) + gauss_psi(5.0, 0.0, 1.0, 0.3, 1.0)
    assert res.value == pytest.approx(expected, abs=1e-6)


def test_f1_matches_brute_force_random_cells(rng):
    for u, N1 in ((1.3, 0.7), (0.3, 0.0), (5.0, 2.0)):
        params = hk.HKParams(u=u, N1=N1)
        for _ in range(4):
            q1 = float(rng.uniform(0.2, 20))
            q2 = float(rng.uniform(0.2, 20))
            f1 = hk.fixed_power_value(q1, q2, params).value
            brute, h = brute_f1(q1, q2, u, N1)
            assert f1 >= brute - 1e-12
            assert f1 - brute <= h * h


def test_f1_scalar_equals_table_node_bitwise(rng):
    # the envelope reads f1 at q from its table, the reports from
    # fixed_power_value; equal bits make g1 >= f1 hold with no tolerance
    for u, N1 in ((1.0, 1.0), (2.0, 0.5), (0.3, 0.0)):
        params = hk.HKParams(u=u, N1=N1)
        for _ in range(20):
            q1 = float(np.exp(rng.uniform(-3.0, 3.5)))
            q2 = float(np.exp(rng.uniform(-3.0, 3.5)))
            value = hk.fixed_power_value(q1, q2, params).value
            assert value == hk.f1_table([q1], [q2], params)[0, 0]
            xs = np.sort(np.append(rng.uniform(0.0, 4.0 * q1, 40), q1))
            ys = np.sort(np.append(rng.uniform(0.0, 4.0 * q2, 40), q2))
            table = hk.f1_table(xs, ys, params)
            assert value == table[np.searchsorted(xs, q1), np.searchsorted(ys, q2)]


def test_envelope_majorizes_and_reconstructs():
    params = hk.HKParams(u=1.0, N1=1.0)
    env = hk.power_control_envelope(39.0, 1.2, params, grid_n=129)
    f1 = hk.fixed_power_value(39.0, 1.2, params).value
    assert env.value >= f1 - 1e-9
    assert env.value - f1 > 1e-3  # genuinely gapped cell (power control helps)
    rec = sum(s.weight * s.value for s in env.support)
    assert rec == pytest.approx(env.value, abs=1e-5)
    assert 1 <= len(env.support) <= 3
    weights = sum(s.weight for s in env.support)
    assert weights == pytest.approx(1.0, abs=1e-9)


# Qhull oracle for the envelope simplex: the upper hull of the lifted
# lattice, read at q from the facet above it (Barber, Dobkin & Huhdanpaa
# 1996).  scipy is imported here only, never by the package.


def qhull_envelope(xg, yg, table, qx, qy):
    """(value, support, tie) at q from the 3-D upper hull of the finite
    lattice points: support maps (q1, q2) to weight > 1e-9, and tie says
    that more than three lattice points lie on the facet's plane, where
    another support of equal value may be chosen."""
    from scipy.spatial import ConvexHull, QhullError

    X, Y = np.meshgrid(xg, yg, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel(), np.asarray(table).ravel()])
    pts = pts[np.isfinite(pts[:, 2])]
    try:
        hull = ConvexHull(pts)
    except QhullError:
        hull = ConvexHull(pts, qhull_options="QJ")
    upper = hull.equations[:, 2] > 1e-12
    eqs, simplices = hull.equations[upper], hull.simplices[upper]
    z = -(eqs[:, 3] + eqs[:, 0] * qx + eqs[:, 1] * qy) / eqs[:, 2]
    i = int(np.argmin(z))
    tri = pts[simplices[i]]
    t = np.column_stack([tri[0, :2] - tri[2, :2], tri[1, :2] - tri[2, :2]])
    w12 = np.linalg.solve(t, np.array([qx, qy]) - tri[2, :2])
    w = np.array([w12[0], w12[1], 1.0 - w12.sum()])
    support = {(p[0], p[1]): wi for p, wi in zip(tri, w) if wi > 1e-9}
    scale = max(1.0, float(np.abs(pts[:, 2]).max()))
    on_plane = np.abs(pts @ eqs[i, :3] + eqs[i, 3]) <= 1e-11 * scale
    return float(z[i]), support, int(on_plane.sum()) > 3


def qhull_envelope_1d(xs, fs, q):
    from scipy.spatial import ConvexHull

    pts = np.column_stack([xs, fs])
    pts = pts[np.isfinite(pts[:, 1])]
    eqs = ConvexHull(pts).equations
    eqs = eqs[eqs[:, 1] > 1e-12]
    return float((-(eqs[:, 2] + eqs[:, 0] * q) / eqs[:, 1]).min())


def assert_matches_qhull(env, qx, qy):
    """The simplex value equals the Qhull value within 1e-10; off exact
    coplanar ties the supports agree, and a GridTooSmallError means the
    hull's support also reaches the outer boundary."""
    ref, ref_support, tie = qhull_envelope(env.xg, env.yg, env.table, qx, qy)
    fq = env._table_value(qx, qy)
    if fq is not None:
        ref = max(ref, fq)
    try:
        res = env.value(qx, qy)
    except lat.GridTooSmallError:
        x_hi, y_hi = env.xg[-1], env.yg[-1]
        assert tie or any(
            a >= x_hi * (1 - 1e-9) or b >= y_hi * (1 - 1e-9) for a, b in ref_support
        )
        return None
    assert res.value == pytest.approx(ref, rel=0, abs=1e-10)
    # the support is an explicit randomization: lattice points, weights
    # summing to 1, mean q, mean value the envelope value
    w = np.array([s.weight for s in res.support])
    pts = np.array([[s.q1, s.q2, s.value] for s in res.support])
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w @ pts[:, :2] == pytest.approx([qx, qy], rel=1e-12, abs=1e-12)
    assert w @ pts[:, 2] == pytest.approx(res.value, abs=1e-10)
    if not tie:
        assert {(s.q1, s.q2) for s in res.support} == set(ref_support)
    return res


def test_envelope_matches_qhull_random_cases(rng):
    supports = 0
    for trial in range(40):
        u = float(rng.uniform(0.3, 3.0))
        N1 = 0.0 if trial % 3 == 0 else float(rng.uniform(0.1, 2.0))
        params = hk.HKParams(u=u, N1=N1)
        grid_n = int(rng.choice([2, 3, 9, 33, 65]))
        q1, q2 = (float(np.exp(rng.uniform(math.log(0.05), math.log(30.0)))) for _ in range(2))
        env = hk.envelope_for(q1, q2, params, grid_n=grid_n, margin=8)
        res = assert_matches_qhull(env, q1, q2)
        supports += res is not None and len(res.support) > 1
        # off-node query inside the finite lattice (x = 0 is -inf when N1 = 0)
        xs = env.xg[env.xg > 0] if N1 == 0 else env.xg
        qx = float(rng.uniform(xs[0], env.xg[-1]))
        qy = float(rng.uniform(env.yg[0], env.yg[-1]))
        assert env._table_value(qx, qy) is None
        assert_matches_qhull(env, qx, qy)
    assert supports >= 5  # gapped cells with genuine randomizations were hit


def test_envelope_matches_qhull_maxplus_tables(rng):
    for trial in range(12):
        u = float(rng.uniform(0.3, 3.0))
        N1 = 0.0 if trial % 3 == 0 else float(rng.uniform(0.1, 2.0))
        params = hk.HKParams(u=u, N1=N1)
        # with N1 = 0 the max-plus rows 0 and 1 are -inf, so at least 5 nodes
        grid_n = int(rng.choice([5, 17, 33] if N1 == 0 else [2, 5, 17, 33]))
        q1, q2 = (float(rng.uniform(0.2, 10.0)) for _ in range(2))
        xg = _uniform_lattice_with_node(8 * max(q1, 1.0), q1, grid_n)
        yg = _uniform_lattice_with_node(8 * max(q2, 1.0), q2, grid_n)
        table = maxplus_self_convolution(hk.f1_table(xg, yg, params))
        env = hk.Envelope2D(xg, yg, table)
        if np.isfinite(table[np.searchsorted(xg, q1), np.searchsorted(yg, q2)]):
            assert_matches_qhull(env, q1, q2)
        finite_x = xg[np.isfinite(table).any(axis=1)]
        assert_matches_qhull(env, float(rng.uniform(finite_x[0], xg[-1])),
                             float(rng.uniform(yg[0], yg[-1])))


def test_envelope_bland_pivots_match_qhull(monkeypatch):
    # every pivot after a degenerate one follows Bland's rule
    monkeypatch.setattr(lat, "BLAND_AFTER", 0)
    params = hk.HKParams(u=2.0, N1=0.5)
    for q in [(2.06669, 0.59676), (39.0, 1.2), (10.0, 10.0), (0.3, 7.0)]:
        env = hk.envelope_for(*q, params, grid_n=65, margin=8)
        assert_matches_qhull(env, *q)


def test_envelope_pivot_cap_raises(monkeypatch):
    params = hk.HKParams(u=1.0, N1=1.0)
    env = hk.envelope_for(39.0, 1.2, params, grid_n=65, margin=8)
    monkeypatch.setattr(lat, "MAX_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        env.value(39.0, 1.2)


def test_envelope_query_outside_finite_points():
    # with N1 = 0, f1 = -inf on the q1 = 0 column
    params = hk.HKParams(u=1.0, N1=0.0)
    env = hk.envelope_for(1.0, 1.0, params, grid_n=9)
    with pytest.raises(ValueError, match="outside the finite lattice points"):
        env.value(0.5 * env.xg[1], 1.0)
    with pytest.raises(ValueError, match="outside the finite lattice points"):
        env.value(1.0, 2.0 * env.yg[-1])


def test_concave_envelope_1d_matches_qhull(rng):
    for trial in range(30):
        n = int(rng.integers(3, 40))
        xs = np.sort(rng.uniform(0.0, 10.0, n))
        fs = rng.normal(size=n) + (np.log(xs + 0.5) if trial % 2 else 0.0)
        if trial % 3 == 0:
            fs[0] = -np.inf
        finite = xs[np.isfinite(fs)]
        q = float(rng.uniform(finite[0], finite[-1]))
        value = hk.concave_envelope_1d(xs, fs, q)
        assert value == pytest.approx(qhull_envelope_1d(xs, fs, q), rel=0, abs=1e-10)
        # at a sample, ties between chords and the sample itself
        k = int(rng.integers(0, n))
        if np.isfinite(fs[k]):
            ref = qhull_envelope_1d(xs, fs, xs[k])
            assert hk.concave_envelope_1d(xs, fs, xs[k]) == pytest.approx(ref, rel=0, abs=1e-10)
    with pytest.raises(ValueError, match="outside the finite samples"):
        hk.concave_envelope_1d(np.arange(3.0), np.array([-np.inf, 0.0, 1.0]), 0.5)


def test_envelope_equals_f1_where_concave():
    params = hk.HKParams(u=1.0, N1=1.0)
    f1 = hk.fixed_power_value(10.0, 10.0, params).value
    assert hk.power_control_value(10.0, 10.0, params) == f1
    assert lat.lattice_value(10.0, 10.0, params, grid_n=129) == pytest.approx(f1, abs=1e-9)


def test_envelope_grid_too_small():
    params = hk.HKParams(u=1.0, N1=1.0)
    env = hk.envelope_for(39.0, 1.2, params, grid_n=65, margin=4)
    with pytest.raises(lat.GridTooSmallError):
        env.value(39.0, 1.2)


def test_envelope_grid_below_two_rejected():
    params = hk.HKParams(u=1.0)
    for grid_n in (1, 0, -5):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            hk.envelope_for(1.0, 1.0, params, grid_n=grid_n)
        with pytest.raises(ValueError, match="at least 2 nodes"):
            power_control_value_2d(1.0, 1.0, params, grid_n=grid_n)
    assert lat.lattice_value(1.0, 1.0, params, grid_n=2) >= hk.fixed_power_value(
        1.0, 1.0, params
    ).value


def test_params_reject_non_finite():
    for kwargs in ({"u": math.nan}, {"u": 1.0, "N1": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            hk.HKParams(**kwargs)


def test_params_hold_u_and_N1_only():
    # the second-noise variance N2 belonged to the constant-power witness,
    # which takes counterexamples.ChannelParams
    assert [f.name for f in dataclasses.fields(hk.HKParams)] == ["u", "N1"]


def test_params_reject_u_overflowing_the_rounding_bound():
    # 4 (u+1) (2 + 2 ln u + 2 ln(float max)) overflows between these two
    assert hk.HKParams(u=1.59e304).u == 1.59e304
    with pytest.raises(ValueError, match="u too large"):
        hk.HKParams(u=1.6e304)


def test_tensorization_spot_checks():
    params = hk.HKParams(u=1.0, N1=1.0)
    pts = [(5.0, 2.0), (10.0, 4.0), (3.0, 1.0), (8.0, 8.0), (2.0, 6.0)]
    for (a, b) in pts:
        g2 = power_control_value_2d(2 * a, 2 * b, params, grid_n=97)
        g1 = hk.power_control_value(a, b, params)
        assert g2 == pytest.approx(2 * g1, abs=5e-3)


# ----------------------------------------------------------------------
# f1 = g1 by the tangent plane at q
# ----------------------------------------------------------------------


def plane_excess(q, x, y, params):
    """f1 - l at the points (x, y) for the tangent plane l of f1 at q, and
    the rounding bound of ``tangent_witness`` there (8 ulps of its terms)."""
    u, N1 = params.u, params.N1
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    fq = hk._corner_value(*q, u, N1)
    d1, d2 = hk._corner_gradient(*q, u, N1)
    f = lat.corner_values(x, y, u, N1)
    r1, r2 = d1 * (x - q[0]), d2 * (y - q[1])
    logs = 2.0 + 2.0 * abs(math.log(u)) + abs(math.log(q[0] + q[1] + N1 + u))
    logs = logs + np.abs(np.log(x + y + N1 + u))
    terms = np.abs(f) + abs(fq) + np.abs(r1) + np.abs(r2) + 4 * (u + 1) * logs
    return f - fq - r1 - r2, 8.0 * np.finfo(float).eps * terms


def tangent_excess(q, p, params):
    """f1(p) minus the tangent plane of f1 at q, evaluated at p."""
    return float(plane_excess(q, *p, params)[0])


# cells whose 1e-5 screen on the LP said f1 = g1: hk-region cell (1, 4)
# (support outside the 4x window), lemma5-audit --u 2 --N1 0.5 --seed 2
# record 11 (gap 3.5e-6), criterion 06 stream acc6-8 sample 19
SCREENED_GAPPED = [
    ((1.0, 4.0), hk.HKParams(u=1.0, N1=1.0)),
    ((2.066687349572014, 0.5967584113683521), hk.HKParams(u=2.0, N1=0.5)),
    ((1.4874438405902806, 4.806094193279798), hk.HKParams(u=2.0, N1=0.5)),
]

positive = dict(allow_nan=False, allow_infinity=False)
# fixed examples and no example database, so every run checks the same cells
PROPERTY = settings(deadline=None, derandomize=True, database=None)


@settings(PROPERTY, max_examples=60)
@given(
    u=st.floats(0.3, 4.0, **positive),
    N1=st.just(0.0) | st.floats(0.0, 2.0, **positive),
    # for L in (1, 1.1) the cap K*(L) > 20 moves so fast with L that the jump
    # of f1's second derivative there slows central differences to O(h)
    L=st.floats(0.05, 1.0, **positive) | st.floats(1.1, 20.0, **positive),
    ratio=st.just(1.0) | st.floats(0.2, 3.0, **positive),
)
@example(u=1.0, N1=0.0, L=3.0, ratio=1.0)
@example(u=2.0, N1=0.5, L=4.0, ratio=1.0)
@example(u=1.0, N1=1.0, L=0.5, ratio=1.0)
@example(u=0.5, N1=2.0, L=10.0, ratio=1.0)
def test_corner_gradient_matches_central_differences(u, N1, L, ratio):
    # q1 = ratio K*(L): below the cap, above it, and on it (ratio 1), where
    # f1 is C^1 but its second derivative jumps; K*(L) <= 0 puts K at 0
    kstar = hs.gauss_argmax(L, u, N1, u)
    q1 = ratio * (kstar if 0.0 < kstar < math.inf else 1.0 + N1)
    d1, d2 = hk._corner_gradient(q1, L, u, N1)
    h1, h2 = 1e-6 * q1, 1e-6 * L
    fd1 = (hk._corner_value(q1 + h1, L, u, N1) - hk._corner_value(q1 - h1, L, u, N1)) / (2 * h1)
    fd2 = (hk._corner_value(q1, L + h2, u, N1) - hk._corner_value(q1, L - h2, u, N1)) / (2 * h2)
    assert d1 == pytest.approx(fd1, rel=1e-5, abs=1e-7)
    assert d2 == pytest.approx(fd2, rel=1e-5, abs=1e-7)


@settings(PROPERTY, max_examples=200)
@given(
    K=st.floats(0.0, 1e3, **positive),
    L=st.floats(0.0, 1e3, **positive),
    u=st.floats(0.1, 10.0, **positive),
    N1=st.floats(1e-3, 5.0, **positive),
)
def test_psi_below_tail_bound(K, L, u, N1):
    assert gauss_psi(K, L, u, N1, u) < u * math.log1p(L / u)


def assert_chord_beats_f1(q, w, params):
    """The chord from the witness w through q, a step t past q, is an
    explicit two-point randomization: weight t/(1+t) at w and 1/(1+t) at
    r = q + t (q - w) average to q.  Its value beats f1(q) for a small t."""
    u, N1 = params.u, params.N1
    q, w = np.array(q), np.array(w)
    fq = float(hk._corner_value(*q, u, N1))
    fw = float(hk._corner_value(*w, u, N1))
    best = -math.inf
    for k in range(1, 41):
        t = 2.0**-k
        r = q + t * (q - w)
        if np.any(r < 0):
            continue
        lam = t / (1.0 + t)
        assert lam * w + (1.0 - lam) * r == pytest.approx(q, rel=1e-14)
        fr = float(hk._corner_value(*r, u, N1))
        gain = lam * fw + (1.0 - lam) * fr - fq
        best = max(best, gain - 8 * np.finfo(float).eps * (abs(fw) + abs(fr) + abs(fq)))
    assert best > 0


def test_tangent_witness_rejects_non_finite_tail_box():
    # the lattice's tail box was not finite here (p2/q2 overflowed); the
    # contact points are, and they decide f1 = g1 without a warning, as
    # the LP envelope agrees
    params = hk.HKParams(u=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hk.tangent_witness(1e-300, 1e-300, params) is None
        f1 = hk.fixed_power_value(1e-300, 1e-300, params).value
        assert hk.power_control_value(1e-300, 1e-300, params) == f1
        assert lat.lattice_value(1e-300, 1e-300, params, grid_n=9) == f1


@pytest.mark.parametrize("q", [(1.0, 1.0), (1.0, 0.0)])
def test_tangent_witness_rejects_nan_lattice(q, monkeypatch):
    # a NaN excess holds no witness; it must not read as f1 = g1, on the
    # q1 axis either, where no contact point is evaluated: here f1(q) is NaN
    real = hk._corner_value
    monkeypatch.setattr(hk, "_corner_value", lambda x, y, u, N1: real(x, y, u, N1)
                        if np.ndim(x) else real(x, y, u, N1) * np.nan)
    with pytest.raises(ValueError, match="its tangent plane is not finite"):
        hk.tangent_witness(*q, hk.HKParams(u=1.0))


def test_tangent_witness_rejects_nan_contact_excess(monkeypatch):
    # f1(q) and its gradient are finite, f1 at the contact points is NaN
    real = hk._corner_value
    monkeypatch.setattr(hk, "_corner_value", lambda x, y, u, N1: real(x, y, u, N1)
                        if (x, y) == (1.0, 1.0) else math.nan)
    with pytest.raises(ValueError, match="its contact excess is not finite"):
        hk.tangent_witness(1.0, 1.0, hk.HKParams(u=1.0))


@pytest.mark.parametrize("q, params", SCREENED_GAPPED)
def test_witness_chord_beats_f1_on_screened_cells(q, params):
    w = hk.tangent_witness(*q, params)
    assert w is not None
    assert tangent_excess(q, w, params) > 0
    assert_chord_beats_f1(q, w, params)


def test_witness_chord_beats_f1_random_cells(rng):
    witnesses = 0
    for trial in range(40):
        u = float(rng.uniform(0.3, 3.0))
        N1 = 0.0 if trial % 3 == 0 else float(rng.uniform(0.0, 2.0))
        params = hk.HKParams(u=u, N1=N1)
        q = tuple(float(np.exp(rng.uniform(math.log(0.05), math.log(30.0)))) for _ in range(2))
        w = hk.tangent_witness(*q, params)
        if w is not None:
            witnesses += 1
            assert_chord_beats_f1(q, w, params)
        # the q1 axis: f1(p1, 0) = ln(p1 + N1) is concave, so no witness
        assert hk.tangent_witness(q[0], 0.0, params) is None
    assert witnesses >= 5


def test_lp_gap_has_support_above_tangent_plane(rng):
    # g1 - f1 = sum_i w_i (f1(p_i) - l(p_i)) for the LP support p_i, since
    # the plane l averages to l(q) = f1(q); so some p_i lies above l
    gapped = 0
    for trial in range(40):
        u = float(rng.uniform(0.3, 3.0))
        N1 = 0.0 if trial % 3 == 0 else float(rng.uniform(0.0, 2.0))
        params = hk.HKParams(u=u, N1=N1)
        q = tuple(float(np.exp(rng.uniform(math.log(0.05), math.log(30.0)))) for _ in range(2))
        env = hk.power_control_envelope(*q, params, grid_n=65)
        gap = env.value - hk.fixed_power_value(*q, params).value
        if gap <= 1e-12:
            continue
        gapped += 1
        top = max(tangent_excess(q, (s.q1, s.q2), params) for s in env.support)
        assert top >= gap - 1e-12
        assert hk.tangent_witness(*q, params) is not None
    assert gapped >= 5


def assert_contacts_beat_lattice(q, params, n=129):
    """The lattice is the oracle for the closed-form contact points: on
    [0, 64 max(q, 1)]^2, with n uniform and n geometric nodes per axis, no
    node lies above the best contact point beyond the rounding bound, and a
    node above the bound means ``tangent_witness`` finds a witness too."""
    axes = []
    for qi in q:
        width = 64.0 * max(qi, 1.0)
        geometric = qi * np.expm1(np.linspace(0.0, math.log1p(width / qi), n))
        axes.append(np.union1d(np.linspace(0.0, width, n), geometric))
    excess, bound = plane_excess(q, axes[0][:, None], axes[1][None, :], params)
    over = float((excess - bound).max())
    u, N1 = params.u, params.N1
    contacts = hk._plane_contacts(*hk._corner_gradient(*q, u, N1), u, N1)
    assert over <= plane_excess(q, *contacts, params)[0].max()
    if over > 0:
        assert hk.tangent_witness(*q, params) is not None
    return over > 0


def test_contact_points_beat_lattice_on_criterion_06_cells():
    # criterion 06's ten (u, N1) streams, 200 cells
    configs = [
        (0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.5), (1.0, 1.0),
        (0.7, 0.2), (3.0, 0.0), (1.5, 1.0), (2.0, 0.5), (0.5, 1.0),
    ]
    witnesses = 0
    for i, (u, N1) in enumerate(configs):
        params = hk.HKParams(u=u, N1=N1)
        rep = hk.eigenvalue_bound_audit(1, params, 20, rng_for(7, f"acc6-{i}"))
        witnesses += sum(assert_contacts_beat_lattice((r.q1, r.q2), params) for r in rep.records)
    # the lattice finds every one of the 200 - 138 gapped cells
    assert witnesses == 62


def test_contact_points_beat_lattice_random_cells(rng):
    witnesses = 0
    for trial in range(120):
        u = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        N1 = 0.0 if trial % 4 == 0 else float(rng.uniform(0.01, 5.0))
        q = tuple(float(np.exp(rng.uniform(math.log(0.05), math.log(30.0)))) for _ in range(2))
        witnesses += assert_contacts_beat_lattice(q, hk.HKParams(u=u, N1=N1))
    assert witnesses >= 50


def test_screened_cells_read_gapped():
    # hk-region --u 1 --N1 1 cell (1, 4) reads f1 < g1
    cells = hk.power_control_map([1.0], [1.0, 4.0], hk.HKParams(u=1.0, N1=1.0))
    assert not {(c.q1, c.q2): c for c in cells}[(1.0, 4.0)].f1_eq_g1
    # lemma5-audit --u 2 --N1 0.5 --seed 2: record 11 is not applicable
    params = hk.HKParams(u=2.0, N1=0.5)
    rep = hk.eigenvalue_bound_audit(1, params, 12, rng_for(2, "lemma5-audit"))
    rec = rep.records[11]
    assert (rec.q1, rec.q2) == SCREENED_GAPPED[1][0]
    assert not rec.applicable
    with pytest.raises(hk.NotApplicableError, match="above its tangent plane"):
        hk.maximizer_bound_check(rec.q1, rec.q2, params)


def test_d2_applicable_records_match_tensorization():
    # on an applicable d = 2 record f1 = g1 at q/2, so f2(q) = g2(q) = 2 f1(q/2):
    # the split grid holds q/2, and the max-plus envelope, a lattice lower
    # bound on g2, lies between 2 f1(q/2) and the best split on its lattice
    found = 0
    for (u, N1), stream in (((1.0, 0.0), "d2-a"), ((2.0, 0.5), "d2-b"), ((0.5, 0.2), "d2-c")):
        params = hk.HKParams(u=u, N1=N1)
        rep = hk.eigenvalue_bound_audit(2, params, 8, rng_for(5, stream))
        for r in rep.records:
            if not r.applicable:
                continue
            found += 1
            half = 2.0 * hk._corner_value(r.q1 / 2, r.q2 / 2, u, N1)
            f2 = hk.fixed_power_value_2d(r.q1, r.q2, params).value
            assert f2 == pytest.approx(half, rel=0, abs=1e-12)
            g2 = power_control_value_2d(r.q1, r.q2, params, grid_n=49)
            xg = _uniform_lattice_with_node(4 * max(r.q1, 1.0), r.q1, 49)
            yg = _uniform_lattice_with_node(4 * max(r.q2, 1.0), r.q2, 49)
            a, b = xg[xg <= r.q1][:, None], yg[yg <= r.q2][None, :]
            with np.errstate(divide="ignore"):
                split = lat.corner_values(a, b, u, N1) + lat.corner_values(r.q1 - a, r.q2 - b, u, N1)
            assert float(split.max()) - 1e-12 <= g2 <= half + 1e-12
            assert r.max_eigenvalue == hs.capped_gauss_objective(r.q1 / 2, r.q2 / 2, u, N1, u)[1]
    assert found >= 10


# ----------------------------------------------------------------------
# maximizer bound and audits
# ----------------------------------------------------------------------


def test_variance_bound_is_exact_at_its_boundary():
    # u = 8: 1 + sqrt(9) = 4 exactly; the old 1e-6 slack passed the next float
    assert hk.variance_bound_holds(4.0, 0.0, 8.0)
    assert hk.variance_bound_holds(3.0, 1.0, 8.0)
    assert not hk.variance_bound_holds(math.nextafter(4.0, 5.0), 0.0, 8.0)
    assert not hk.variance_bound_holds(3.0, math.nextafter(1.0, 2.0), 8.0)
    # the sum K + N1 is exact: 0.1 + 0.2 rounds to 0.30000000000000004 in floats
    assert hk.variance_bound_holds(0.1, 0.2, 0.0)
    assert hk.variance_bound_holds(1.0, 0.0, 1e-300) and hk.variance_bound_holds(0.5, 0.5, 1e-300)


@pytest.mark.parametrize("K, N1, u", [(math.inf, 0.0, 1.0), (math.nan, 0.0, 1.0),
                                      (1.0, math.inf, 1.0), (1.0, 0.0, math.nan)])
def test_variance_bound_rejects_non_finite(K, N1, u):
    with pytest.raises(ValueError, match="K, N1 and u must be finite"):
        hk.variance_bound_holds(K, N1, u)


def test_variance_bound_matches_rational_oracle(rng):
    # near the boundary, where the float sum and square root cannot decide
    from fractions import Fraction

    for _ in range(300):
        u = float(rng.uniform(0.01, 10.0))
        N1 = float(rng.uniform(0.0, 2.0))
        K = 1.0 + math.sqrt(1.0 + u) - N1 + float(rng.integers(-3, 4)) * 4e-16
        x = Fraction(K) + Fraction(N1)
        want = x <= 1 or (x - 1) ** 2 <= 1 + Fraction(u)
        assert hk.variance_bound_holds(K, N1, u) == want


def test_case_3_is_exact_equality():
    # J equal to the unconstrained argmax 1.5 at L = 5, u = 1; the old 1e-9
    # band also called its neighbours case 3
    params = hk.HKParams(u=1.0)
    J = hs.gauss_argmax(5.0, 1.0, 0.0, 1.0)
    assert J == 1.5
    assert hk.maximizer_bound_check(J, 5.0, params).case == 3
    below = hk.maximizer_bound_check(math.nextafter(J, 0.0), 5.0, params)
    above = hk.maximizer_bound_check(math.nextafter(J, 2.0), 5.0, params)
    assert (below.case, below.K) == (2, math.nextafter(J, 0.0))
    assert (above.case, above.K) == (1, J)


def test_bound_value_example():
    params = hk.HKParams(u=3.0, N1=0.0)
    res = hk.maximizer_bound_check(1.5, 4.0, params)
    assert res.bound == pytest.approx(3.0, abs=1e-12)


def test_case1_cells_have_large_L(rng):
    # applicable uncapped cells force L >= sqrt(u+1)+1
    params = hk.HKParams(u=1.0, N1=0.0)
    env_cache = {}
    found = 0
    for _ in range(60):
        J = float(rng.uniform(3.0, 12.0))
        L = float(rng.uniform(1.1, 8.0))
        if L <= 1 or J <= (params.u + L) / (L - 1.0):
            continue
        try:
            res = hk.maximizer_bound_check(J, L, params)
        except hk.NotApplicableError:
            continue
        if res.case == 1:
            found += 1
            assert L >= math.sqrt(params.u + 1.0) + 1.0 - 1e-6
    assert found > 0


def test_not_applicable_raises():
    params = hk.HKParams(u=1.0, N1=1.0)
    with pytest.raises(hk.NotApplicableError):
        hk.maximizer_bound_check(39.0, 1.2, params)


def test_audit_d1_no_violations():
    params = hk.HKParams(u=1.0, N1=0.0)
    rep = hk.eigenvalue_bound_audit(1, params, 30, rng_for(11, "audit-test"))
    assert rep.violations == 0
    assert rep.applicable > 5


def test_audit_d2_no_violations():
    params = hk.HKParams(u=1.0, N1=0.0)
    rep = hk.eigenvalue_bound_audit(2, params, 6, rng_for(12, "audit2-test"))
    assert rep.violations == 0


def test_f2_split_beats_symmetric_half():
    params = hk.HKParams(u=1.0, N1=1.0)
    res = hk.fixed_power_value_2d(10.0, 4.0, params)
    half = hk.fixed_power_value(5.0, 2.0, params).value
    assert res.value >= 2 * half - 1e-8


def test_power_control_cell_g1_majorizes_f1_exactly():
    # g1 is f1 itself where no point lies above the tangent plane, and the
    # dual's value exceeds f1 elsewhere, so hk-region's envelope_majorizes
    # check needs no tolerance; every cell gets a bracket within its
    # rounding bound (the lattice LP left 7 of these 300 cells with support
    # on its outer edge: GridTooSmallError, and hk-region exited 2)
    rng = np.random.default_rng(18)
    gapped = 0
    for u, N1, q1, q2 in np.exp(rng.uniform(-8.0, 8.0, (300, 4))):
        c = hk.power_control_cell(float(q1), float(q2), hk.HKParams(u=float(u), N1=float(N1)))
        assert c.g1 >= c.f1, (u, N1, q1, q2)
        assert c.g1 > c.f1 or c.f1_eq_g1, (u, N1, q1, q2)
        assert c.bracket.within_rounding, (u, N1, q1, q2)
        gapped += not c.f1_eq_g1
    assert gapped >= 100


# ----------------------------------------------------------------------
# constant-power comparison
# ----------------------------------------------------------------------


def test_constant_power_gap_positive():
    params = cx.ChannelParams(u=1.0, N1=1.0, N2=0.05)
    res = cx.constant_power_gap(params)
    assert res.witness_gain > 1e-6
    assert res.slack <= res.witness_gain / 2.0
    assert res.lower_witness > res.gaussian_value
    # e_41 structure: witness >= gaussian + c/2 - slack
    assert res.lower_witness >= res.gaussian_value + res.witness_gain / 2.0 - res.slack - 1e-12


@pytest.mark.parametrize(
    "u, N1, N2, where",
    [(2.0, 0.5, 0.3, "interior"), (2.0, 1.0, 0.05, "K = 0"), (1.0, 1.0, 0.05, "K = q1")],
)
def test_constant_power_gap_gaussian_term_matches_grid(u, N1, N2, where):
    # the Gaussian term is half the capped psi with N = N2 and L = q2 over
    # K in [0, q1]; a dense K grid of the written-out psi is the oracle
    res = cx.constant_power_gap(cx.ChannelParams(u=u, N1=N1, N2=N2), n=4096)
    term = res.gaussian_value - 0.5 * math.log((res.q1 + res.q2 + N1 + N2) / N1)
    ks = np.linspace(0.0, res.q1, 1000001)
    vals = 0.5 * psi_written_out(ks, res.q2, u, N1, N2)
    i = int(np.argmax(vals))
    assert {0: "K = 0", ks.size - 1: "K = q1"}.get(i, "interior") == where
    assert vals[i] <= term + 1e-12 and term - vals[i] <= 1e-9


def test_constant_power_gap_large_A_trend():
    params = cx.ChannelParams(u=1.0, N1=1.0, N2=0.05)
    base = cx.constant_power_gap(params)
    gaps = []
    for mult in (1.0, 8.0, 64.0):
        res = cx.constant_power_gap(params, A=base.mixing_variance * mult)
        gaps.append(res.gap)
    c_half = base.witness_gain / 2.0
    devs = [abs(g - c_half) for g in gaps]
    assert devs[-1] <= devs[0] + 1e-12
    assert devs[-1] < 0.2 * c_half


def test_constant_power_gap_computes_each_entropy_once(monkeypatch):
    # the slack that ends the A-doubling loop used to be evaluated again
    seen = []
    real = cx.mixture_entropy

    def counted(m, n=8192):
        seen.append(m)
        return real(m, n=n)

    monkeypatch.setattr(cx, "mixture_entropy", counted)
    cx.constant_power_gap(cx.ChannelParams(u=1.0, N1=1.0, N2=0.05))
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("N2", [0.01, 0.02, 0.05, 0.1])
def test_constant_power_gap_witness_meets_the_power_exactly(N2):
    # X2 is the recipe's q scaled by sqrt(N2/m2(q)), so E[X2^2] = N2 up to
    # the roundings of t, sqrt(t)^2 and the moment sum: at most 5 ulps over
    # 20 000 log-uniform N2 in [1e-12, 1e12]; the objective's former power
    # test allowed 1e-9 over N2
    res = cx.constant_power_gap(cx.ChannelParams(u=1.0, N1=1.0, N2=N2), n=2048)
    assert abs(res.q2 - N2) <= 8 * math.ulp(N2)


@pytest.mark.parametrize("A", [math.nan, math.inf, -1.0])
def test_constant_power_gap_rejects_bad_mixing_variance(A):
    params = cx.ChannelParams(u=1.0, N1=1.0, N2=0.05)
    with pytest.raises(ValueError, match="mixing variance A must be finite and nonnegative"):
        cx.constant_power_gap(params, A=A)


def test_constant_power_witness_unavailable():
    # N2 so large that the scaled construction has no verified positive gain
    params = cx.ChannelParams(u=1.0, N1=1.0, N2=50.0)
    with pytest.raises(cx.WitnessUnavailableError):
        cx.constant_power_gap(params)


def test_constant_power_gap_rejects_a_nan_skew_gain():
    # u h(.) and (1+u) h(.) overflow to inf, so c = inf - inf is NaN, which
    # passed the old test c <= 1e-6
    with pytest.raises(cx.WitnessUnavailableError, match="skew gain c = nan"):
        cx.constant_power_gap(cx.ChannelParams(u=1.7e308, N1=1.0, N2=0.05), n=1024)


# ----------------------------------------------------------------------
# power-control footprint map
# ----------------------------------------------------------------------


def test_power_control_map_cells():
    params = hk.HKParams(u=1.0, N1=1.0)
    cells = hk.power_control_map([1.0], [0.0, 1.2, 39.0], params)
    by_q = {(c.q1, c.q2): c for c in cells}
    gap_cell = by_q[(39.0, 1.2)]
    assert not gap_cell.f1_eq_g1  # power control helps here
    eq_cell = by_q[(39.0, 39.0)]
    assert eq_cell.f1_eq_g1
    # degenerate q2=0 column present and classified
    z = by_q[(1.2, 0.0)]
    assert z.g1 >= z.f1 - 1e-9
    # equality cells with a live interference budget obey the variance
    # bound; q2=0 columns are exempt (no interferer dimension to trade)
    for c in cells:
        if c.f1_eq_g1 and c.q2 > 0:
            assert c.stationary_K + params.N1 <= 1 + math.sqrt(1 + c.u) + 1e-6


def test_power_control_cell_rules():
    params = hk.HKParams(u=1.0, N1=1.0)
    for q in ((0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match=r"need q1 > 0 and q2 >= 0"):
            hk.power_control_cell(*q, params)
    # the audits' check took a negative L as 0 and returned a K
    with pytest.raises(ValueError, match=r"needs q1 > 0 and q2 >= 0, got \(1.0, -0.5\)"):
        hk.maximizer_bound_check(1.0, -0.5, params)
    # a q2 = 0 cell: g1 = f1 and K at (q1, 0), the same tangent-plane verdict
    c = hk.power_control_cell(1.2, 0.0, params)
    res = hk.fixed_power_value(1.2, 0.0, params)
    assert (c.f1, c.g1, c.stationary_K) == (res.value, res.value, res.K)
    assert c.f1_eq_g1 == (hk.tangent_witness(1.2, 0.0, params) is None)


def test_axis_cells_read_g1_equal_f1(rng):
    # a randomization averaging to (q1, 0) keeps its support on the q1 axis,
    # where f1(p1, 0) = ln(p1 + N1) is concave: the best chord over a fine
    # axis lattice never beats f1 beyond the 8-ulp rounding bound, and the
    # cell reads g1 == f1
    for trial in range(60):
        u = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        N1 = 0.0 if trial % 4 == 0 else float(rng.uniform(0.01, 5.0))
        q1 = float(np.exp(rng.uniform(math.log(0.05), math.log(30.0))))
        params = hk.HKParams(u=u, N1=N1)
        xs = np.union1d(np.linspace(0.0, 64.0 * max(q1, 1.0), 4097), [q1])
        chord = hk.concave_envelope_1d(xs, lat.corner_values(xs, 0.0 * xs, u, N1), q1)
        _, bound = plane_excess((q1, 0.0), xs, 0.0 * xs, params)
        f1 = hk.fixed_power_value(q1, 0.0, params).value
        assert chord - f1 <= bound[np.isfinite(bound)].max()
        assert hk.power_control_cell(q1, 0.0, params).g1 == f1


@pytest.mark.parametrize("q", [(1e308, 1e-300), (1e308, 0.0), (1.0, 1e308), (5.7e306, 1.0)])
def test_power_control_cell_rejects_non_finite_window(q):
    # the lattice window 32 max(q, 1) of these cells was not finite; the
    # dual has no window: each cell either gets g1 with a bracket within its
    # rounding bound, never g1 = f1 beside a witness, or is rejected
    # (ValueError) without a warning
    params = hk.HKParams(u=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            c = hk.power_control_cell(*q, params)
        except ValueError as exc:
            assert str(exc).startswith(f"power-control cell (q1={q[0]}, q2={q[1]}): ")
            return
    assert c.f1_eq_g1 == (hk.tangent_witness(*q, params) is None)
    assert c.g1 == c.f1 if c.f1_eq_g1 else c.g1 > c.f1 and c.bracket.within_rounding


# ----------------------------------------------------------------------
# g1 by the Fenchel dual against the lattice LP
# ----------------------------------------------------------------------


def assert_lp_below_dual(q, params, grid_n=129):
    """The lattice LP, a lower bound on g1, lies below the dual's value, and
    the value below the dual's upper bound, each within the bracket's
    rounding bound (and the LP's own 1e-12 pricing tolerance)."""
    br = hk.power_control_bracket(*q, params)
    lp = lat.lattice_value(*q, params, grid_n=grid_n)
    slack = br.rounding + 1e-12 * abs(lp)
    assert lp <= br.value + slack, (q, lp, br)
    assert br.value <= br.upper + br.rounding and br.within_rounding, (q, br)
    assert br.value >= hk.fixed_power_value(*q, params).value
    return br.value - lp


def test_dual_brackets_above_lp_on_criterion_06_cells():
    gaps = []
    for i, (u, N1) in enumerate([
        (0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.5), (1.0, 1.0),
        (0.7, 0.2), (3.0, 0.0), (1.5, 1.0), (2.0, 0.5), (0.5, 1.0),
    ]):
        params = hk.HKParams(u=u, N1=N1)
        rep = hk.eigenvalue_bound_audit(1, params, 20, rng_for(7, f"acc6-{i}"))
        gaps += [assert_lp_below_dual((r.q1, r.q2), params) for r in rep.records]
    assert len(gaps) == 200 and max(gaps) > 0


@pytest.mark.parametrize(
    "u, N1, qs",
    [(1.0, 1.0, (1.0, 4.0, 7.0, 10.0)), (1.0, 1.0, (1.2, 5.0, 39.0))],
)
def test_dual_brackets_above_lp_on_readme_cells(u, N1, qs):
    params = hk.HKParams(u=u, N1=N1)
    for q in ((q1, q2) for q1 in qs for q2 in qs):
        assert_lp_below_dual(q, params)
    # at (1, 4) the LP's window [0, 4] x [0, 16] misses the support point
    # (5.97, 0): the LP read g1 = f1, and the dual finds a gap of 1.9e-4
    br = hk.power_control_bracket(1.0, 4.0, params)
    assert br.value - hk.fixed_power_value(1.0, 4.0, params).value == pytest.approx(1.902e-4, rel=1e-3)
    assert max(p[0] for p in br.support) > 4.0


def test_dual_support_is_a_randomization():
    # weights summing to 1 on points p >= 0 that average to q, whose f1
    # values average to the reported g1
    params = hk.HKParams(u=2.0, N1=0.5)
    for q in [(2.066687349572014, 0.5967584113683521), (39.0, 1.2), (7.0, 2.0)]:
        br = hk.power_control_bracket(*q, params)
        w = [s[2] for s in br.support]
        assert 2 <= len(w) <= 3 and math.fsum(w) == pytest.approx(1.0, abs=1e-15)
        assert all(s[0] >= 0 and s[1] >= 0 for s in br.support)
        for k in (0, 1):
            assert math.fsum(s[2] * s[k] for s in br.support) == pytest.approx(q[k], rel=1e-14)
        value = math.fsum(s[2] * hk._corner_value(s[0], s[1], params.u, params.N1) for s in br.support)
        assert value == pytest.approx(br.value, abs=4 * math.ulp(br.value))


@pytest.mark.parametrize(
    "u, N1, q, g1, rounding",
    [
        (1.0, 1.0, (10.0, 1.0), 2.618995741257237, 5.974351615933675e-14),
        (3.0, 0.5, (7.0, 2.0), 2.8364904387418157, 1.422510921436725e-13),
    ],
)
def test_dual_search_certifies_cells_newton_missed(u, N1, q, g1, rounding, monkeypatch):
    # Newton from the tangent plane ended without a bracket on these two
    # benchmark cells, and a nested log-bisection found the bracket with 563
    # and 883 evaluations of the contact points (g1 and its rounding bound
    # recorded then); the one search certifies them like any other cell
    calls = []
    real = hk._contact_slots
    monkeypatch.setattr(hk, "_contact_slots", lambda *args: calls.append(args) or real(*args))
    br = hk.power_control_bracket(*q, hk.HKParams(u=u, N1=N1))
    assert br.within_rounding and len(calls) < 250
    assert br.value == pytest.approx(g1, abs=max(rounding, br.rounding))


def test_dual_answers_across_the_float_range():
    # 800 cells with u, N1, q1 and q2 log-uniform over e^+-20.  Before the
    # one search, 9 of the 261 gapped cells reported that the dual found no
    # contact points and 11 had a bracket wider than its rounding bound.
    # The 160 cells whose bracket was within rounding and whose g1 - f1
    # exceeded it (recorded: index, g1, rounding) must keep a bracket
    # within rounding and g1 within the larger rounding bound.
    rng = random.Random(20261020)
    cells = [tuple(math.exp(rng.uniform(-20.0, 20.0)) for _ in range(4)) for _ in range(800)]
    recorded = json.loads((Path(__file__).parent / "hk_sweep_e20.json").read_text())
    assert len(recorded) == 160
    gapped, wide, messages = 0, 0, []
    got = {}
    for i, (u, N1, q1, q2) in enumerate(cells):
        params = hk.HKParams(u=u, N1=N1)
        if hk.tangent_witness(q1, q2, params) is None:
            continue
        gapped += 1
        try:
            br = hk.power_control_cell(q1, q2, params).bracket
        except ValueError as exc:
            messages.append(str(exc))
            continue
        wide += not br.within_rounding
        got[i] = br
    assert gapped == 261 and wide <= 11
    assert not [m for m in messages if "no contact points" in m]
    for i, g1, rounding in recorded:
        br = got[i]
        assert br.within_rounding and abs(br.value - g1) <= max(rounding, br.rounding), (i, br, g1)
