"""The audits' pure-Python Philox stream against numpy's Philox generator,
and the audits run through both."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import rng_for as numpy_rng_for
from ziclab import hkregion as hk
from ziclab._util import PhiloxStream, philox4x64, rng_for, stream_key

STREAMS = ("lemma5-audit", "theorem4-audit", "acc6-3", "", "a stream name with spaces")


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**70), stream=st.sampled_from(STREAMS))
@example(seed=0, stream="lemma5-audit")
@example(seed=2**63, stream="theorem4-audit")
@example(seed=2**64 + 7, stream="acc6-3")
def test_stream_uniforms_equal_numpy_bit_for_bit(seed, stream):
    ours = rng_for(seed, stream)
    want = numpy_rng_for(seed, stream).uniform(-3.0, 3.4, 10**4)
    got = [ours.uniform(-3.0, 3.4) for _ in range(10**4)]
    assert [x.hex() for x in got] == [x.hex() for x in want.tolist()]


@pytest.mark.parametrize("counter", [2**64 - 1, 2**128 - 2, 2**256 - 1])
def test_counter_carry_matches_numpy(counter):
    # the counter is incremented before each block: 2^64 - 1 carries into
    # the second word, and 2^256 - 1 wraps to 0
    key = stream_key(5, "carry")
    ours = PhiloxStream(key, counter=counter)
    want = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(40)
    assert [ours.random() for _ in range(40)] == want.tolist()


def test_philox_known_answer():
    # Random123's known-answer vectors for Philox4x64-10
    assert philox4x64([0, 0, 0, 0], [0, 0]) == [
        0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]
    pi = [0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89]
    assert philox4x64(pi, [0x452821E638D01377, 0xBE5466CF34E90C6C]) == [
        0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6]


def test_stream_rejects_a_key_past_128_bits():
    with pytest.raises(ValueError, match="128 bits"):
        PhiloxStream(2**128)


def numpy_audit(d, params, samples, rng):
    """The audit's draws as numpy made them, np.exp of the generator's
    uniforms, with each cell decided by ``maximizer_bound_check``."""
    low, high = math.log(hk.AUDIT_Q_LOW), math.log(hk.AUDIT_Q_HIGH)
    out = []
    for _ in range(samples):
        a = float(np.exp(rng.uniform(low, high)))
        b = float(np.exp(rng.uniform(low, high)))
        try:
            res = hk.maximizer_bound_check(*((a, b) if d == 1 else (a / 2, b / 2)), params)
        except hk.NotApplicableError:
            out.append((a, b, False, True, 0))
            continue
        out.append((a, b, True, res.bound_holds, res.case if d == 1 else 0))
    return out


CRITERION_06 = [
    (0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.5), (1.0, 1.0),
    (0.7, 0.2), (3.0, 0.0), (1.5, 1.0), (2.0, 0.5), (0.5, 1.0),
]
AUDITS = [
    # criterion 06's ten streams
    *((1, u, N1, 20, 7, f"acc6-{i}") for i, (u, N1) in enumerate(CRITERION_06)),
    # README and benchmark audits
    (1, 1.0, 0.0, 50, 7, "lemma5-audit"),
    (1, 2.0, 0.5, 12, 2, "lemma5-audit"),
    (2, 1.0, 0.0, 10, 0, "theorem4-audit"),
    (2, 1.0, 0.0, 4, 0, "theorem4-audit"),
]


@pytest.mark.parametrize("d, u, N1, samples, seed, stream", AUDITS)
def test_audit_flags_equal_through_both_generators(d, u, N1, samples, seed, stream):
    # the draws are the same uniforms; exp may round an ulp apart (np.exp
    # is vectorized, math.exp is the C library's), and no flag moves
    params = hk.HKParams(u=u, N1=N1)
    rep = hk.eigenvalue_bound_audit(d, params, samples, rng_for(seed, stream))
    want = numpy_audit(d, params, samples, numpy_rng_for(seed, stream))
    for r, (a, b, applicable, holds, case) in zip(rep.records, want, strict=True):
        assert abs(r.q1 - a) <= math.ulp(a) and abs(r.q2 - b) <= math.ulp(b)
        assert (r.applicable, r.bound_holds, r.case) == (applicable, holds, case)
