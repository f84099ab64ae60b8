"""Fuzzing the CLI: every argument vector of the cheap subcommands exits 0,
2 or 3; on 0 and 3 stdout is strict JSON and stderr is empty, on 2 stderr
is exactly one line.  No run may warn, since a warning is stderr text."""

import contextlib
import io
import json
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ziclab.cli import MAX_RANGE_VALUES, main

# the float range's edges, zero, negatives, ordinary and non-finite values
SPECIAL = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "-1", "0.3", "1", "1.6", "2", "5",
           "inf", "-inf", "nan")
FLOAT = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e300, max_value=1e300).map(repr),
)
INT = st.integers(min_value=-3, max_value=25).map(str)
# lo:hi:step ranges with a few values, none, or more than a float can count
# (a huge finite count, such as 0:1:1e-12, is run in a child process under
# an address-space limit by test_cli.py), and ranges just past the count
# bound, which are rejected before any value is built
RANGES = ("1:2:0.5", "0:0.99999999995:0.1", "2:2:1", "1e-300:1e300:2e299", "1:0:1", "0:1:0",
          "1:2:3:4", "1:1e300:1e-300", "2:3:1e-320")
PAST_BOUND = st.integers(min_value=0, max_value=3).map(lambda k: f"0:{MAX_RANGE_VALUES + k}:1")
VALUES = st.one_of(FLOAT, st.sampled_from(RANGES), PAST_BOUND)


def command(name, *fixed, **options):
    """Strategy for ``ziclab name`` with each option drawn from its strategy
    and every fixed argument appended (they keep the run small)."""
    return st.fixed_dictionaries(options).map(
        lambda drawn: [name, *(f"--{k}={v}" for k, v in drawn.items()), *fixed]
    )


COMMANDS = st.one_of(
    command("phase-diagram", u=VALUES, L=VALUES),
    command("condition54-root", u=VALUES, tolerance=FLOAT),
    command("hessian", u=FLOAT, L=FLOAT),
    command("theorem5-epsilon", u=FLOAT, L=VALUES),
    command("hk-region", u=FLOAT, N1=FLOAT, q1=VALUES, q2=VALUES),
    command("conjecture2-map", u=VALUES, N1=FLOAT, q=VALUES),
    command("lemma5-audit", "--samples=2", u=FLOAT, N1=FLOAT),
    command("theorem4-audit", "--d=2", "--samples=2", u=FLOAT, N1=FLOAT),
    command("verify-vertical", "--n=1024", u=FLOAT, L=FLOAT, J=INT),
    command("verify-vertical", "--n=1024", K=FLOAT, delta=FLOAT, eps=FLOAT),
    command("verify-lemma1", "--n=1024", "--t-count=6", **{"t-min": FLOAT, "t-max": FLOAT}),
    command("verify-lemma2", "--n=1024", "--t-count=2", **{"t-min": FLOAT, "t-max": FLOAT}),
    command("geometry", t=VALUES),
    command("limit-functional", "--n=1024", L=VALUES, J=INT),
    command("constant-power-gap", "--n=1024", u=FLOAT, N1=FLOAT, N2=FLOAT),
)


def reject_non_finite(text):
    raise ValueError(f"non-finite JSON constant {text}")


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(COMMANDS)
# each of these exited 1 with a traceback, or 0 with a RuntimeWarning
@example(["phase-diagram", "--u=1e-300", "--L=2"])
@example(["hessian", "--u=1e-300"])
@example(["verify-vertical", "--u=1e-300", "--n=1024"])
@example(["phase-diagram", "--u=5e-324", "--L=1.6"])
@example(["hessian", "--u=5e-324"])
@example(["verify-vertical", "--u=5e-324", "--n=1024"])
@example(["hk-region", "--q1=1e-300", "--q2=1e-300"])
@example(["conjecture2-map", "--q=1e-300"])
@example(["verify-vertical", "--K=1e300", "--delta=2.5011080795048392e-272",
          "--eps=2.298404453637188e+221", "--n=1024"])
@example(["verify-vertical", "--K=8.043241841108752e+256", "--delta=5.062894561534945e-23",
          "--eps=9.43946782688377e-284", "--n=1024"])
@example(["verify-vertical", "--K=2.168379929338835e-141", "--delta=7.943308566024267e-213",
          "--eps=5", "--n=1024"])
@example(["verify-vertical", "--eps=1e-150", "--n=1024"])
@example(["verify-vertical", "--eps=1e-161", "--n=1024"])
@example(["hk-region", "--u=1e305", "--q1=1", "--q2=1"])
@example(["lemma5-audit", "--u=3e305", "--samples=2"])
@example(["verify-lemma1", "--t-min=0.1", "--t-max=0.1", "--n=1024"])
@example(["verify-lemma2", "--t-min=1e200", "--t-max=1e200", "--t-count=2", "--n=1024"])
@example(["theorem5-epsilon", "--u=1.49e181", "--L=9.26e61"])
@example(["geometry", "--t=1e300"])
# past the float strategy's 1e300: a traceback after an invalid-value
# warning, and an unrelated message after overflow warnings
@example(["hk-region", "--u=1", "--q1=5.6e306", "--q2=1"])
@example(["hk-region", "--u=1", "--q1=5.6e306", "--q2=1e-300"])
@example(["limit-functional", "--L=1e308", "--n=1024"])
# the witness ran into the HK commands' f1 = g1 bound (exit 2), or must
# reject u = 0 itself now that it takes ChannelParams
@example(["constant-power-gap", "--u=3e305", "--n=1024"])
@example(["constant-power-gap", "--u=0", "--n=1024"])
# an OverflowError traceback
@example(["geometry", "--t=1:1e300:1e-300"])
@example(["phase-diagram", "--u=1", "--L=2:3:1e-320"])
# an overflow RuntimeWarning from numpy before the one-line exit 2
@example(["phase-diagram", "--u=1e300", "--L=1.0000000009313226"])
def test_cli_exits_0_2_or_3_with_strict_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2, 3)
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=reject_non_finite)
