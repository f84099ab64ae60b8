"""Fuzzing the CLI: every argument vector of the cheap subcommands exits 0,
2 or 3; on 0 and 3 stdout is strict JSON and stderr is empty, on 2 stderr
is exactly one line.  No run may warn, since a warning is stderr text."""

import contextlib
import io
import json
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ziclab.cli import main

# the float range's edges, zero, negatives, and ordinary values
SPECIAL = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "-1", "0.3", "1", "1.6", "2", "5")
FLOAT = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e300, max_value=1e300).map(repr),
)
INT = st.integers(min_value=-3, max_value=25).map(str)


def command(name, *fixed, **options):
    """Strategy for ``ziclab name`` with each option drawn from its strategy
    and every fixed argument appended (they keep the run small)."""
    return st.fixed_dictionaries(options).map(
        lambda drawn: [name, *(f"--{k}={v}" for k, v in drawn.items()), *fixed]
    )


COMMANDS = st.one_of(
    command("phase-diagram", u=FLOAT, L=FLOAT),
    command("condition54-root", u=FLOAT, tolerance=FLOAT),
    command("hessian", u=FLOAT, L=FLOAT),
    command("theorem5-epsilon", u=FLOAT, L=FLOAT),
    command("hk-region", "--envelope-grid=9", u=FLOAT, N1=FLOAT, q1=FLOAT, q2=FLOAT),
    command("conjecture2-map", "--envelope-grid=9", u=FLOAT, N1=FLOAT, q=FLOAT),
    command("lemma5-audit", "--samples=2", u=FLOAT, N1=FLOAT),
    command("theorem4-audit", "--d=2", "--samples=2", u=FLOAT, N1=FLOAT),
    command("verify-vertical", "--n=1024", u=FLOAT, L=FLOAT, J=INT),
    command("verify-vertical", "--n=1024", K=FLOAT, delta=FLOAT, eps=FLOAT),
    command("verify-lemma1", "--n=1024", "--t-count=6", **{"t-min": FLOAT, "t-max": FLOAT}),
    command("verify-lemma2", "--n=1024", "--t-count=2", **{"t-min": FLOAT, "t-max": FLOAT}),
    command("geometry", t=FLOAT),
    command("limit-functional", "--n=1024", L=FLOAT, J=INT),
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
@example(["hk-region", "--q1=1e-300", "--q2=1e-300", "--envelope-grid=9"])
@example(["conjecture2-map", "--q=1e-300", "--envelope-grid=9"])
@example(["verify-vertical", "--K=1e300", "--delta=2.5011080795048392e-272",
          "--eps=2.298404453637188e+221", "--n=1024"])
@example(["verify-vertical", "--K=8.043241841108752e+256", "--delta=5.062894561534945e-23",
          "--eps=9.43946782688377e-284", "--n=1024"])
@example(["verify-vertical", "--K=2.168379929338835e-141", "--delta=7.943308566024267e-213",
          "--eps=5", "--n=1024"])
@example(["verify-vertical", "--eps=1e-150", "--n=1024"])
@example(["verify-vertical", "--eps=1e-161", "--n=1024"])
@example(["hk-region", "--u=1e305", "--q1=1", "--q2=1", "--envelope-grid=9"])
@example(["lemma5-audit", "--u=3e305", "--samples=2"])
@example(["verify-lemma1", "--t-min=0.1", "--t-max=0.1", "--n=1024"])
@example(["verify-lemma2", "--t-min=1e200", "--t-max=1e200", "--t-count=2", "--n=1024"])
@example(["theorem5-epsilon", "--u=1.49e181", "--L=9.26e61"])
@example(["geometry", "--t=1e300"])
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
