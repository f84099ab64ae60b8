"""The benchmark's traced pass hooks `ziclab` functions by name; every name
it hooks must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
from pathlib import Path

import pytest

from ziclab import _util

TRACE_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "trace_run.py"


@pytest.fixture(scope="module")
def trace_run():
    # loaded as a plain module: its hooks are installed only by main()
    spec = importlib.util.spec_from_file_location("perfbench_trace_run", TRACE_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(trace_run):
    assert trace_run.TRACED
    for span, owner, attr, _ in trace_run.TRACED:
        # install() reads methods from the class dict and functions by getattr
        target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(target), (span, owner, attr)


def test_pool_hooks_resolve(trace_run):
    assert trace_run._util is _util
    assert callable(_util.parallel_map)
    assert callable(_util.thread_count)
