"""The benchmark's traced pass hooks `ziclab` functions by name; every name
it hooks must still resolve, and every hook and extra must still run, or
`perfbench/run.py --trace 1` breaks."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ziclab import _util
from ziclab.cli import main

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


# a location-mixture command, a derivative-mixture one and one through the
# Fisher rows: the traced convolve hooks read len(r.weights) and
# len(r.terms) of their results
TRACED_COMMANDS = (
    ("verify-lemma1",),
    ("verify-vertical", "--u", "1", "--L", "1.4"),
    ("limit-functional", "--L", "1.2"),
)


def test_traced_pass_runs_and_keeps_every_report(capsys):
    root = TRACE_RUN.parents[1]
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(TRACE_RUN)],
        input=json.dumps(TRACED_COMMANDS),
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    untraced = []
    for argv in TRACED_COMMANDS:
        assert main(list(argv)) == 0
        untraced.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert traced["reports"] == untraced
    assert traced["metrics"]["gaussmix.convolve.calls"]["value"] > 0
