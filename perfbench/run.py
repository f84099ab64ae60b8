"""End-to-end benchmark of the `ziclab` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding `src/ziclab`).  One
client runs the workload's commands in a closed loop, each as a fresh
`python -m ziclab.cli` process, never two at once.  Whole passes over the
command list repeat, as many as fit `--seconds` at the first pass's pace
(at least one); the seed permutes the command order of each pass.  Each
end-to-end figure is built from the commands' medians over the passes.  The
reports of the first pass go through the independent oracles in
`oracles.py`; later passes must repeat them byte for byte.  `--trace 1`
then runs one traced pass in a process of its own (`trace_run.py`) and
prints the per-layer metrics instead of the end-to-end ones.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import oracles
from workloads import THREAD_CHECKED, WORKLOADS, Command

HERE = Path(__file__).resolve().parent
SETUPS = 3
THREAD_CHECK = "same_report_with_ZIC_THREADS=1"
COMMAND_TIMEOUT_S = 170.0
BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class Outcome(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str


def child_env(root: Path, **extra: str) -> dict[str, str]:
    env = dict(os.environ, **extra)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(argv: tuple[str, ...], env: dict[str, str], work: Path) -> Outcome:
    """One command process, timed from spawn to exit, with its rusage."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ziclab.cli", *argv], stdout=out, stderr=err, env=env
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_text(errors="replace")[-400:],
    )


def timed_python(code: str, env: dict[str, str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=COMMAND_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise SystemExit(f"perfbench: `python -c {code!r}` failed: {res.stderr.strip()[-400:]}")
    return wall, res.stdout.strip()


def setup(seed: int, env: dict[str, str], root: Path):
    """Generate the pass orders from the seed and import `ziclab` once in a
    fresh interpreter (untimed by the passes; it warms the file cache and
    proves that the package comes from this checkout)."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    import_s, where = timed_python("import ziclab; print(ziclab.__file__)", env)
    if not Path(where).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"perfbench: ziclab imported from {where}, not from {root / 'src'}")
    return time.perf_counter() - t0, import_s, rng


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ziclab").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "ZIC_THREADS": os.environ.get("ZIC_THREADS"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def check_first_pass(commands, outcomes, env1, work) -> list[list[oracles.Check]]:
    """Oracle checks per command of the first pass, plus the thread-count
    check for the sweeps that run on a thread pool."""
    verdicts = []
    for cmd, out in zip(commands, outcomes):
        checks = [oracles.Check("exit_code", out.code == 0, f"exit {out.code}: {out.stderr}")]
        if out.code == 0:
            try:
                checks += oracles.check_report(list(cmd.argv), out.stdout.decode())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                checks.append(oracles.Check("report_parses", False, f"{type(exc).__name__}: {exc}"))
        if cmd.argv[0] in THREAD_CHECKED:
            single = run_command(cmd.argv, env1, work)
            checks.append(oracles.Check(
                THREAD_CHECK, single.stdout == out.stdout,
                f"exit {single.code}, {len(single.stdout)} vs {len(out.stdout)} bytes",
            ))
        verdicts.append(checks)
    return verdicts


def expected_failure(cmd: Command, failed: list[oracles.Check]) -> bool:
    return cmd.known_fault is not None and {c.name for c in failed} <= set(cmd.known_fault[1])


def trace_metrics(commands, order, env, import_s, pass_s, first_pass) -> dict:
    """Per-layer metrics from one traced pass in a process of its own."""
    bare_s = statistics.median(timed_python("pass", env)[0] for _ in range(SETUPS))
    argvs = [list(commands[i].argv) for i in order]
    res = subprocess.run(
        [sys.executable, str(HERE / "trace_run.py")], input=json.dumps(argvs), env=env,
        capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    if res.returncode != 0:
        raise SystemExit(f"perfbench: traced pass failed: {res.stderr.strip()[-800:]}")
    traced = json.loads(res.stdout.strip().splitlines()[-1])
    for i, digest in zip(order, traced["reports"]):
        if digest != hashlib.sha256(first_pass[i].stdout).hexdigest():
            raise SystemExit(f"perfbench: tracing changed the report of {' '.join(commands[i].argv)}")
    metrics = {"import.ziclab_s": {"value": import_s - bare_s, "unit": "s"}}
    metrics.update(traced["metrics"])
    # the traced pass runs in one process, so compare it with the untraced
    # pass less one interpreter start and `import ziclab` per command
    in_process_s = pass_s - len(commands) * import_s
    metrics["trace.pass_s"] = {"value": traced["pass_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["pass_s"] - in_process_s, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "ziclab" / "cli.py").is_file():
        print(f"perfbench: no ziclab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    commands = WORKLOADS[args.workload]
    env = child_env(root)
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)

    setups = [setup(args.seed, env, root) for _ in range(SETUPS)]
    rng = setups[-1][2]

    passes: list[list[Outcome]] = []
    first_pass_s = 0.0
    first_order: list[int] = []
    n_passes = 1
    while len(passes) < n_passes:
        order = list(range(len(commands)))
        rng.shuffle(order)
        outcomes: list = [None] * len(commands)
        t0 = time.perf_counter()
        for i in order:
            outcomes[i] = run_command(commands[i].argv, env, work)
        first_pass_s = first_pass_s or time.perf_counter() - t0
        passes.append(outcomes)
        first_order = first_order or order
        # the first pass fixes the pass count, so that a run measures about
        # --seconds whatever the speed of the program or the host
        n_passes = max(1, round(args.seconds / first_pass_s))
        # set up once more after each pass, so that the set-up samples span
        # the run and one slow moment of the host does not decide setup_s
        setups.append(setup(args.seed, env, root))
    setup_s = statistics.median(s[0] for s in setups)
    import_s = statistics.median(s[1] for s in setups)

    first = passes[0]
    verdicts = check_first_pass(commands, first, child_env(root, ZIC_THREADS="1"), work)
    oracle_failures = [[c for c in checks if not c.passed] for checks in verdicts]
    attempted = failed = 0
    correct = True
    for n, outcomes in enumerate(passes):
        for cmd, out, base, bad in zip(commands, outcomes, first, oracle_failures):
            # the thread-count check ran once, as part of the first pass
            bad = bad if n == 0 else [c for c in bad if c.name != THREAD_CHECK]
            if out.stdout != base.stdout:
                bad = bad + [oracles.Check("same_report_as_first_pass", False, f"pass {n}")]
            attempted += 1
            if not bad:
                continue
            failed += 1
            expected = expected_failure(cmd, bad)
            correct = correct and expected
            if n == 0 or not expected:
                tag = f"known fault {cmd.known_fault[0]}" if expected else "FAILED"
                for c in bad:
                    print(f"{tag}: ziclab {' '.join(cmd.argv)} :: {c.name}: {c.detail}")

    for cmd, out, checks in zip(commands, first, verdicts):
        print(f"{out.wall_s:9.3f} s  cpu {out.cpu_s:8.3f} s  rss {out.rss_mb:7.1f} MB  "
              f"{sum(c.passed for c in checks)}/{len(checks)} checks  ziclab {' '.join(cmd.argv)}")
    print("env " + json.dumps(environment(root), sort_keys=True))

    # per command, the median over passes; a pass is then the sum of them,
    # which keeps one slow invocation out of every figure of the run
    wall = [statistics.median(p[i].wall_s for p in passes) for i in range(len(commands))]
    cpu = [statistics.median(p[i].cpu_s for p in passes) for i in range(len(commands))]
    rss = [statistics.median(p[i].rss_mb for p in passes) for i in range(len(commands))]
    pass_s = sum(wall)
    if args.trace:
        metrics = trace_metrics(commands, first_order, env, import_s, pass_s, first)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "cmd_geomean_s": {"value": statistics.geometric_mean(wall), "unit": "s"},
            "cpu_s": {"value": sum(cpu), "unit": "s"},
            "peak_rss_mb": {"value": max(rss), "unit": "MB"},
        }
    print(f"passes {len(passes)}, {attempted} operations, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
