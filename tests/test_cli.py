"""CLI dispatch, report schema, determinism, and exit codes."""

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ziclab import counterexamples as cx
from ziclab import hkregion as hk
from ziclab.cli import MAX_RANGE_VALUES, build_parser, main, parse_values, write_report

from test_readme_commands import readme_commands

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(args, **env):
    """Run `python <args>` in a new interpreter with only this checkout's
    sources on the path."""
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True,
        check=True,
        text=True,
    ).stdout


def reject_non_finite(text):
    raise ValueError(f"non-finite JSON constant {text}")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_values():
    assert parse_values("1.5") == [1.5]
    assert parse_values("0.5,1,2") == [0.5, 1.0, 2.0]
    vals = parse_values("1.1:1.5:0.1")
    assert vals == pytest.approx([1.1, 1.2, 1.3, 1.4, 1.5])
    # a range is counted in its decimal texts: floor((hi-lo)/step + 1e-9) + 1
    # in floats emitted 1.0, above hi, here
    assert parse_values("0:0.99999999995:0.1") == [i * 0.1 for i in range(10)]
    # (4 - 1.1)/0.1 is 28.999999999999996 in floats and 29 in the texts
    assert parse_values("1.1:4:0.1") == [1.1 + i * 0.1 for i in range(30)]
    for text in (",", " , ", ",,"):
        with pytest.raises(argparse.ArgumentTypeError, match="no value in"):
            parse_values(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["hk-region", "--q1", ",", "--q2", "1"],
        ["geometry", "--t", ","],
        ["conjecture2-map", "--q", ","],
        ["condition54-root", "--u", ","],
        ["theorem5-epsilon", "--L", ","],
    ],
    ids=lambda argv: argv[0],
)
def test_parse_values_rejects_empty_list(argv, capsys):
    # a comma-only list used to run an empty sweep whose checks test nothing
    assert main(argv) == 2
    option = argv[argv.index(",") - 1]
    err = capsys.readouterr().err
    assert err == f"ziclab {argv[0]}: error: argument {option}: no value in ','\n"


# the last two, whose value counts pass the float range, exited 1 with an
# OverflowError traceback
@pytest.mark.parametrize(
    "text", ["nan", "inf", "-inf", "1,nan", "1:inf:1", "0:1:inf", "1:1e300:1e-300", "2:3:1e-320"]
)
def test_parse_values_rejects_non_finite(text, capsys):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_values(text)
    assert main(["phase-diagram", "--u", "1", f"--L={text}"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_parse_values_range_count_bound():
    values = parse_values(f"1:{MAX_RANGE_VALUES}:1")
    assert len(values) == MAX_RANGE_VALUES and values[-1] == MAX_RANGE_VALUES
    with pytest.raises(argparse.ArgumentTypeError,
                       match=f"more than {MAX_RANGE_VALUES} values"):
        parse_values(f"0:{MAX_RANGE_VALUES}:1")


def test_huge_range_count_exit_2_before_any_value_is_built():
    # 0:1:1e-12 would list 10^12 floats.  The child runs under a 1 GB
    # address space, so a missing bound ends in a MemoryError within a
    # second instead of exhausting the machine's memory
    import resource

    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "ziclab.cli", "phase-diagram", "--u", "1", "--L", "0:1:1e-12"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "ziclab phase-diagram: error: argument --L: bad range '0:1:1e-12': "
        f"more than {MAX_RANGE_VALUES} values (hi-lo)/step + 1\n"
    )


def test_phase_diagram_csv_columns(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    code = main(
        [
            "phase-diagram",
            "--u",
            "0.5,1,2",
            "--L",
            "1.5:4:0.5",
            "--format",
            "csv",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert list(rows[0].keys()) == ["u", "L", "K", "classification"]
    assert len(rows) == 3 * 6
    first = rows[0]
    assert float(first["u"]) == 0.5
    assert first["classification"] in ("stable", "unstable", "critical")


def test_condition54_root_report(capsys):
    code, out = run_cli(["condition54-root", "--u", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload.keys()) == {"config", "results", "checks"}
    row = payload["results"][0]
    assert row["root"] == pytest.approx(3.8473221018, abs=1e-6)
    assert row["tolerance"] == 1e-8
    assert all(c["passed"] for c in payload["checks"])


@pytest.mark.parametrize("u, root", [(1000.0, 111.0699877833), (5000.0, 310.5416587998)])
def test_condition54_root_at_large_u(u, root, capsys):
    # the old bracket [0.2, 100] held no sign change at these u (exit 2)
    code, out = run_cli(["condition54-root", "--u", str(u)], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["root"] == pytest.approx(root, abs=1e-8)


def test_condition54_root_below_its_rounding_floor_exit_2(capsys):
    # near the root the balance's slope is about 0.07 u, so at u = 1e-9 it
    # falls within its rounding floor before the bracket reaches 1e-8; the
    # bisection used to end 1.7e-7 from the closed form (exit 3)
    assert main(["condition54-root", "--u", "1e-9"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is within its rounding floor" in err


def test_geometry_report(capsys):
    code, out = run_cli(["geometry", "--t", "20:60:20"], capsys)
    assert code == 0
    payload = json.loads(out)
    data_rows = [r for r in payload["results"] if "t" in r]
    assert all(r["ratio"] > 1 for r in data_rows)
    assert all(r["ratio_round_interferer"] <= 1.0 for r in data_rows)
    assert all(c["passed"] for c in payload["checks"])


def test_geometry_large_t_ratio_exceeds_one(capsys):
    # summed polygon areas cancel here: they give ratio 0.9999999999999555
    # at t = 1e13, where it is 1 + 1.1e-14, and exit 3; from t = 1e16 on
    # the exact ratio rounds to 1.0, and "ratio_gt_1" read false (exit 3)
    code, out = run_cli(["geometry", "--t", "1e13,1e14,1e16,5.7e76"], capsys)
    assert code == 0
    rows = json.loads(out)["results"][:-1]
    assert [r["t"] for r in rows] == [1e13, 1e14, 1e16, 5.7e76]
    assert [r["ratio"] == 1.0 for r in rows] == [False, False, True, True]
    assert all(r["ratio_gt_1"] for r in rows)


def test_hessian_report(capsys):
    code, out = run_cli(
        ["hessian", "--u", "1", "--L", "3", "--A", "1:1.0", "--B", ""], capsys
    )
    assert code == 0
    payload = json.loads(out)
    ledger = [r for r in payload["results"] if "alpha" in r]
    assert ledger[0]["I_alpha"] == pytest.approx(-1.0 / 9.0, abs=1e-12)


def test_theorem5_report(capsys):
    code, out = run_cli(["theorem5-epsilon", "--u", "1", "--L", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    row = payload["results"][0]
    assert row["eps2"] == pytest.approx(11.0 / 43.0, abs=1e-9)
    # at the threshold the certificate degenerates to None
    import ziclab.hessian as hs

    thr = hs.stability_threshold(1.0)
    L_at = (thr + 1.0) / (thr - 1.0)
    code, out = run_cli(["theorem5-epsilon", "--u", "1", "--L", f"{L_at}"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["eps"] is None


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["lemma5-audit", "--samples", "4", "--seed", "3"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_draws(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["lemma5-audit", "--samples", "4"]
    assert main(base + ["--seed", "3", "--output", str(a)]) == 0
    assert main(base + ["--seed", "4", "--output", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_seed_only_on_audits(capsys):
    # the other subcommands draw no random number, so they take no --seed
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    seeded = {
        name for name, p in subparsers.choices.items()
        if any("--seed" in a.option_strings for a in p._actions)
    }
    assert seeded == {"lemma5-audit", "theorem4-audit"}
    assert main(["condition54-root", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "ziclab: error: unrecognized arguments: --seed 1\n"


def test_config_echo_embeds_resolved_defaults(capsys):
    code, out = run_cli(["verify-vertical", "--u", "1", "--L", "1.4"], capsys)
    assert code == 0
    payload = json.loads(out)
    cfg = payload["config"]
    # resolved values, not placeholders
    assert cfg["K"] == pytest.approx(6.0)
    assert cfg["delta"] > 0
    assert cfg["eps"] > 0


def test_validation_error_exit_2(capsys):
    code = main(["phase-diagram", "--u", "1", "--L", "0.5,2.0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ziclab" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hessian", "--L", "1"],
        ["verify-vertical", "--L", "1"],
        ["hessian", "--L", "nan"],
        ["verify-vertical", "--K", "2", "--L", "0.9"],
        ["phase-diagram", "--u", "1", "--L", "0.5,2"],
        ["theorem5-epsilon", "--L", "3,0.9"],
    ],
)
def test_L_at_most_one_exit_2(argv, monkeypatch, capsys):
    # the stationary K = (L+u)/(L-1) has no value at L <= 1; every command
    # rejects it with hessian.stationary_source_variance's one message,
    # verify-vertical (even with --K) before it builds its perturbation,
    # whose eps scan tabulates
    monkeypatch.setattr(cx, "VerticalPerturbation", None)
    bad = next(x for x in map(float, argv[argv.index("--L") + 1].split(",")) if not x > 1)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"ziclab: the stationary variance K = (L+u)/(L-1) needs L > 1, got {bad}\n"
    )


# sha256 of every README and benchmark report (perfbench/workloads.py), and
# of two more at the Gaussian stationary point, so that no change to how a
# report is computed moves a byte unnoticed.  The digests hold for the
# numpy and C library these were recorded with (numpy 2.4.6 on x86-64 with
# AVX-512): numpy's vectorized log and exp, and libm's, may round an ulp
# differently elsewhere.
PINNED_REPORTS = {
    # recorded before g1 came from the dual; none of these moved
    "phase-diagram --u 0.5,1,2 --L 1.1:4:0.1 --format csv":
        "c2ddd0efc820a960e3e7bf8adb24301e32ac358deb268383849cb0c8ede0fdeb",
    "condition54-root --u 1":
        "8c70f1cb30bb94f2550caf0fc381af6f3b06dfb989fbd9550cceb5eb4ae341fe",
    "verify-lemma1":
        "f6ffa1191c1862684bb88060b78d406190553646d0dce1ef3856c1672e5473b3",
    "verify-lemma2 --t-min 1e-3 --t-max 1e-2":
        "30631a8d2f973f4210af79c6aa96b7d48900bc39784bcb9f2b21198b5c6f6692",
    "verify-vertical --u 1 --L 1.4":
        "441d88aa7544cf9d62faab05d705f54ed48b000459cfc01abc97ec962fa431aa",
    "hessian --u 1 --L 3 --A 1:1.0 --B ''":
        "3d246f7973cebdb36ab1d83aff822b6412643c18f69f8ee673881081af0e2876",
    "theorem5-epsilon --u 1 --L 3,4":
        "16dfcd4a47fd9e96781df81915ac8a7e30e03ce0b8e706809c4b816d602e3f63",
    "theorem5-epsilon --u 0.7 --L 3,4,6,9":
        "11e63f2581b43979da110e7c4afdaff5bf165dd2bc9396ef3c105fa1718813f5",
    "hessian --u 2 --L 5 --A 1:0.7,2:1.1,4:-0.3 --B 2:0.4,4:0.9":
        "b8b389509fc36d136f022fa278a7ea36d67087113e715e5d771101f7b607fa60",
    "constant-power-gap --u 1 --N1 1 --N2 0.05":
        "66ccfa402fb629cc54c7baf3bd3d5404a01cef24125a819ed54fc6df19698244",
    "geometry --t 10:200:10":
        "fde0ead8f9033ea58264f0f0f2b07b4893710b0e01ebb7e4bfa890bffced5f1a",
    # re-recorded with Fisher information from the exact derivative p'
    # (CHANGES.md lists each value that moved)
    "limit-functional --L 1.2,1.6,2.0":
        "d7174fcbcb0672eaa4bfe88e2040a7e2f24c2807ccaa34904641e268655e564d",
    "verify-lemma1 --t-count 20 --n 1048576":
        "77d258298640f5d2479f23d322903d5cff0b355d3bc4bdabfdb1f5da183751e4",
    "verify-vertical --u 2 --L 3 --J 8 --n 524288":
        "37ab38674608c0e8d40d3927472f1184e0fb4bf4c6952005b44d276a20f466ff",
    # re-recorded with Fisher information from the exact derivative p'
    "limit-functional --L 1.1:1.9:0.4 --J 20 --n 262144":
        "6b5e4e5ad8da25b493c2b7c16c8a9b074b591d029e1bb26db244716e8ad34fea",
    # the HK reports, recorded with g1 from the dual and the audits' powers
    # from math.exp; hk-region and conjecture2-map re-recorded with the
    # nested dual search, which moved g1 by at most 2 ulps (CHANGES.md lists
    # every value that moved)
    "hk-region --u 1 --N1 1 --q1 1:10:3 --q2 1:10:3":
        "72be0f8e1febfda874afce0c0af5a4ee8fd9a073b088585cb8b13dc560fab4d2",
    "lemma5-audit --samples 50 --seed 7":
        "b31aa89dd472bdf59b1218e8658c7a74bfd856ad09780d0cac3419c58f9ae904",
    "theorem4-audit --d 2 --samples 10":
        "155df9c2aedc4b10920a95f05d13ddaf06f892940654024994da6a8cbf6d91c1",
    "conjecture2-map --u 1 --q 1.2,5,39 --N1 1":
        "350368dcd6bf9ea6ff1b284e646edccca5b3774837b02424c4a93bcd74989ade",
    "lemma5-audit --u 2 --N1 0.5 --samples 12 --seed 2":
        "962b415d83ddf1c74adcf6eb20cecbc551c60211a430f3b46072826ecba32f79",
    "theorem4-audit --d 2 --samples 4":
        "667fbcb646439767471fcdb4dc3dfab873320b8513128b07e158efbb4b3c1320",
    "conjecture2-map --u 0.6:3:1.2 --q 0,2,7 --N1 0.5":
        "16b539eda3af4afe0f60c9d8a8c687ba87832fed83554381c7e7c7a090a3ff14",
}


def test_pins_cover_every_readme_and_benchmark_report():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lines = {shlex.join(c.argv) for cmds in workloads.WORKLOADS.values() for c in cmds}
    for line in readme_commands():
        argv = shlex.split(line)[1:]
        if "--output" in argv:
            i = argv.index("--output")
            del argv[i : i + 2]
        lines.add(shlex.join(argv))
    assert len(lines) == 20 and lines <= set(PINNED_REPORTS)


@pytest.mark.parametrize("line", PINNED_REPORTS)
def test_stationary_point_reports_pinned(line, tmp_path):
    report = tmp_path / "report"
    assert main([*shlex.split(line), "--output", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == PINNED_REPORTS[line]


# every float option of every subcommand, and the options a command requires
FLOAT_OPTIONS = {
    "verify-lemma1": ("--t-min", "--t-max", "--c1-tol", "--c15-tol"),
    "verify-lemma2": ("--t-min", "--t-max", "--N1", "--Sigma1"),
    "verify-vertical": ("--u", "--L", "--K", "--delta", "--eps"),
    "condition54-root": ("--u", "--tolerance"),
    "hessian": ("--u", "--L"),
    "phase-diagram": ("--u", "--L"),
    "theorem5-epsilon": ("--u", "--L"),
    "hk-region": ("--u", "--N1", "--q1", "--q2"),
    "lemma5-audit": ("--u", "--N1"),
    "theorem4-audit": ("--u", "--N1"),
    "constant-power-gap": ("--u", "--N1", "--N2", "--A"),
    "conjecture2-map": ("--u", "--q", "--N1"),
    "geometry": ("--t",),
    "limit-functional": ("--L",),
}
REQUIRED_OPTIONS = {
    "phase-diagram": {"--u": "1", "--L": "2"},
    "hk-region": {"--q1": "1", "--q2": "1"},
    "conjecture2-map": {"--q": "1"},
}


def test_float_option_table_is_complete():
    assert sum(map(len, FLOAT_OPTIONS.values())) == 38
    assert set(FLOAT_OPTIONS) == set(build_parser()._subparsers._group_actions[0].choices)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "command, option", [(c, o) for c, options in FLOAT_OPTIONS.items() for o in options]
)
def test_non_finite_float_option_exit_2(command, option, value, capsys):
    # hessian's --L inf and --u inf exited 3 with K: null, and verify-lemma1
    # passed an infinite --c1-tol or --c15-tol (exit 0) or failed -inf and nan
    args = {**REQUIRED_OPTIONS.get(command, {}), option: value}
    assert main([command, *(f"{k}={v}" for k, v in args.items())]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.endswith("\n")


# verify-vertical runs whose eps^2 coefficient has the sign of its closed
# form at the delta it ran; the --u 7 runs exited 3 when the sign was
# demanded from the delta = 0 classification (K = 7.0015 and K above 7
# read unstable, while the coefficient at delta is about -6.3e-6 and -1.5e-5)
VERTICAL_DECIDED = [
    "--u 1 --L 1.4",
    "--u 7 --L 2.333",
    *(f"--u 7 --L 3 --K {K}"
      for K in ("7.000000001", "7.00000001", "7.0000001", "7.000001", "7.00001")),
    "--L 1.001",
]


@pytest.mark.parametrize("line", VERTICAL_DECIDED)
def test_vertical_sign_is_the_closed_form_sign(line, capsys):
    code, out = run_cli(["verify-vertical", *line.split()], capsys)
    rep = json.loads(out)
    row = rep["results"][0]
    closed = 0.5 * cx.deriv_norm_balance(row["K"], row["u"], row["delta"])
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == ["quadratic_sign_matches_closed_form"]
    assert f"{closed:+.3e}" in rep["checks"][0]["detail"]
    assert abs(row["quadratic_coeff"] - closed) <= 1e-9


@pytest.mark.parametrize(
    "argv, change",
    [
        # K = 9.0e15: the closed-form coefficient is 4.1e-48, and every value
        # read 0.0, so the eps^2 coefficient was 0 against an unstable K
        (["--L", "1.0000000000000002"], "6.264e-53"),
        # the balance's true value, about 3/K^3, underflows to 0 (its moment
        # sum in x once overflowed and read nan)
        (["--K", "1.24e306", "--L", "2", "--eps", "1e-3", "--n", "1024"], "0.000e+00"),
    ],
)
def test_vertical_sign_below_rounding_floor_exit_2(argv, change, capsys):
    assert main(["verify-vertical", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(
        f"ziclab: eps too small: the closed-form change |deriv_norm_balance/2| (eps/4)**2 = "
        f"{change} does not reach the objective's rounding floor"
    )


@pytest.mark.parametrize(
    "owner, name, exc, argv",
    [
        (hk, "_bracket", ValueError, ["hk-region", "--q1", "1", "--q2", "1"]),
    ],
)
def test_numerical_rejection_exit_2(owner, name, exc, argv, monkeypatch, capsys):
    def reject(*args, **kwargs):
        raise exc("rejected")

    monkeypatch.setattr(owner, name, reject)
    assert main(argv) == 2
    assert capsys.readouterr().err == "ziclab: rejected\n"


# No HK command takes --envelope-grid: g1 comes from the dual, with no lattice.
NO_GRID_OPTION = "unrecognized arguments: --envelope-grid {grid}"


@pytest.mark.parametrize("grid", ["1", "0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        (["hk-region", "--q1", "1", "--q2", "1"], NO_GRID_OPTION),
        (["lemma5-audit", "--samples", "2"], NO_GRID_OPTION),
        (["theorem4-audit", "--d", "2", "--samples", "2"], NO_GRID_OPTION),
        (["conjecture2-map", "--q", "1"], NO_GRID_OPTION),
    ],
)
def test_envelope_grid_below_two_exit_2(argv, grid, capsys):
    argv, message = argv
    assert main(argv + ["--envelope-grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message.format(grid=grid) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hk-region", "--u", "nan", "--q1", "1", "--q2", "1"],
        ["hk-region", "--N1", "inf", "--q1", "1", "--q2", "1"],
        ["constant-power-gap", "--N2", "nan"],
        ["verify-vertical", "--eps", "nan"],
        ["verify-vertical", "--K", "inf", "--eps", "1e-3"],
    ],
)
def test_non_finite_parameter_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-vertical", "--eps", "0"],
        ["theorem5-epsilon", "--u", "nan"],
        ["theorem5-epsilon", "--u", "0"],
        ["theorem5-epsilon", "--u=-1"],
        ["constant-power-gap", "--u", "0"],
        ["constant-power-gap", "--N1", "0"],
        ["constant-power-gap", "--N2", "0"],
    ],
)
def test_non_positive_parameter_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be positive" in err


@pytest.mark.parametrize("A", ["nan", "inf", "-1"])
def test_constant_power_gap_bad_A_exit_2(A, capsys):
    assert main(["constant-power-gap", f"--A={A}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mixing variance A must be finite and nonnegative" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--K", "inf"], "K, L, u, delta must be finite"),
        (["--K", "nan"], "K, L, u, delta must be finite"),
        # the stationary K, derived first, is not finite
        (["--u", "inf"], "the stationary variance K = (L+u)/(L-1) is not finite at L=1.4, u=inf"),
        (["--L", "inf"], "the stationary variance K = (L+u)/(L-1) is not finite at L=inf, u=1.0"),
        (["--delta", "nan"], "K, L, u, delta must be finite"),
    ],
    ids=["argv0", "argv1", "argv2", "argv3", "argv4"],
)
def test_verify_vertical_non_finite_exit_2_before_eps_scan(argv, message, capsys):
    # no --eps: the positivity scan must not run (and warn) on a non-finite K
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify-vertical", *argv]) == 2
    err = capsys.readouterr().err
    assert err == f"ziclab: {message}\n"


def test_verify_vertical_J_below_one_exit_2(capsys):
    # the default delta divides by J
    assert main(["verify-vertical", "--J", "0"]) == 2
    assert capsys.readouterr().err == "ziclab: J must be >= 1, got 0\n"


@pytest.mark.parametrize("argv", [["verify-vertical", "--J", "21"], ["limit-functional", "--J", "21"]])
def test_J_above_order_limit_exit_2(argv, capsys):
    # the D^{3J+3} term used to fail in gaussmix: "order must be in [0, 64], got 66"
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "ziclab: J must be <= 20 (the derivative order 3J + 3 must not exceed 64), got 21\n"
    )


def test_small_u_threshold_and_classification(capsys):
    # u/((1+u)^{1/3} - 1) cancelled to 2.2518 at u = 1e-15, so K = 2.667
    # read unstable and verify-vertical exited 3
    code, out = run_cli(["hessian", "--u", "1e-15", "--L", "1.6"], capsys)
    row = json.loads(out)["results"][-1]
    assert code == 0
    assert row["threshold"] == 3.0000000000000013 and row["classification"] == "stable"
    code, out = run_cli(["phase-diagram", "--u", "1e-15", "--L", "1.6"], capsys)
    assert code == 0 and json.loads(out)["results"][0]["classification"] == "stable"
    # the eps^2 change of the perturbation is O(u), far below the rounding
    # floor: its measured sign was noise (-7e-11) that happened to match.
    # The closed form itself is a difference of two O(1) terms here, so its
    # float value is rounding noise too: 1.1e-22 (3.2e-22 from the moment sum
    # in x) against a true 7.8e-23 (50-digit mpmath), all far below the floor
    assert main(["verify-vertical", "--u", "1e-15", "--L", "1.6"]) == 2
    assert capsys.readouterr().err == (
        "ziclab: eps too small: the closed-form change |deriv_norm_balance/2| (eps/4)**2 = "
        "1.059e-22 does not reach the objective's rounding floor 4.240e-16 at "
        "K=2.6666666666666683, u=1e-15, delta=0.08, got 0.0078125\n"
    )


@pytest.mark.parametrize(
    "argv", [["verify-vertical", "--u", "1e-300"], ["phase-diagram", "--u", "1e-300", "--L", "2"],
             ["hessian", "--u", "1e-300"],
             # subnormal u: 5e-324 divided by zero, 1e-323 and 2e-323 read 2 and 4
             ["phase-diagram", "--u", "5e-324,1e-323,2e-323", "--L", "1.6"],
             ["hessian", "--u", "5e-324"], ["verify-vertical", "--u", "1e-323", "--n", "1024"]],
)
def test_tiny_u_reports_threshold_3(argv, capsys):
    # each ended in a ZeroDivisionError traceback; verify-vertical exits 2,
    # as its O(u) eps^2 change reads 0 in closed form, below the rounding
    # floor, so no sign at K = 3.5 can be decided
    code = main(argv)
    out, err = capsys.readouterr()
    if argv[0] == "verify-vertical":
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("ziclab: eps too small: the closed-form change "
                              "|deriv_norm_balance/2| (eps/4)**2 = 0.000e+00 does not reach")
        return
    assert code in (0, 3) and err == ""
    rows = json.loads(out)["results"]
    assert all(r["threshold"] == 3.0 for r in rows if "threshold" in r)
    # phase-diagram --u 1e-323 --L 1.6 called K = 2.67 unstable
    assert all(r["classification"] == ("stable" if r["K"] < 3.0 else "unstable")
               for r in rows if "classification" in r)


@pytest.mark.parametrize(
    "argv", [["hk-region", "--q1", "1e-300", "--q2", "1e-300"], ["conjecture2-map", "--q", "1e-300"]]
)
def test_non_finite_tail_box_exit_2(argv, capsys):
    # a NaN lattice once read f1 = g1 here, and the tail box that replaced it
    # was not finite (exit 2); the contact points decide the cell, as the LP does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    [cell] = json.loads(out)["results"]
    assert cell["f1_eq_g1"] is True
    assert cell["g1"] == cell["f1"] == -690.7755278982137


@pytest.mark.parametrize(
    "argv, message",
    [
        # OverflowError traceback in partner_series (eps**j)
        (["verify-vertical", "--K", "1e300", "--delta", "2.5011080795048392e-272",
          "--eps", "2.298404453637188e+221", "--n", "1024"],
         "eps too large: eps**2 or eps**J overflows at J=2, got 2.298404453637188e+221"),
        # ZeroDivisionError traceback in richardson_quadratic
        (["verify-vertical", "--K", "8.043241841108752e+256", "--delta", "5.062894561534945e-23",
          "--eps", "9.43946782688377e-284", "--n", "1024"],
         "eps too small: (eps/4)**2 underflows to 0, got 9.43946782688377e-284"),
        # exit 3 after a RankWarning from the residual-slope polyfit
        (["verify-lemma1", "--t-min", "0.1", "--t-max", "0.1", "--n", "1024"],
         "--t-min 0.1, --t-max 0.1: t values must take at least 4 distinct values "
         "for the fit in t^p, p in (1, 1.5, 2, 2.5), got 1"),
        # "SVD did not converge" after three overflow RuntimeWarnings
        (["verify-lemma2", "--t-min", "1e200", "--t-max", "1e200", "--t-count", "2", "--n", "1024"],
         "--t-min 1e+200, --t-max 1e+200: t values must take at least 2 distinct values "
         "for the fit in t^p, p in (1.5, 2), got 1"),
        (["verify-lemma2", "--t-min", "1e120", "--t-max", "1e200", "--t-count", "2", "--n", "1024"],
         "--t-min 1e+120, --t-max 1e+200: t values must keep every fit column t^p, "
         "p in (1.5, 2), finite and nonzero, got t from 1e+120 to 1e+200"),
        # exit 0 after overflow and divide-by-zero RuntimeWarnings
        (["theorem5-epsilon", "--u", "1.49e181", "--L", "9.26e61"],
         "local optimality ledger overflows the float range at K=1.609071274298056e+119, u=1.49e+181"),
        # exit 2 after two overflow RuntimeWarnings
        (["geometry", "--t", "1e300"],
         "t must be at most 5.7896e+76 (the ratio multiplies two areas of order t^2), got 1e+300"),
        # noise read as the eps^2 coefficient: -1.87e286, then null
        (["verify-vertical", "--eps", "1e-150", "--n", "1024"],
         "eps too small: (eps/4)**2 = 6.250e-302 is below the objective's rounding floor "
         "1.064e-15, got 1e-150"),
        (["verify-vertical", "--eps", "1e-161", "--n", "1024"],
         "eps too small: (eps/4)**2 = 4.941e-324 is below the objective's rounding floor "
         "1.064e-15, got 1e-161"),
        # exit 3 after overflow and invalid RuntimeWarnings in gauss_deriv_pdf
        (["verify-vertical", "--K", "1.7e308", "--L", "2", "--eps", "1e-3", "--n", "1024"],
         "term variance K+u+L = 1.7e+308 too large: 144 (K+u+L) overflows on the +-12 sd "
         "window (K=1.7e+308, u=1.0, L=2.0)"),
        # exit 2 with an unrelated lattice message after a RuntimeWarning in
        # np.linspace; at q2 = 1e-300 the dual's gain is below f1's rounding
        (["hk-region", "--u", "1", "--q1", "1e308", "--q2", "1e-300"],
         "power-control cell (q1=1e+308, q2=1e-300): a point lies above the tangent plane, "
         "but g1 - f1 is below f1's rounding (the dual's value 709.1962086421661, "
         "f1 = 709.1962086421661)"),
        (["conjecture2-map", "--u", "1", "--q", "0,1e308"],
         "power-control cell (q1=1e+308, q2=1e+308) too large: its f1 log argument "
         "q1+q2+N1+u is not finite"),
        # exit 2 with "no positive eps admits nonnegative densities" after
        # overflow and invalid RuntimeWarnings in gauss_deriv_pdf
        (["limit-functional", "--L", "1e308", "--n", "1024"],
         "term variance K+L = 1e+308 too large: 144 (K+L) overflows on the +-12 sd window "
         "(K=1.0, L=1e+308)"),
        # exit 1 with "envelope simplex ... did not converge in 1000 pivots"
        # after an invalid-value RuntimeWarning in the lattice LP, then exit 2
        # on a lattice slope; at q2 = 1e-300 the dual's gain is below f1's rounding
        (["hk-region", "--u", "1", "--q1", "5.6e306", "--q2", "1e-300"],
         "power-control cell (q1=5.6e+306, q2=1e-300): a point lies above the tangent plane, "
         "but g1 - f1 is below f1's rounding (the dual's value 706.313805053919, "
         "f1 = 706.313805053919)"),
    ],
)
def test_out_of_range_options_exit_2_without_warning(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == f"ziclab: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        # 144 (K+u+L) just below the float max, at a K whose eps^2 change
        # reaches the rounding floor (at K = 1.24e306 it does not: exit 2)
        ["verify-vertical", "--K", "2", "--L", "1.24e306", "--eps", "1e-3", "--n", "1024"],
        # 32 max(q, 1) just below the float max, the lattice LP's limit; the
        # dual certifies g1 > f1 here and past it, where the LP lost a slope
        ["hk-region", "--q1", "5e306", "--q2", "1"],
        ["conjecture2-map", "--q", "0,5e306"],
        # 144 (K+L) just below the float max
        ["limit-functional", "--L", "1.24e306", "--n", "1024"],
        ["hk-region", "--q1", "5.6e306", "--q2", "1"],
    ],
)
def test_largest_accepted_variances_and_powers_run_without_warning(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) in (0, 3)
    assert capsys.readouterr().err == ""


HK_COMMANDS = (
    ["hk-region", "--q1", "1", "--q2", "1"],
    ["lemma5-audit", "--samples", "2"],
    ["theorem4-audit", "--d", "2", "--samples", "2"],
    ["conjecture2-map", "--q", "1,5"],
)


@pytest.mark.parametrize("u", ["1e305", "3e305", "1.7e308"])
@pytest.mark.parametrize("argv", HK_COMMANDS, ids=lambda argv: argv[0])
def test_hk_u_overflowing_the_rounding_bound_exit_2(argv, u, capsys):
    # 1e305 exited 0 after an overflow warning in tangent_witness, 3e305 up
    # warned in gauss_psi and exited 2 with an unrelated message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--u", u]) == 2
    assert capsys.readouterr().err == (
        "ziclab: u too large: the f1 = g1 rounding bound 4 (u+1) (2 + 2 ln u + "
        f"2 ln(float max)) overflows, got {float(u)}\n"
    )


# the constant-power witness has no f1 = g1 test, and runs at such u too
@pytest.mark.parametrize(
    "argv", [*HK_COMMANDS, ["constant-power-gap", "--n", "1024"]], ids=lambda argv: argv[0]
)
def test_hk_u_below_the_overflow_limit_runs(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--u", "1.5e304"]) in (0, 3)
    assert capsys.readouterr().err == ""


def test_large_u_cell_runs(capsys):
    # the lattice LP's support reached its window 32 max(q2, 1) here and
    # hk-region exited 2 with "enlarge the margin", which no option could do
    argv = ["hk-region", "--u", "533.635540258911", "--N1", "1.7532776164814148",
            "--q1", "262.4789051699561", "--q2", "0.07448567574706068"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    [row] = json.loads(out)["results"]
    assert row["f1_eq_g1"] is False and row["g1"] > row["f1"]


@pytest.mark.parametrize(
    "argv", [["hk-region", "--q1", "5.44e306", "--q2", "1"], ["conjecture2-map", "--q", "0,5e306"]]
)
def test_huge_cells_certify_g1_above_f1_or_exit_2(argv, capsys):
    # the LP stopped on a plane with an infinite intercept and printed
    # g1 = f1 beside f1_eq_g1: false
    code = main(argv)
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.count("\n") == 1
        return
    assert code == 0 and err == ""
    for row in json.loads(out)["results"]:
        assert row["g1"] > row["f1"] if not row["f1_eq_g1"] else row["g1"] == row["f1"]


def test_wide_random_cells_never_exit_2(capsys):
    # u, N1, q1 and q2 log-uniform over e^+-8: the lattice LP exited 2 on 7
    # of these 300 cells (support on its outer edge)
    rng = random.Random(300)
    for _ in range(300):
        u, N1, q1, q2 = (repr(math.exp(rng.uniform(-8.0, 8.0))) for _ in range(4))
        argv = ["hk-region", "--u", u, "--N1", N1, "--q1", q1, "--q2", q2]
        code, out = run_cli(argv, capsys)
        assert code == 0, argv
        [row] = json.loads(out)["results"]
        assert row["g1"] > row["f1"] if not row["f1_eq_g1"] else row["g1"] == row["f1"]


def test_verify_lemma2_runs_one_recipe_quadrature(monkeypatch, capsys):
    # validate() ran in the handler and again in each of two skewness_gap calls
    calls = []
    real = cx.log_weighted_deriv_integral

    def counted(p, k):
        calls.append(k)
        return real(p, k)

    monkeypatch.setattr(cx, "log_weighted_deriv_integral", counted)
    assert main(["verify-lemma2", "--t-count", "2", "--n", "4096"]) in (0, 3)
    capsys.readouterr()
    assert calls == [3]


def test_non_applicable_audit_rows_are_strict_json_null(capsys):
    code, out = run_cli(
        ["lemma5-audit", "--u", "2", "--N1", "0.5", "--samples", "6", "--seed", "2"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out, parse_constant=reject_non_finite)["results"]
    skipped = [r for r in rows if not r["applicable"]]
    assert skipped and all(r["K"] is None for r in skipped)
    assert all(isinstance(r["K"], float) for r in rows if r["applicable"])


def test_cli_import_loads_no_scipy():
    # scipy costs most of a light command's run; no ziclab module imports it
    out = run_fresh(
        ["-c", "import ziclab.cli, sys; "
               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
    )
    assert out == "[]\n"


def test_hull_commands_load_no_scipy(tmp_path):
    # the envelope is a linear program per query: no command needs Qhull
    out = run_fresh(
        ["-c", "import sys; from ziclab.cli import main; "
               f"code = main(['hk-region', '--q1', '1,39', '--q2', '1.2', "
               f"'--output', {str(tmp_path / 'r.json')!r}]); "
               "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
    )
    assert out == "0 []\n"


def test_hull_import_from_pool_threads_same_report():
    # fresh processes; no command reads ZIC_THREADS, so the report must not
    # depend on it
    argv = ["-m", "ziclab.cli", "hk-region", "--q1", "1,2", "--q2", "1,3"]
    one = run_fresh(argv, ZIC_THREADS="1")
    two = run_fresh(argv, ZIC_THREADS="2")
    assert one == two
    assert len(json.loads(one)["results"]) == 4


def test_geometry_from_pool_threads_same_report():
    argv = ["-m", "ziclab.cli", "geometry", "--t", "10,20,30"]
    one = run_fresh(argv, ZIC_THREADS="1")
    two = run_fresh(argv, ZIC_THREADS="2")
    assert one == two
    assert len(json.loads(one)["results"]) == 4


LOADED = "print(sorted(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'ziclab'))"


def test_package_import_loads_no_submodule_and_no_numpy():
    assert run_fresh(["-c", f"import sys, ziclab; {LOADED}"]) == "['ziclab']\n"


@pytest.mark.parametrize("argv", [["--help"], ["hk-region", "--help"]])
def test_help_loads_no_numpy(argv):
    out = run_fresh(["-c", f"import sys; from ziclab.cli import main; main({argv!r}); {LOADED}"])
    assert out.startswith("usage: ziclab")
    assert out.endswith("\n['ziclab', 'ziclab.cli']\n")


HESSIAN_ONLY = ("ziclab.hessian",)
PERTURBATION = ("numpy", "ziclab.counterexamples", "ziclab.entropy", "ziclab.gaussmix",
                "ziclab.hessian")
HK = ("ziclab.hessian", "ziclab.hkregion")
# the modules each subcommand loads besides the package and the CLI, numpy
# among them only where the command computes on arrays (_util holds the
# audits' RNG streams); the five scalar commands and the four HK commands
# load no numpy, and README runs all 14 subcommands
# (test_readme_runs_every_subcommand)
COMMAND_MODULES = {
    "phase-diagram": HESSIAN_ONLY,
    "hessian": HESSIAN_ONLY,
    "theorem5-epsilon": HESSIAN_ONLY,
    "geometry": ("ziclab.geometry",),
    "condition54-root": HESSIAN_ONLY,
    "verify-lemma1": PERTURBATION,
    "verify-lemma2": PERTURBATION,
    "verify-vertical": PERTURBATION,
    "limit-functional": PERTURBATION,
    "hk-region": HK,
    "lemma5-audit": ("ziclab._util", *HK),
    "theorem4-audit": ("ziclab._util", *HK),
    "constant-power-gap": PERTURBATION,
    "conjecture2-map": HK,
}


@pytest.mark.parametrize("line", readme_commands(), ids=lambda line: line.split()[1])
def test_readme_command_loads_only_its_modules(line, tmp_path):
    argv = shlex.split(line)[1:]
    if "--output" in argv:
        i = argv.index("--output")
        del argv[i : i + 2]
    argv += ["--output", str(tmp_path / "report")]
    out = run_fresh(["-c", f"import sys; from ziclab.cli import main; code = main({argv!r}); "
                           f"print(code); {LOADED}"])
    want = ["ziclab", "ziclab.cli", *COMMAND_MODULES[argv[0]]]
    assert out == f"0\n{sorted(want)}\n"


@pytest.mark.parametrize(
    "line",
    [
        "lemma5-audit --u 2 --N1 0.5 --samples 12 --seed 2",
        "theorem4-audit --d 2 --samples 4",
        "conjecture2-map --u 0.6:3:1.2 --q 0,2,7 --N1 0.5",
    ],
    ids=lambda line: line.split()[0],
)
def test_benchmark_hk_command_loads_no_numpy(line, tmp_path):
    # the benchmark's HK commands besides the README's hk-region line
    argv = [*line.split(), "--output", str(tmp_path / "report")]
    out = run_fresh(["-c", f"import sys; from ziclab.cli import main; code = main({argv!r}); "
                           f"print(code); {LOADED}"])
    want = ["ziclab", "ziclab.cli", *COMMAND_MODULES[argv[0]]]
    assert out == f"0\n{sorted(want)}\n"


def test_hkregion_import_loads_no_numpy_and_no_lattice():
    # the lattice LP is imported only when a name it holds is read on hkregion
    out = run_fresh(["-c", f"import sys, ziclab.hkregion; {LOADED}"])
    assert out == "['ziclab', 'ziclab.hessian', 'ziclab.hkregion']\n"
    out = run_fresh(["-c", "import sys, ziclab.hkregion as hk; hk.f1_table; "
                           "print('ziclab._lattice' in sys.modules, 'numpy' in sys.modules)"])
    assert out == "True True\n"


def test_write_report_of_python_values_loads_no_numpy():
    out = run_fresh(["-c", "import math, sys; from ziclab.cli import write_report; "
                           "write_report({'u': 1.0}, [{'K': math.inf, 'n': 2, 'c': 'stable'}], "
                           f"[], '-', 'json'); {LOADED}"])
    assert out.endswith("\n['ziclab', 'ziclab.cli']\n")
    assert json.loads(out[: out.rindex("[")])["results"] == [{"K": None, "n": 2, "c": "stable"}]


def test_numpy_scalars_become_numbers_or_null(capsys):
    import numpy as np

    row = {"f": np.float64(0.5), "nan": np.float64("nan"), "inf": np.float32("inf"),
           "i": np.int64(7), "list": [np.float32(0.25), np.float64("-inf")]}
    write_report({}, [row], [], "-", "json")
    results = json.loads(capsys.readouterr().out, parse_constant=reject_non_finite)["results"]
    assert results == [{"f": 0.5, "nan": None, "inf": None, "i": 7, "list": [0.25, None]}]
    assert type(results[0]["i"]) is int
    del row["list"]
    write_report({}, [row], [], "-", "csv")
    assert capsys.readouterr().out == "f,nan,inf,i\r\n0.5,,,7\r\n"


# every name `import ziclab` exported when the package imported its modules eagerly
EAGER_EXPORTS = """
    ChannelParams DerivTerm GaussDerivMixture GaussMixture GridDensity
    HKParams HermiteCoeffVector HessianReport LocalOptimalityCertificate
    NegativeDensityError NoGaussianMaxError NonNormalizedError
    NotApplicableError NotStationaryError RecipeRejectedError
    SkewRecipe VerticalPerturbation WitnessUnavailableError capped_gauss_objective
    constant_power_gap counterexamples default_recipe deriv_norm_balance differential_entropy
    eigenvalue_bound_audit entropy fisher_information fisher_limit_gain fixed_power_value
    gauss_deriv_pdf gauss_deriv_poly gaussian gaussian_entropy gaussmix geometry
    hessian hessian_quadratic_form hkregion interference_objective
    limit_functional local_optimality_radius maximizer_bound_check
    mixture_entropies mixture_entropy mixture_to_grid phase_diagram power_control_cell
    power_control_map power_control_value select_epsilon skewness_gap smoothing_curve
    stability_classify stability_root stability_threshold tangent_witness vertical_gap
    volume_ratio
""".split()


RESOLVES_AS_EAGERLY = """
import importlib, sys, ziclab
resolved = {name: getattr(ziclab, name) for name in NAMES}
modules = [importlib.import_module(f"ziclab.{m}") for m in
           ("gaussmix", "entropy", "counterexamples", "hessian", "hkregion", "geometry")]
for name, value in resolved.items():
    # a submodule, or the one object every module holding the name holds
    holders = [getattr(m, name) for m in modules if hasattr(m, name)]
    assert value is sys.modules.get(f"ziclab.{name}") or (
        holders and all(h is value for h in holders)), name
print(sorted(set(NAMES) - set(dir(ziclab))), ziclab.__version__)
"""


def test_lazy_exports_are_the_module_objects():
    # each name is resolved before any submodule is imported by hand
    out = run_fresh(["-c", f"NAMES = {EAGER_EXPORTS!r}" + RESOLVES_AS_EAGERLY])
    assert out == "[] 0.1.0\n"


OPENBLAS = "OPENBLAS_NUM_THREADS"
QUIET_RUN = "main(['phase-diagram', '--u', '1', '--L', '2', '--output', os.devnull])"


@pytest.mark.parametrize("user, seen", [(None, "1"), ("2", "2")])
def test_cli_defaults_openblas_to_one_thread(user, seen):
    # the variable must be set before numpy loads OpenBLAS; a user's own
    # setting wins
    out = run_fresh(["-c", f"import os; os.environ.pop({OPENBLAS!r}, None)\n"
                           f"if {user!r} is not None: os.environ[{OPENBLAS!r}] = {user!r}\n"
                           f"from ziclab.cli import main; {QUIET_RUN}; print(os.environ[{OPENBLAS!r}])"])
    assert out == f"{seen}\n"


def test_cli_leaves_environment_alone_once_numpy_is_imported():
    out = run_fresh(["-c", f"import os, numpy; os.environ.pop({OPENBLAS!r}, None)\n"
                           f"from ziclab.cli import main; {QUIET_RUN}; print({OPENBLAS!r} in os.environ)"])
    assert out == "False\n"


def test_oracle_mismatch_exit_3(capsys):
    # absurdly tight tolerance forces a failed check -> exit 3
    code, out = run_cli(
        ["verify-lemma1", "--t-count", "6", "--c1-tol", "1e-12"], capsys
    )
    assert code == 3
    payload = json.loads(out)
    assert any(not c["passed"] for c in payload["checks"])


def test_verify_lemma2_passes(capsys):
    code, out = run_cli(["verify-lemma2", "--t-count", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert all(c["passed"] for c in payload["checks"])


def test_hk_region_table(capsys):
    code, out = run_cli(
        ["hk-region", "--u", "1", "--N1", "1", "--q1", "2,10", "--q2", "2,10"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["results"]
    assert len(rows) == 4
    assert all(r["g1"] >= r["f1"] for r in rows)


def test_hk_region_readme_cells_g1_majorizes_f1_exactly(capsys):
    # f1 and the envelope's table node at q come from one kernel, so the
    # envelope majorizes f1 with no tolerance
    code, out = run_cli(
        ["hk-region", "--u", "1", "--N1", "1", "--q1", "1:10:3", "--q2", "1:10:3"], capsys
    )
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 16
    assert all(r["g1"] >= r["f1"] for r in rows)


def test_limit_functional_cli(capsys):
    code, out = run_cli(["limit-functional", "--L", "1.2,2.0", "--n", "8192"], capsys)
    assert code == 0
    payload = json.loads(out)
    rows = payload["results"]
    assert rows[0]["perturbation_beats_gaussian"] is True
    assert rows[1]["perturbation_beats_gaussian"] is False
    assert all(c["passed"] for c in payload["checks"])


def test_limit_functional_sign_is_the_closed_form_sign(capsys):
    # K = 3.0004 > 3, yet at delta = 0.0375 the closed form is -4.30e-5 and
    # the grid reads -4.42e-5: the K > 3 rule called it a failure (exit 3)
    code, out = run_cli(["limit-functional", "--L", "1.4999", "--n", "8192"], capsys)
    rep = json.loads(out)
    closed = cx.fisher_limit_coefficient(rep["results"][0]["K"], 1.4999 / 2 / 20)
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == ["gain_sign_L=1.4999"]
    assert f"closed form {closed:+.3e}" in rep["checks"][0]["detail"]
    assert closed == pytest.approx(-4.304e-5, rel=1e-3)


def test_limit_functional_sign_below_rounding_floor_exit_2(capsys):
    # K = 10001: no eps ladder resolves c = 3.0e-12, and the grid read
    # -8.6e-11 against the K > 3 rule (exit 3)
    assert main(["limit-functional", "--L", "1.0001", "--n", "1024"]) == 2
    assert capsys.readouterr().err == (
        "ziclab: eps too small: the closed-form change |fisher_limit_coefficient| (eps/4)**2 = "
        "4.575e-17 does not reach the objective's rounding floor 1.338e-15 at "
        "K=10001.0000000011, delta=0.0250025, got 0.015625\n"
    )


def test_constant_power_gap_cli(capsys):
    code, out = run_cli(["constant-power-gap"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["gap"] > 0
    assert all(c["passed"] for c in payload["checks"])


def test_constant_power_gap_at_huge_u(capsys):
    # u = 3e305 exited 2 with the f1 = g1 bound of the HK commands, which
    # this command never runs; now the witness runs and loses to the
    # Gaussian value, as it already does at u = 1.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["constant-power-gap", "--u", "3e305", "--n", "1024"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = {c["name"]: c["passed"] for c in json.loads(captured.out)["checks"]}
    assert checks == {"witness_beats_gaussian": False, "mixing_slack_within_budget": True}


def test_conjecture2_map_cli(capsys):
    code, out = run_cli(
        ["conjecture2-map", "--u", "1", "--q", "1.2,39", "--N1", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["results"]
    assert any(not r["f1_eq_g1"] for r in rows)  # power control helps somewhere
    assert all(c["passed"] for c in payload["checks"])


def test_hk_region_and_conjecture2_map_agree_cell_for_cell(capsys):
    # both commands build each cell with power_control_cell; q2 = 0 included
    code, out = run_cli(
        ["hk-region", "--u", "1.5", "--N1", "0.5", "--q1", "0.7,3", "--q2", "0,0.7,3"],
        capsys,
    )
    assert code == 0
    table = {(r["q1"], r["q2"]): r for r in json.loads(out)["results"]}
    code, out = run_cli(
        ["conjecture2-map", "--u", "1.5", "--q", "0,0.7,3", "--N1", "0.5"],
        capsys,
    )
    assert code == 0
    cells = json.loads(out)["results"]
    # the map drops its q1 = 0 row and keeps the q2 = 0 column
    assert sorted((c["q1"], c["q2"]) for c in cells) == sorted(table)
    assert {c["f1_eq_g1"] for c in cells} == {True, False}
    for c in cells:
        r = table[(c["q1"], c["q2"])]
        assert json.dumps([r["f1"], r["g1"], r["f1_eq_g1"], r["argmax_K"]]) == json.dumps(
            [c["f1"], c["g1"], c["f1_eq_g1"], c["stationary_K"]]
        )


@pytest.mark.parametrize(
    "argv, cell",
    [
        (["conjecture2-map", "--q=-1,2"], "(2.0, -1.0)"),
        (["hk-region", "--q1", "1", "--q2=-1"], "(1.0, -1.0)"),
        (["hk-region", "--q1", "0", "--q2", "1"], "(0.0, 1.0)"),
    ],
)
def test_negative_power_exit_2(argv, cell, capsys):
    # conjecture2-map --q=-1,2 used to report a q2 = -1 cell computed at q2 = 0
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"ziclab: power-control cells need q1 > 0 and q2 >= 0, got {cell}\n"
    )


def test_theorem4_audit_cli(capsys):
    code, out = run_cli(
        ["theorem4-audit", "--d", "2", "--samples", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert all(c["passed"] for c in payload["checks"])


def test_thread_cap_does_not_change_report(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["geometry", "--t", "20:100:20"]
    monkeypatch.setenv("ZIC_THREADS", "1")
    assert main(argv + ["--output", str(a)]) == 0
    monkeypatch.setenv("ZIC_THREADS", "4")
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_geometry_csv_with_summary_row(tmp_path):
    out = tmp_path / "geo.csv"
    assert main(["geometry", "--t", "20,40", "--format", "csv", "--output", str(out)]) == 0
    text = out.read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["t"] == "20.0"
    # summary row carries the coefficient columns, data columns empty
    assert rows[-1]["t"] == ""
    assert float(rows[-1]["fitted_inverse_t_coefficient"]) > 0


@pytest.mark.parametrize(
    "tol, message",
    [
        pytest.param("0", "tolerance must be finite and positive", id="0"),
        pytest.param("-1", "tolerance must be finite and positive", id="-1"),
        pytest.param("nan", "tolerance must be finite and positive", id="nan"),
        # below the float spacing at the bracket end 3 + u the bisection
        # could not narrow the bracket to it; the message names the least tolerance
        pytest.param("1e-300", f"tolerance must be at least {math.ulp(4.0):.17g}", id="1e-300"),
    ],
)
def test_condition54_bad_tolerance_exit_2(tol, message, capsys):
    # a tolerance of 0 or below used to bisect forever
    assert main(["condition54-root", f"--tolerance={tol}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("option", ["--A", "--B"])
@pytest.mark.parametrize("text", ["1", "1:2:3", "x:1", "2:nan"])
def test_hessian_bad_coefficients_exit_2(option, text, capsys):
    # "--A 1" used to exit with "not enough values to unpack"
    assert main(["hessian", option, text]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"ziclab: {option} wants order:coeff pairs such as 1:1.0")
    assert f"'{text}'" in err


@pytest.mark.parametrize("argv", [["--L", "1e300"], ["--L", "1e160"], ["--u", "1e300"], ["--A", "171:1"]])
def test_hessian_float_overflow_exit_2(argv, capsys):
    # a power of K+u+L (or (alpha+1)!) beyond the float range used to end
    # in an OverflowError traceback
    assert main(["hessian", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ziclab: Hessian ledger overflows the float range at K=")


@pytest.mark.parametrize("option", ["--N1", "--Sigma1"])
@pytest.mark.parametrize("value", ["-1", "nan"])
def test_verify_lemma2_bad_noise_exit_2(option, value, capsys):
    # a negative N1 used to be echoed while the gaps were computed at N1 = 0
    assert main(["verify-lemma2", "--t-count", "2", f"{option}={value}"]) == 2
    err = capsys.readouterr().err
    assert err == f"ziclab: {option[2:]} must be finite and nonnegative, got {float(value)}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-lemma1", "--t-count", "0"], "--t-count: need at least 6 t values, got 0"),
        (["verify-lemma1", "--t-count", "4"], "--t-count: need at least 6 t values, got 4"),
        (["verify-lemma1", "--t-count", "5"], "--t-count: need at least 6 t values, got 5"),
        (["verify-lemma2", "--t-count", "0"], "--t-count: the t^(3/2) fit needs at least 2 t values, got 0"),
        (["verify-lemma2", "--t-count", "1"], "--t-count: the t^(3/2) fit needs at least 2 t values, got 1"),
        (["verify-lemma1", "--t-min=-1"], "--t-min: t values must lie in (0, 0.1], got -1.0"),
        (["verify-lemma1", "--t-min", "0"], "--t-min: t values must lie in (0, 0.1], got 0.0"),
        (["verify-lemma1", "--t-max", "0.2"], "--t-max: t values must lie in (0, 0.1], got 0.2"),
        (["verify-lemma1", "--t-max", "nan"], "--t-max: t values must lie in (0, 0.1], got nan"),
        (["verify-lemma2", "--t-min=-1"], "--t-min: t values must be finite and positive, got -1.0"),
        (["verify-lemma2", "--t-min", "0"], "--t-min: t values must be finite and positive, got 0.0"),
        (["verify-lemma2", "--t-max", "inf"], "--t-max: t values must be finite and positive, got inf"),
    ],
)
def test_lemma_t_grid_out_of_range_exit_2(argv, message, capsys):
    # these used to end in an IndexError traceback, in numpy's geomspace
    # messages after a RuntimeWarning, or in a fit with no residual freedom
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == f"ziclab {argv[0]}: error: argument {message}\n"


def test_verify_vertical_delta_above_K_named_before_eps_scan(capsys):
    # the eps scan used to fail first, on a negative variance it did not name
    assert main(["verify-vertical", "--delta", "10"]) == 2
    assert capsys.readouterr().err == "ziclab: need K - delta > 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["limit-functional", "--J", "0"], "J must be >= 1, got 0"),
        (["limit-functional", "--J=-1"], "J must be >= 1, got -1"),
        (["lemma5-audit", "--samples=-1"], "samples must be >= 0, got -1"),
        (["theorem4-audit", "--samples=-1"], "samples must be >= 0, got -1"),
    ],
)
def test_bad_count_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ziclab: {message}\n"


@pytest.mark.parametrize(
    "argv, name",
    [(["--K=-1"], "K"), (["--K", "0"], "K"), (["--u=-1", "--K", "2"], "u"), (["--delta=-0.1"], "delta")],
)
def test_verify_vertical_non_positive_exit_2_names_it(argv, name, capsys):
    # checked before the eps scan, whose own failure names no parameter
    assert main(["verify-vertical", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"ziclab: {name} must be positive")


@pytest.mark.parametrize(
    "argv",
    [
        ["hk-region", "--q1", "x", "--q2", "1"],
        ["constant-power-gap", "--A", "x"],
        ["condition54-root", "--u", "x"],
        ["phase-diagram", "--u", "1,x", "--L", "2"],
        ["phase-diagram", "--u", "1", "--L", "1:x:1"],
    ],
)
def test_non_numeric_value_exit_2_without_parser_name(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "parse_" not in err and "'x'" in err


# one cheap command line per subcommand
CONFIG_ARGVS = [
    ["verify-lemma1", "--t-count", "6"],
    ["verify-lemma2", "--t-count", "4"],
    ["verify-vertical", "--n", "4096"],
    ["condition54-root"],
    ["hessian"],
    ["phase-diagram", "--u", "1", "--L", "2"],
    ["theorem5-epsilon"],
    ["hk-region", "--q1", "1", "--q2", "1"],
    ["lemma5-audit", "--samples", "0"],
    ["theorem4-audit", "--samples", "0"],
    ["constant-power-gap", "--n", "4096"],
    ["conjecture2-map", "--q", "1"],
    ["geometry", "--t", "20"],
    ["limit-functional", "--L", "1.2", "--n", "4096"],
]


def test_config_echoes_every_option(capsys):
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(a[0] for a in CONFIG_ARGVS) == sorted(subparsers.choices)
    for argv in CONFIG_ARGVS:
        assert main(argv) in (0, 3)
        cfg = json.loads(capsys.readouterr().out)["config"]
        options = {
            a.dest for a in subparsers.choices[argv[0]]._actions if a.option_strings
        } - {"help", "output"}
        assert options <= set(cfg), (argv[0], options - set(cfg))
        assert cfg["subcommand"] == argv[0]
