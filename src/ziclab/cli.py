"""Command-line front end: experiment orchestration and JSON/CSV reports.

Every subcommand writes a report with the full resolved configuration, the
result rows, and pass/fail oracle checks.  Identical configuration and seed
produce byte-identical reports: results are assembled in parameter order
(never completion order) and no timestamps are embedded.  JSON reports are
strict: non-finite values are written as null.

Sweep syntax: ``lo:hi:step`` for ranges, comma lists for discrete sets.
Exit codes: 0 success, 2 validation failure, 3 oracle mismatch.

Importing this module loads neither numpy nor a compute module, and a
run builds the parser of its own subcommand alone.  The handlers live in
one module per family (``_cmd_scalar``: ``phase-diagram``, ``hessian``,
``theorem5-epsilon``, ``condition54-root`` and ``geometry``; ``_cmd_hk``:
``hk-region``, ``lemma5-audit``, ``theorem4-audit`` and
``conjecture2-map``; ``_cmd_perturb``: the five perturbation commands),
imported when its command runs; each handler, and each option validator,
imports the modules it runs, so a command loads only its own.  The scalar
and HK commands compute on Python floats and load neither numpy nor
``dataclasses``, the report writer looks numpy up only if a handler loaded
it, and ``csv`` is imported only for ``--format csv``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import sys


def _number(text: str, kind=float):
    """``kind(text)``, or argparse's own message for ``type=kind`` (a
    ValueError from a parse_* type makes argparse name the function)."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: '{text}'") from None


# A range is a sweep: each of its values becomes at least one report row
# of some 100 bytes and costs 32 bytes as a listed float, so 10^6 values
# already make a report of about 100 MB.  The longest sweep of the README
# and the benchmark holds 30 values.
MAX_RANGE_VALUES = 10**6


def _decimal(text: str, value: float) -> tuple[int, int]:
    """(m, e) with m 10^e the exact value of a number text that float() read
    as the finite ``value``: its digits, underscores dropped, past the sign
    and the point, and its exponent less the digits after the point.  A
    text that rounds to 0 reads (0, 0), so no exponent of a long run of
    zeros, such as 1e-999999999's, becomes a power of ten."""
    if not value:
        return 0, 0
    mantissa, _, exponent = text.strip().replace("_", "").lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    return int(whole + fraction), int(exponent or "0") - len(fraction)


def parse_values(text: str) -> list[float]:
    """Parse 'lo:hi:step' sweeps, comma lists, or a single number; every
    value must be finite, and a comma list must hold at least one.

    A range holds the values lo + i step, i = 0, 1, ..., for every i with
    i step <= hi - lo in the exact decimal values of the three texts (a
    text that rounds to the float 0 counts as 0), so 1.1:4:0.1 gives 30
    values and ends at 4 within rounding.  The count is integer arithmetic
    on the texts' digits, scaled to their least exponent.  A range whose
    count passes the float range, or MAX_RANGE_VALUES, is rejected before
    any value is built."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"bad range '{text}', want lo:hi:step")
        lo, hi, step = (_number(p) for p in parts)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise argparse.ArgumentTypeError(f"non-finite value in '{text}'")
        exact = [_decimal(p, v) for p, v in zip(parts, (lo, hi, step))]
        least = min(e for _, e in exact)
        i_lo, i_hi, i_step = (m * 10 ** (e - least) for m, e in exact)
        if i_step <= 0 or i_hi < i_lo:
            raise argparse.ArgumentTypeError(f"bad range '{text}'")
        n = (i_hi - i_lo) // i_step + 1
        if n > sys.float_info.max:
            raise argparse.ArgumentTypeError(
                f"bad range '{text}': non-finite value count (hi-lo)/step + 1"
            )
        if n > MAX_RANGE_VALUES:
            raise argparse.ArgumentTypeError(
                f"bad range '{text}': more than {MAX_RANGE_VALUES} values (hi-lo)/step + 1"
            )
        return [lo + i * step for i in range(n)]
    if "," in text:
        values = [_number(p) for p in text.split(",") if p.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"no value in '{text}'")
    else:
        values = [_number(text)]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"non-finite value in '{text}'")
    return values


def _checked(kind, check: str):
    """Parser type for ``kind`` values that ``check``, a validator named
    ``module.function`` within ziclab, accepts: the check's ValueError
    becomes argparse's one-line error naming the option.  The module is
    imported when the option is parsed, not when the parser is built."""
    module, name = check.split(".")

    def parse(text: str):
        value = _number(text, kind)
        validate = getattr(importlib.import_module(f"{__package__}.{module}"), name)
        try:
            validate(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _report_values(obj):
    """Plain Python copy of a report value: numpy scalars become Python
    numbers and non-finite floats become None, so that JSON reports are
    strict (null, never NaN or Infinity) and CSV cells are empty."""
    # a report that holds a numpy scalar comes from a handler that loaded
    # numpy; the scalar commands' reports hold Python values alone
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _report_values(v) for k, v in obj.items()}
    # a named tuple would lose its field names here, so handlers turn the
    # records of hessian and hkregion into dicts themselves
    if isinstance(obj, (list, tuple)):
        return [_report_values(v) for v in obj]
    return obj


def write_report(
    config: dict, results: list[dict], checks: list[dict], output: str, fmt: str
) -> None:
    if fmt == "json":
        payload = _report_values(
            {"config": config, "results": results, "checks": checks}
        )
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        import csv

        buf = io.StringIO()
        if results:
            fields: list[str] = []
            for row in results:
                for key in row:
                    if key not in fields:
                        fields.append(key)
            writer = csv.DictWriter(
                buf, fieldnames=fields, restval="", lineterminator="\r\n"
            )
            writer.writeheader()
            for row in results:
                writer.writerow(_report_values(row))
        text = buf.getvalue()
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors exit 2 with one line, no usage block
    (subparsers inherit the class)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


# Subcommand -> (help, the module of its handler cmd_<name>, its options
# as (flag, argparse keywords) pairs); every subcommand also takes --output
# and --format.  A handler returns (derived, results, checks): derived holds
# the configuration values it resolves itself (defaults computed from other
# options, the skew recipe), which main merges over the parsed options to
# form the report's config, and each check is a (name, passed, detail)
# triple.  A handler module never imports ziclab.cli: under
# `python -m ziclab.cli` this module runs as __main__, so that import would
# execute it a second time.
COMMANDS = {
    "verify-lemma1": ("entropy expansion coefficients vs quadrature", "_cmd_perturb", (
        ("--t-min", dict(type=_checked(float, "entropy.check_smoothing_t"), default=1e-4)),
        ("--t-max", dict(type=_checked(float, "entropy.check_smoothing_t"), default=1e-2)),
        ("--t-count", dict(type=_checked(int, "entropy.check_expansion_count"), default=10)),
        ("--n", dict(type=_checked(int, "entropy.check_grid_n"), default=8192)),
        ("--c1-tol", dict(type=_checked(float, "entropy.check_fit_tolerance"), default=0.02)),
        ("--c15-tol", dict(type=_checked(float, "entropy.check_fit_tolerance"), default=0.05)),
    )),
    "verify-lemma2": ("skewed-interferer gap vs Gaussian control", "_cmd_perturb", (
        ("--t-min", dict(type=_checked(float, "counterexamples.check_gap_t"), default=1e-3)),
        ("--t-max", dict(type=_checked(float, "counterexamples.check_gap_t"), default=1e-2)),
        ("--t-count", dict(type=_checked(int, "counterexamples.check_gap_count"), default=6)),
        ("--N1", dict(type=float, default=0.0)),
        ("--Sigma1", dict(type=float, default=0.0)),
        ("--n", dict(type=_checked(int, "entropy.check_grid_n"), default=8192)),
    )),
    "verify-vertical": ("density-perturbation gap and eps^2 slope", "_cmd_perturb", (
        ("--u", dict(type=float, default=1.0)),
        ("--L", dict(type=float, default=1.4)),
        ("--K", dict(type=_checked(float, "counterexamples.check_source_variance"), default=None,
                     help="default: stationary (L+u)/(L-1)")),
        ("--J", dict(type=int, default=2)),
        ("--delta", dict(type=float, default=None)),
        ("--eps", dict(type=float, default=None)),
        ("--n", dict(type=_checked(int, "entropy.check_grid_n"), default=8192)),
    )),
    "condition54-root": ("bisection root of the norm balance", "_cmd_scalar", (
        ("--u", dict(type=parse_values, default=[1.0])),
        ("--tolerance", dict(type=float, default=1e-8)),
    )),
    "hessian": ("per-order Hessian ledger at a stationary point", "_cmd_scalar", (
        ("--u", dict(type=float, default=1.0)),
        ("--L", dict(type=float, default=3.0)),
        ("--A", dict(default="1:1.0", help="order:coeff list, e.g. 1:1.0,2:0.5")),
        ("--B", dict(default="", help="order:coeff list (order 1 must be absent)")),
    )),
    "phase-diagram": ("stability classification over a (u, L) grid", "_cmd_scalar", (
        ("--u", dict(type=parse_values, required=True)),
        ("--L", dict(type=parse_values, required=True)),
    )),
    "theorem5-epsilon": ("local-optimality certificate radius", "_cmd_scalar", (
        ("--u", dict(type=float, default=1.0)),
        ("--L", dict(type=parse_values, default=[3.0], help="diagonal entries")),
    )),
    "hk-region": ("fixed-power and power-control value tables", "_cmd_hk", (
        ("--u", dict(type=float, default=1.0)),
        ("--N1", dict(type=float, default=0.0)),
        ("--q1", dict(type=parse_values, required=True)),
        ("--q2", dict(type=parse_values, required=True)),
    )),
    "lemma5-audit": ("maximizer-variance bound on random cells", "_cmd_hk", (
        ("--u", dict(type=float, default=1.0)),
        ("--N1", dict(type=float, default=0.0)),
        ("--samples", dict(type=int, default=50)),
        ("--seed", dict(type=int, default=0)),
    )),
    "theorem4-audit": ("eigenvalue bound audit (d in {1,2})", "_cmd_hk", (
        ("--d", dict(type=int, choices=(1, 2), default=1)),
        ("--u", dict(type=float, default=1.0)),
        ("--N1", dict(type=float, default=0.0)),
        ("--samples", dict(type=int, default=20)),
        ("--seed", dict(type=int, default=0)),
    )),
    "constant-power-gap": ("non-Gaussian witness vs Gaussian value", "_cmd_perturb", (
        ("--u", dict(type=float, default=1.0)),
        ("--N1", dict(type=float, default=1.0)),
        ("--N2", dict(type=float, default=0.05)),
        ("--A", dict(type=_checked(float, "counterexamples.check_mixing_variance"),
                     default=None, help="mixing variance (default: auto)")),
        ("--n", dict(type=_checked(int, "entropy.check_grid_n"), default=8192)),
    )),
    "conjecture2-map": ("power-control footprint over (q1, q2)", "_cmd_hk", (
        ("--u", dict(type=parse_values, default=[1.0])),
        ("--q", dict(type=parse_values, required=True)),
        ("--N1", dict(type=float, default=0.0)),
    )),
    # a string default goes through parse_values only when geometry runs
    "geometry": ("volume-ratio sweep with exact mixed areas", "_cmd_scalar", (
        ("--t", dict(type=parse_values, default="10:200:10")),
    )),
    "limit-functional": ("Fisher limit functional perturbation gains", "_cmd_perturb", (
        ("--L", dict(type=parse_values, default=[1.2, 1.6, 2.0])),
        ("--J", dict(type=int, default=2)),
        ("--n", dict(type=_checked(int, "entropy.check_grid_n"), default=16384)),
    )),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ziclab parser, with the subcommand ``only`` alone, or with every
    subcommand when ``only`` is None."""
    parser = _Parser(
        prog="ziclab",
        description="Numerical experiments on Gaussian optimality for the "
        "scalar Z-interference channel.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, options) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, keywords in options:
                p.add_argument(flag, **keywords)
            p.add_argument("--output", default="-", help="report path, or - for stdout")
            p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # OpenBLAS starts one thread per core when numpy is imported, which
        # is a large share of a light command's start-up; the CLI's only
        # BLAS/LAPACK calls are 3x3 solves and least-squares fits of at most
        # 20x4, which one thread serves as well.  A user's own setting is
        # kept, and a process that already imported numpy is left alone.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run needs its own subcommand's parser alone; --help and an unknown
    # name get every subcommand, which their messages list
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad input, 0 after --help
        return exc.code
    name = args.subcommand
    module = importlib.import_module(f"{__package__}.{COMMANDS[name][1]}")
    try:
        derived, results, checks = getattr(module, "cmd_" + name.replace("-", "_"))(args)
    except ValueError as exc:  # every module's validation errors subclass it
        print(f"ziclab: {exc}", file=sys.stderr)
        return 2
    checks = [{"name": n, "passed": bool(passed), "detail": d} for n, passed, d in checks]
    # the output path is environment, not experiment configuration; embedding
    # it would break byte-identical reports across destinations
    config = {k: v for k, v in vars(args).items() if k != "output"}
    config.update(derived)
    write_report(config, results, checks, args.output, args.format)
    if any(not c["passed"] for c in checks):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
