"""Command-line front end: experiment orchestration and JSON/CSV reports.

Every subcommand writes a report with the full resolved configuration, the
result rows, and pass/fail oracle checks.  Identical configuration and seed
produce byte-identical reports: results are assembled in parameter order
(never completion order) and no timestamps are embedded.  JSON reports are
strict: non-finite values are written as null.

Sweep syntax: ``lo:hi:step`` for ranges, comma lists for discrete sets.
Exit codes: 0 success, 2 validation failure, 3 oracle mismatch.

Importing this module loads neither numpy nor a compute module: each
handler, and each option validator, imports the modules it runs when it
runs, so a command loads only its own.  The scalar commands
(``phase-diagram``, ``hessian``, ``theorem5-epsilon``, ``condition54-root``
and ``geometry``) and the four HK commands (``hk-region``, ``lemma5-audit``,
``theorem4-audit`` and ``conjecture2-map``) compute on Python floats and
never load numpy, and the report writer looks numpy up only if a handler
loaded it.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import os
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

    from .counterexamples import SkewRecipe


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


def parse_values(text: str) -> list[float]:
    """Parse 'lo:hi:step' sweeps, comma lists, or a single number; every
    value must be finite, and a comma list must hold at least one.

    A range holds the values lo + i step, i = 0, 1, ..., for every i with
    i step <= hi - lo in the exact decimal values of the three texts (a
    text that rounds to the float 0 counts as 0), so 1.1:4:0.1 gives 30
    values and ends at 4 within rounding.  A range whose count passes the
    float range, or MAX_RANGE_VALUES, is rejected before any value is
    built."""
    text = text.strip()
    if ":" in text:
        from fractions import Fraction

        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"bad range '{text}', want lo:hi:step")
        lo, hi, step = (_number(p) for p in parts)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise argparse.ArgumentTypeError(f"non-finite value in '{text}'")
        # Fraction of a text like 1e-999999999, which rounds to 0, would
        # build a huge power of ten
        f_lo, f_hi, f_step = (
            Fraction(p) if v else Fraction(0) for p, v in zip(parts, (lo, hi, step))
        )
        if f_step <= 0 or f_hi < f_lo:
            raise argparse.ArgumentTypeError(f"bad range '{text}'")
        n = (f_hi - f_lo) // f_step + 1
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


def parse_finite(text: str) -> float:
    """One finite float."""
    value = _number(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value in '{text}'")
    return value


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


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _sign_check(name: str, coeff: float, closed: float) -> dict:
    """The eps^2 commands' one sign rule: the extrapolated coefficient has
    the sign of its closed form at the delta it ran.  The eps ladder's
    checks have made the closed form move the objective by at least its
    rounding floor, so closed is nonzero."""
    passed = coeff > 0 if closed > 0 else coeff < 0
    return _check(name, passed, f"quadratic_coeff {coeff:+.3e}, closed form {closed:+.3e}")


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


# ----------------------------------------------------------------------
# Subcommand handlers: each returns (derived, results, checks), where
# derived holds the configuration values the handler resolves itself
# (defaults computed from other options, the skew recipe); main merges it
# over the parsed options to form the report's config
# ----------------------------------------------------------------------


def _recipe_config(recipe: SkewRecipe) -> dict:
    return {
        "p_weights": list(recipe.p.weights),
        "p_means": list(recipe.p.means),
        "p_variances": list(recipe.p.variances),
        "q_weights": list(recipe.q.weights),
        "q_means": list(recipe.q.means),
        "q_variances": list(recipe.q.variances),
    }


def _fit_t_grid(args, powers: tuple[float, ...]) -> np.ndarray:
    """geomspace(--t-min, --t-max, --t-count), rejected before any entropy
    is computed when the fit in the basis {t^p} cannot use it."""
    import numpy as np

    from . import entropy as en

    t_grid = np.geomspace(args.t_min, args.t_max, args.t_count)
    try:
        en.check_fit_t(t_grid, powers)
    except ValueError as exc:
        raise ValueError(f"--t-min {args.t_min!r}, --t-max {args.t_max!r}: {exc}") from None
    return t_grid


def cmd_verify_lemma1(args) -> tuple[dict, list[dict], list[dict]]:
    from . import counterexamples as cx, entropy as en

    recipe = cx.default_recipe()
    t_grid = _fit_t_grid(args, en.EXPANSION_POWERS)
    curve = en.smoothing_curve(recipe.p, recipe.q, t_grid, n=args.n)
    c1, c15, slope = en.fit_expansion(curve[:, 0], curve[:, 1])
    c1_target, c15_target = en.expansion_targets(recipe.p, recipe.q)
    results = [{"t": float(t), "entropy_gain": float(dh)} for t, dh in curve]
    results.append(
        {
            "c1": c1,
            "c15": c15,
            "residual_slope": slope,
            "c1_quadrature": c1_target,
            "c15_quadrature": c15_target,
        }
    )
    checks = [
        _check(
            "c1_matches_quadrature",
            abs(c1 - c1_target) <= args.c1_tol * abs(c1_target),
            f"fitted {c1:.8f} vs quadrature {c1_target:.8f} (rel tol {args.c1_tol})",
        ),
        _check(
            "c15_matches_quadrature",
            abs(c15 - c15_target) <= args.c15_tol * abs(c15_target),
            f"fitted {c15:.8f} vs quadrature {c15_target:.8f} (rel tol {args.c15_tol})",
        ),
        _check(
            "residual_slope_near_2",
            abs(slope - 2.0) <= 0.25,
            f"log-log residual slope {slope:.3f}",
        ),
    ]
    return _recipe_config(recipe), results, checks


def cmd_verify_lemma2(args) -> tuple[dict, list[dict], list[dict]]:
    import numpy as np

    from . import counterexamples as cx

    recipe = cx.default_recipe()
    info = recipe.validate()
    t_grid = _fit_t_grid(args, cx.GAP_POWERS)
    rows = cx.skewness_gap(t_grid, recipe, N1=args.N1, Sigma1=args.Sigma1, n=args.n)
    control = cx.skewness_gap(
        t_grid, recipe, N1=args.N1, Sigma1=args.Sigma1, gaussian_x2=True, n=args.n
    )
    coeff = cx.gap_coefficient(rows)
    target = info["gap_coefficient"]
    results = [
        {"t": float(t), "gap": float(g), "gaussian_control_gap": float(c)}
        for (t, g), (_, c) in zip(rows, control)
    ]
    results.append({"fitted_t32_coefficient": coeff, "quadrature_coefficient": target})
    smallest_two = rows[:2, 1]
    checks = [
        _check(
            "gap_positive_at_smallest_t",
            bool(np.all(smallest_two > 1e-6)),
            f"gaps at two smallest t: {smallest_two.tolist()}",
        ),
        _check(
            "gaussian_control_nonpositive",
            bool(np.all(control[:, 1] <= 1e-6)),
            f"max control gap {control[:, 1].max():.3e}",
        ),
        _check(
            "t32_coefficient_matches",
            abs(coeff - target) <= 0.05 * abs(target),
            f"fitted {coeff:.6f} vs quadrature {target:.6f}",
        ),
    ]
    return {**_recipe_config(recipe), **info}, results, checks


def cmd_verify_vertical(args) -> tuple[dict, list[dict], list[dict]]:
    from . import counterexamples as cx, hessian as hs

    u, L, J = args.u, args.L, args.J
    # called with --K too, so that L <= 1 is rejected before any tabulation
    k_star = hs.stationary_source_variance(L, u)
    K = k_star if args.K is None else args.K
    vp = cx.VerticalPerturbation(K=K, L=L, u=u, delta=args.delta, eps=args.eps, J=J)
    delta, eps = vp.delta, vp.eps
    res = cx.vertical_gap(vp, n=args.n)
    results = [
        {
            "u": u,
            "L": L,
            "K": K,
            "delta": delta,
            "eps": eps,
            "J": J,
            "gaussian_value": res.gaussian_value,
            "base_value": res.base_value,
            "perturbed_value": res.perturbed_value,
            "quadratic_coeff": res.quadratic_coeff,
            "threshold": hs.stability_threshold(u),
            "classification": hs.stability_classify(K, u),
        }
    ]
    checks = [_sign_check("quadratic_sign_matches_closed_form", res.quadratic_coeff, vp.closed_form())]
    return {"K": K, "delta": delta, "eps": eps}, results, checks


def cmd_condition54_root(args) -> tuple[dict, list[dict], list[dict]]:
    from . import hessian as hs

    results = []
    checks = []
    for u in args.u:
        root = hs.stability_root(u, tol=args.tolerance)
        closed = hs.stability_threshold(u)
        results.append({"u": u, "root": root, "tolerance": args.tolerance})
        checks.append(
            _check(
                f"root_matches_closed_form_u={u:g}",
                abs(root - closed) <= args.tolerance,
                f"bisection {root:.10f} vs closed form {closed:.10f}",
            )
        )
    return {}, results, checks


def _parse_coeffs(text: str, option: str) -> dict[int, float]:
    """Parse an ``order:coeff`` list; a malformed one is a ValueError that
    names the option (the report's config keeps the raw text)."""
    if not text:
        return {}
    try:
        out = {int(a): float(c) for a, c in (p.split(":") for p in text.split(","))}
        if all(map(math.isfinite, out.values())):
            return out
    except ValueError:
        pass
    raise ValueError(
        f"{option} wants order:coeff pairs such as 1:1.0,2:0.5 (integer order, "
        f"finite coefficient), got '{text}'"
    )


def cmd_hessian(args) -> tuple[dict, list[dict], list[dict]]:
    from . import hessian as hs

    A = hs.HermiteCoeffVector(_parse_coeffs(args.A, "--A"))
    B = hs.HermiteCoeffVector(_parse_coeffs(args.B, "--B"))
    report = hs.hessian_quadratic_form(args.L, args.u, A, B)
    results = [
        {"alpha": a, "I_alpha": v} for a, v in sorted(report.per_alpha_terms.items())
    ]
    results.append(
        {
            "total": report.total,
            "classification": report.classification,
            "K": report.K,
            "threshold": hs.stability_threshold(args.u),
        }
    )
    checks = [
        _check(
            "total_equals_ledger_sum",
            report.total == sum(report.per_alpha_terms.values()),
            "ledger additivity",
        )
    ]
    return {"K": report.K}, results, checks


def cmd_phase_diagram(args) -> tuple[dict, list[dict], list[dict]]:
    from . import hessian as hs

    cells = hs.phase_diagram(args.u, args.L)
    results = [asdict(c) for c in cells]
    thr_ok = all(hs.stability_threshold(u) > 1.0 for u in args.u)
    checks = [
        _check(
            "threshold_above_1",
            thr_ok,
            "stability threshold exceeds 1 for every u in the grid",
        )
    ]
    return {}, results, checks


def cmd_theorem5_epsilon(args) -> tuple[dict, list[dict], list[dict]]:
    from . import hessian as hs

    cert = hs.local_optimality_radius(args.L, args.u)
    if cert is None:
        results = [{"u": args.u, "L": args.L, "eps": None}]
    else:
        results = [
            {
                "u": args.u,
                "L": args.L,
                "K": list(cert.K),
                "eps": cert.eps,
                "eps1": cert.eps1,
                "eps2": cert.eps2,
                "rayleigh_min": cert.rayleigh_min,
            }
        ]
    return {}, results, []


def _bracket_check(cells) -> dict:
    """g1's dual bracket on every gapped cell, the narrowest that the dual's
    search found, stays within its rounding bound
    (``hkregion._Dual.certify``); on an f1 = g1 cell it is exact."""
    gapped = [c.bracket for c in cells if not c.f1_eq_g1]
    worst = max((b.upper - b.value for b in gapped), default=0.0)
    return _check(
        "g1_dual_bracket_within_rounding",
        all(b.within_rounding for b in gapped),
        f"widest bracket {worst:.3e} over {len(gapped)} cells with f1 < g1",
    )


def cmd_hk_region(args) -> tuple[dict, list[dict], list[dict]]:
    from . import hkregion as hk

    params = hk.HKParams(u=args.u, N1=args.N1)
    cells = [hk.power_control_cell(q1, q2, params) for q1 in args.q1 for q2 in args.q2]
    results = [
        {
            "q1": c.q1,
            "q2": c.q2,
            "f1": c.f1,
            "g1": c.g1,
            "argmax_J": c.q1,
            "argmax_L": c.q2,
            "argmax_K": c.stationary_K,
            "f1_eq_g1": c.f1_eq_g1,
        }
        for c in cells
    ]
    checks = [
        _check(
            "envelope_majorizes",
            all(r["g1"] >= r["f1"] for r in results),
            "g1 >= f1 on every cell",
        ),
        _bracket_check(cells),
    ]
    return {}, results, checks


def cmd_lemma5_audit(args) -> tuple[dict, list[dict], list[dict]]:
    from . import hkregion as hk
    from ._util import rng_for

    params = hk.HKParams(u=args.u, N1=args.N1)
    rng = rng_for(args.seed, "lemma5-audit")
    report = hk.eigenvalue_bound_audit(1, params, args.samples, rng)
    results = [
        {
            "J": r.q1,
            "L": r.q2,
            "applicable": r.applicable,
            "K": r.max_eigenvalue,
            "case": r.case,
            "bound_holds": r.bound_holds,
        }
        for r in report.records
    ]
    checks = [
        _check(
            "bound_holds_on_applicable_cells",
            report.violations == 0,
            f"{report.applicable} applicable cells, {report.violations} violations "
            f"of K+N1 <= {report.bound:.6f}",
        )
    ]
    return {}, results, checks


def cmd_theorem4_audit(args) -> tuple[dict, list[dict], list[dict]]:
    from . import hkregion as hk
    from ._util import rng_for

    params = hk.HKParams(u=args.u, N1=args.N1)
    rng = rng_for(args.seed, "theorem4-audit")
    report = hk.eigenvalue_bound_audit(args.d, params, args.samples, rng)
    results = [
        {
            "q1": r.q1,
            "q2": r.q2,
            "applicable": r.applicable,
            "max_eigenvalue": r.max_eigenvalue,
            "bound_holds": r.bound_holds,
        }
        for r in report.records
    ]
    checks = [
        _check(
            "eigenvalue_bound_holds",
            report.violations == 0,
            f"{report.applicable} applicable cells, {report.violations} violations "
            f"of max eig <= {report.bound - params.N1:.6f}",
        )
    ]
    return {}, results, checks


def cmd_constant_power_gap(args) -> tuple[dict, list[dict], list[dict]]:
    from . import counterexamples as cx

    params = cx.ChannelParams(u=args.u, N1=args.N1, N2=args.N2)
    res = cx.constant_power_gap(params, A=args.A, n=args.n)
    results = [asdict(res)]
    checks = [
        _check(
            "witness_beats_gaussian",
            res.gap > 0,
            f"lower witness {res.lower_witness:.6f} vs gaussian {res.gaussian_value:.6f}",
        ),
        _check(
            "mixing_slack_within_budget",
            res.slack <= res.witness_gain / 2.0,
            f"slack {res.slack:.3e} <= c/2 = {res.witness_gain / 2:.3e}",
        ),
    ]
    return {"A": res.mixing_variance}, results, checks


def cmd_conjecture2_map(args) -> tuple[dict, list[dict], list[dict]]:
    from . import hkregion as hk

    cells = hk.power_control_map(args.u, args.q, hk.HKParams(u=1.0, N1=args.N1))
    keys = ("u", "q1", "q2", "f1", "g1", "f1_eq_g1", "stationary_K")
    results = [{k: getattr(c, k) for k in keys} for c in cells]
    bad = [
        c
        for c in cells
        if c.f1_eq_g1
        and c.q2 > 0  # q2=0 columns have no interferer budget to trade
        and not hk.variance_bound_holds(c.stationary_K, args.N1, c.u)
    ]
    checks = [
        _check(
            "equal_cells_respect_variance_bound",
            not bad,
            f"{len(bad)} equality cells violate K+N1 <= 1+sqrt(1+u)",
        ),
        _bracket_check(cells),
    ]
    return {}, results, checks


def cmd_geometry(args) -> tuple[dict, list[dict], list[dict]]:
    from . import geometry as geo

    results = [
        {
            "t": t,
            "ratio": geo.volume_ratio(t),
            "ratio_round_interferer": geo.volume_ratio(t, round_interferer=True),
            "ratio_gt_1": geo.area_gap(t) > 0.0,
        }
        for t in args.t
    ]
    coeff = geo.ratio_leading_coefficient()
    exact = geo.RATIO_COEFFICIENT_EXACT
    results.append({"fitted_inverse_t_coefficient": coeff, "exact_coefficient": exact})
    checks = [
        _check(
            "ratio_exceeds_1",
            all(r["ratio_gt_1"] for r in results[:-1] if r["t"] >= 20.0),
            "non-round interferer beats the Gaussian direction for t >= 20",
        ),
        _check(
            "round_control_bounded",
            all(geo.area_gap(t, round_interferer=True) <= 0.0 for t in args.t),
            "round interferer never exceeds 1 (Brunn-Minkowski direction)",
        ),
        _check(
            "leading_coefficient_matches",
            abs(coeff - exact) <= 0.01 * abs(exact),
            f"fit {coeff:.8f} vs exact {exact:.8f}",
        ),
    ]
    return {}, results, checks


def cmd_limit_functional(args) -> tuple[dict, list[dict], list[dict]]:
    from . import counterexamples as cx

    results = []
    checks = []
    for L in args.L:
        res = cx.fisher_limit_gain(L, J=args.J, n=args.n)
        beats = res.quadratic_coeff > 0
        results.append(
            {
                "L": L,
                "K": res.K,
                "eps0": res.eps0,
                "gaussian_value": res.gaussian_value,
                "gain_at_eps0": res.gains[0],
                "quadratic_coeff": res.quadratic_coeff,
                "perturbation_beats_gaussian": bool(beats),
            }
        )
        checks.append(_sign_check(f"gain_sign_L={L:g}", res.quadratic_coeff, res.closed_form))
    return {}, results, checks


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors exit 2 with one line, no usage block
    (subparsers inherit the class)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ziclab",
        description="Numerical experiments on Gaussian optimality for the "
        "scalar Z-interference channel.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--output", default="-", help="report path, or - for stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify-lemma1", help="entropy expansion coefficients vs quadrature")
    p.add_argument("--t-min", type=_checked(float, "entropy.check_smoothing_t"), default=1e-4)
    p.add_argument("--t-max", type=_checked(float, "entropy.check_smoothing_t"), default=1e-2)
    p.add_argument("--t-count", type=_checked(int, "entropy.check_expansion_count"), default=10)
    p.add_argument("--n", type=int, default=8192)
    p.add_argument("--c1-tol", type=parse_finite, default=0.02)
    p.add_argument("--c15-tol", type=parse_finite, default=0.05)
    common(p)
    p.set_defaults(handler=cmd_verify_lemma1)

    p = sub.add_parser("verify-lemma2", help="skewed-interferer gap vs Gaussian control")
    p.add_argument("--t-min", type=_checked(float, "counterexamples.check_gap_t"), default=1e-3)
    p.add_argument("--t-max", type=_checked(float, "counterexamples.check_gap_t"), default=1e-2)
    p.add_argument("--t-count", type=_checked(int, "counterexamples.check_gap_count"), default=6)
    p.add_argument("--N1", type=float, default=0.0)
    p.add_argument("--Sigma1", type=float, default=0.0)
    p.add_argument("--n", type=int, default=8192)
    common(p)
    p.set_defaults(handler=cmd_verify_lemma2)

    p = sub.add_parser("verify-vertical", help="density-perturbation gap and eps^2 slope")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.4)
    p.add_argument("--K", type=float, default=None, help="default: stationary (L+u)/(L-1)")
    p.add_argument("--J", type=int, default=2)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--n", type=int, default=8192)
    common(p)
    p.set_defaults(handler=cmd_verify_vertical)

    p = sub.add_parser("condition54-root", help="bisection root of the norm balance")
    p.add_argument("--u", type=parse_values, default=[1.0])
    p.add_argument("--tolerance", type=float, default=1e-8)
    common(p)
    p.set_defaults(handler=cmd_condition54_root)

    p = sub.add_parser("hessian", help="per-order Hessian ledger at a stationary point")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--L", type=float, default=3.0)
    p.add_argument("--A", default="1:1.0", help="order:coeff list, e.g. 1:1.0,2:0.5")
    p.add_argument("--B", default="", help="order:coeff list (order 1 must be absent)")
    common(p)
    p.set_defaults(handler=cmd_hessian)

    p = sub.add_parser("phase-diagram", help="stability classification over a (u, L) grid")
    p.add_argument("--u", type=parse_values, required=True)
    p.add_argument("--L", type=parse_values, required=True)
    common(p)
    p.set_defaults(handler=cmd_phase_diagram)

    p = sub.add_parser("theorem5-epsilon", help="local-optimality certificate radius")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--L", type=parse_values, default=[3.0], help="diagonal entries")
    common(p)
    p.set_defaults(handler=cmd_theorem5_epsilon)

    p = sub.add_parser("hk-region", help="fixed-power and power-control value tables")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--N1", type=float, default=0.0)
    p.add_argument("--q1", type=parse_values, required=True)
    p.add_argument("--q2", type=parse_values, required=True)
    common(p)
    p.set_defaults(handler=cmd_hk_region)

    p = sub.add_parser("lemma5-audit", help="maximizer-variance bound on random cells")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--N1", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=cmd_lemma5_audit)

    p = sub.add_parser("theorem4-audit", help="eigenvalue bound audit (d in {1,2})")
    p.add_argument("--d", type=int, choices=(1, 2), default=1)
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--N1", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=cmd_theorem4_audit)

    p = sub.add_parser("constant-power-gap", help="non-Gaussian witness vs Gaussian value")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--N1", type=float, default=1.0)
    p.add_argument("--N2", type=float, default=0.05)
    p.add_argument("--A", type=_checked(float, "counterexamples.check_mixing_variance"),
                   default=None, help="mixing variance (default: auto)")
    p.add_argument("--n", type=int, default=8192)
    common(p)
    p.set_defaults(handler=cmd_constant_power_gap)

    p = sub.add_parser("conjecture2-map", help="power-control footprint over (q1, q2)")
    p.add_argument("--u", type=parse_values, default=[1.0])
    p.add_argument("--q", type=parse_values, required=True)
    p.add_argument("--N1", type=float, default=0.0)
    common(p)
    p.set_defaults(handler=cmd_conjecture2_map)

    p = sub.add_parser("geometry", help="volume-ratio sweep with exact mixed areas")
    # a string default goes through parse_values only when geometry runs, so
    # the other commands do not import fractions
    p.add_argument("--t", type=parse_values, default="10:200:10")
    common(p)
    p.set_defaults(handler=cmd_geometry)

    p = sub.add_parser("limit-functional", help="Fisher limit functional perturbation gains")
    p.add_argument("--L", type=parse_values, default=[1.2, 1.6, 2.0])
    p.add_argument("--J", type=int, default=2)
    p.add_argument("--n", type=int, default=16384)
    common(p)
    p.set_defaults(handler=cmd_limit_functional)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if "numpy" not in sys.modules:
        # OpenBLAS starts one thread per core when numpy is imported, which
        # is a large share of a light command's start-up; the CLI's only
        # BLAS/LAPACK calls are 3x3 solves and least-squares fits of at most
        # 20x4, which one thread serves as well.  A user's own setting is
        # kept, and a process that already imported numpy is left alone.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad input, 0 after --help
        return exc.code
    try:
        derived, results, checks = args.handler(args)
    except ValueError as exc:  # every module's validation errors subclass it
        print(f"ziclab: {exc}", file=sys.stderr)
        return 2
    # the output path is environment, not experiment configuration; embedding
    # it would break byte-identical reports across destinations
    config = {k: v for k, v in vars(args).items() if k not in ("output", "handler")}
    config.update(derived)
    write_report(config, results, checks, args.output, args.format)
    if any(not c["passed"] for c in checks):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
