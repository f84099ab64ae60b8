"""Handlers of the scalar commands ``condition54-root``, ``hessian``,
``phase-diagram`` and ``theorem5-epsilon``, and of ``geometry``.  They
compute on Python floats and load no numpy; each imports its one compute
module when it runs.  ``ziclab.cli`` describes what a handler returns.
"""

from __future__ import annotations

import math


def cmd_condition54_root(args) -> tuple[dict, list[dict], list[tuple]]:
    from . import hessian as hs

    results = []
    checks = []
    for u in args.u:
        root = hs.stability_root(u, tol=args.tolerance)
        closed = hs.stability_threshold(u)
        results.append({"u": u, "root": root, "tolerance": args.tolerance})
        checks.append(
            (
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


def cmd_hessian(args) -> tuple[dict, list[dict], list[tuple]]:
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
        (
            "total_equals_ledger_sum",
            report.total == math.fsum(report.per_alpha_terms.values()),
            "ledger additivity",
        )
    ]
    return {"K": report.K}, results, checks


def cmd_phase_diagram(args) -> tuple[dict, list[dict], list[tuple]]:
    from . import hessian as hs

    cells = hs.phase_diagram(args.u, args.L)
    results = [c._asdict() for c in cells]
    thr_ok = all(hs.stability_threshold(u) > 1.0 for u in args.u)
    checks = [
        (
            "threshold_above_1",
            thr_ok,
            "stability threshold exceeds 1 for every u in the grid",
        )
    ]
    return {}, results, checks


def cmd_theorem5_epsilon(args) -> tuple[dict, list[dict], list[tuple]]:
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


def cmd_geometry(args) -> tuple[dict, list[dict], list[tuple]]:
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
        (
            "ratio_exceeds_1",
            all(r["ratio_gt_1"] for r in results[:-1] if r["t"] >= 20.0),
            "non-round interferer beats the Gaussian direction for t >= 20",
        ),
        (
            "round_control_bounded",
            all(geo.area_gap(t, round_interferer=True) <= 0.0 for t in args.t),
            "round interferer never exceeds 1 (Brunn-Minkowski direction)",
        ),
        (
            "leading_coefficient_matches",
            abs(coeff - exact) <= 0.01 * abs(exact),
            f"fit {coeff:.8f} vs exact {exact:.8f}",
        ),
    ]
    return {}, results, checks
