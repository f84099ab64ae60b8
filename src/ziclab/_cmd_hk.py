"""Handlers of the Han-Kobayashi commands ``hk-region``, ``lemma5-audit``,
``theorem4-audit`` and ``conjecture2-map``.  They compute on Python
floats with ``hkregion`` and load no numpy.  ``ziclab.cli`` describes
what a handler returns.
"""

from __future__ import annotations

from . import hkregion as hk


def _bracket_check(cells) -> tuple:
    """g1's dual bracket on every gapped cell, the narrowest that the dual's
    search found, stays within its rounding bound
    (``hkregion._Dual.certify``); on an f1 = g1 cell it is exact."""
    gapped = [c.bracket for c in cells if not c.f1_eq_g1]
    worst = max((b.upper - b.value for b in gapped), default=0.0)
    return (
        "g1_dual_bracket_within_rounding",
        all(b.within_rounding for b in gapped),
        f"widest bracket {worst:.3e} over {len(gapped)} cells with f1 < g1",
    )


def cmd_hk_region(args) -> tuple[dict, list[dict], list[tuple]]:
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
        (
            "envelope_majorizes",
            all(r["g1"] >= r["f1"] for r in results),
            "g1 >= f1 on every cell",
        ),
        _bracket_check(cells),
    ]
    return {}, results, checks


def cmd_lemma5_audit(args) -> tuple[dict, list[dict], list[tuple]]:
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
        (
            "bound_holds_on_applicable_cells",
            report.violations == 0,
            f"{report.applicable} applicable cells, {report.violations} violations "
            f"of K+N1 <= {report.bound:.6f}",
        )
    ]
    return {}, results, checks


def cmd_theorem4_audit(args) -> tuple[dict, list[dict], list[tuple]]:
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
        (
            "eigenvalue_bound_holds",
            report.violations == 0,
            f"{report.applicable} applicable cells, {report.violations} violations "
            f"of max eig <= {report.bound - params.N1:.6f}",
        )
    ]
    return {}, results, checks


def cmd_conjecture2_map(args) -> tuple[dict, list[dict], list[tuple]]:
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
        (
            "equal_cells_respect_variance_bound",
            not bad,
            f"{len(bad)} equality cells violate K+N1 <= 1+sqrt(1+u)",
        ),
        _bracket_check(cells),
    ]
    return {}, results, checks
