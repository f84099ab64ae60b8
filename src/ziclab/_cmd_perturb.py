"""Handlers of the perturbation commands ``verify-lemma1``,
``verify-lemma2``, ``verify-vertical``, ``limit-functional`` and
``constant-power-gap``, which tabulate laws with numpy through
``counterexamples``.  ``ziclab.cli`` describes what a handler returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .counterexamples import SkewRecipe


def _sign_check(name: str, coeff: float, closed: float) -> tuple:
    """The eps^2 commands' one sign rule: the extrapolated coefficient has
    the sign of its closed form at the delta it ran.  The eps ladder's
    checks have made the closed form move the objective by at least its
    rounding floor, so closed is nonzero."""
    passed = coeff > 0 if closed > 0 else coeff < 0
    return name, passed, f"quadratic_coeff {coeff:+.3e}, closed form {closed:+.3e}"


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


def cmd_verify_lemma1(args) -> tuple[dict, list[dict], list[tuple]]:
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
        (
            "c1_matches_quadrature",
            abs(c1 - c1_target) <= args.c1_tol * abs(c1_target),
            f"fitted {c1:.8f} vs quadrature {c1_target:.8f} (rel tol {args.c1_tol})",
        ),
        (
            "c15_matches_quadrature",
            abs(c15 - c15_target) <= args.c15_tol * abs(c15_target),
            f"fitted {c15:.8f} vs quadrature {c15_target:.8f} (rel tol {args.c15_tol})",
        ),
        (
            "residual_slope_near_2",
            abs(slope - 2.0) <= 0.25,
            f"log-log residual slope {slope:.3f}",
        ),
    ]
    return _recipe_config(recipe), results, checks


def cmd_verify_lemma2(args) -> tuple[dict, list[dict], list[tuple]]:
    import numpy as np

    from . import counterexamples as cx

    recipe = cx.default_recipe()
    info = recipe.validate()
    t_grid = _fit_t_grid(args, cx.GAP_POWERS)
    rows = cx.skewness_gap(t_grid, recipe, N1=args.N1, Sigma1=args.Sigma1, n=args.n)
    coeff = cx.gap_coefficient(rows)
    target = info["gap_coefficient"]
    results = [
        {"t": float(t), "gap": float(g), "gaussian_control_gap": float(c)} for t, g, c in rows
    ]
    results.append({"fitted_t32_coefficient": coeff, "quadrature_coefficient": target})
    smallest_two = rows[:2, 1]
    control = rows[:, 2]
    checks = [
        (
            "gap_positive_at_smallest_t",
            bool(np.all(smallest_two > 1e-6)),
            f"gaps at two smallest t: {smallest_two.tolist()}",
        ),
        (
            "gaussian_control_nonpositive",
            bool(np.all(control <= 1e-6)),
            f"max control gap {control.max():.3e}",
        ),
        (
            "t32_coefficient_matches",
            abs(coeff - target) <= 0.05 * abs(target),
            f"fitted {coeff:.6f} vs quadrature {target:.6f}",
        ),
    ]
    return {**_recipe_config(recipe), **info}, results, checks


def cmd_verify_vertical(args) -> tuple[dict, list[dict], list[tuple]]:
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


def cmd_constant_power_gap(args) -> tuple[dict, list[dict], list[tuple]]:
    from . import counterexamples as cx

    params = cx.ChannelParams(u=args.u, N1=args.N1, N2=args.N2)
    res = cx.constant_power_gap(params, A=args.A, n=args.n)
    results = [res._asdict()]
    checks = [
        (
            "witness_beats_gaussian",
            res.gap > 0,
            f"lower witness {res.lower_witness:.6f} vs gaussian {res.gaussian_value:.6f}",
        ),
        (
            "mixing_slack_within_budget",
            res.slack <= res.witness_gain / 2.0,
            f"slack {res.slack:.3e} <= c/2 = {res.witness_gain / 2:.3e}",
        ),
    ]
    return {"A": res.mixing_variance}, results, checks


def cmd_limit_functional(args) -> tuple[dict, list[dict], list[tuple]]:
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
