"""Numerical lab for Gaussian-optimality questions on the scalar
Z-interference channel.

Importing the package loads no submodule and no numpy.  Each public name
below, and each submodule named in the table, is imported from its module
on first access (PEP 562), so a ``ziclab`` command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "gaussmix": (
        "DerivTerm",
        "GaussDerivMixture",
        "GaussMixture",
        "gauss_deriv_pdf",
        "gauss_deriv_poly",
        "gaussian",
    ),
    "entropy": (
        "GridDensity",
        "NegativeDensityError",
        "NonNormalizedError",
        "differential_entropy",
        "fisher_information",
        "gaussian_entropy",
        "mixture_entropies",
        "mixture_entropy",
        "mixture_to_grid",
        "smoothing_curve",
    ),
    "counterexamples": (
        "ChannelParams",
        "NoGaussianMaxError",
        "RecipeRejectedError",
        "SkewRecipe",
        "VerticalPerturbation",
        "WitnessUnavailableError",
        "constant_power_gap",
        "default_recipe",
        "fisher_limit_gain",
        "interference_objective",
        "limit_functional",
        "select_epsilon",
        "skewness_gap",
        "vertical_gap",
    ),
    "hessian": (
        "HermiteCoeffVector",
        "HessianReport",
        "LocalOptimalityCertificate",
        "NotStationaryError",
        "capped_gauss_objective",
        "deriv_norm_balance",
        "hessian_quadratic_form",
        "local_optimality_radius",
        "phase_diagram",
        "stability_classify",
        "stability_root",
        "stability_threshold",
    ),
    "hkregion": (
        "HKParams",
        "NotApplicableError",
        "eigenvalue_bound_audit",
        "fixed_power_value",
        "maximizer_bound_check",
        "power_control_cell",
        "power_control_map",
        "power_control_value",
        "tangent_witness",
    ),
    "geometry": ("volume_ratio",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
