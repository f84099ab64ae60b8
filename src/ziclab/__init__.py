"""Numerical lab for Gaussian-optimality questions on the scalar
Z-interference channel."""

from .gaussmix import (
    DerivTerm,
    GaussDerivMixture,
    GaussMixture,
    gauss_deriv_pdf,
    gauss_deriv_poly,
    gaussian,
)
from .entropy import (
    GridDensity,
    NegativeDensityError,
    NonNormalizedError,
    differential_entropy,
    fisher_information,
    gaussian_entropy,
    grids_from_mixtures,
    mixture_entropies,
    mixture_entropy,
    mixture_to_grid,
    smoothing_curve,
)
from .counterexamples import (
    ChannelParams,
    NoGaussianMaxError,
    PowerViolationError,
    RecipeRejectedError,
    SkewRecipe,
    VerticalPerturbation,
    default_recipe,
    deriv_norm_balance,
    fisher_limit_gain,
    interference_objective,
    limit_functional,
    select_epsilon,
    skewness_gap,
    stability_root,
    vertical_gap,
)
from .hessian import (
    HermiteCoeffVector,
    HessianReport,
    LocalOptimalityCertificate,
    NotStationaryError,
    hessian_quadratic_form,
    local_optimality_radius,
    phase_diagram,
    stability_classify,
    stability_threshold,
)
from .hkregion import (
    GridTooSmallError,
    HKParams,
    NotApplicableError,
    WitnessUnavailableError,
    capped_gauss_objective,
    constant_power_gap,
    eigenvalue_bound_audit,
    fixed_power_value,
    maximizer_bound_check,
    power_control_cell,
    power_control_map,
    power_control_value,
    tangent_witness,
)
from .geometry import (
    ConvexBody2D,
    NonConvexInputError,
    RoundedBody,
    disc,
    minkowski_sum,
    polygon,
    square,
    volume_ratio,
)

__version__ = "0.1.0"
