"""Numerical toolkit for mean-field coarsening dynamics.

Survival-function profiles with exact singular quadrature, the beta
contraction-rate transform and its Jensen-inequality certificates, a
discrete map iteration, a characteristic-ensemble solver with Picard
resolution of the nonlocal parameter, stationary self-similar profiles, and
an exactly solvable affine-velocity comparison model.
"""
from .errors import (
    LswkitError,
    NonIntegrableTailError,
    DegenerateProfileError,
    UnsupportedOperationError,
    DegenerateImageError,
    ExtinctionError,
    ConfigError,
)
from .profiles import (
    SurvivalProfile,
    TailModel,
    BetaProfile,
    RegularVariationEstimate,
    beta_from_profile,
    beta_envelope,
    regular_variation_exponent,
)
from .families import (
    AnalyticFamily,
    quantile_grid,
    constant_beta,
    exponential,
    indicator,
    oscillating_exponential,
    oscillating_compact,
    power_tail,
    make_family,
)
from .jensen import (
    JensenCertificate,
    BoundReport,
    expectation,
    truncated_mean,
    conditional_mean,
    reverse_jensen,
    sharp_jensen,
    tail_and_conditional_bounds,
    quantitative_jensen_gap,
)
from .map_iteration import (
    MapF,
    linear_map,
    cube_root_map,
    apply_map,
    beta_transform,
    normalize,
    IterationHistory,
    iterate,
)
from .self_similar import (
    SelfSimilarProfile,
    GAlphaProfile,
    f_alpha,
    f_alpha_roots,
    build_profile,
    g_alpha_profile,
    beta_star,
    seed_solver,
)
from .lsw_solver import (
    SolverConfig,
    Ensemble,
    make_ensemble,
    advance_global,
    CoarseningTrace,
    RunResult,
    Snapshot,
    coarsening_identity_check,
    mass_drift,
    beta_along_flow,
    g_profile,
    normalized_view,
    dyadic_intervals,
    dyadic_report,
)
from .linear_model import (
    LinearModelConfig,
    LinearRunResult,
    run_linear_model,
    stability_check,
    affine_exactness_check,
)

__version__ = "0.1.0"

__all__ = [
    "LswkitError", "NonIntegrableTailError", "DegenerateProfileError",
    "UnsupportedOperationError", "DegenerateImageError", "ExtinctionError",
    "ConfigError",
    "SurvivalProfile", "TailModel", "BetaProfile", "RegularVariationEstimate",
    "beta_from_profile", "beta_envelope", "regular_variation_exponent",
    "AnalyticFamily", "quantile_grid", "constant_beta", "exponential",
    "indicator", "oscillating_exponential", "oscillating_compact",
    "power_tail", "make_family",
    "JensenCertificate", "BoundReport", "expectation", "truncated_mean",
    "conditional_mean", "reverse_jensen", "sharp_jensen",
    "tail_and_conditional_bounds", "quantitative_jensen_gap",
    "MapF", "linear_map", "cube_root_map", "apply_map", "beta_transform",
    "normalize", "IterationHistory", "iterate",
    "SelfSimilarProfile", "GAlphaProfile", "f_alpha", "f_alpha_roots",
    "build_profile", "g_alpha_profile", "beta_star", "seed_solver",
    "SolverConfig", "Ensemble", "make_ensemble", "advance_global",
    "CoarseningTrace", "RunResult", "Snapshot", "coarsening_identity_check", "mass_drift",
    "beta_along_flow", "g_profile", "normalized_view", "dyadic_intervals",
    "dyadic_report",
    "LinearModelConfig", "LinearRunResult", "run_linear_model",
    "stability_check", "affine_exactness_check",
]
