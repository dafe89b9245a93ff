"""Radial solver and verification suite for a critical elliptic equation
with a logarithmic perturbation on balls.

Layered bottom-up: grid (discretization and spectral oracles), energy
(functional and its gradient), regions (admissible parameter geometry),
bubbles (concentration profiles), inequalities (scalar certificates),
solvers (two-level pipeline), cli (batch front end).
"""

from .bubbles import (
    BubbleSpec,
    bubble_value,
    expected_lp_exponent,
    fit_gap_exponent,
    fit_loglog,
    fit_norm_exponent,
    log_corrected,
    truncated_bubble,
)
from .energy import (
    FiberProfile,
    ProblemParams,
    energy_terms,
    energy_value,
    g_profile,
    gradient_field,
    safe_xlog,
    source_derivative,
    source_term,
)
from .grid import (
    RadialGrid,
    ball_volume,
    bessel_lambda1,
    best_sobolev_constant,
    build_grid,
    load_grid_function,
    principal_eigenpair,
    save_grid_function,
    sphere_area,
)
from .inequalities import (
    BoxSpec,
    check_corollary,
    f1_term,
    f_term,
    find_A1,
    find_A3,
    find_f_constants,
    g_term,
    pointwise_log_bound_margin,
)
from .regions import (
    exponential_display,
    interval_display,
    kappa,
    region_membership,
)
from .solvers import (
    ConcentrationStallError,
    PathCollapseError,
    UsableRegionError,
    find_ball_minimizer,
    mountain_pass,
    select_endpoint,
    solve_problem,
    verify_two_level_structure,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSpec",
    "BubbleSpec",
    "ConcentrationStallError",
    "FiberProfile",
    "PathCollapseError",
    "ProblemParams",
    "RadialGrid",
    "UsableRegionError",
    "ball_volume",
    "bessel_lambda1",
    "best_sobolev_constant",
    "bubble_value",
    "build_grid",
    "check_corollary",
    "energy_terms",
    "energy_value",
    "expected_lp_exponent",
    "exponential_display",
    "f1_term",
    "f_term",
    "find_A1",
    "find_A3",
    "find_ball_minimizer",
    "find_f_constants",
    "fit_gap_exponent",
    "fit_loglog",
    "fit_norm_exponent",
    "g_profile",
    "g_term",
    "gradient_field",
    "interval_display",
    "kappa",
    "load_grid_function",
    "log_corrected",
    "mountain_pass",
    "pointwise_log_bound_margin",
    "principal_eigenpair",
    "region_membership",
    "safe_xlog",
    "save_grid_function",
    "select_endpoint",
    "solve_problem",
    "source_derivative",
    "source_term",
    "sphere_area",
    "truncated_bubble",
    "verify_two_level_structure",
]
