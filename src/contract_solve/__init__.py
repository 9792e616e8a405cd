"""Solvers for optimal dynamic principal-agent contracts.

Full-information benchmark by Lagrange multiplier on closed-form integrals,
second-best value by a Howard iteration on the free-boundary HJB problem,
forward Monte Carlo cross-checks, and a CSV-emitting command line front end.
"""

__version__ = "0.1.0"

from .config import ConfigError, RunConfig, load
from .first_best import (
    BracketFailure,
    FirstBestSolution,
    TauStar,
    closed_form_G,
    continuation_boundary,
    principal_value_fb,
    schedules,
    solve_lagrange,
)
from .hjbvi import (
    Grid,
    NoConvergence,
    NonMonotoneScheme,
    SecondBestSolution,
    howard_solve,
    howard_solve_many,
    residual_check,
)
from .incentive import (
    effort_from_z,
    exposure_threshold,
    hamiltonian_psi,
    z_from_effort,
)
from .model import (
    DEFAULTS,
    MODEL_KEYS,
    InvalidParam,
    InvalidParams,
    ModelParams,
    default_params,
    ratio_inverse,
    validate,
)
from .report_cli import cli_dispatch, sigma_sweep, value_of_information, write_csv
from .simulate import (
    DeviationResult,
    IncentiveReport,
    InvalidStart,
    MCValue,
    PathBundle,
    PathTable,
    PolicyOutOfRange,
    SimConfig,
    in_stop_region,
    incentive_check,
    interpolate_policy,
    mc_principal_value,
    reconstruction_report,
    simulate_paths,
    summarize_paths,
)
