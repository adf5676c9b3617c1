"""Pseudospectral lab for the dissipatively perturbed Benjamin-Ono equation

    u_t + u u_x + beta*H u_xx + eta*(H u_x - u_xx) = 0

on a periodic domain: linear semigroup machinery, mild-solution solvers,
rough-data ill-posedness experiments, singular-limit sweeps, and the
moment/decay diagnostics behind unique continuation.
"""
from .core import (
    AliasingBudgetWarning,
    EquationParams,
    Grid,
    SpectralField,
    linear_symbol,
    nonlinear_term,
    random_real_field,
    semigroup_apply,
    semigroup_multiplier,
    symbol_p,
    symbol_q,
    x_derivative,
)
from .spaces import (
    BoundaryMassWarning,
    hs_inner,
    l2_norm,
    sobolev_norm,
    weighted_l2_norm,
)
from .solver import (
    NonContractionError,
    PicardError,
    QuadratureConvergenceError,
    SolverBlowupError,
    SolverConfig,
    Trajectory,
    contraction_time,
    duhamel_integral,
    solve_picard,
    solve_stepper,
)
from .flowderiv import (
    IllposedData,
    PicardTerm,
    build_illposed_datum,
    illposed_growth_c2_nd,
    illposed_growth_c3,
    kern,
    kern_diff,
    second_term,
    third_term,
)
from .limits import (
    LimitSweepConfig,
    beta_limit_sweep,
    calibrated_cs,
    eta_limit_sweep,
    existence_time_limit,
    kato_quadratic_form,
    rho_bound,
)
from .decay import (
    MomentTrace,
    decay_report,
    listo_functional,
    moment_trace,
    weighted_energy_rate,
    yacasi_identity_residual,
)
from .report import ExperimentReport, fit_loglog

__version__ = "0.1.0"
