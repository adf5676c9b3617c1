"""Singular-limit sweeps: dispersion beta -> 0 and dissipation eta -> 0.

Both limits compare full-equation runs against the limiting equation run
from the same data with the same stepper, and fit the log-log rate of the
sup-in-time error against the analytic prediction: linear in beta (mean
value bound on the dispersive multiplier), square-root-of-eta Cauchy rate
from the Gronwall energy estimate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import EquationParams, SpectralField, nonlinear_term, x_derivative
from .report import ExperimentReport, fit_loglog
from .solver import SolverConfig, solve_stepper
from .spaces import hs_inner, l2_norm, sobolev_norm


@dataclass(frozen=True)
class LimitSweepConfig:
    phi: SpectralField
    sweep_values: tuple
    base_params: EquationParams = EquationParams()
    s: float = 0.0
    T: float = 1.0
    solver: SolverConfig = None

    def __post_init__(self):
        vals = np.asarray(self.sweep_values, dtype=float)
        if vals.size < 4 or np.any(vals <= 0) or np.any(np.diff(vals) >= 0):
            raise ValueError("sweep_values must be >= 4 positive strictly decreasing entries")
        if self.solver is None:
            object.__setattr__(self, "solver", SolverConfig(dt=1e-3, T=self.T))


def _sup_diff(traj_a, traj_b, s: float) -> float:
    if traj_a.times.size != traj_b.times.size or np.max(
            np.abs(traj_a.times - traj_b.times)) > 1e-10:
        raise ValueError("trajectories sampled at different times")
    return max(sobolev_norm(a - b, s) for a, b in zip(traj_a.states, traj_b.states))


def beta_limit_sweep(cfg: LimitSweepConfig, tol: float = 0.15) -> ExperimentReport:
    """E(beta) = sup_t ||u^beta(t) - u^0(t)||_{H^s} against the linear-in-beta
    mean-value bound; the beta=0 reference is the non-dispersive equation."""
    report = ExperimentReport("beta_limit", ["value", "sup_error", "fitted_slope",
                                            "target_slope", "pass"])
    p0 = replace(cfg.base_params, beta=0.0)
    ref = solve_stepper(cfg.phi, p0, cfg.solver)
    errors = []
    for beta in cfg.sweep_values:
        traj = solve_stepper(cfg.phi, replace(cfg.base_params, beta=float(beta)),
                             cfg.solver)
        errors.append(_sup_diff(traj, ref, cfg.s))
    slope, _ = fit_loglog(np.asarray(cfg.sweep_values), np.asarray(errors))
    passed = abs(slope - 1.0) <= tol
    # monotone in beta with 5% solver-noise slack
    mono = all(errors[i + 1] <= errors[i] * 1.05 for i in range(len(errors) - 1))
    for beta, e in zip(cfg.sweep_values, errors):
        report.add_row(float(beta), e, slope, 1.0, passed)
    report.summary.update({"fitted_slope": slope, "target_slope": 1.0,
                           "monotone": mono, "passed": passed and mono})
    return report


def eta_limit_sweep(cfg: LimitSweepConfig, tol: float = 0.1) -> ExperimentReport:
    """Cauchy differences ||u^eta - u^{eta/2}||_{L^2} vs eta (Gronwall
    square-root target), plus D(eta) = sup_t ||u^eta - u^0||_{L^2} against
    the dispersive (eta=0) reference and the a-priori rho(t) envelope at
    s=2."""
    report = ExperimentReport("eta_limit", ["value", "sup_error", "cauchy_diff",
                                           "fitted_slope", "target_slope", "pass"])
    p0 = replace(cfg.base_params, eta=0.0)
    ref = solve_stepper(cfg.phi, p0, cfg.solver)

    trajs = {}
    for eta in list(cfg.sweep_values) + [cfg.sweep_values[-1] / 2.0]:
        trajs[eta] = solve_stepper(cfg.phi, replace(cfg.base_params, eta=float(eta)),
                                   cfg.solver)
    sup_errors = [_sup_diff(trajs[eta], ref, 0.0) for eta in cfg.sweep_values]
    cauchy = []
    for eta in cfg.sweep_values:
        half = eta / 2.0
        if half not in trajs:
            trajs[half] = solve_stepper(cfg.phi, replace(cfg.base_params, eta=half),
                                        cfg.solver)
        cauchy.append(_sup_diff(trajs[eta], trajs[half], 0.0))

    vals = np.asarray(cfg.sweep_values, dtype=float)
    slope, _ = fit_loglog(vals, np.asarray(cauchy))
    slope_sup, _ = fit_loglog(vals, np.asarray(sup_errors))
    passed = abs(slope - 0.5) <= tol

    # a-priori H^2 envelope: every run stays under rho(t)
    phi_norm = sobolev_norm(cfg.phi, 2.0)
    C_s = calibrated_cs(cfg.phi.grid, s=2.0)
    t_blow = existence_time_limit(phi_norm, C_s)
    envelope_ok = True
    for traj in trajs.values():
        for t, u in zip(traj.times, traj.states):
            if t >= 0.999 * t_blow:
                continue
            if sobolev_norm(u, 2.0) > rho_bound(t, phi_norm, C_s) + 1e-9:
                envelope_ok = False
    for eta, e, c in zip(cfg.sweep_values, sup_errors, cauchy):
        report.add_row(float(eta), e, c, slope, 0.5, passed)
    report.summary.update({
        "fitted_slope": slope,
        "fitted_slope_sup_vs_ref": slope_sup,
        "target_slope": 0.5,
        "rho_envelope_ok": envelope_ok,
        "C_s": C_s,
        "passed": passed and envelope_ok,
    })
    return report


# ---------------------------------------------------------------------------
# a-priori bound machinery
# ---------------------------------------------------------------------------

def existence_time_limit(phi_norm: float, C_s: float) -> float:
    """T'_s = (2/C_s) ln((1 + ||phi||)/||phi||): blow-up time of rho."""
    if phi_norm <= 0 or C_s <= 0:
        raise ValueError("positive norm and constant required")
    return (2.0 / C_s) * np.log((1.0 + phi_norm) / phi_norm)


def rho_bound(t: float, phi_norm: float, C_s: float) -> float:
    """rho(t) = e^{C_s t/2} ||phi|| / (1 + ||phi|| - e^{C_s t/2} ||phi||),
    the eta-independent a-priori H^s envelope; valid for t < T'_s."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t >= existence_time_limit(phi_norm, C_s):
        raise ValueError(f"t={t} at or beyond the envelope blow-up time")
    e = np.exp(0.5 * C_s * t) * phi_norm
    return float(e / (1.0 + phi_norm - e))


def kato_quadratic_form(u: SpectralField, s: float) -> float:
    """Ratio |(u, u u_x)_s| / (||u_x||_{H^{s-1}} ||u||_{H^s}^2) of the
    commutator-type trilinear estimate; bounded over smooth fields, and
    its calibrated maximum fixes C_s for the rho envelope."""
    if s <= 1.5:
        raise ValueError(f"estimate regime is s > 3/2, got s={s}")
    norm = sobolev_norm(u, s)
    if norm == 0:
        raise ValueError("zero field: ratio undefined")
    form = abs(hs_inner(u, nonlinear_term(u), s))
    denom = sobolev_norm(x_derivative(u), s - 1.0) * norm * norm
    return form / denom


def calibrated_cs(grid, s: float = 2.0, n_samples: int = 50, seed: int = 7,
                  safety: float = 2.0) -> float:
    """Empirical C_s: max of kato_quadratic_form over seeded random smooth
    fields, times a safety factor."""
    from .core import random_real_field

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_samples):
        u = random_real_field(grid, rng, spectral_decay=s + 1.5)
        best = max(best, kato_quadratic_form(u, s))
    return safety * best
