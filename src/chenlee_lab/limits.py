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

from .core import EquationParams, SpectralField, nonlinear_term, x_derivative_stack
from .report import ExperimentReport, fit_loglog
from .solver import SolverConfig, stepper_blocks
from .spaces import hs_inner, sobolev_norm, sobolev_norm_stack

# a sweep passes where its fitted rate is within this of the target slope
SLOPE_TOLERANCE = 0.15


def check_sweep_values(values):
    """A sweep's beta or eta values are >= 4, positive, decreasing toward 0."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 4 or np.any(vals <= 0) or np.any(np.diff(vals) >= 0):
        raise ValueError(f"values must be >= 4, positive, strictly decreasing: {vals.tolist()}")


@dataclass(frozen=True)
class LimitSweepConfig:
    phi: SpectralField
    sweep_values: tuple
    solver: SolverConfig
    base_params: EquationParams = EquationParams()
    s: float = 0.0

    def __post_init__(self):
        check_sweep_values(self.sweep_values)


def _sup_diffs(cfg: LimitSweepConfig, members, pairs, each_block=None) -> list:
    """sup_t ||u_a(t) - u_b(t)||_{H^s}, s = cfg.s, for each member index pair
    (a, b) of `pairs`, the `members` parameter sets stepped from cfg.phi as
    one stack: running maxima over the per-row norms of each block of its
    `stepper_blocks` stream, so the stack's run is never held whole.
    `each_block(times, block)` sees every block too."""
    sups = [0.0] * len(pairs)
    for times, block in stepper_blocks(cfg.phi, members, cfg.solver):
        for i, (a, b) in enumerate(pairs):
            norms = sobolev_norm_stack(cfg.phi.grid, block[a] - block[b], cfg.s)
            sups[i] = max(sups[i], float(norms.max()))
        if each_block is not None:
            each_block(times, block)
    return sups


def beta_limit_sweep(cfg: LimitSweepConfig) -> ExperimentReport:
    """E(beta) = sup_t ||u^beta(t) - u^0(t)||_{H^s} against the linear-in-beta
    mean-value bound; the beta=0 reference is the non-dispersive equation."""
    report = ExperimentReport("beta_limit", ["value", "sup_error", "fitted_slope",
                                            "target_slope", "pass"])
    betas = [0.0] + [float(beta) for beta in cfg.sweep_values]
    errors = _sup_diffs(cfg, [replace(cfg.base_params, beta=beta) for beta in betas],
                        [(i, 0) for i in range(1, len(betas))])
    slope, _ = fit_loglog(np.asarray(cfg.sweep_values), np.asarray(errors))
    passed = abs(slope - 1.0) <= SLOPE_TOLERANCE
    # monotone in beta with 5% solver-noise slack
    mono = all(errors[i + 1] <= errors[i] * 1.05 for i in range(len(errors) - 1))
    for beta, e in zip(cfg.sweep_values, errors):
        report.add_row(float(beta), e, slope, 1.0, passed)
    report.summary.update({"fitted_slope": slope, "target_slope": 1.0,
                           "monotone": mono, "passed": passed and mono})
    return report


def eta_limit_sweep(cfg: LimitSweepConfig) -> ExperimentReport:
    """Cauchy differences ||u^eta - u^{eta/2}||_{H^s} vs eta (Gronwall
    square-root target), plus D(eta) = sup_t ||u^eta - u^0||_{H^s} against
    the dispersive (eta=0) reference, s = cfg.s, and the a-priori rho(t)
    envelope at s=2."""
    report = ExperimentReport("eta_limit", ["value", "sup_error", "cauchy_diff",
                                           "fitted_slope", "target_slope", "pass"])
    # the eta = 0 reference, member 0, plus every distinct eta of values and values/2
    etas = list(dict.fromkeys(float(eta) for v in cfg.sweep_values for eta in (v, v / 2.0)))
    member = {eta: i for i, eta in enumerate(etas, 1)}
    times, h2 = [], []  # every run's H^2 norms but the reference's, for the envelope

    def keep_h2(block_times, block):
        times.extend(block_times)
        h2.append(sobolev_norm_stack(cfg.phi.grid, block[1:], 2.0))

    sups = _sup_diffs(cfg, [replace(cfg.base_params, eta=eta) for eta in [0.0] + etas],
                      [(member[eta], 0) for eta in cfg.sweep_values]
                      + [(member[eta], member[eta / 2.0]) for eta in cfg.sweep_values],
                      keep_h2)
    sup_errors, cauchy = sups[:len(cfg.sweep_values)], sups[len(cfg.sweep_values):]

    vals = np.asarray(cfg.sweep_values, dtype=float)
    slope, _ = fit_loglog(vals, np.asarray(cauchy))
    slope_sup, _ = fit_loglog(vals, np.asarray(sup_errors))
    passed = abs(slope - 0.5) <= SLOPE_TOLERANCE

    # a-priori H^2 envelope: every run stays under rho(t)
    phi_norm = sobolev_norm(cfg.phi, 2.0)
    C_s = calibrated_cs(cfg.phi.grid, s=2.0)
    t_blow = existence_time_limit(phi_norm, C_s)
    kept_times = np.array(times)
    inside = kept_times < 0.999 * t_blow
    bound = np.array([rho_bound(t, phi_norm, C_s) for t in kept_times[inside]]) + 1e-9
    envelope_ok = not (np.concatenate(h2, axis=1)[:, inside] > bound).any()
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
    u_x = SpectralField(u.grid, x_derivative_stack(u.grid, u.coeffs), check=False)
    denom = sobolev_norm(u_x, s - 1.0) * norm * norm
    return form / denom


def calibrated_cs(grid, s: float = 2.0) -> float:
    """Empirical C_s: twice the max of kato_quadratic_form over 50 random
    smooth fields drawn with seed 7."""
    from .core import random_real_field

    rng = np.random.default_rng(7)
    probes = (random_real_field(grid, rng, spectral_decay=s + 1.5) for _ in range(50))
    return 2.0 * max(kato_quadratic_form(u, s) for u in probes)
