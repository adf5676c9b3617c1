"""Experiment orchestration CLI.

    chenlee-lab <experiment> --config FILE [--quick] [--out DIR]

Writes CSV reports plus a run manifest into the output directory, prints
one PASS/FAIL line per experiment, and exits 0 on pass, 1 on experiment
failure, 2 on usage/config errors, 3 on numerical failure.  Each
verdict's pass band is a constant of the module that judges with it
(below; `limits.SLOPE_TOLERANCE`, `flowderiv.SLOPE_TOLERANCE`), not a key.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .calibration import C_CONTRACTION
from .config import (
    EXPERIMENTS,
    ConfigError,
    RunConfig,
    build_initial_data,
    config_echo,
    parse_config,
    validate,
)
from .core import LOG_FLOAT_MAX, SpectralField, semigroup_apply
from .decay import decay_report, mass_drift
from .flowderiv import illposed_growth_c2_nd, illposed_growth_c3
from .limits import LimitSweepConfig, beta_limit_sweep, eta_limit_sweep
from .report import ExperimentReport, FitError, fit_loglog
from .solver import (
    CflError,
    PicardError,
    SolverBlowupError,
    contraction_time,
    solve_picard,
    stepper_blocks,
)
from .spaces import l2_norm, sobolev_norm, sobolev_norm_stack

NUMERICAL_ERRORS = (SolverBlowupError, PicardError)

# verdict thresholds: mass drift (solve, decay), the Yacasi and weighted-energy
# residuals (decay), the largest Picard ratio, the Picard residual and the
# Picard-vs-stepper agreement (contraction), and smoothing's slope, relative to -lambda/2
MASS_TOLERANCE, YACASI_TOLERANCE, ENERGY_RESIDUAL_TOLERANCE = 1e-10, 1e-8, 1e-5
CONTRACTION_RATIO_MAX, CONTRACTION_RESIDUAL_MAX, AGREEMENT_TOLERANCE = 0.75, 1e-10, 1e-6
SMOOTHING_TOLERANCE = 0.10


def _apply_quick(cfg: RunConfig) -> RunConfig:
    """A copy of `cfg` scaled down ~4x for CI (`cfg` is left as it is): the
    grid shrinks to a quarter but not below M = 256 (a smaller grid keeps its
    size), except for smoothing, whose t -> 0 asymptotics need the full band,
    and decay, whose Yacasi residual needs M = 1024 (2e-5 at 256, tol 1e-8).
    The shortened T keeps a whole number of steps (see `_whole_step`)."""
    M = cfg.grid_M
    if cfg.experiment not in ("smoothing", "decay"):
        M = min(M, max(256, M // 4))
    T = max(cfg.solver_T / 4.0, 10.0 * cfg.solver_dt)
    return replace(cfg, grid_M=M, solver_T=T, solver_dt=_whole_step(T, cfg.solver_dt),
                   illposed_N=tuple(cfg.illposed_N[:4]))


def _whole_step(T: float, dt: float) -> float:
    """T / round(T / dt), the step nearest dt that divides T, where T / dt
    is a step count that `SolverConfig` holds; else dt, which it refuses."""
    steps = T / dt if dt > 0 else 0.0
    return T / round(steps) if 1 <= steps <= sys.maxsize else dt


# ---------------------------------------------------------------------------
# experiments (each returns a list of ExperimentReport)
# ---------------------------------------------------------------------------

def _run_solve(cfg: RunConfig):
    """The run's norms and zero mode, reduced from each block of its
    `stepper_blocks` stream as it comes: the run is never held whole.
    `hs` is the H^s norm at s = `sweep.s`; at its default 0 it is the `l2`
    column itself, not the same norm taken twice."""
    phi = build_initial_data(cfg)
    rep = ExperimentReport("trajectory",
                           ["t", "l2", "hs", "re_uhat0", "im_uhat0"])
    mass = []
    for times, (block,) in stepper_blocks(phi, [cfg.equation_params()], cfg.solver_config()):
        l2 = sobolev_norm_stack(phi.grid, block, 0.0)
        hs = sobolev_norm_stack(phi.grid, block, cfg.sweep_s) if cfg.sweep_s else l2
        mass.extend(block[:, 0])
        for row in zip(times, l2, hs, block[:, 0].real, block[:, 0].imag):
            rep.add_row(*row)
    drift = mass_drift(mass)
    rep.summary.update({
        "mass_drift": drift,
        "mass_tolerance": MASS_TOLERANCE,
        "passed": drift <= MASS_TOLERANCE,
    })
    return [rep]


def _run_smoothing(cfg: RunConfig):
    """Gain of lambda derivatives of the semigroup from band-limited rough
    data: ||S(t)phi||_{H^lambda} ~ t^{-lambda/2} as t -> 0+."""
    # the experiment defines its own datum: band-limited with |phi_hat|
    # proportional to |xi|^{-1/2}, whatever data.kind says
    phi = build_initial_data(replace(cfg, data_kind="rough-band"))
    params = cfg.equation_params()
    if params.eta * cfg.smoothing_t_max / 4.0 > LOG_FLOAT_MAX:
        raise ConfigError(
            f"smoothing.t_max = {cfg.smoothing_t_max}: S(t) grows like e^(eta t/4) on "
            f"the instability band, which overflows past t = "
            f"{4.0 * LOG_FLOAT_MAX / params.eta:.4g}; lower smoothing.t_max or eq.eta")
    ts = np.geomspace(cfg.smoothing_t_min, cfg.smoothing_t_max, 9)
    rep = ExperimentReport("smoothing",
                           ["lambda", "fitted_slope", "target_slope", "pass"])
    ok_all = True
    for lam in cfg.smoothing_lambdas:
        norms = [sobolev_norm(semigroup_apply(phi, t, params), lam) for t in ts]
        slope, _ = fit_loglog(ts, norms)
        target = -lam / 2.0
        ok = abs(slope - target) <= SMOOTHING_TOLERANCE * abs(target)
        ok_all = ok_all and ok
        rep.add_row(lam, slope, target, ok)
        rep.summary[f"slope_lambda_{lam:g}"] = slope
    rep.summary["passed"] = ok_all
    return [rep]


def _run_contraction(cfg: RunConfig):
    """Picard's final state against the stepper's, whose stream is read
    for its last kept state alone."""
    phi = build_initial_data(cfg)
    params = cfg.equation_params()
    T = min(contraction_time(l2_norm(phi), 0.0, C_CONTRACTION), cfg.solver_T)
    try:
        scfg = replace(cfg.solver_config(), T=T, dt=_whole_step(T, cfg.solver_dt))
    except ValueError as exc:  # T underflows to 0, or is shorter than dt
        raise ConfigError(f"the datum's contraction horizon T = {T:.3g} is refused ({exc}); "
                          f"lower data.amplitude or grid.L, or solver.dt where T > 0") from None
    traj_p = solve_picard(phi, params, scfg, s=0.0)
    for _, (block,) in stepper_blocks(phi, [params], scfg):
        last = block[-1]
    agreement = l2_norm(traj_p.final_state() - SpectralField(phi.grid, last, check=False))
    ratios = traj_p.info["ratios"]
    worst = max(ratios) if ratios else 0.0
    rep = ExperimentReport("contraction",
                           ["T", "iterations", "max_ratio", "residual", "agreement"])
    rep.add_row(T, len(traj_p.info["diffs"]), worst, traj_p.info["residual"],
                agreement)
    rep.summary.update({
        "passed": (worst <= CONTRACTION_RATIO_MAX
                   and traj_p.info["residual"] <= CONTRACTION_RESIDUAL_MAX
                   and agreement <= AGREEMENT_TOLERANCE),
    })
    return [rep]


def _run_illposed_c3(cfg: RunConfig):
    return [illposed_growth_c3(cfg.illposed_s, cfg.illposed_epsilon, cfg.illposed_N,
                               cfg.equation_params())]


def _run_illposed_c2nd(cfg: RunConfig):
    return [illposed_growth_c2_nd(cfg.illposed_s, cfg.illposed_epsilon, cfg.illposed_N,
                                  cfg.eq_eta)]


def _limit_cfg(cfg: RunConfig, defaults):
    values = cfg.sweep_values or defaults
    return LimitSweepConfig(phi=build_initial_data(cfg), sweep_values=values,
                            base_params=cfg.equation_params(), s=cfg.sweep_s,
                            solver=cfg.solver_config())


def _run_beta_limit(cfg: RunConfig):
    return [beta_limit_sweep(_limit_cfg(cfg, (0.4, 0.2, 0.1, 0.05)))]


def _run_eta_limit(cfg: RunConfig):
    return [eta_limit_sweep(_limit_cfg(cfg, (0.2, 0.1, 0.05, 0.025)))]


def _run_decay(cfg: RunConfig):
    """Both decay tables, reduced in one pass over the run's
    `stepper_blocks` stream as it comes: the run is never held whole."""
    phi, params = build_initial_data(cfg), cfg.equation_params()
    blocks = stepper_blocks(phi, [params], cfg.solver_config())
    rep, energy = decay_report(phi.grid, params, ((t, b) for t, (b,) in blocks))
    ok = (rep.summary["mass_drift"] <= MASS_TOLERANCE
          and rep.summary["yacasi_residual"] <= YACASI_TOLERANCE
          and energy.summary["max_residual"] <= ENERGY_RESIDUAL_TOLERANCE)
    rep.summary["passed"] = ok
    energy.summary["passed"] = ok
    return [rep, energy]


_RUNNERS = {
    "solve": _run_solve,
    "smoothing": _run_smoothing,
    "contraction": _run_contraction,
    "illposed-c3": _run_illposed_c3,
    "illposed-c2nd": _run_illposed_c2nd,
    "beta-limit": _run_beta_limit,
    "eta-limit": _run_eta_limit,
    "decay": _run_decay,
}


def run_experiment(cfg: RunConfig, out_dir: str, quick: bool = False) -> int:
    """Execute one experiment; write CSVs + manifest; return the exit code."""
    start = time.time()
    try:
        if quick:
            cfg = _apply_quick(cfg)
        validate(cfg)  # again: on the --quick grid, and with the experiment run
        reports = _RUNNERS[cfg.experiment](cfg)
    except (CflError, ConfigError) as exc:  # found by validate, or as the run builds or steps
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (*NUMERICAL_ERRORS, FitError) as exc:
        os.makedirs(out_dir, exist_ok=True)
        record = {"experiment": cfg.experiment, "error": type(exc).__name__,
                  "message": str(exc)}
        if isinstance(exc, SolverBlowupError):
            record["t_blowup"] = exc.t_blowup
        with open(os.path.join(out_dir, "error.json"), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        if isinstance(exc, FitError):  # the run ran; its norms give no verdict
            print(f"[FAIL] {cfg.experiment}: {exc}")
            return 1
        print(f"[FAIL] {cfg.experiment}: numerical failure: {exc}", file=sys.stderr)
        return 3
    os.makedirs(out_dir, exist_ok=True)
    passed = all(r.passed for r in reports)
    for rep in reports:
        rep.write_csv(os.path.join(out_dir, f"{rep.name}.csv"))
    manifest = {
        "tool": "chenlee-lab",
        "version": __version__,
        "experiment": cfg.experiment,
        "quick": quick,
        "config": config_echo(cfg),
        "wall_time_s": round(time.time() - start, 3),
        "reports": [f"{r.name}.csv" for r in reports],
        "passed": passed,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    detail = "; ".join(f"{r.name}: " + ", ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in ([kv for kv in sorted(r.summary.items()) if kv[0] != "passed"]
                     or [kv for row in r.rows for kv in zip(r.columns, row)]))
        for r in reports) or "ok"
    print(f"[{'PASS' if passed else 'FAIL'}] {cfg.experiment}: {detail}")
    return 0 if passed else 1


def build_parser():
    d = RunConfig()
    parser = argparse.ArgumentParser(
        prog="chenlee-lab",
        description=(
            "Numerical experiments for a dissipatively perturbed Benjamin-Ono "
            "equation: solver runs, semigroup smoothing, contraction checks, "
            "rough-data norm inflation, singular limits, and decay diagnostics. "
            "Config file format: one 'key = value' per line, '#' comments; "
            f"defaults are grid.L={d.grid_L / np.pi:g}*pi, grid.M={d.grid_M}, "
            f"eq.beta={d.eq_beta:g}, eq.eta={d.eq_eta:g}, solver.dt={d.solver_dt:g}, "
            f"solver.T={d.solver_T:g}, data.kind={d.data_kind}, seed={d.seed}."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", metavar="FILE",
                        help="config file (defaults apply when omitted)")
    parser.add_argument("--quick", action="store_true",
                        help="scale the experiment down ~4x for CI")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.config:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
            cfg = parse_config(text)
            if ("experiment" in getattr(cfg, "explicit_keys", ())
                    and cfg.experiment != args.experiment):
                raise ConfigError(
                    f"config selects experiment {cfg.experiment!r} but the "
                    f"command line says {args.experiment!r}"
                )
            cfg.experiment = args.experiment
        else:
            cfg = RunConfig(experiment=args.experiment)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg, args.out, quick=args.quick)


if __name__ == "__main__":
    sys.exit(main())
