"""Run configuration: a strict flat `key = value` text format.

One assignment per line, `#` comments, dotted keys for grouping
(`grid.M = 4096`).  Unknown keys are rejected with the line number; value
errors name the field.  Every key has a documented default, so the empty
document is a valid config.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import EquationParams, Grid, SpectralField, random_real_field
from .spaces import sobolev_norm

EXPERIMENTS = (
    "solve", "smoothing", "contraction", "illposed-c3", "illposed-c2nd",
    "beta-limit", "eta-limit", "decay",
)


class ConfigError(ValueError):
    """Malformed or invalid configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    """Every setting of a run.  A field is a config key: the key is the
    field name with its first `_` written as `.` (`grid_M` is `grid.M`),
    and its value is read by the type of the field's default."""
    experiment: str = "solve"
    seed: int = 0
    grid_L: float = 32.0 * math.pi
    grid_M: int = 4096
    eq_beta: float = 1.0
    eq_eta: float = 1.0
    eq_nonlinear: bool = True
    data_kind: str = "gaussian"  # gaussian | single-mode | random | rough-band
    data_amplitude: float = 0.5
    data_width: float = 1.0
    data_mode: int = 8
    data_normalize_h2: bool = False
    # default dt sized for the default grid's CFL bound:
    # dt * beta * xi_max^2 <= 1 with xi_max = 64
    solver_dt: float = 2e-4
    solver_T: float = 1.0
    solver_keep_every: int = 20
    solver_picard_tol: float = 1e-12
    solver_picard_max_iters: int = 40
    smoothing_lambdas: tuple = (0.5, 1.0, 2.0)
    smoothing_t_min: float = 1e-4
    smoothing_t_max: float = 1e-2
    smoothing_tolerance: float = 0.10  # relative deviation from -lambda/2
    illposed_s: float = -0.8
    illposed_epsilon: float = 0.1
    illposed_N: tuple = (64.0, 128.0, 256.0, 512.0, 1024.0)
    illposed_tolerance: float = 0.15
    sweep_values: tuple = ()
    sweep_s: float = 0.0
    sweep_tolerance: float = 0.15
    # verdict thresholds
    check_mass_tolerance: float = 1e-10
    check_yacasi_tolerance: float = 1e-8
    check_energy_residual_tolerance: float = 1e-5
    check_contraction_ratio_max: float = 0.75
    check_contraction_residual_max: float = 1e-10
    check_agreement_tolerance: float = 1e-6

    def equation_params(self):
        return EquationParams(beta=self.eq_beta, eta=self.eq_eta,
                              nonlinear=self.eq_nonlinear)

    def solver_config(self):
        from .solver import SolverConfig

        return SolverConfig(dt=self.solver_dt, T=self.solver_T,
                            keep_every=self.solver_keep_every,
                            picard_tol=self.solver_picard_tol,
                            picard_max_iters=self.solver_picard_max_iters)


# config-file key -> RunConfig field
_FIELDS = {f.name.replace("_", ".", 1): f for f in fields(RunConfig)}

_BOOLS = {"true": True, "false": False, "yes": True, "no": False,
          "1": True, "0": False}


def _convert(key, raw, lineno):
    default = _FIELDS[key].default
    raw = raw.strip()
    try:
        if isinstance(default, bool):  # before int: a bool is an int
            if raw.lower() not in _BOOLS:
                raise ValueError(f"expected a boolean, got {raw!r}")
            return _BOOLS[raw.lower()]
        if isinstance(default, tuple):
            return tuple(float(v) for v in raw.split(","))
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    explicit = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {stripped!r}"
            )
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, _FIELDS[key].name, _convert(key, raw, lineno))
        explicit.add(key)
    validate(cfg)
    cfg.explicit_keys = explicit
    return cfg


def validate(cfg: RunConfig):
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {cfg.experiment!r}"
        )
    if cfg.grid_L <= 0:
        raise ConfigError(f"grid.L must be positive, got {cfg.grid_L}")
    if cfg.grid_M < 8 or cfg.grid_M & (cfg.grid_M - 1):
        raise ConfigError(f"grid.M must be a power of two >= 8, got {cfg.grid_M}")
    if cfg.eq_beta < 0:
        raise ConfigError(f"beta must be >= 0, got {cfg.eq_beta}")
    if cfg.eq_eta < 0:
        raise ConfigError(f"eta must be >= 0, got {cfg.eq_eta}")
    if cfg.solver_dt <= 0 or cfg.solver_T <= 0 or cfg.solver_dt > cfg.solver_T:
        raise ConfigError(f"need 0 < solver.dt <= solver.T, "
                          f"got dt={cfg.solver_dt}, T={cfg.solver_T}")
    if cfg.solver_keep_every < 1:
        raise ConfigError(f"solver.keep_every must be >= 1, got {cfg.solver_keep_every}")
    if cfg.solver_picard_max_iters < 1:
        raise ConfigError(
            f"solver.picard_max_iters must be >= 1, got {cfg.solver_picard_max_iters}")
    if cfg.solver_picard_tol <= 0:
        raise ConfigError(f"solver.picard_tol must be positive, got {cfg.solver_picard_tol}")
    if cfg.data_kind not in ("gaussian", "single-mode", "random", "rough-band"):
        raise ConfigError(f"unknown data.kind {cfg.data_kind!r}")
    single_mode = cfg.data_kind == "single-mode"
    if single_mode and not Grid(cfg.grid_L, cfg.grid_M).represents(cfg.data_mode):
        raise ConfigError(
            f"data.mode must lie below grid.M/2 in magnitude (the Nyquist mode and "
            f"above do not fit the grid of grid.M = {cfg.grid_M}), got {cfg.data_mode}")
    if cfg.data_width <= 0:
        raise ConfigError(f"data.width must be positive, got {cfg.data_width}")
    if not (0 < cfg.illposed_epsilon < 1):
        raise ConfigError(f"illposed.epsilon must be in (0,1), got {cfg.illposed_epsilon}")
    if cfg.illposed_s >= 0:
        raise ConfigError(f"illposed.s must be negative, got {cfg.illposed_s}")
    N = cfg.illposed_N
    if len(N) < 4 or min(N) < 32 or any(b <= a for a, b in zip(N, N[1:])):
        raise ConfigError(
            f"illposed.N must be >= 4 strictly increasing values, each >= 32; got {N}"
        )
    v = cfg.sweep_values
    if v and (len(v) < 4 or min(v) <= 0 or any(b >= a for a, b in zip(v, v[1:]))):
        raise ConfigError(
            f"sweep.values must be >= 4 positive strictly decreasing values; got {v}"
        )
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")


def config_echo(cfg: RunConfig) -> dict:
    """Flat config-file view of a RunConfig (for the run manifest)."""
    out = {}
    for key, f in _FIELDS.items():
        v = getattr(cfg, f.name)
        out[key] = list(v) if isinstance(v, tuple) else v
    return out


def build_initial_data(cfg: RunConfig):
    """Initial state selected by the data.* block (seeded when random)."""
    grid = Grid(cfg.grid_L, cfg.grid_M)
    if cfg.data_kind == "gaussian":
        a, w = cfg.data_amplitude, cfg.data_width
        phi = SpectralField.from_function(grid, lambda x: a * np.exp(-((x / w) ** 2)))
    elif cfg.data_kind == "single-mode":
        phi = SpectralField.single_mode(grid, cfg.data_mode, cfg.data_amplitude)
    elif cfg.data_kind == "random":
        rng = np.random.default_rng(cfg.seed)
        phi = random_real_field(grid, rng, spectral_decay=2.0) * cfg.data_amplitude
    elif cfg.data_kind == "rough-band":
        n = grid.band((grid.xi >= 1.0) & (grid.xi <= 0.98 * grid.xi_max))
        c = (np.abs(grid.at_modes(grid.xi, n)) ** -0.5).astype(complex)
        phi = SpectralField.from_modes(grid, np.concatenate([n, -n]),
                                       np.concatenate([c, np.conj(c)])) * cfg.data_amplitude
    else:  # pragma: no cover - guarded by validate
        raise ConfigError(f"unknown data.kind {cfg.data_kind!r}")
    if cfg.data_normalize_h2:
        phi = phi * (1.0 / sobolev_norm(phi, 2.0))
    return phi
