"""Run configuration: a strict flat `key = value` text format.

One assignment per line, `#` comments, dotted keys for grouping
(`grid.M = 4096`).  Unknown keys are rejected with the line number; value
errors name the field.  Every key has a documented default, so the empty
document is a valid config.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

EXPERIMENTS = (
    "solve", "smoothing", "contraction", "illposed-c3", "illposed-c2nd",
    "beta-limit", "eta-limit", "decay",
)


class ConfigError(ValueError):
    """Malformed or invalid configuration; maps to exit code 2."""


def _parse_float_list(text):
    return tuple(float(v) for v in text.split(","))


@dataclass
class RunConfig:
    experiment: str = "solve"
    seed: int = 0
    # grid
    grid_L: float = 32.0 * math.pi
    grid_M: int = 4096
    # equation
    beta: float = 1.0
    eta: float = 1.0
    nonlinear: bool = True
    # initial data
    data_kind: str = "gaussian"  # gaussian | single-mode | random | rough-band
    data_amplitude: float = 0.5
    data_width: float = 1.0
    data_mode: int = 8
    data_normalize_h2: bool = False
    # solver (default dt sized for the default grid's CFL bound:
    # dt * beta * xi_max^2 <= 1 with xi_max = 64)
    dt: float = 2e-4
    T: float = 1.0
    keep_every: int = 20
    picard_tol: float = 1e-12
    picard_max_iters: int = 40
    # smoothing experiment
    smoothing_lambdas: tuple = (0.5, 1.0, 2.0)
    smoothing_t_min: float = 1e-4
    smoothing_t_max: float = 1e-2
    smoothing_tolerance: float = 0.10  # relative deviation from -lambda/2
    # ill-posedness experiments
    illposed_s: float = -0.8
    illposed_epsilon: float = 0.1
    illposed_N: tuple = (64.0, 128.0, 256.0, 512.0, 1024.0)
    illposed_tolerance: float = 0.15
    # limit sweeps
    sweep_values: tuple = ()
    sweep_s: float = 0.0
    sweep_tolerance: float = 0.15
    # diagnostics thresholds
    mass_tolerance: float = 1e-10
    yacasi_tolerance: float = 1e-8
    energy_residual_tolerance: float = 1e-5
    contraction_ratio_max: float = 0.75
    contraction_residual_max: float = 1e-10
    agreement_tolerance: float = 1e-6

    def equation_params(self):
        from .core import EquationParams

        return EquationParams(beta=self.beta, eta=self.eta, nonlinear=self.nonlinear)

    def solver_config(self):
        from .solver import SolverConfig

        return SolverConfig(dt=self.dt, T=self.T, keep_every=self.keep_every,
                            picard_tol=self.picard_tol,
                            picard_max_iters=self.picard_max_iters)


# config-file key -> (attribute, converter)
_KEYS = {
    "experiment": ("experiment", str),
    "seed": ("seed", int),
    "grid.L": ("grid_L", float),
    "grid.M": ("grid_M", int),
    "eq.beta": ("beta", float),
    "eq.eta": ("eta", float),
    "eq.nonlinear": ("nonlinear", None),  # bool, special-cased
    "data.kind": ("data_kind", str),
    "data.amplitude": ("data_amplitude", float),
    "data.width": ("data_width", float),
    "data.mode": ("data_mode", int),
    "data.normalize_h2": ("data_normalize_h2", None),
    "solver.dt": ("dt", float),
    "solver.T": ("T", float),
    "solver.keep_every": ("keep_every", int),
    "solver.picard_tol": ("picard_tol", float),
    "solver.picard_max_iters": ("picard_max_iters", int),
    "smoothing.lambdas": ("smoothing_lambdas", _parse_float_list),
    "smoothing.t_min": ("smoothing_t_min", float),
    "smoothing.t_max": ("smoothing_t_max", float),
    "smoothing.tolerance": ("smoothing_tolerance", float),
    "illposed.s": ("illposed_s", float),
    "illposed.epsilon": ("illposed_epsilon", float),
    "illposed.N": ("illposed_N", _parse_float_list),
    "illposed.tolerance": ("illposed_tolerance", float),
    "sweep.values": ("sweep_values", _parse_float_list),
    "sweep.s": ("sweep_s", float),
    "sweep.tolerance": ("sweep_tolerance", float),
    "check.mass_tolerance": ("mass_tolerance", float),
    "check.yacasi_tolerance": ("yacasi_tolerance", float),
    "check.energy_residual_tolerance": ("energy_residual_tolerance", float),
    "check.contraction_ratio_max": ("contraction_ratio_max", float),
    "check.contraction_residual_max": ("contraction_residual_max", float),
    "check.agreement_tolerance": ("agreement_tolerance", float),
}

_BOOLS = {"true": True, "false": False, "yes": True, "no": False,
          "1": True, "0": False}


def _convert(key, raw, lineno):
    attr, conv = _KEYS[key]
    raw = raw.strip()
    try:
        if conv is None:
            if raw.lower() not in _BOOLS:
                raise ValueError(f"expected a boolean, got {raw!r}")
            return attr, _BOOLS[raw.lower()]
        return attr, conv(raw)
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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, value = _convert(key, raw, lineno)
        setattr(cfg, attr, value)
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
    if cfg.beta < 0:
        raise ConfigError(f"beta must be >= 0, got {cfg.beta}")
    if cfg.eta < 0:
        raise ConfigError(f"eta must be >= 0, got {cfg.eta}")
    if cfg.dt <= 0 or cfg.T <= 0 or cfg.dt > cfg.T:
        raise ConfigError(f"need 0 < solver.dt <= solver.T, got dt={cfg.dt}, T={cfg.T}")
    if cfg.keep_every < 1:
        raise ConfigError(f"solver.keep_every must be >= 1, got {cfg.keep_every}")
    if cfg.picard_max_iters < 1:
        raise ConfigError(
            f"solver.picard_max_iters must be >= 1, got {cfg.picard_max_iters}")
    if cfg.picard_tol <= 0:
        raise ConfigError(f"solver.picard_tol must be positive, got {cfg.picard_tol}")
    if cfg.data_kind not in ("gaussian", "single-mode", "random", "rough-band"):
        raise ConfigError(f"unknown data.kind {cfg.data_kind!r}")
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
    by_attr = {attr: key for key, (attr, _) in _KEYS.items()}
    out = {}
    for f in fields(cfg):
        key = by_attr.get(f.name, f.name)
        v = getattr(cfg, f.name)
        out[key] = list(v) if isinstance(v, tuple) else v
    return out


def build_initial_data(cfg: RunConfig):
    """Initial state selected by the data.* block (seeded when random)."""
    import numpy as np

    from .core import Grid, SpectralField, random_real_field
    from .spaces import sobolev_norm

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
        c = np.zeros(grid.M, dtype=complex)
        pos = (grid.xi >= 1.0) & (grid.xi <= 0.98 * grid.xi_max)
        c[pos] = np.abs(grid.xi[pos]) ** -0.5
        idx = np.flatnonzero(pos)
        c[(-idx) % grid.M] = np.conj(c[idx])
        phi = SpectralField(grid, c) * cfg.data_amplitude
    else:  # pragma: no cover - guarded by validate
        raise ConfigError(f"unknown data.kind {cfg.data_kind!r}")
    if cfg.data_normalize_h2:
        phi = phi * (1.0 / sobolev_norm(phi, 2.0))
    return phi
