"""Run configuration: a strict flat `key = value` text format.

One assignment per line, `#` comments, dotted keys for grouping
(`grid.M = 4096`).  Unknown keys are rejected with the line number; value
errors name the field.  Every key has a documented default, so the empty
document is a valid config.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from .core import EquationParams, Grid, SpectralField, from_values_stack, random_real_field
from .flowderiv import growth_bands, illposed_grid_shape
from .limits import check_sweep_values
from .solver import SolverConfig
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
    data_kind: str = "gaussian"  # a key of DATA_KINDS
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
    illposed_s: float = -0.8
    illposed_epsilon: float = 0.1
    illposed_N: tuple = (64.0, 128.0, 256.0, 512.0, 1024.0)
    sweep_values: tuple = ()
    sweep_s: float = 0.0

    def equation_params(self):
        return EquationParams(beta=self.eq_beta, eta=self.eq_eta,
                              nonlinear=self.eq_nonlinear)

    def solver_config(self):
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
            value = tuple(float(v) for v in raw.split(","))
        else:
            value = type(default)(raw)
        if isinstance(default, (float, tuple)) and not np.isfinite(value).all():
            raise ValueError(f"non-finite value {raw!r}")
        return value
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


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where `os.sysconf` cannot say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _owned(group: str, build):
    """`build()`, which builds the library type that holds the `group.*` keys' rules; its
    ValueError becomes a ConfigError with those keys written in full (`grid.M must ...`)."""
    try:
        return build()
    except ValueError as exc:
        names = "|".join(key.split(".")[1] for key in _FIELDS if key.startswith(group + "."))
        raise ConfigError(re.sub(rf"(?<![\w'.])({names})\b", rf"{group}.\1", str(exc))) from None


def validate(cfg: RunConfig):
    """ConfigError naming the key where `cfg` cannot run; library types keep their own rules."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {', '.join(EXPERIMENTS)}; "
                          f"got {cfg.experiment!r}")
    kept = _owned("solver", cfg.solver_config).n_kept
    if cfg.experiment == "decay" and kept < 3:  # before any grid is built
        raise ConfigError(f"decay's centered differences need at least 3 kept states, but "
                          f"solver.T = {cfg.solver_T} with solver.dt = {cfg.solver_dt} and "
                          f"solver.keep_every = {cfg.solver_keep_every} keeps {kept}; lower "
                          f"solver.keep_every or raise solver.T")
    # a stepped run reduces each block of kept states as it comes, so what it holds is
    # its grid's workspace and, per kept state, its report rows and per-row values.
    # Per kept state, decay's two tables hold 409 bytes, the most (tracemalloc, every
    # state kept, 201 against 1,201 kept states, grid.L scaled with M from the tuned
    # config: decay 409 at M = 256, 173 at M = 4096; solve 264 and 169, eta-limit 81
    # and 210, beta-limit none).  Per grid point, contraction holds 3,723 bytes, the
    # most: the Picard route's node operators (M = 8192 against 32,768, 21 kept
    # states; eta-limit 1,275, beta-limit 1,064, decay 364, solve 254).  Unstepped runs
    # hold per point: smoothing 256 bytes, a growth sweep 40, the Grid below (M = 2^16
    # vs 2^18)
    memory = _physical_memory()
    if cfg.experiment in ("smoothing", "illposed-c3", "illposed-c2nd"):
        run_bytes = (256.0 if cfg.experiment == "smoothing" else 40.0) * cfg.grid_M
        held, advice = f"on grid.M = {cfg.grid_M} points would hold", "lower grid.M"
    else:
        run_bytes = 1280.0 * kept + 3800.0 * cfg.grid_M
        held = f"would keep {kept} states on grid.M = {cfg.grid_M} points, holding"
        advice = "raise solver.keep_every or solver.dt, or lower solver.T or grid.M"
    if run_bytes > memory:  # before a Grid allocates grid.M points
        raise ConfigError(f"a run {held} {run_bytes / 2**30:.3g} GiB, more than the "
                          f"{memory / 2**30:.3g} GiB of physical memory; {advice}")
    grid = _owned("grid", lambda: Grid(cfg.grid_L, cfg.grid_M))
    _owned("eq", cfg.equation_params)
    if cfg.data_kind not in DATA_KINDS:
        raise ConfigError(f"data.kind {cfg.data_kind!r} is not one of {', '.join(DATA_KINDS)}")
    if cfg.data_kind == "single-mode":
        _owned("data", lambda: SpectralField.single_mode(grid, cfg.data_mode))
    if cfg.data_width <= 0:
        raise ConfigError(f"data.width must be positive, got {cfg.data_width}")
    sweep = "c2nd" if cfg.experiment == "illposed-c2nd" else "c3"  # c3's rule for the rest
    sizes = [_owned("illposed", lambda: illposed_grid_shape(*band)[1]) for band in _owned(
        "illposed", lambda: growth_bands(sweep, cfg.illposed_s, cfg.illposed_epsilon,
                                         cfg.illposed_N))]
    held = 112 * sum(sizes)  # bytes a sweep holds per grid point (tracemalloc, M = 2^16-2^21)
    if cfg.experiment.startswith("illposed-") and held > memory:  # before any grid is built
        raise ConfigError(f"illposed.epsilon = {cfg.illposed_epsilon} and illposed.N up to "
                          f"{cfg.illposed_N[-1]:g} need grids of up to M = {max(sizes)} points "
                          f"({held / 2**30:.3g} GiB), more than the {memory / 2**30:.3g} GiB of "
                          f"physical memory; raise illposed.epsilon or lower illposed.N")
    if not 0 < cfg.smoothing_t_min < cfg.smoothing_t_max:
        raise ConfigError(f"need 0 < smoothing.t_min < smoothing.t_max, got "
                          f"t_min={cfg.smoothing_t_min}, t_max={cfg.smoothing_t_max}")
    if min(cfg.smoothing_lambdas) <= 0:
        raise ConfigError(f"smoothing.lambdas must be positive (derivatives gained); "
                          f"got {cfg.smoothing_lambdas}")
    if cfg.sweep_values:  # () runs each sweep's own values
        _owned("sweep", lambda: check_sweep_values(cfg.sweep_values))
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")


def config_echo(cfg: RunConfig) -> dict:
    """Flat config-file view of a RunConfig (for the run manifest)."""
    out = {}
    for key, f in _FIELDS.items():
        v = getattr(cfg, f.name)
        out[key] = list(v) if isinstance(v, tuple) else v
    return out


def _rough_band(grid: Grid):
    n = grid.band((grid.xi >= 1.0) & (grid.xi <= 0.98 * grid.xi_max))
    c = (np.abs(grid.at_modes(grid.xi, n)) ** -0.5).astype(complex)
    return SpectralField.from_modes(grid, np.concatenate([n, -n]), np.concatenate([c, np.conj(c)]))


# data.kind -> its datum on a grid (a Gaussian unchecked: build_initial_data checks it)
DATA_KINDS = {
    "gaussian": lambda cfg, grid: SpectralField(grid, from_values_stack(
        grid, cfg.data_amplitude * np.exp(-((grid.x / cfg.data_width) ** 2))), check=False),
    "single-mode": lambda cfg, grid: SpectralField.single_mode(grid, cfg.data_mode,
                                                               cfg.data_amplitude),
    "random": lambda cfg, grid: random_real_field(
        grid, np.random.default_rng(cfg.seed), spectral_decay=2.0) * cfg.data_amplitude,
    "rough-band": lambda cfg, grid: _rough_band(grid) * cfg.data_amplitude,
}


def build_initial_data(cfg: RunConfig):
    """Initial state selected by the data.* block (seeded when random).
    Raises ConfigError where the data.* and grid.* keys give a datum that
    is not finite, or, with data.normalize_h2, one whose H^2 norm is zero
    or not finite."""
    phi = DATA_KINDS[cfg.data_kind](cfg, Grid(cfg.grid_L, cfg.grid_M))
    if cfg.data_normalize_h2:
        h2 = sobolev_norm(phi, 2.0)
        if not 0.0 < h2 < math.inf:
            raise ConfigError(
                f"data.normalize_h2: the datum's H^2 norm is {h2:.3g}, which cannot "
                f"be normalized; change data.amplitude, data.kind or grid.L")
        phi = phi * (1.0 / h2)
    if not np.isfinite(phi.coeffs.view(np.float64)).all():
        raise ConfigError(
            f"data.kind = {cfg.data_kind} with data.amplitude = {cfg.data_amplitude} has "
            f"non-finite Fourier coefficients on grid.L = {cfg.grid_L}, grid.M = "
            f"{cfg.grid_M}; change data.amplitude or grid.L")
    return phi
