"""The decay table's moments, the first-moment identity, the time-smoothed
L^2 functional, and the weighted-energy balance."""
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from chenlee_lab.config import build_initial_data, parse_config
from chenlee_lab.core import (
    TWO_PI_SQRT,
    EquationParams,
    Grid,
    SpectralField,
    from_values_stack,
    hilbert_stack,
    nonlinear_stack,
    values_stack,
    x_derivative_stack,
)
from chenlee_lab.decay import _simpson, decay_report
from chenlee_lab.solver import SolverConfig, Trajectory, solve_stepper, stepper_blocks
from chenlee_lab.spaces import l2_norm, sobolev_norm_stack
from conftest import decay_tables

GRID = Grid(32.0 * np.pi, 1024)
PARAMS = EquationParams(beta=1.0, eta=1.0)


def _gaussian(amp, grid=GRID):
    return SpectralField.from_function(grid, lambda x: amp * np.exp(-x * x))


def _static(phi):
    """`phi` kept three times, the fewest states the energy table takes."""
    return Trajectory(np.array([0.0, 1.0, 2.0]), [phi] * 3, PARAMS)


def _stream_tables(grid, phi, params, config):
    """`decay_report` on the `stepper_blocks` stream of one run, as the CLI reads it."""
    blocks = stepper_blocks(phi, [params], config)
    return decay_report(grid, params, ((t, b) for t, (b,) in blocks))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

_MOMENT_COLUMNS = ("re_mass", "im_mass", "re_dmass", "l2sq", "w1", "w2", "w3")


def _yacasi(traj):
    return decay_tables(traj)[0].summary["yacasi_residual"]


def _frozen_moments(traj):
    """The decay table's columns after t, its Yacasi residual, the complex
    first moment `dmass` and the energy table's lhs and rhs, by the
    arithmetic of four passes over the held run as they ran before
    `decay_report` read each state once: a pass for the moments, one per
    row for listo, a pass of its own for the first-moment identity and one
    for the weighted energy."""
    g, p, x = traj.grid, traj.params, traj.grid.x

    def moments(c):
        u = values_stack(g, c)
        w1, w2, w3 = (np.sqrt(np.sum((g.x ** r * u) ** 2, axis=-1) * g.dx) for r in (1, 2, 3))
        return (c[:, 0], -1j / TWO_PI_SQRT * np.sum(g.x * u, axis=-1) * g.dx,
                sobolev_norm_stack(g, c, 0.0) ** 2, w1, w2, w3)

    def residuals(c):
        w = x_derivative_stack(g, from_values_stack(g, values_stack(g, c) ** 2))
        moment = np.sum(g.x * values_stack(g, w), axis=-1) * g.dx
        return np.abs(moment + sobolev_norm_stack(g, c, 0.0) ** 2) / TWO_PI_SQRT

    def energies(c):
        xu = x * values_stack(g, c)
        terms = -x * values_stack(g, nonlinear_stack(g, c))
        u_xx = x_derivative_stack(g, c, 2)
        terms -= p.beta * x * values_stack(g, hilbert_stack(g, u_xx))
        terms -= p.eta * x * values_stack(g, hilbert_stack(g, x_derivative_stack(g, c)))
        terms += p.eta * x * values_stack(g, u_xx)
        return np.sum(xu * xu, axis=-1) * g.dx, np.sum(xu * terms, axis=-1) * g.dx

    mass, dmass, l2sq, w1, w2, w3 = moments(traj.coeffs)
    xu_sq, rhs = energies(traj.coeffs)
    times = traj.times
    listo = [_simpson((t - times[:i + 1]) * l2sq[:i + 1], times[:i + 1]) if i >= 2 else 0.0
             for i, t in enumerate(times)]
    frozen = dict(zip(_MOMENT_COLUMNS, (mass.real, mass.imag, dmass.real, l2sq, w1, w2, w3)))
    frozen.update(listo=np.array(listo), dmass=dmass,
                  yacasi_residual=float(residuals(traj.coeffs).max()),
                  lhs=np.gradient(0.5 * xu_sq, times, edge_order=2)[1:-1], rhs=rhs[1:-1])
    return frozen


def test_decay_report_is_the_frozen_passes_bitwise():
    # six states at M = 1024, streamed as a full block of four and a partial
    # one, against the passes over the whole held run
    config = SolverConfig(dt=1e-3, T=0.2, keep_every=40)
    frozen = _frozen_moments(solve_stepper(_gaussian(0.1), PARAMS, config))
    rep, energy = _stream_tables(GRID, _gaussian(0.1), PARAMS, config)
    for name in rep.columns[1:]:
        assert rep.column(name).tobytes() == frozen[name].tobytes(), name
    assert rep.summary["yacasi_residual"] == frozen["yacasi_residual"]
    for name in ("lhs", "rhs"):
        assert energy.column(name).tobytes() == frozen[name].tobytes(), name


def test_weighted_norms_of_the_decay_datum_closed_form():
    # the tuned decay run's datum 0.1 e^{-x^2} on its box of 32 pi, at t = 0:
    # ||x^r u||^2 = 0.01 int x^{2r} e^{-2x^2} dx = 0.01 Gamma(r + 1/2) / 2^{r + 1/2}
    # and ||u||^2 = 0.01 sqrt(pi / 2); each w_r is at its own power of x
    cfg = parse_config((pathlib.Path(__file__).resolve().parents[1] / "configs"
                        / "decay.cfg").read_text())
    phi = build_initial_data(cfg)
    config = SolverConfig(dt=cfg.solver_dt, T=2.0 * cfg.solver_dt)  # 3 kept states
    rep, _ = _stream_tables(phi.grid, phi, cfg.equation_params(), config)
    row = dict(zip(rep.columns, rep.rows[0]))
    assert row["t"] == 0.0
    for r in (1, 2, 3):
        exact = math.sqrt(0.01 * math.gamma(r + 0.5) / 2.0 ** (r + 0.5))
        assert row[f"w{r}"] == pytest.approx(exact, rel=1e-12, abs=0.0), r
    assert row["l2sq"] == pytest.approx(0.01 * math.sqrt(math.pi / 2.0), rel=1e-12, abs=0.0)


def test_moment_trace_gaussian_oracle():
    a = 0.3
    traj = _static(_gaussian(a))
    rep, _ = decay_tables(traj)
    mass = complex(rep.column("re_mass")[0], rep.column("im_mass")[0])
    # u_hat(0) = a (2 pi)^{-1/2} int e^{-x^2} dx = a / sqrt(2)
    assert mass == pytest.approx(a / np.sqrt(2.0), rel=1e-12)
    # even data: the first moment vanishes.  It is imaginary, and the table
    # keeps only its real part, so the frozen passes, which are the table's
    # arithmetic bitwise, give the whole of it
    assert abs(rep.column("re_dmass")[0]) <= 1e-12
    assert abs(_frozen_moments(traj)["dmass"][0]) <= 1e-12
    w1_sq, _ = quad(lambda x: x * x * (a * np.exp(-x * x)) ** 2, -np.inf, np.inf)
    assert rep.column("w1")[0] == pytest.approx(np.sqrt(w1_sq), rel=1e-10)
    assert rep.summary["mass_drift"] == 0.0


def test_diagnostics_do_not_depend_on_the_row_blocks():
    # the stream's blocks (four states at M = 1024, so these six make a full
    # block and a partial one) give the bits of one block of every state and
    # of blocks of one state each
    config = SolverConfig(dt=1e-3, T=0.2, keep_every=40)
    streamed = _stream_tables(GRID, _gaussian(0.1), PARAMS, config)
    traj = solve_stepper(_gaussian(0.1), PARAMS, config)
    whole = decay_tables(traj)
    single = decay_report(GRID, PARAMS, (([t], c[None]) for t, c in zip(traj.times, traj.coeffs)))
    for tables in (whole, single):
        for rep, ref in zip(tables, streamed):
            assert np.array(rep.rows).tobytes() == np.array(ref.rows).tobytes(), rep.name
            assert rep.summary == ref.summary


def test_decay_holds_less_per_kept_state_than_the_memory_guard_charges():
    # one state a block, the most bytes per kept state: the reducer's traced
    # peak grows by less than the 1,280 bytes a kept state that
    # config.validate charges a stepped run (it grew by about 1,940 while
    # each block appended nine small arrays)
    grid = Grid(8.0 * np.pi, 64)
    block = SpectralField.from_function(grid, lambda x: 0.1 * np.exp(-x * x / 16.0)).coeffs[None]

    def peak(kept):
        tracemalloc.start()
        try:
            decay_report(grid, PARAMS, (([n * 1e-3], block) for n in range(kept)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(301) - peak(51)) / 250 < 1280


# ---------------------------------------------------------------------------
# first-moment identity
# ---------------------------------------------------------------------------

def test_yacasi_static_machine_precision():
    assert _yacasi(_static(_gaussian(0.4))) <= 1e-12


def test_yacasi_along_trajectory():
    traj = solve_stepper(_gaussian(0.1), PARAMS,
                         SolverConfig(dt=1e-3, T=0.2, keep_every=50))
    assert _yacasi(traj) <= 1e-8


# ---------------------------------------------------------------------------
# time-smoothed L^2 functional
# ---------------------------------------------------------------------------

def _listo_at(traj, ts):
    """The decay table's listo entries at the stored times `ts`."""
    rep, _ = decay_tables(traj)
    times = rep.column("t")
    rows = [int(np.argmin(np.abs(times - t))) for t in ts]
    assert np.abs(times[rows] - ts).max() <= 1e-12  # each t is a stored time
    return rep.column("listo")[rows]


def test_listo_closed_form_neutral_mode():
    # single mode at xi=1: p(1)=0, the linear L^2 norm is constant, so
    # listo(t) = ||phi||^2 t^2 / 2 exactly
    g = Grid(4.0 * np.pi, 64)
    phi = SpectralField.single_mode(g, 4, 0.2)  # xi = 1
    p = EquationParams(beta=1.0, eta=1.0, nonlinear=False)
    traj = solve_stepper(phi, p, SolverConfig(dt=1e-3, T=1.0, keep_every=2))
    e0 = l2_norm(phi) ** 2
    ts = (0.1, 0.5, 1.0)
    for t, val in zip(ts, _listo_at(traj, ts)):
        assert val == pytest.approx(e0 * t * t / 2.0, rel=1e-10)


def test_listo_closed_form_damped_mode():
    # single mode at xi=2: ||u||^2 = ||phi||^2 e^{alpha t}, alpha = -2 p(2),
    # listo(t) = ||phi||^2 (e^{alpha t} - 1 - alpha t)/alpha^2
    g = Grid(4.0 * np.pi, 64)
    phi = SpectralField.single_mode(g, 8, 0.2)  # xi = 2
    eta = 1.0
    p = EquationParams(beta=1.0, eta=eta, nonlinear=False)
    traj = solve_stepper(phi, p, SolverConfig(dt=1e-3, T=1.0, keep_every=2))
    alpha = -2.0 * eta * (4.0 - 2.0)
    e0 = l2_norm(phi) ** 2
    ts = (0.25, 1.0)
    for t, val in zip(ts, _listo_at(traj, ts)):
        ref = e0 * (np.exp(alpha * t) - 1.0 - alpha * t) / alpha ** 2
        assert val == pytest.approx(ref, rel=1e-8)


def test_listo_positive():
    traj = solve_stepper(_gaussian(0.1), PARAMS,
                         SolverConfig(dt=1e-3, T=0.1, keep_every=20))
    assert _listo_at(traj, (0.1,))[0] > 0.0


def test_simpson_is_scipy_bitwise():
    # uniform grids as the stepper keeps them, (n * keep_every) * dt, and
    # random irregular ones; both parities of N, so the even-N correction of
    # the last interval is covered
    rng = np.random.default_rng(7)
    for N in range(3, 61):
        grids = [np.arange(N) * k * dt for k in (1, 10, 25) for dt in (1e-3, 0.1 / 3)]
        grids += [np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1.0, N - 1))))
                  for _ in range(20)]
        for x in grids:
            y = rng.standard_normal(N)
            assert _simpson(y, x) == simpson(y, x=x), (N, x)


@pytest.fixture(scope="module")
def cli_import_modules():
    """The modules a fresh `import chenlee_lab.cli` loads, from one
    interpreter for every import-hygiene test."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = "import sys, chenlee_lab.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.split()


def _loaded_under(modules, prefix):
    return sorted(m for m in modules if m.startswith(prefix))


def test_import_leaves_scipy_out(cli_import_modules):
    assert _loaded_under(cli_import_modules, "scipy") == []


@pytest.mark.parametrize("prefix", ["multiprocessing", "concurrent"])
def test_import_leaves_process_pools_out(cli_import_modules, prefix):
    # the library starts no process, so no pool module loads
    assert _loaded_under(cli_import_modules, prefix) == []


def test_import_leaves_numpy_fft_out(cli_import_modules):
    # numpy.fft loads lazily: the first Grid loads it, and core.py reaches
    # the pocketfft gufuncs through it at call time, so importing the
    # package costs no FFT module
    assert _loaded_under(cli_import_modules, "numpy.fft") == []


def test_import_leaves_numpy_polynomial_out(cli_import_modules):
    assert _loaded_under(cli_import_modules, "numpy.polynomial") == []


def test_import_loads_every_library_module(cli_import_modules):
    # the benchmark worker imports the CLI to load the whole library
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "chenlee_lab"
    library = {f"chenlee_lab.{path.stem}" for path in src.glob("*.py")} - {"chenlee_lab.__init__"}
    assert library - set(cli_import_modules) == set()


def test_package_binds_only_its_version():
    # each name has one import path, its module: the package re-exports none
    import chenlee_lab

    public = {name for name, value in vars(chenlee_lab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set()
    assert isinstance(chenlee_lab.__version__, str)


def test_picard_run_leaves_numpy_polynomial_out(tmp_path):
    # the Duhamel operators' Gauss-Legendre rule is the library's own, so a
    # whole contraction run (Picard solve, stepper, report) never loads it
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = ["contraction", "--quick", "--config", str(root / "configs" / "contraction.cfg"),
            "--out", str(tmp_path / "out")]
    code = ("import sys; from chenlee_lab import cli; "
            f"rc = cli.main({argv!r}); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"


# ---------------------------------------------------------------------------
# weighted energy balance
# ---------------------------------------------------------------------------

def _decay_traj(dt, keep_every):
    return solve_stepper(_gaussian(0.1), PARAMS,
                         SolverConfig(dt=dt, T=0.2, keep_every=keep_every))


def test_weighted_energy_residual_small():
    _, rep = decay_tables(_decay_traj(5e-4, 8))
    assert rep.summary["max_residual"] <= 1e-5
    assert rep.summary["gronwall_C"] > 0


def test_weighted_energy_second_order():
    _, coarse = decay_tables(_decay_traj(1e-3, 8))     # store spacing 8e-3
    _, fine = decay_tables(_decay_traj(5e-4, 8))       # store spacing 4e-3
    tc = coarse.column("t")
    res_c = coarse.column("residual")
    tf = fine.column("t")
    res_f = fine.column("residual")
    # compare at times present in both samplings (interior points only)
    common = np.intersect1d(np.round(tc, 12), np.round(tf, 12))
    rc = np.array([res_c[np.argmin(np.abs(tc - t))] for t in common])
    rf = np.array([res_f[np.argmin(np.abs(tf - t))] for t in common])
    assert np.all(rc / rf >= 3.5)


def test_weighted_energy_needs_samples():
    traj = solve_stepper(_gaussian(0.1), PARAMS,
                         SolverConfig(dt=1e-3, T=0.1, keep_every=100))
    with pytest.raises(ValueError, match="at least 3 stored states"):
        decay_tables(traj)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_decay_report_structure():
    rep, _ = decay_tables(_decay_traj(1e-3, 40))
    assert rep.columns == ["t", "re_mass", "im_mass", "re_dmass", "l2sq",
                           "w1", "w2", "w3", "listo"]
    assert len(rep.rows) == 6
    assert rep.summary["mass_drift"] == 0.0
    assert rep.summary["yacasi_residual"] <= 1e-8
    # listo column is nondecreasing once defined
    listo = [row[-1] for row in rep.rows]
    assert all(b >= a for a, b in zip(listo[2:], listo[3:]))
