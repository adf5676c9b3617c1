"""Moment traces, the first-moment identity, the time-smoothed L^2
functional, and the weighted-energy balance."""
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from chenlee_lab.core import EquationParams, Grid, SpectralField
from chenlee_lab.decay import (
    MomentTrace,
    _simpson,
    decay_report,
    listo_functional,
    moment_trace,
    weighted_energy_rate,
    yacasi_identity_residual,
)
from chenlee_lab.solver import SolverConfig, Trajectory, solve_stepper
from chenlee_lab.spaces import l2_norm

GRID = Grid(32.0 * np.pi, 1024)
PARAMS = EquationParams(beta=1.0, eta=1.0)


def _gaussian(amp, grid=GRID):
    return SpectralField.from_function(grid, lambda x: amp * np.exp(-x * x))


def _static(phi):
    return Trajectory(np.array([0.0]), [phi], PARAMS)


# ---------------------------------------------------------------------------
# moment trace
# ---------------------------------------------------------------------------

def test_moment_trace_gaussian_oracle():
    a = 0.3
    tr = moment_trace(_static(_gaussian(a)))
    # u_hat(0) = a (2 pi)^{-1/2} int e^{-x^2} dx = a / sqrt(2)
    assert tr.mass[0] == pytest.approx(a / np.sqrt(2.0), rel=1e-12)
    assert abs(tr.dmass[0]) <= 1e-12  # even data: first moment vanishes
    w1_sq, _ = quad(lambda x: x * x * (a * np.exp(-x * x)) ** 2, -np.inf, np.inf)
    assert tr.w1[0] == pytest.approx(np.sqrt(w1_sq), rel=1e-10)
    assert tr.mass_drift == 0.0


def test_diagnostics_do_not_depend_on_the_row_blocks():
    # a trajectory's diagnostics run over blocks of rows (four at M = 1024,
    # so these six states make a full block and a partial one); each row
    # has the bits of its state alone, a block of one row
    traj = _decay_traj(1e-3, 40)
    trace = moment_trace(traj)
    for k, u in enumerate(traj.states):
        alone = moment_trace(_static(u))
        for name in ("mass", "dmass", "l2sq", "w1", "w2", "w3"):
            assert getattr(alone, name).tobytes() == getattr(trace, name)[k:k + 1].tobytes()
    assert yacasi_identity_residual(traj) == max(
        yacasi_identity_residual(_static(u)) for u in traj.states)


def test_moment_trace_validation():
    t = np.array([0.0, 1.0])
    ones = np.ones(2)
    # a column of a trajectory's stack is a strided array, and is accepted
    column = np.ones((2, 4), complex)[:, 0]
    assert MomentTrace(t, column, column, ones, ones, ones, ones).mass_drift == 0.0
    with pytest.raises(ValueError):
        MomentTrace(t, np.array([1.0, np.nan * 1j]), column, ones, ones, ones, ones)
    with pytest.raises(ValueError):
        MomentTrace(t, np.ones(3, complex), ones.astype(complex), ones, ones, ones, ones)
    with pytest.raises(ValueError):
        MomentTrace(t, ones.astype(complex), ones.astype(complex), -ones, ones, ones, ones)


# ---------------------------------------------------------------------------
# first-moment identity
# ---------------------------------------------------------------------------

def test_yacasi_static_machine_precision():
    assert yacasi_identity_residual(_static(_gaussian(0.4))) <= 1e-12


def test_yacasi_along_trajectory():
    traj = solve_stepper(_gaussian(0.1), PARAMS,
                         SolverConfig(dt=1e-3, T=0.2, keep_every=50))
    assert yacasi_identity_residual(traj) <= 1e-8


# ---------------------------------------------------------------------------
# time-smoothed L^2 functional
# ---------------------------------------------------------------------------

def test_listo_closed_form_neutral_mode():
    # single mode at xi=1: p(1)=0, the linear L^2 norm is constant, so
    # listo(t) = ||phi||^2 t^2 / 2 exactly
    g = Grid(4.0 * np.pi, 64)
    phi = SpectralField.single_mode(g, 4, 0.2)  # xi = 1
    p = EquationParams(beta=1.0, eta=1.0, nonlinear=False)
    traj = solve_stepper(phi, p, SolverConfig(dt=1e-3, T=1.0, keep_every=2))
    e0 = l2_norm(phi) ** 2
    for t in (0.1, 0.5, 1.0):
        assert listo_functional(traj, t) == pytest.approx(e0 * t * t / 2.0, rel=1e-10)


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
    for t in (0.25, 1.0):
        ref = e0 * (np.exp(alpha * t) - 1.0 - alpha * t) / alpha ** 2
        assert listo_functional(traj, t) == pytest.approx(ref, rel=1e-8)


def test_listo_positive_and_needs_samples():
    traj = solve_stepper(_gaussian(0.1), PARAMS,
                         SolverConfig(dt=1e-3, T=0.1, keep_every=20))
    assert listo_functional(traj, 0.1) > 0.0
    with pytest.raises(ValueError):
        listo_functional(traj, 0.02)  # fewer than 3 stored states


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


def _loaded_by_cli_import(prefix):
    """Modules under `prefix` that a fresh `import chenlee_lab.cli` loads."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = ("import sys, chenlee_lab.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.strip()


def test_import_leaves_scipy_out():
    assert _loaded_by_cli_import("scipy") == "[]"


@pytest.mark.parametrize("prefix", ["multiprocessing", "concurrent"])
def test_import_leaves_process_pools_out(prefix):
    # the stepper forks with os.fork alone; pickle and threading come with numpy
    assert _loaded_by_cli_import(prefix) == "[]"


def test_import_leaves_numpy_fft_out():
    # numpy.fft loads lazily: the first Grid loads it, and core.py reaches
    # the pocketfft gufuncs through it at call time, so importing the
    # package costs no FFT module
    assert _loaded_by_cli_import("numpy.fft") == "[]"


def test_import_leaves_numpy_polynomial_out():
    assert _loaded_by_cli_import("numpy.polynomial") == "[]"


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
    rep = weighted_energy_rate(_decay_traj(5e-4, 8))
    assert rep.summary["max_residual"] <= 1e-5
    assert rep.summary["gronwall_C"] > 0


def test_weighted_energy_second_order():
    coarse = weighted_energy_rate(_decay_traj(1e-3, 8))     # store spacing 8e-3
    fine = weighted_energy_rate(_decay_traj(5e-4, 8))       # store spacing 4e-3
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
    with pytest.raises(ValueError):
        weighted_energy_rate(traj)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_decay_report_structure():
    rep = decay_report(_decay_traj(1e-3, 40))
    assert rep.columns == ["t", "re_mass", "im_mass", "re_dmass", "l2sq",
                           "w1", "w2", "w3", "listo"]
    assert len(rep.rows) == 6
    assert rep.summary["mass_drift"] == 0.0
    assert rep.summary["yacasi_residual"] <= 1e-8
    # listo column is nondecreasing once defined
    listo = [row[-1] for row in rep.rows]
    assert all(b >= a for a, b in zip(listo[2:], listo[3:]))


def test_decay_report_listo_column_is_the_functional_bitwise():
    # the column is built from the trace's squared norms; each entry is the
    # functional evaluated on the trajectory afresh, to the last bit
    traj = _decay_traj(1e-3, 40)
    rep = decay_report(traj)
    got = [float(v).hex() for v in rep.column("listo")[2:]]
    assert got == [listo_functional(traj, t).hex() for t in traj.times[2:]]
