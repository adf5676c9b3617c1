"""Singular-limit sweeps and the a-priori envelope machinery."""
import numpy as np
import pytest

from chenlee_lab.core import EquationParams, Grid, SpectralField, random_real_field
from chenlee_lab.limits import (
    LimitSweepConfig,
    beta_limit_sweep,
    calibrated_cs,
    eta_limit_sweep,
    existence_time_limit,
    kato_quadratic_form,
    rho_bound,
)
from chenlee_lab.solver import SolverConfig, solve_stepper
from chenlee_lab.spaces import sobolev_norm

GRID = Grid(4.0 * np.pi, 64)


def _single_mode(amp=1.0, n=6):
    return SpectralField.single_mode(GRID, n, amp)  # xi = n/4


def test_sweep_config_validation():
    phi = _single_mode()
    solver = SolverConfig()
    with pytest.raises(ValueError):
        LimitSweepConfig(phi=phi, sweep_values=(0.4, 0.2, 0.1), solver=solver)  # too few
    with pytest.raises(ValueError):
        LimitSweepConfig(phi=phi, sweep_values=(0.1, 0.2, 0.3, 0.4), solver=solver)  # increasing
    with pytest.raises(ValueError):
        LimitSweepConfig(phi=phi, sweep_values=(0.4, 0.2, 0.1, 0.0), solver=solver)  # nonpositive
    with pytest.raises(TypeError, match="solver"):  # no default solver
        LimitSweepConfig(phi=phi, sweep_values=(0.4, 0.2, 0.1, 0.05))


def test_beta_sweep_linear_closed_form():
    # Linear flow, single mode at xi = 1.5: coefficient difference between
    # the beta-run and the beta=0 reference is |e^{i beta xi^2 t} - 1| e^{-p t}
    phi = _single_mode(amp=0.5, n=6)
    xi = 1.5
    eta = 1.0
    base = EquationParams(beta=1.0, eta=eta, nonlinear=False)
    solver = SolverConfig(dt=2e-3, T=0.5, keep_every=50)
    cfg = LimitSweepConfig(phi=phi, sweep_values=(0.4, 0.2, 0.1, 0.05),
                           base_params=base, s=0.0, solver=solver)
    rep = beta_limit_sweep(cfg, tol=0.15)
    phi_norm = sobolev_norm(phi, 0.0)
    times = np.arange(0, 6) * 0.1
    p = eta * (xi * xi - xi)
    for row in rep.rows:
        beta, sup_err = row[0], row[1]
        oracle = np.max(np.abs(np.exp(1j * beta * xi * xi * times) - 1.0)
                        * np.exp(-p * times)) * phi_norm
        assert sup_err == pytest.approx(oracle, rel=1e-10)
    assert rep.summary["monotone"] is True


def test_eta_sweep_summary_structure():
    rng = np.random.default_rng(0)
    phi = random_real_field(GRID, rng, spectral_decay=3.0) * 0.2
    base = EquationParams(beta=1.0, eta=1.0)
    solver = SolverConfig(dt=2e-3, T=0.25, keep_every=25)
    cfg = LimitSweepConfig(phi=phi, sweep_values=(0.2, 0.1, 0.05, 0.025),
                           base_params=base, s=0.0, solver=solver)
    rep = eta_limit_sweep(cfg, tol=0.1)
    assert {"fitted_slope", "fitted_slope_sup_vs_ref", "rho_envelope_ok",
            "C_s", "passed"} <= set(rep.summary)
    assert rep.summary["rho_envelope_ok"] is True
    assert len(rep.rows) == 4
    # Cauchy differences are positive and shrink with eta
    cauchy = [row[2] for row in rep.rows]
    assert all(c > 0 for c in cauchy)
    assert cauchy[-1] < cauchy[0]


def _assert_eta_rows_equal_serial_runs(s):
    # values that are not successive halves: 0.15 is no sweep value, while
    # 0.1 and 0.05 are both sweep values and halves; the differences are
    # sup-in-time H^s norms, s = cfg.s
    rng = np.random.default_rng(4)
    phi = random_real_field(GRID, rng, spectral_decay=3.0) * 0.2
    base = EquationParams(beta=1.0, eta=1.0)
    solver = SolverConfig(dt=2e-3, T=0.25, keep_every=25)
    values = (0.3, 0.2, 0.1, 0.05)
    cfg = LimitSweepConfig(phi=phi, sweep_values=values, base_params=base,
                           s=s, solver=solver)
    rep = eta_limit_sweep(cfg, tol=0.1)

    def run(eta):
        return solve_stepper(phi, EquationParams(beta=1.0, eta=eta), solver)

    def sup_diff(a, b):
        return max(sobolev_norm(u - v, s) for u, v in zip(a.states, b.states))

    ref = run(0.0)
    for row, eta in zip(rep.rows, values):
        traj = run(eta)
        assert row[0] == eta
        assert row[1] == sup_diff(traj, ref)
        assert row[2] == sup_diff(traj, run(eta / 2.0))


def test_eta_sweep_rows_equal_serial_runs():
    _assert_eta_rows_equal_serial_runs(0.0)


def test_eta_sweep_reads_its_sobolev_index():
    # sweep.s reaches the eta sweep's differences as it does beta's: the H^1
    # rows are the serial H^1 differences, not the L^2 ones
    _assert_eta_rows_equal_serial_runs(1.0)


# ---------------------------------------------------------------------------
# a-priori envelope
# ---------------------------------------------------------------------------

def test_existence_time_formula():
    # T' = (2/C) ln((1+r)/r)
    assert existence_time_limit(1.0, 2.0) == pytest.approx(np.log(2.0))
    with pytest.raises(ValueError):
        existence_time_limit(0.0, 1.0)


def test_rho_bound_closed_form():
    # C=2, ||phi||=1: rho(t) = e^t/(2 - e^t), blow-up at ln 2
    assert rho_bound(0.0, 1.0, 2.0) == pytest.approx(1.0)
    t = 0.3
    assert rho_bound(t, 1.0, 2.0) == pytest.approx(np.exp(t) / (2.0 - np.exp(t)))
    with pytest.raises(ValueError):
        rho_bound(np.log(2.0), 1.0, 2.0)
    with pytest.raises(ValueError):
        rho_bound(-0.1, 1.0, 2.0)


def test_rho_bound_monotone():
    ts = np.linspace(0.0, 0.9 * existence_time_limit(1.0, 1.0), 20)
    vals = [rho_bound(t, 1.0, 1.0) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_kato_form_scale_invariant():
    rng = np.random.default_rng(1)
    u = random_real_field(GRID, rng, spectral_decay=3.5)
    r1 = kato_quadratic_form(u, 2.0)
    r2 = kato_quadratic_form(5.0 * u, 2.0)
    assert r1 == pytest.approx(r2, rel=1e-10)
    with pytest.raises(ValueError):
        kato_quadratic_form(u, 1.0)  # regime is s > 3/2
    with pytest.raises(ValueError):
        kato_quadratic_form(SpectralField.zero(GRID), 2.0)


def test_calibrated_cs_deterministic_and_dominates_samples():
    c1 = calibrated_cs(GRID, s=2.0)
    c2 = calibrated_cs(GRID, s=2.0)
    assert c1 == c2
    # the 50 probes drawn with seed 7: every ratio sits under the constant,
    # which is twice the largest of them
    rng = np.random.default_rng(7)
    ratios = [kato_quadratic_form(random_real_field(GRID, rng, spectral_decay=3.5), 2.0)
              for _ in range(50)]
    assert max(ratios) <= c1 == 2.0 * max(ratios)
