"""Singular-limit sweeps and the a-priori envelope machinery."""
import dataclasses
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from chenlee_lab.config import build_initial_data, parse_config
from chenlee_lab.core import (
    AliasingBudgetWarning,
    EquationParams,
    Grid,
    SpectralField,
    random_real_field,
    semigroup_apply,
)
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
from chenlee_lab.spaces import l2_norm, sobolev_norm, sobolev_norm_stack
from conftest import solve_stepper_stack

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
    rep = beta_limit_sweep(cfg)
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
    rep = eta_limit_sweep(cfg)
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
    rep = eta_limit_sweep(cfg)

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


def _s2_log_correction(a):
    """How far below 1 the local slope log2(d(2a) / d(a)) of the s0 = 2
    linear eta-limit difference d = ||(E_eta - E_0)phi|| lies, at a = eta*T.

    With |phi_hat|^2 = <xi>^{-5} and p = xi^2 - |xi|, d^2 = a^2 I(a) with
    I(a) = int <xi>^{-5} p^2 ((1 - e^{-a p}) / (a p))^2 dxi, whose weight
    <xi>^{-5} p^2 ~ 1/xi cuts off at xi ~ a^{-1/2}: I(a) = ln(1/a)/2 + C + o(1),
    C = c + g/2, c = int_0^inf (<xi>^{-5} p^2 - 1/xi [xi > 1]) dxi and
    g = int_0^inf (((1 - e^{-v}) / v)^2 - [v < 1]) dv / v."""
    from scipy.integrate import quad

    f = lambda x: (x * x - x) ** 2 * (1.0 + x * x) ** -2.5
    h = lambda v: (np.expm1(-v) / v) ** 2
    c = quad(f, 0.0, 1.0)[0] + quad(lambda x: f(x) - 1.0 / x, 1.0, np.inf, limit=200)[0]
    g = quad(lambda v: (h(v) - 1.0) / v, 0.0, 1.0)[0] + quad(lambda v: h(v) / v, 1.0, np.inf)[0]
    integral = lambda a: 0.5 * np.log(1.0 / a) + c + 0.5 * g
    return 0.5 * np.log2(integral(a) / integral(2.0 * a))


def test_linear_eta_rate_follows_the_datums_regularity():
    # the linear flow's eta -> 0 rate: ||(E_eta - E_0)phi|| ~ eta^{min(1, s0/2)}
    # for |phi_hat| ~ <xi>^{-(s0 + 1/2)}, so the sqrt(eta) rate is sharp for
    # H^1 data only.  The local slopes climb toward the rate from below; the
    # slowest is s0 = 2, where eta^2 ln(1/eta) holds them back by a log
    # correction, and that correction at the last pair bounds every gap
    grid = Grid(16.0 * np.pi, 8192)
    T = 0.25
    etas = 0.2 / 2.0 ** np.arange(6)
    n = grid.band(grid.xi > 0.0)
    xi = grid.at_modes(grid.xi, n)
    phases = np.exp(2j * np.pi * np.random.default_rng(0).random(n.size))
    tol = _s2_log_correction(etas[-1] * T)
    gaps = {}
    for s0 in (1.0, 2.0, 3.0):
        c = (1.0 + xi ** 2) ** (-(s0 + 0.5) / 2.0) * phases
        phi = SpectralField.from_modes(grid, np.concatenate([n, -n]),
                                       np.concatenate([c, np.conj(c)]))
        u0 = semigroup_apply(phi, T, EquationParams(beta=1.0, eta=0.0))
        d = np.array([l2_norm(semigroup_apply(phi, T, EquationParams(beta=1.0, eta=e)) - u0)
                      for e in etas])
        slopes = np.log2(d[:-1] / d[1:])
        rate = min(1.0, s0 / 2.0)
        assert np.all(np.diff(slopes) > 0) and slopes[-1] < rate, (s0, slopes)
        gaps[s0] = rate - slopes[-1]
    assert max(gaps.values()) == gaps[2.0] <= tol, (gaps, tol)


def test_band_cut_rough_datum_has_the_sqrt_eta_cauchy_rate():
    # the nonlinear eta -> 0 Cauchy rate of an s0 = 1 datum, |phi_hat| ~
    # <xi>^{-3/2} with L^2 norm 0.05, is sqrt(eta): the sweep's rate clause,
    # the strict xfail for the tuned smooth datum, passes, and every local
    # slope lies within 0.1 of 1/2 (measured 0.434, 0.454, 0.498).  The
    # datum is cut to |xi| <= xi_max/3, so u^2 is resolved and no
    # AliasingBudgetWarning fires (one would fail the test).  The rate holds
    # where 1 << 1/(eta t) << (xi_max/3)^2; past the cut the difference is
    # linear in eta again: on the eta-limit config's Grid(16pi, 512), T and
    # values, xi_max/3 = 5.3 and the slopes climb 0.32, 0.50, 0.70
    # (measured).  Hence xi_max = 128 here, and T = 0.05 keeps the step
    # count at 1000.
    # At this amplitude the slopes are the linear flow's to within 0.01
    grid = Grid(2.0 * np.pi, 512)
    n = grid.band((grid.xi > 0.0) & (grid.xi <= grid.xi_max / 3.0))
    xi = grid.at_modes(grid.xi, n)
    c = (1.0 + xi ** 2) ** -0.75 * np.exp(2j * np.pi * np.random.default_rng(0).random(n.size))
    phi = SpectralField.from_modes(grid, np.concatenate([n, -n]), np.concatenate([c, np.conj(c)]))
    phi = phi * (0.05 / l2_norm(phi))
    slopes = {}
    for nonlinear in (True, False):
        cfg = LimitSweepConfig(phi=phi, sweep_values=(0.2, 0.1, 0.05, 0.025),
                               base_params=EquationParams(beta=1.0, eta=1.0, nonlinear=nonlinear),
                               solver=SolverConfig(dt=5e-5, T=0.05, keep_every=10))
        with warnings.catch_warnings():
            warnings.simplefilter("error", AliasingBudgetWarning)
            rep = eta_limit_sweep(cfg)
        cauchy = rep.column("cauchy_diff").astype(float)
        slopes[nonlinear] = np.log2(cauchy[:-1] / cauchy[1:])
        assert abs(rep.summary["fitted_slope"] - 0.5) <= 0.1
    assert np.all(np.abs(slopes[True] - 0.5) <= 0.1), slopes
    assert np.all(np.abs(slopes[True] - slopes[False]) <= 0.01), slopes


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _expansion_differences(name, key):
    """d1(v) = sup_t ||u^v - u^0|| at v = 0.4 * 2^-k, k = 0..5, and d2(v) =
    sup_t ||u^v - 2 u^(v/2) + u^0|| at the five v whose half is swept, for
    the parameter `key` of the tuned config `name` (its datum, grid and
    solver), all from one 7-member stack with the limit 0 first."""
    cfg = parse_config((CONFIGS / name).read_text())
    values = 0.4 / 2.0 ** np.arange(6)
    u0, *runs = solve_stepper_stack(
        build_initial_data(cfg),
        [dataclasses.replace(cfg.equation_params(), **{key: v}) for v in (0.0, *values)],
        cfg.solver_config())
    grid = u0.grid

    def sup(c):
        return float(sobolev_norm_stack(grid, c, 0.0).max())

    d1 = np.array([sup(u.coeffs - u0.coeffs) for u in runs])
    d2 = np.array([sup(u.coeffs - 2.0 * half.coeffs + u0.coeffs)
                   for u, half in zip(runs, runs[1:])])
    return d1, d2


def _local_slopes(d):
    return np.log2(d[:-1] / d[1:])


def test_beta_limit_is_a_first_order_expansion():
    # u^beta = u^0 + beta v + O(beta^2) on the beta-limit config: the d1
    # local slopes lie within 0.03 of 1 and the d2 ones within 0.05 of 2,
    # both climbing (measured 0.978 ... 1.000 and 1.964 ... 1.998), and the
    # Richardson factor d1(v/2) / d2(v), by which 2u^(v/2) - u^v is closer to
    # u^0 than u^(v/2) is, doubles as v halves, to within 5%
    d1, d2 = _expansion_differences("beta-limit.cfg", "beta")
    s1, s2 = _local_slopes(d1), _local_slopes(d2)
    assert np.all(np.abs(s1 - 1.0) <= 0.03) and np.all(np.diff(s1) >= 0.0), s1
    assert np.all(np.abs(s2 - 2.0) <= 0.05) and np.all(np.diff(s2) >= 0.0), s2
    richardson = d1[1:] / d2
    assert np.all(richardson > 1.0)
    growth = richardson[1:] / richardson[:-1]
    assert np.all(np.abs(growth - 2.0) <= 0.1), growth


def test_eta_limit_is_a_first_order_expansion_approached_slowly():
    # u^eta = u^0 + eta v + O(eta^2) on the eta-limit config, but from
    # further off: the d1 local slopes climb from 0.718 to 0.971 and the d2
    # ones from 1.419 to 1.892 (measured).  Each climbs strictly, stays below
    # its limit (1, 2), starts above 0.7 (1.4) and ends above 0.96 (1.85),
    # and its gap to the limit shrinks by a factor of at most 0.7 per halving
    # of eta (measured 0.52 ... 0.64), as an O(eta) correction to the slope
    # would.  The Richardson factor d1(v/2) / d2(v) grows by a factor that
    # climbs toward 2: each above 1.4, the last above 1.8.  The sqrt(eta)
    # Cauchy rate clause stays the strict xfail of the acceptance suite
    d1, d2 = _expansion_differences("eta-limit.cfg", "eta")
    for slopes, limit, first, last in ((_local_slopes(d1), 1.0, 0.7, 0.96),
                                       (_local_slopes(d2), 2.0, 1.4, 1.85)):
        gaps = limit - slopes
        assert np.all(np.diff(slopes) > 0.0) and np.all(gaps > 0.0), slopes
        assert slopes[0] >= first and slopes[-1] >= last, slopes
        assert np.all(gaps[1:] <= 0.7 * gaps[:-1]), gaps
    richardson = d1[1:] / d2
    growth = richardson[1:] / richardson[:-1]
    assert np.all(richardson > 1.0) and np.all(np.diff(growth) > 0.0), richardson
    assert np.all(growth >= 1.4) and growth[-1] >= 1.8, growth


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


def test_beta_sweep_never_holds_its_stack():
    # a sweep reduces each block of its stack's kept states as it is
    # stepped: the 5 members' 401 kept states of M = 256 (keep_every = 1),
    # as one (B, K, M) array, would take more than the sweep's traced peak
    grid = Grid(8.0 * np.pi, 256)
    phi = SpectralField.from_function(grid, lambda x: 0.5 * np.exp(-x * x))
    cfg = LimitSweepConfig(phi=phi, sweep_values=(0.4, 0.2, 0.1, 0.05),
                           base_params=EquationParams(beta=1.0, eta=1.0),
                           solver=SolverConfig(dt=2.5e-3, T=1.0, keep_every=1))
    stack_bytes = np.empty((5, 401, grid.M), dtype=np.complex128).nbytes
    tracemalloc.start()
    try:
        rep = beta_limit_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == 4
    assert peak < stack_bytes
