"""Mild-solution solvers: contraction construction, Duhamel quadrature,
Picard iteration and the integrating-factor stepper."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chenlee_lab.core import (
    AliasingBudgetWarning,
    EquationParams,
    Grid,
    SpectralField,
    linear_symbol,
    nonlinear_term,
    semigroup_apply,
)
from chenlee_lab import solver
from chenlee_lab.solver import (
    CflError,
    NonContractionError,
    PicardError,
    QuadratureConvergenceError,
    SolverBlowupError,
    SolverConfig,
    Trajectory,
    _lagrange_matrix,
    chebyshev_nodes,
    contraction_time,
    duhamel_integral,
    g_exponent,
    solve_picard,
    solve_stepper,
    solve_stepper_stack,
)
from chenlee_lab.spaces import l2_norm, sobolev_norm

GRID = Grid(8.0 * np.pi, 256)
PARAMS = EquationParams(beta=1.0, eta=1.0)


def _gaussian(amp, grid=GRID):
    return SpectralField.from_function(grid, lambda x: amp * np.exp(-x * x))


# ---------------------------------------------------------------------------
# config / trajectory plumbing
# ---------------------------------------------------------------------------

def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=2.0, T=1.0)


def test_trajectory_validation():
    u = _gaussian(1.0)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), [u], PARAMS)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5, 0.25]), [u, u, u], PARAMS)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.5]), [u], PARAMS)  # must start at 0


def test_chebyshev_nodes():
    t = chebyshev_nodes(2.0, 8)
    assert t[0] == 0.0 and t[-1] == pytest.approx(2.0)
    assert np.all(np.diff(t) > 0)
    assert t.size == 9


# ---------------------------------------------------------------------------
# contraction construction
# ---------------------------------------------------------------------------

def test_g_exponent_values():
    assert g_exponent(0.0) == 0.25
    assert g_exponent(1.0) == 0.25
    assert g_exponent(-0.25) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        g_exponent(-0.5)


def test_contraction_time_closed_form():
    # C=0.5, ||phi||=1, s=0: gamma=1, T = (4*0.5)^{-1/0.25} = 2^{-4}
    assert contraction_time(1.0, 0.0, 1.0, 0.5) == pytest.approx(0.0625)
    assert contraction_time(0.0, 0.0, 1.0, 0.5) == 1.0
    assert contraction_time(1e-9, 0.0, 1.0, 0.5) == 1.0  # capped at 1


def test_contraction_time_monotone_in_norm():
    ts = [contraction_time(r, 0.0, 1.0, 0.4) for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(ts, ts[1:]))


# ---------------------------------------------------------------------------
# stepper
# ---------------------------------------------------------------------------

def test_cfl_rejection():
    with pytest.raises(CflError):
        solve_stepper(_gaussian(0.1), PARAMS, SolverConfig(dt=0.1, T=1.0))


def test_linear_run_matches_semigroup():
    phi = _gaussian(1.0)
    p = EquationParams(beta=1.0, eta=1.0, nonlinear=False)
    traj = solve_stepper(phi, p, SolverConfig(dt=2e-3, T=1.0, keep_every=100))
    for t, u in zip(traj.times, traj.states):
        ref = semigroup_apply(phi, t, p)
        scale = max(np.abs(ref.coeffs).max(), 1e-300)
        assert np.abs(u.coeffs - ref.coeffs).max() <= 1e-12 * scale


def test_instability_band_growth():
    # single mode at xi = 0.5 grows at exactly e^{0.25 eta t} under the
    # linear flow (p(1/2) = -eta/4)
    g = Grid(4.0 * np.pi, 64)
    phi = SpectralField.single_mode(g, 2, 0.1)  # xi = 2*pi/(4 pi) = 0.5
    p = EquationParams(beta=0.0, eta=2.0, nonlinear=False)
    traj = solve_stepper(phi, p, SolverConfig(dt=1e-2, T=1.0, keep_every=25))
    for t, u in zip(traj.times, traj.states):
        assert l2_norm(u) == pytest.approx(np.exp(0.5 * t) * l2_norm(phi), rel=1e-12)


def test_stepper_fourth_order():
    # Richardson: ||u_h - u_{h/2}|| / ||u_{h/2} - u_{h/4}|| ~ 2^4
    g = Grid(8.0 * np.pi, 128)
    phi = _gaussian(2.0, g)
    sols = {}
    for dt in (4e-3, 2e-3, 1e-3):
        sols[dt] = solve_stepper(phi, PARAMS, SolverConfig(dt=dt, T=1.0,
                                                           keep_every=10 ** 6)).final_state()
    e1 = l2_norm(sols[4e-3] - sols[2e-3])
    e2 = l2_norm(sols[2e-3] - sols[1e-3])
    order = np.log2(e1 / e2)
    assert order == pytest.approx(4.0, abs=0.35)


def test_blowup_detection():
    cfg = SolverConfig(dt=1e-3, T=1.0, keep_every=10, amplitude_cap=0.5)
    with pytest.raises(SolverBlowupError) as exc:
        solve_stepper(_gaussian(0.9), PARAMS, cfg)  # already past the tiny cap
    assert 0.0 < exc.value.t_blowup <= 1.0


# members of one stack: dispersion and dissipation varied, one linear member
STACK = [PARAMS, EquationParams(beta=0.25, eta=1.0), EquationParams(beta=1.0, eta=0.1),
         EquationParams(beta=0.0, eta=0.0), EquationParams(beta=1.0, eta=1.0, nonlinear=False)]


def test_stack_members_equal_separate_runs():
    phi = _gaussian(0.5)
    cfg = SolverConfig(dt=1e-3, T=0.2, keep_every=25)
    stacked = solve_stepper_stack(phi, STACK, cfg)
    assert len(stacked) == len(STACK)
    for params, traj in zip(STACK, stacked):
        alone = solve_stepper(phi, params, cfg)
        assert traj.params == params
        assert np.array_equal(traj.times, alone.times)
        assert all(np.array_equal(u.coeffs, v.coeffs)
                   for u, v in zip(traj.states, alone.states, strict=True))
        assert alone.info == {"method": "if_rk4", "dt": 1e-3, "n_steps": 200,
                              "sweep_size": 1, "rhs_evals": 800}
        assert traj.info == dict(alone.info, sweep_size=len(STACK))


def test_stack_cfl_checks_every_member_before_stepping(monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "nonlinear_stack", lambda *a, **k: calls.append(a))
    # dt * max|q| = 0.01 * 0.1 * 16^2 = 0.256 for the first, 2.56 for the last
    members = [EquationParams(beta=0.1, eta=1.0), PARAMS]
    with pytest.raises(CflError):
        solve_stepper_stack(_gaussian(0.1), members, SolverConfig(dt=1e-2, T=1.0))
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
@pytest.mark.parametrize("keep_every, message", [(10, "amplitude cap"), (10 ** 6, "blew up")],
                         ids=["amplitude_cap", "non_finite"])
def test_stack_member_blowup_raises(keep_every, message):
    # the linear member grows like e^{eta t / 4} on the band |xi| < 1:
    # past the amplitude cap at a kept step, or to inf within T otherwise
    cfg = SolverConfig(dt=1e-3, T=1.0, keep_every=keep_every)
    runaway = EquationParams(beta=1.0, eta=4000.0, nonlinear=False)
    solve_stepper(_gaussian(0.5), PARAMS, cfg)  # the first member alone is fine
    with pytest.raises(SolverBlowupError, match=message) as exc:
        solve_stepper_stack(_gaussian(0.5), [PARAMS, runaway], cfg)
    assert 0.0 < exc.value.t_blowup < 1.0


def test_stack_warns_when_one_member_exceeds_aliasing_budget():
    # inviscid Burgers steepens the unit Gaussian past the budget, while the
    # dissipative member stays resolved; the stack's warnings are the
    # Burgers member's, each naming the worst row's tail fraction
    phi = _gaussian(1.0)
    cfg = SolverConfig(dt=1e-3, T=1.0, keep_every=1000)
    burgers = EquationParams(beta=0.0, eta=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasingBudgetWarning)
        solve_stepper(phi, PARAMS, cfg)
    with pytest.warns(AliasingBudgetWarning) as alone:
        solve_stepper(phi, burgers, cfg)
    with pytest.warns(AliasingBudgetWarning) as stacked:
        solve_stepper_stack(phi, [PARAMS, burgers], cfg)
    assert [str(w.message) for w in stacked] == [str(w.message) for w in alone]


def test_mass_conserved_exactly():
    traj = solve_stepper(_gaussian(0.5), PARAMS, SolverConfig(dt=1e-3, T=0.5, keep_every=50))
    mass = np.array([u.coeffs[0] for u in traj.states])
    assert np.abs(mass - mass[0]).max() == 0.0


# ---------------------------------------------------------------------------
# Duhamel quadrature
# ---------------------------------------------------------------------------

def test_duhamel_zero_for_linear_flow():
    p = EquationParams(nonlinear=False)
    traj = solve_stepper(_gaussian(0.5), p, SolverConfig(dt=2e-3, T=0.2, keep_every=25))
    assert l2_norm(duhamel_integral(traj, 0.2)) == 0.0


def test_duhamel_identity():
    # u(t) = S(t) phi - int_0^t S(t-t') u u_x dt' along a nonlinear run
    phi = _gaussian(0.5)
    traj = solve_stepper(phi, PARAMS, SolverConfig(dt=1e-3, T=0.25, keep_every=10))
    t = 0.25
    lhs = traj.final_state()
    rhs = semigroup_apply(phi, t, PARAMS) - duhamel_integral(traj, t)
    assert l2_norm(lhs - rhs) <= 1e-8 * l2_norm(lhs)


def test_duhamel_convergence_guard():
    phi = _gaussian(0.5)
    traj = solve_stepper(phi, PARAMS, SolverConfig(dt=1e-3, T=0.25, keep_every=10))
    with pytest.raises(QuadratureConvergenceError):
        duhamel_integral(traj, 0.25, quad_nodes=1, panel_length=10.0, tol=1e-14)


def test_duhamel_range_check():
    traj = solve_stepper(_gaussian(0.1), PARAMS, SolverConfig(dt=2e-3, T=0.1, keep_every=10))
    with pytest.raises(ValueError):
        duhamel_integral(traj, 0.5)


def test_duhamel_rejects_too_many_nodes():
    # polynomial interpolation through 41 equispaced nodes is not trusted
    traj = solve_stepper(_gaussian(0.1), PARAMS, SolverConfig(dt=1e-3, T=0.04))
    assert traj.times.size == 41
    with pytest.raises(ValueError, match="Lebesgue constant"):
        duhamel_integral(traj, 0.04)


def test_duhamel_rejects_40_equispaced_nodes():
    # 40 equispaced nodes: Lebesgue constant about 1.3e9 on the Gauss points,
    # so rounding in the samples is amplified past the 1e-8 tolerance
    times = 1e-3 * np.arange(40)
    phi = _gaussian(0.1)
    traj = Trajectory(times, [semigroup_apply(phi, t, PARAMS) for t in times], PARAMS)
    with pytest.raises(ValueError, match=r"40 nodes has Lebesgue constant 1\.\d+e\+09"):
        duhamel_integral(traj, times[-1], check=False)


@pytest.mark.parametrize("nodes", [chebyshev_nodes(1.0, 16), 0.01 * np.arange(26)],
                         ids=["chebyshev17", "equispaced26"])
def test_lagrange_matrix_reproduces_monomials(nodes):
    # interpolation through n+1 nodes is exact on degree <= n.  Rounding is
    # about eps times the Lebesgue function lam(tau) = sum_j |l_j(tau)|, which
    # stays below 3 on Chebyshev nodes but reaches 2.6e5 near the ends of 26
    # equispaced ones (Runge), whatever the formula for the weights.
    tau = np.linspace(0.0, nodes[-1], 401)
    L = _lagrange_matrix(nodes, tau)
    tol = np.maximum(1e-12, 16 * np.finfo(float).eps * np.abs(L).sum(axis=1))
    for d in range(nodes.size):
        err = np.abs(L @ nodes ** d - tau ** d) / nodes[-1] ** d
        assert np.all(err <= tol), d


def test_lagrange_matrix_unit_row_on_node():
    nodes = chebyshev_nodes(0.5, 16)
    rows = [0, 7, 16]
    assert np.array_equal(_lagrange_matrix(nodes, nodes[rows]), np.eye(17)[rows])


def _probe_trajectory(phi, T):
    # C_CONTRACTION's probe (scripts/calibrate.py): the linear flow at 17
    # Chebyshev nodes on [0, T]
    times = chebyshev_nodes(T, 16)
    return Trajectory(times, [semigroup_apply(phi, t, PARAMS) for t in times], PARAMS)


def test_duhamel_samples_nonlinearity_once(monkeypatch):
    # the probe for the unit Gaussian at T=1, the largest of its ratios: 16
    # Duhamel integrals over one 17-node trajectory take the nonlinearity
    # from one stacked call on its 17 states
    calls = []
    original = solver.nonlinear_stack

    def counting(grid, coeffs, *args, **kwargs):
        calls.append(coeffs.shape)
        return original(grid, coeffs, *args, **kwargs)

    monkeypatch.setattr(solver, "nonlinear_stack", counting)
    T = 1.0
    traj = _probe_trajectory(SpectralField.from_function(GRID, lambda x: np.exp(-x * x)), T)
    sup_duh = max(l2_norm(duhamel_integral(traj, t, check=False)) for t in traj.times[1:])
    assert calls == [(17, GRID.M)]
    ratio = sup_duh / (T ** 0.25 * max(l2_norm(u) for u in traj.states) ** 2)
    assert ratio == pytest.approx(0.19605275283210102, rel=1e-9)


def test_nonlinear_samples_match_per_state_term():
    traj = _probe_trajectory(_gaussian(0.5), 0.5)
    G = traj.nonlinear_samples
    for row, u in zip(G, traj.states):
        assert np.array_equal(row, nonlinear_term(u).coeffs)


def test_duhamel_memo_hit_is_a_fresh_build_and_read_only():
    nodes = tuple(chebyshev_nodes(0.5, 16).tolist())
    key = (GRID, PARAMS, nodes, nodes[5], 10, 0.25)
    W, lebesgue = solver._duhamel_operator(*key)
    assert solver._duhamel_operator(*key)[0] is W  # a hit shares the array
    sym = linear_symbol(GRID.xi, PARAMS)
    sym[GRID.M // 2] = 0.0
    W_fresh, lebesgue_fresh = solver._duhamel_weights(np.array(nodes), sym, nodes[5], 10, 0.25)
    assert np.array_equal(W, W_fresh) and lebesgue == lebesgue_fresh
    assert not W.flags.writeable
    with pytest.raises(ValueError):
        W[0, 0] = 0.0


def test_duhamel_second_probe_builds_no_operator():
    # probes on the same grid, params and nodes share every weight operator
    first = _probe_trajectory(_gaussian(0.5), 0.25)
    second = _probe_trajectory(_gaussian(0.3), 0.25)
    for t in first.times[1:]:
        duhamel_integral(first, t, check=False)
    misses = solver._duhamel_operator.cache_info().misses
    for t in second.times[1:]:
        duhamel_integral(second, t, check=False)
    assert solver._duhamel_operator.cache_info().misses == misses


# ---------------------------------------------------------------------------
# Picard route
# ---------------------------------------------------------------------------

def test_picard_requires_dissipation():
    with pytest.raises(ValueError):
        solve_picard(_gaussian(0.1), EquationParams(eta=0.0), SolverConfig(dt=1e-3, T=0.1))


def test_picard_converges_and_agrees_with_stepper():
    phi = _gaussian(0.05)
    cfg = SolverConfig(dt=1e-3, T=0.25)
    traj_p = solve_picard(phi, PARAMS, cfg, s=0.0)
    assert traj_p.info["residual"] <= 1e-10
    assert all(r <= 0.75 for r in traj_p.info["ratios"])
    traj_s = solve_stepper(phi, PARAMS, cfg)
    assert l2_norm(traj_p.final_state() - traj_s.final_state()) <= 1e-6


@pytest.mark.filterwarnings("ignore")  # divergence is the point here
def test_picard_diverges_for_large_data():
    phi = _gaussian(40.0)
    with pytest.raises((NonContractionError, SolverBlowupError, PicardError)):
        solve_picard(phi, PARAMS, SolverConfig(dt=1e-3, T=1.0))


def test_picard_is_deterministic():
    # equal inputs give bitwise-equal iterates: the Duhamel operator is a
    # fixed function of the nodes, with nothing random in its construction
    phi = _gaussian(0.05)
    cfg = SolverConfig(dt=1e-3, T=0.25)
    a = solve_picard(phi, PARAMS, cfg)
    b = solve_picard(phi, PARAMS, cfg)
    assert a.info["residual"] == b.info["residual"]
    for u, v in zip(a.states, b.states):
        assert np.array_equal(u.coeffs, v.coeffs)
