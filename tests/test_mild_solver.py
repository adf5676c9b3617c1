"""Mild-solution solvers: contraction construction, Duhamel quadrature,
Picard iteration and the integrating-factor stepper."""
import ast
import dataclasses
import os
import pathlib
import pickle
import subprocess
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from chenlee_lab.core import (
    AliasingBudgetWarning,
    EquationParams,
    Grid,
    SpectralField,
    nonlinear_stack,
    linear_symbol,
    nonlinear_term,
    random_real_field,
    semigroup_apply,
    semigroup_multiplier,
    semigroup_stack,
)
from chenlee_lab import core, solver, spaces
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
)
from chenlee_lab.spaces import l2_norm, sobolev_norm, sobolev_norm_stack
from conftest import solve_stepper_stack

GRID = Grid(8.0 * np.pi, 256)
PARAMS = EquationParams(beta=1.0, eta=1.0)


def _gaussian(amp, grid=GRID):
    return SpectralField.from_function(grid, lambda x: amp * np.exp(-x * x))


def _band_field(grid, rng, lo, hi):
    """A seeded real field whose modes are random on lo <= |xi| <= hi and
    zero elsewhere."""
    k = grid.band((grid.xi >= lo) & (grid.xi <= hi))
    amp = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
    return SpectralField.from_modes(grid, np.concatenate([k, -k]),
                                    np.concatenate([amp, amp.conj()]))


# ---------------------------------------------------------------------------
# config / trajectory plumbing
# ---------------------------------------------------------------------------

def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=2.0, T=1.0)
    # rejected at construction, before a solver divides by it (keep_every),
    # iterates zero times (picard_max_iters) or can never converge
    # (picard_tol); the smallest accepted value passes
    for name, bad, smallest in [("keep_every", 0, 1), ("picard_max_iters", 0, 1),
                                ("picard_tol", 0.0, 1e-300)]:
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: bad})
        SolverConfig(**{name: smallest})


def test_trajectory_validation():
    u = _gaussian(1.0)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), [u], PARAMS)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5, 0.25]), [u, u, u], PARAMS)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.5]), [u], PARAMS)  # must start at 0
    with pytest.raises(ValueError, match="grids"):  # same M, another box
        Trajectory(np.array([0.0, 0.5]), [u, _gaussian(1.0, Grid(4.0 * np.pi, 256))], PARAMS)


def test_trajectories_are_read_only():
    # a write into a stored state or time would leave the samples cached
    # from them stale, so every trajectory refuses it, however it was built
    phi = _gaussian(0.1)
    times = np.array([0.0, 0.1, 0.2])
    fields = [semigroup_apply(phi, t, PARAMS) for t in times]
    built = Trajectory(times, fields, PARAMS)
    for traj in (solve_stepper(phi, PARAMS, SolverConfig(dt=1e-3, T=0.05, keep_every=10)),
                 solve_picard(phi, PARAMS, SolverConfig(T=0.25)), built):
        with pytest.raises(ValueError):
            traj.coeffs[0, 0] = 1.0
        with pytest.raises(ValueError):
            traj.states[-1].coeffs *= 2.0
        with pytest.raises(ValueError):
            traj.final_state().coeffs[1] = 1.0
        with pytest.raises(ValueError):
            traj.times[-1] = 1.0
    # a trajectory built from fields holds copies: the caller's arrays stay
    # writable and writing them leaves the trajectory as it was
    times[1] = 0.15
    for u in fields:
        u.coeffs *= 2.0
    assert built.times[1] == 0.1
    assert np.array_equal(built.coeffs, 0.5 * np.array([u.coeffs for u in fields]))


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
    assert contraction_time(1.0, 0.0, 0.5) == pytest.approx(0.0625)
    assert contraction_time(0.0, 0.0, 0.5) == 1.0
    assert contraction_time(1e-9, 0.0, 0.5) == 1.0  # capped at 1


def test_contraction_time_monotone_in_norm():
    ts = [contraction_time(r, 0.0, 0.4) for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(ts, ts[1:]))


# ---------------------------------------------------------------------------
# stepper
# ---------------------------------------------------------------------------

def test_cfl_rejection():
    with pytest.raises(CflError):
        solve_stepper(_gaussian(0.1), PARAMS, SolverConfig(dt=0.1, T=1.0))


def _is_semigroup_run(phi, traj):
    """Whether every kept state of the linear run `traj` from `phi` is
    semigroup_apply's at its time, bitwise."""
    ref = np.array([semigroup_apply(phi, t, traj.params).coeffs for t in traj.times])
    return np.array_equal(traj.coeffs.view(np.uint64), ref.view(np.uint64))


def test_linear_run_matches_semigroup():
    # a linear run is S(t)phi exactly, kept on the nonlinear stepper's
    # schedule: every 150th of 500 steps and the last
    phi = _gaussian(1.0)
    p = EquationParams(beta=1.0, eta=1.0, nonlinear=False)
    cfg = SolverConfig(dt=2e-3, T=1.0, keep_every=150)
    traj = solve_stepper(phi, p, cfg)
    assert _is_semigroup_run(phi, traj)
    assert traj.times.tolist() == solve_stepper(phi, PARAMS, cfg).times.tolist()
    assert traj.times.tolist() == [0.0, 0.3, 0.6, 0.9, 1.0]
    assert traj.info == {"method": "semigroup", "dt": 2e-3, "n_steps": 500,
                         "sweep_size": 1, "rhs_evals": 0}


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
    # one run that grows like e^{eta t / 4} on the band |xi| < 1 is stopped
    # at the first kept state whose amplitude exceeds 1e6, and not before:
    # the run up to the previous kept step stays under the cap
    cfg = SolverConfig(dt=1e-3, T=1.0, keep_every=10)
    runaway = EquationParams(beta=1.0, eta=4000.0, nonlinear=False)
    with pytest.raises(SolverBlowupError, match="amplitude cap") as exc:
        solve_stepper(_gaussian(0.5), runaway, cfg)
    t_blowup = exc.value.t_blowup
    assert 0.0 < t_blowup < 1.0
    before = solve_stepper(_gaussian(0.5), runaway,
                           SolverConfig(dt=1e-3, T=t_blowup - 10e-3, keep_every=10))
    peak = np.abs(core.values_stack(GRID, before.coeffs[-1])).max()
    assert 1e6 / np.exp(4000.0 / 4.0 * 10e-3) < peak <= 1e6


# members of one stack: dispersion and dissipation varied.  A stack is all
# nonlinear or all linear; LINEAR_STACK is the same members without u u_x
STACK = [PARAMS, EquationParams(beta=0.25, eta=1.0), EquationParams(beta=1.0, eta=0.1),
         EquationParams(beta=0.0, eta=0.0)]
LINEAR_STACK = [dataclasses.replace(p, nonlinear=False) for p in STACK]
LINEAR = LINEAR_STACK[0]


def test_the_library_reads_the_stepper_as_a_stream():
    # every stepped experiment reduces stepper_blocks as it comes: the one
    # collector, solve_stepper, is defined in solver.py and used nowhere in
    # the library, and the collecting stack path and its helpers are gone
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "chenlee_lab"
    gone = ("solve_stepper_stack", "_kept_steps", "row_blocks")
    defined, used = [], []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert not [name for name in gone if name in text], path.name
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and node.name == "solve_stepper":
                defined.append(path.name)
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "solve_stepper":
                used.append(path.name)
    assert defined == ["solver.py"]
    assert used == []


def test_stack_members_equal_separate_runs():
    # a nonlinear member is bitwise its run alone; a linear one is S(t)phi
    # at the same kept times, bitwise semigroup_apply
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
    linear = solve_stepper_stack(phi, LINEAR_STACK, cfg)
    for params, traj, ref in zip(LINEAR_STACK, linear, stacked, strict=True):
        assert traj.params == params
        assert np.array_equal(traj.times, ref.times)
        assert _is_semigroup_run(phi, traj)
        assert traj.info == dict(ref.info, method="semigroup", rhs_evals=0)


def test_mixed_stack_raises_before_stepping(monkeypatch):
    # a stack is all nonlinear or all linear; a mixed one is refused before
    # any CFL check (the linear member's dt * max|q| = 2.56 > 1) or step
    calls = []
    for module, kernel in ((solver, "nonlinear_stack"), (core, "nonlinear_blocks")):
        monkeypatch.setattr(module, kernel, lambda *a, **k: calls.append(a))
    members = [EquationParams(beta=0.1, eta=1.0), LINEAR]
    with pytest.raises(ValueError, match="all nonlinear or all linear"):
        solve_stepper_stack(_gaussian(0.1), members, SolverConfig(dt=1e-2, T=1.0))
    assert calls == []


def _frozen_if_rk4(phi, params_list, config):
    """solve_stepper_stack's loop as it read before it stepped in place, a
    fresh array for every operation: the oracle the in-place loop must equal
    bitwise.  The members are nonlinear.  Returns the kept times and (B, M)
    blocks."""
    grid = phi.grid
    B = len(params_list)
    n_steps = max(1, int(round(config.T / config.dt)))
    dt = config.T / n_steps
    E1 = np.array([semigroup_multiplier(grid, dt, p) for p in params_list])
    E2 = np.array([semigroup_multiplier(grid, 0.5 * dt, p) for p in params_list])

    def rhs(c):
        return -nonlinear_stack(grid, c)

    c = np.repeat(phi.coeffs[None, :], B, axis=0)
    c[:, grid.M // 2] = 0.0
    times, kept = [0.0], [c.copy()]
    for n in range(1, n_steps + 1):
        k1 = dt * rhs(c)
        k2 = dt * rhs(E2 * (c + 0.5 * k1))
        k3 = dt * rhs(E2 * c + 0.5 * k2)
        k4 = dt * rhs(E1 * c + E2 * k3)
        c = E1 * c + (E1 * k1 + 2.0 * E2 * (k2 + k3) + k4) / 6.0
        if n % config.keep_every == 0 or n == n_steps:
            times.append(n * dt)
            kept.append(c.copy())
    return times, kept


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("grid, stacks, dt, T", [
    (GRID, (STACK, LINEAR_STACK), 1e-3, 0.2),
    (Grid(32.0 * np.pi, 1024), (STACK, LINEAR_STACK), 1e-3, 0.2),
    (Grid(32.0 * np.pi, 4096), ([PARAMS],), 2e-4, 0.02),
], ids=["M256", "M1024", "B1_M4096"])
def test_stack_equals_frozen_if_rk4_bitwise(grid, stacks, dt, T):
    # The operand order of every complex product is part of the contract:
    # numpy's complex multiply fuses one of its two products (FMA), so
    # E1 * k1 and k1 * E1 can differ in the last bit, and over many steps
    # that moves printed digits of the decay experiment's CSVs.  Each RK4
    # stage of a nonlinear stack writes straight into the kernel's padded
    # buffer: a sweep's stack, and one run on solve-m4096's grid and step
    # (B1_M4096); signed zeros count.  A linear stack is semigroup_apply's
    # bits on the same schedule.
    phi = _gaussian(0.5, grid)
    cfg = SolverConfig(dt=dt, T=T, keep_every=20)
    times, kept = _frozen_if_rk4(phi, stacks[0], cfg)
    for members in stacks:
        trajs = solve_stepper_stack(phi, members, cfg)
        assert len(trajs) == len(members) and trajs[0].info["sweep_size"] == len(members)
        for b, traj in enumerate(trajs):
            assert traj.times.tolist() == times
            if not traj.params.nonlinear:
                assert _is_semigroup_run(phi, traj)
                continue
            got = np.array([u.coeffs for u in traj.states])
            ref = np.array([block[b] for block in kept])
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("datum", ["single_mode", "band"])
def test_band_limited_datum_keeps_zero_signs_bitwise(datum):
    # a linear stack keeps a band-limited datum's empty modes exactly zero
    # for the whole run, with semigroup_apply's signs; a nonlinear stack's
    # zeros keep the frozen loop's signs
    grid = Grid(4.0 * np.pi, 64)
    phi = (SpectralField.single_mode(grid, 2, 0.1) if datum == "single_mode" else
           _band_field(grid, np.random.default_rng(1), 1.0, 3.0))
    cfg = SolverConfig(dt=1e-2, T=0.2, keep_every=5)
    linear = solve_stepper_stack(
        phi, [LINEAR, EquationParams(beta=0.0, eta=1.0, nonlinear=False)], cfg)
    assert np.count_nonzero(linear[0].final_state().coeffs == 0.0) > grid.M // 2
    assert all(_is_semigroup_run(phi, traj) for traj in linear)
    members = [PARAMS, EquationParams(beta=0.0, eta=1.0)]
    times, kept = _frozen_if_rk4(phi, members, cfg)
    for b, traj in enumerate(solve_stepper_stack(phi, members, cfg)):
        assert traj.times.tolist() == times == linear[b].times.tolist()
        got = np.array([u.coeffs for u in traj.states])
        ref = np.array([block[b] for block in kept])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


# real and imaginary parts of the operand entries of one step: each
# |entry| <= 1e150, so products of two stay finite; exact zeros and
# subnormals included
_PARTS = st.floats(-1e150 / np.sqrt(2.0), 1e150 / np.sqrt(2.0))


def _padded(a, strided):
    """A copy of the (2, n) array `a`, contiguous or in the retained blocks
    [::2, :] of a (3, n) buffer, as the stepper writes the kernel's input."""
    if not strided:
        return a.copy()
    buf = np.full((3,) + a.shape[1:], np.nan, dtype=np.complex128)
    buf[::2] = a
    return buf[::2]


def _same_but_zero_signs(x, y):
    """Bitwise equal, except that an exact zero may have either sign."""
    x, y = (np.ascontiguousarray(v).view(np.float64) for v in (x, y))
    zero = (x == 0.0) & (y == 0.0)
    return np.array_equal(np.where(zero, 0.0, x).view(np.uint64),
                          np.where(zero, 0.0, y).view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 70), strided=st.booleans(), data=st.data())
def test_negation_commutes_with_the_step_arithmetic(n, strided, data):
    # The stepper runs in phase-free coordinates (-1)^k c because negating a
    # mode's operands negates the result of every operation of an IF-RK4
    # step, bitwise: numpy's complex product (one product rounded, the other
    # fused), the sum, and the products with and division by a real scalar,
    # whether a Python float or a 0-d complex array.  Only an exact zero may
    # change sign (x + (-x) is +0 either way), and no nonzero value depends
    # on that sign.  Lengths 1-70 reach every SIMD remainder; the strided
    # case reads and writes the padded buffer's retained blocks.  The three
    # operands are one draw of float pairs, the cheapest form to generate.
    parts = data.draw(hnp.arrays(np.float64, (3, 2, n, 2), elements=_PARTS))
    E, c, b = parts.view(np.complex128)[..., 0]
    x, neg = _padded(c, strided), _padded(-c, strided)
    y, neg_y = _padded(b, strided), _padded(-b, strided)

    def both(op):
        out, out_neg = _padded(np.zeros_like(c), strided), _padded(np.zeros_like(c), strided)
        op(x, y, out)
        op(neg, neg_y, out_neg)
        return -out, out_neg

    ops = [lambda u, v, out: np.multiply(E, u, out=out),
           lambda u, v, out: np.multiply(u, E, out=out),
           lambda u, v, out: np.add(u, v, out=out)]
    for scalar in (0.5, -1e-3, 2.0, 6.0):
        for s in (scalar, np.array(complex(scalar))):
            ops += [lambda u, v, out, s=s: np.multiply(s, u, out=out),
                    lambda u, v, out, s=s: np.multiply(u, s, out=out),
                    lambda u, v, out, s=s: np.divide(u, s, out=out)]
    for op in ops:
        assert _same_but_zero_signs(*both(op))


def test_stepper_runs_on_two_grids_share_no_buffer():
    # each run allocates its own workspace: a run on another grid between
    # two runs on the first leaves the third bitwise its frozen-oracle result
    cfg = SolverConfig(dt=1e-3, T=0.05, keep_every=10)
    for grid in (GRID, Grid(32.0 * np.pi, 1024), GRID):
        phi = _gaussian(0.5, grid)
        times, kept = _frozen_if_rk4(phi, [PARAMS], cfg)
        traj = solve_stepper(phi, PARAMS, cfg)
        assert traj.times.tolist() == times
        got = np.array([u.coeffs for u in traj.states])
        assert np.array_equal(got.view(np.uint64), np.array(kept)[:, 0].view(np.uint64))


def test_stack_cfl_checks_every_member_before_stepping(monkeypatch):
    calls = []
    # the stepper's kernel runs through core's workspace, and every stack
    # takes its multipliers from semigroup_stack (a linear one's states are
    # them times the datum)
    for module, name in ((solver, "nonlinear_stack"), (core, "nonlinear_blocks"),
                         (solver, "semigroup_stack")):
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
    # dt * max|q| = 0.01 * 0.1 * 16^2 = 0.256 for the first, 2.56 for the last
    members = [EquationParams(beta=0.1, eta=1.0), PARAMS]
    for stack in (members, [dataclasses.replace(p, nonlinear=False) for p in members]):
        with pytest.raises(CflError):
            solve_stepper_stack(_gaussian(0.1), stack, SolverConfig(dt=1e-2, T=1.0))
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
@pytest.mark.parametrize("keep_every, eta, message, t_blowup", [
    (10, 3000.0, "amplitude cap", 0.02), (10 ** 6, 4000.0, "blew up", 0.015),
], ids=["amplitude_cap", "non_finite"])
def test_stack_member_blowup_raises(keep_every, eta, message, t_blowup):
    # the runaway member grows like e^{eta t / 4} on the band |xi| < 1 and
    # its square feeds every mode: past the amplitude cap at a kept step,
    # or to inf between kept steps
    cfg = SolverConfig(dt=1e-3, T=1.0, keep_every=keep_every)
    runaway = EquationParams(beta=1.0, eta=eta)
    solve_stepper(_gaussian(0.5), PARAMS, cfg)  # the first member alone is fine
    with pytest.raises(SolverBlowupError, match=message) as exc:
        solve_stepper_stack(_gaussian(0.5), [PARAMS, runaway], cfg)
    assert exc.value.t_blowup == pytest.approx(t_blowup, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("keep_every, message, t_blowup", [
    (10, "amplitude cap", 0.02), (10 ** 6, "blew up near t=1", 1.0),
], ids=["amplitude_cap", "non_finite"])
def test_linear_stack_blowup_is_raised_at_a_kept_time(keep_every, message, t_blowup):
    # a linear stack is checked at its kept times: the runaway grows like
    # e^{1000 t}, past the cap at t = 0.02 (0.04 for the slower one) and to
    # inf by t = 1, where the slower one is only over the cap; a non-finite
    # state comes first, and no overflow warns
    cfg = SolverConfig(dt=1e-3, T=1.0, keep_every=keep_every)
    slower = EquationParams(beta=1.0, eta=2000.0, nonlinear=False)
    runaway = EquationParams(beta=1.0, eta=4000.0, nonlinear=False)
    with pytest.raises(SolverBlowupError, match=message) as exc:
        solve_stepper_stack(_gaussian(0.5), [slower, LINEAR, runaway], cfg)
    assert exc.value.t_blowup == pytest.approx(t_blowup, rel=1e-12)


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
    assert [w.message.fraction for w in stacked] == [w.message.fraction for w in alone]


def _frozen_stage_check(pad):
    """The aliasing check as the kernel ran it on each stage before the
    stepper judged a step at once, on the padded product the kernel leaves
    in `pad`: the worst tail fraction over the budget of the stage's rows,
    or None where no row exceeds it."""
    chunks = np.vecdot(pad.power, pad.power)
    sums = np.vecdot(chunks[..., None, :], pad.sums)
    total, tail = sums[..., 0], sums[..., 1]
    over = tail > 1e-6 * total
    return float(np.max(tail[over] / total[over])) if np.count_nonzero(over) else None


def test_stepper_warns_once_per_offending_step(monkeypatch):
    # the Burgers member steepens past the budget from about step 530 of
    # 600, and the resolved member never does: under an "always" filter a
    # step warns once where any of its 4 stages x 2 rows is over, with the
    # worst of their frozen per-stage fractions, bitwise, attributed to the
    # stepper's line in solver.py
    stages = []

    def spy(grid, pad, out, energies):
        result = kernel(grid, pad, out, energies)
        stages.append(_frozen_stage_check(pad))
        return result

    kernel = core.nonlinear_blocks
    monkeypatch.setattr(core, "nonlinear_blocks", spy)
    cfg = SolverConfig(dt=1e-3, T=0.6, keep_every=1000)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AliasingBudgetWarning)
        solve_stepper_stack(_gaussian(1.0), [PARAMS, EquationParams(beta=0.0, eta=0.0)], cfg)
    steps = [stages[i:i + 4] for i in range(0, len(stages), 4)]
    assert len(steps) == cfg.n_steps and len(stages) == 4 * cfg.n_steps
    expected = [max(f for f in step if f is not None) for step in steps if any(step)]
    assert 0 < len(expected) < cfg.n_steps // 2
    assert any(None in step for step in steps if any(step))  # an onset step
    assert [w.category for w in caught] == [AliasingBudgetWarning] * len(expected)
    assert [w.message.fraction.hex() for w in caught] == [f.hex() for f in expected]
    assert {w.filename for w in caught} == {solver.__file__}


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
def test_the_verdict_runs_once_per_step_and_once_per_stack_call(monkeypatch):
    # the stepper judges its four stages at once, every step; every other
    # route judges each nonlinear_stack call once, whatever its rows
    calls = []

    def counting(pad, energies):
        calls.append(energies.shape)
        return verdict(pad, energies)

    verdict = core.aliasing_verdict
    for module in (core, solver):
        monkeypatch.setattr(module, "aliasing_verdict", counting)
    cfg = SolverConfig(dt=1e-3, T=0.037, keep_every=10)
    solve_stepper_stack(_gaussian(0.5), STACK, cfg)
    assert cfg.n_steps == 37 and calls == [(4, len(STACK), 3)] * 37
    calls.clear()
    solve_stepper_stack(_gaussian(0.5), LINEAR_STACK, cfg)
    assert calls == []
    stack = np.array([_gaussian(a).coeffs for a in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)])
    nonlinear_stack(GRID, stack)
    nonlinear_stack(GRID, stack.reshape(2, 3, -1))
    nonlinear_term(_gaussian(0.5))
    assert calls == [(1, 6, 3), (1, 2, 3, 3), (1, 3)]
    calls.clear()
    stack_calls = []
    monkeypatch.setattr(solver, "nonlinear_stack",
                        lambda *a: stack_calls.append(a) or nonlinear_stack(*a))
    solve_picard(_gaussian(0.1), PARAMS, SolverConfig(dt=1e-3, T=0.1))
    assert len(calls) == len(stack_calls) > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
@pytest.mark.parametrize("keep_every", [10, 10 ** 6], ids=["amplitude_cap", "non_finite"])
def test_stack_raises_the_earliest_members_blowup(keep_every):
    # the stack's error is the faster runaway's, not the slower member's
    # (non-finite at t = 0.033 for the slower; over the cap at t = 0.02, or
    # non-finite at t = 0.015 with nothing kept, for the faster)
    cfg = SolverConfig(dt=1e-3, T=1.0, keep_every=keep_every)
    slower = EquationParams(beta=1.0, eta=2000.0)
    runaway = EquationParams(beta=1.0, eta=3000.0 if keep_every == 10 else 4000.0)
    members = [slower, PARAMS, STACK[1], runaway, PARAMS]
    with pytest.raises(SolverBlowupError) as stacked:
        solve_stepper_stack(_gaussian(0.5), members, cfg)
    with pytest.raises(SolverBlowupError) as runaway_alone:
        solve_stepper(_gaussian(0.5), runaway, cfg)
    with pytest.raises(SolverBlowupError) as slower_alone:
        solve_stepper(_gaussian(0.5), slower, cfg)
    assert str(stacked.value) == str(runaway_alone.value)
    assert stacked.value.t_blowup == runaway_alone.value.t_blowup < slower_alone.value.t_blowup


@pytest.mark.parametrize("args", [(0.5,), (0.5, "amplitude cap at t=0.5")],
                         ids=["default_message", "message"])
def test_blowup_error_survives_pickling(args):
    # as a process pool sends it back: t_blowup and the message both come
    # through, whichever form raised it
    exc = SolverBlowupError(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is SolverBlowupError
    assert back.t_blowup == 0.5
    assert str(back) == str(exc)


@pytest.mark.parametrize("members", [STACK[:3], LINEAR_STACK[:3]],
                         ids=["nonlinear", "linear"])
def test_stack_rejects_a_non_finite_datum(members):
    # a NaN anywhere but the Nyquist slot
    c = _gaussian(0.5).coeffs.copy()
    c[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_stepper_stack(SpectralField(GRID, c, check=False), members,
                            SolverConfig(dt=1e-3, T=0.01))


def test_stepper_zeroes_a_non_finite_nyquist_slot():
    c = _gaussian(0.5).coeffs.copy()
    c[GRID.nyquist] = np.nan
    traj = solve_stepper(SpectralField(GRID, c, check=False), PARAMS,
                         SolverConfig(dt=1e-3, T=0.01))
    assert np.isfinite(traj.coeffs.view(np.float64)).all()


@pytest.mark.parametrize("members", [STACK, LINEAR_STACK], ids=["nonlinear", "linear"])
def test_stack_steps_in_the_calling_process(monkeypatch, members):
    # the whole stack steps here: no process is forked or spawned and no
    # thread is started
    def refuse(*args, **kwargs):
        pytest.fail("the stack started a process or a thread")

    for module, name in ((os, "fork"), (os, "posix_spawn"), (subprocess, "Popen"),
                         (threading.Thread, "start")):
        monkeypatch.setattr(module, name, refuse)
    threads = threading.active_count()
    trajs = solve_stepper_stack(_gaussian(0.5), members, SolverConfig(dt=1e-3, T=0.02,
                                                                      keep_every=10))
    assert [traj.params for traj in trajs] == members
    assert threading.active_count() == threads


@pytest.mark.parametrize("members", [STACK, LINEAR_STACK], ids=["nonlinear", "linear"])
def test_stack_leaves_the_datum_alone(members):
    # the stepper overwrites its own copy of the datum, and the linear
    # product is formed in each member's multiplier stack, never in phi
    phi = _gaussian(0.5)
    before = phi.coeffs.copy()
    trajs = solve_stepper_stack(phi, members, SolverConfig(dt=1e-3, T=0.02, keep_every=10))
    assert np.array_equal(phi.coeffs.view(np.uint64), before.view(np.uint64))
    assert all(np.array_equal(traj.states[0].coeffs, before) for traj in trajs)


def test_mass_conserved_exactly():
    traj = solve_stepper(_gaussian(0.5), PARAMS, SolverConfig(dt=1e-3, T=0.5, keep_every=50))
    mass = np.array([u.coeffs[0] for u in traj.states])
    assert np.abs(mass - mass[0]).max() == 0.0


# ---------------------------------------------------------------------------
# the stream of kept states
# ---------------------------------------------------------------------------

GRID_1024 = Grid(32.0 * np.pi, 1024)  # 4 kept states a block, same xi_max as GRID


@pytest.mark.parametrize("grid", [GRID, GRID_1024], ids=["M256", "M1024"])
@pytest.mark.parametrize("members", [STACK, LINEAR_STACK], ids=["nonlinear", "linear"])
def test_stepper_blocks_concatenate_to_the_collected_stack(grid, members):
    # every block holds at most max(1, 4096 // M) kept times, whole blocks
    # but the last, and the blocks, joined in time, are the collected
    # trajectories' arrays and times, bitwise
    phi = _gaussian(0.5, grid)
    cfg = SolverConfig(dt=1e-3, T=0.05, keep_every=1)
    blocks = list(solver.stepper_blocks(phi, members, cfg))
    rows = 4096 // grid.M
    assert [len(times) for times, _ in blocks] == [rows] * (51 // rows) + [51 % rows]
    assert all(block.shape == (len(members), len(times), grid.M) for times, block in blocks)
    joined = np.concatenate([block for _, block in blocks], axis=1)
    times = [t for block_times, _ in blocks for t in block_times]
    for traj, coeffs in zip(solve_stepper_stack(phi, members, cfg), joined, strict=True):
        assert traj.times.tolist() == times
        assert np.array_equal(traj.coeffs.view(np.uint64), coeffs.view(np.uint64))


def _frozen_block_times(config, M):
    """The blocks' times as the stream planned them before it built its
    schedule as it went: every kept step and every block's time list, up
    front."""
    kept_steps = [*range(0, config.n_steps, config.keep_every), config.n_steps]
    dt = config.T / config.n_steps
    rows = max(1, 4096 // M)
    return [[n * dt for n in kept_steps[j:j + rows]] for j in range(0, len(kept_steps), rows)]


_SCHEDULES = [(7, 10), (7, 3), (8, 4), (7, 1)]


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")  # M = 8
@pytest.mark.parametrize("M, steps, keep_every", [
    *[(M, *case) for M in (1024, 2048, 4096) for case in _SCHEDULES],
    *[(8, *case) for case in _SCHEDULES + [(1100, 1), (1100, 7), (1100, 2000)]]])
@pytest.mark.parametrize("members", [STACK[:2], LINEAR_STACK[:2]], ids=["nonlinear", "linear"])
def test_stepper_block_times_are_the_frozen_schedule(members, M, steps, keep_every):
    # keep_every past the last step, a last step off the keep multiples and
    # on them, every step kept, at 4, 2, 1 and 512 kept states a block: the
    # same times, bitwise, in the same blocks, n_kept of them
    grid = Grid(8.0 * np.pi * max(1, M / 256), M)  # dt = 1e-3 keeps the CFL bound
    cfg = SolverConfig(dt=1e-3, T=steps * 1e-3, keep_every=keep_every)
    blocks = list(solver.stepper_blocks(_gaussian(0.1, grid), members, cfg))
    assert [times for times, _ in blocks] == _frozen_block_times(cfg, M)
    assert sum(len(times) for times, _ in blocks) == cfg.n_kept
    assert [block.shape for _, block in blocks] == [(2, len(times), M) for times, _ in blocks]


def test_stepper_working_set_per_grid_point():
    # a one-member nonlinear run holds, per grid point, 12.5 complex stacks
    # of 16 bytes: the state, E1, E2 and 2*E2, five scratch stacks, the
    # padded buffer (1.5), the block being filled and the one handed over;
    # and for a moment the finiteness check's mask (1/8).  Its traced peak,
    # differenced between two grids of one row a block, must stay below 13
    # stacks (208 bytes a point), so memoized copies of the multipliers, a
    # sixth or seventh scratch stack, or the amplitude check's flip copy or
    # |u| array (half a stack) fail it.  Each half of a stage has at least
    # 8192 points on both grids, so numpy's buffer for a ufunc on the
    # strided stage (8192 elements) has the same size on both
    def peak(M):
        grid = Grid(8.0 * np.pi * M / 256, M)  # dt = 1e-3 keeps the CFL bound
        phi = _gaussian(0.1, grid)
        tracemalloc.start()
        try:
            for times, block in solver.stepper_blocks(phi, [PARAMS], SolverConfig(dt=1e-3, T=4e-3)):
                assert block.shape == (1, 1, M)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_point = (peak(32768) - peak(16384)) / 16384
    assert per_point < 13 * 16, per_point


def test_stream_holds_no_bytes_per_kept_state():
    # a dispersive linear member at M = 8 keeps 512 states a block; the
    # stream's tracemalloc peak over 100,001 kept states is within 1 byte
    # per extra kept state of its peak over 10,001 (the up-front schedule
    # held about 161 bytes per kept state for the whole run)
    grid = Grid(8.0 * np.pi, 8)
    phi = _gaussian(0.1, grid)
    member = EquationParams(beta=1.0, eta=0.0, nonlinear=False)

    def peak(kept):
        cfg = SolverConfig(dt=1e-3, T=(kept - 1) * 1e-3)
        tracemalloc.start()
        try:
            for times, block in solver.stepper_blocks(phi, [member], cfg):
                del times, block
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10_001), peak(100_001)
    assert large - small < 90_000, (small, large)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
@pytest.mark.parametrize("members, keep_every, message", [
    ([PARAMS, EquationParams(beta=1.0, eta=3000.0)], 1, "amplitude cap"),
    ([PARAMS, EquationParams(beta=1.0, eta=4000.0)], 3, "blew up"),
    ([LINEAR, EquationParams(beta=1.0, eta=4000.0, nonlinear=False)], 1, "amplitude cap"),
], ids=["amplitude_cap", "non_finite", "linear"])
def test_stepper_blocks_stop_at_the_blowup(members, keep_every, message):
    # a member that blows up stops the stream with the collected run's
    # error, at its step and t_blowup: every block whose kept times all come
    # before it has been handed over, and none holds a time at or past it
    phi = _gaussian(0.5, GRID_1024)
    cfg = SolverConfig(dt=1e-3, T=1.0, keep_every=keep_every)
    with pytest.raises(SolverBlowupError, match=message) as collected:
        solve_stepper_stack(phi, members, cfg)
    t_blowup = collected.value.t_blowup
    seen = []
    with pytest.raises(SolverBlowupError) as streamed:
        for times, _ in solver.stepper_blocks(phi, members, cfg):
            seen += times
    assert streamed.value.t_blowup == t_blowup and str(streamed.value) == str(collected.value)
    dt = cfg.T / cfg.n_steps
    before = [n * dt for n in range(0, cfg.n_steps, keep_every) if n * dt < t_blowup]
    assert seen == before[:len(before) - len(before) % 4] and len(seen) >= 4


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


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
def test_duhamel_convergence_guard():
    # a rough datum (|phi_hat| ~ |xi|^-1/2 up to Nyquist) on the linear flow
    # at 5 to 17 Chebyshev nodes: the 10-node rule on the one 0.25-long
    # panel does not resolve the fast-decaying high modes, and doubling the
    # nodes moves the integral by about 1e-4, far above the 1e-8 tolerance
    phi = random_real_field(GRID, np.random.default_rng(0), spectral_decay=0.5) * 0.01
    for n in (4, 8, 16):
        times = chebyshev_nodes(0.25, n)
        traj = Trajectory(times, [semigroup_apply(phi, t, PARAMS) for t in times], PARAMS)
        duhamel_integral(traj, 0.25, check=False)
        with pytest.raises(QuadratureConvergenceError, match="node doubling changed"):
            duhamel_integral(traj, 0.25)


def test_duhamel_range_check():
    traj = solve_stepper(_gaussian(0.1), PARAMS, SolverConfig(dt=2e-3, T=0.1, keep_every=10))
    with pytest.raises(ValueError):
        duhamel_integral(traj, 0.5)


@pytest.mark.parametrize("check", [False, True])
def test_duhamel_integral_is_taken_at_node_times_only(check):
    # the integral is a row of the node set's integrals: t = 0 and every
    # node time are accepted, a time between two nodes is refused with the
    # node range named, on a linear flow too
    for params in (PARAMS, LINEAR):
        traj = _probe_trajectory(_gaussian(0.5), 0.5, params)
        assert l2_norm(duhamel_integral(traj, 0.0, check=check)) == 0.0
        duhamel_integral(traj, traj.times[-1], check=check)
        for t in (0.5 * (traj.times[7] + traj.times[8]), np.nextafter(traj.times[-1], 0.0)):
            with pytest.raises(ValueError, match=r"not 0 or a node time of the trajectory "
                                                 r"\(its 17 nodes run from 0 to 0\.5\)"):
                duhamel_integral(traj, t, check=check)


def test_duhamel_rejects_too_many_nodes():
    # polynomial interpolation through 41 equispaced nodes is not trusted
    traj = solve_stepper(_gaussian(0.1), PARAMS, SolverConfig(dt=1e-3, T=0.04))
    assert traj.times.size == 41
    with pytest.raises(ValueError, match="Lebesgue constant"):
        duhamel_integral(traj, 0.04)


def test_duhamel_rejects_40_equispaced_nodes():
    # 40 equispaced nodes: Lebesgue constant up to 2.4e9 on the Gauss points
    # of the nodes' rules, so rounding in the samples is amplified past the
    # 1e-8 tolerance.  Each node set is guarded once, by its largest
    # constant: 2.4212e9 with 10 nodes per panel, and 2.4220e9 with the 20
    # of node doubling, whose set is built first
    times = 1e-3 * np.arange(40)
    phi = _gaussian(0.1)
    traj = Trajectory(times, [semigroup_apply(phi, t, PARAMS) for t in times], PARAMS)
    with pytest.raises(ValueError, match=r"40 nodes has Lebesgue constant 2\.4\de\+09"):
        duhamel_integral(traj, times[-1], check=False)
    with pytest.raises(ValueError, match=r"40 nodes has Lebesgue constant 2\.42e\+09"):
        duhamel_integral(traj, times[-1])


def test_refused_node_set_leaves_no_memo_entry(count_builds):
    # the builder raises the Lebesgue guard itself, so the memo stores no
    # refused set: asking again builds it again
    times = 1e-3 * np.arange(40)
    traj = Trajectory(times, [semigroup_apply(_gaussian(0.1), t, PARAMS) for t in times],
                      PARAMS)
    builds = count_builds(solver._node_operators)
    for attempt in (1, 2):
        with pytest.raises(ValueError, match="Lebesgue constant"):
            traj.node_integrals
        assert builds == [(PARAMS, tuple(times.tolist()), 10)] * attempt


def test_refused_node_set_is_refused_before_its_array_exists():
    # 201 equispaced states: the (200, 201, M/2) array would take 165 MB at
    # M = 512; each node's interpolation table is checked alone first
    grid = Grid(16.0 * np.pi, 512)
    traj = solve_stepper(_gaussian(0.1, grid), PARAMS, SolverConfig(dt=1e-3, T=0.2))
    assert traj.times.size == 201
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"201 nodes has Lebesgue constant"):
            traj.node_integrals
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


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


def _probe_trajectory(phi, T, params=PARAMS):
    # C_CONTRACTION's probe (scripts/calibrate.py): the linear flow at 17
    # Chebyshev nodes on [0, T]
    times = chebyshev_nodes(T, 16)
    return Trajectory(times, [semigroup_apply(phi, t, params) for t in times], params)


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


@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
def test_gaussian_probe_ratios_are_converged_in_the_rule(width):
    # the benchmark's references: each Gaussian probe's C_CONTRACTION ratio
    # with the 10-node rule matches the 40-node rule on the same panels to
    # 1e-9 relative, the tolerance the benchmark checks them at (measured:
    # worst 2.6e-10 at width 0.5, T = 0.25; at most 3e-16 for widths 1, 2)
    phi = SpectralField.from_function(GRID, lambda x: np.exp(-((x / width) ** 2)))
    for T in (0.25, 0.5, 1.0):
        traj = _probe_trajectory(phi, T)
        sup_lin = max(l2_norm(u) for u in traj.states)

        def ratio(n_nodes):
            W = solver._node_operators.__wrapped__(GRID, PARAMS, tuple(traj.times.tolist()),
                                                   n_nodes)
            sums = core.hermitian_sums(GRID, W, traj.nonlinear_samples)
            return sobolev_norm_stack(GRID, sums, 0.0).max() / (T ** 0.25 * sup_lin ** 2)

        assert ratio(10) == pytest.approx(ratio(40), rel=1e-9, abs=0.0), T


def test_duhamel_samples_cannot_go_stale():
    # the samples are cached per trajectory; doubling the fields it was
    # built from changes neither its states nor its integral, and a
    # trajectory of the doubled fields gives exactly four times the integral
    times = chebyshev_nodes(0.5, 16)
    fields = [semigroup_apply(_gaussian(0.5), t, PARAMS) for t in times]
    traj = Trajectory(times, fields, PARAMS)
    before = duhamel_integral(traj, 0.5, check=False).coeffs
    for u in fields:
        u.coeffs *= 2.0
    assert np.array_equal(2.0 * np.array([u.coeffs for u in traj.states]),
                          np.array([u.coeffs for u in fields]))
    assert np.array_equal(duhamel_integral(traj, 0.5, check=False).coeffs, before)
    doubled = duhamel_integral(Trajectory(times, fields, PARAMS), 0.5, check=False)
    assert np.array_equal(doubled.coeffs, 4.0 * before)


def test_nonlinear_samples_match_per_state_term():
    traj = _probe_trajectory(_gaussian(0.5), 0.5)
    G = traj.nonlinear_samples
    for row, u in zip(G, traj.states):
        assert np.array_equal(row, nonlinear_term(u).coeffs)


def test_duhamel_memo_hit_is_a_fresh_build_and_read_only(count_builds):
    # one memo entry per node set: one read-only array holding the (K, M/2)
    # operator of every node after t = 0, bitwise a fresh build
    nodes = tuple(chebyshev_nodes(0.5, 16).tolist())
    builds = count_builds(solver._node_operators)
    operators = solver._node_operators(GRID, PARAMS, nodes, 10)
    assert solver._node_operators(GRID, PARAMS, nodes, 10) is operators  # a hit shares it
    assert len(builds) <= 1  # the first call may hit an entry of an earlier test
    # the memo holds modes 0..M/2-1 only
    assert operators.shape == (len(nodes) - 1, len(nodes), GRID.M // 2)
    assert np.array_equal(operators, solver._node_operators.__wrapped__(GRID, PARAMS, nodes, 10))
    assert not operators.flags.writeable
    with pytest.raises(ValueError):
        operators[0, 0, 0] = 0.0


def test_duhamel_second_probe_builds_no_operator(count_builds):
    # probes on the same grid, params and nodes share every weight operator
    first = _probe_trajectory(_gaussian(0.5), 0.25)
    second = _probe_trajectory(_gaussian(0.3), 0.25)
    for t in first.times[1:]:
        duhamel_integral(first, t, check=False)
    builds = count_builds(solver._node_operators)
    for t in second.times[1:]:
        duhamel_integral(second, t, check=False)
    assert builds == []


def test_probe_pattern_misses_no_node_set_on_a_second_cycle(monkeypatch, count_builds):
    # the picard workload's pattern: the C_CONTRACTION probes visit three
    # horizons in turn on Grid(8 pi, 256), then Picard solves on
    # Grid(16 pi, 512) at T = 1.  Its 4 node sets, 3 on the one grid and 1
    # on the other, fit the memo's 4 per grid, so after one cycle every
    # lookup hits
    grid = Grid(16.0 * np.pi, 512)
    phi = random_real_field(grid, np.random.default_rng(0), spectral_decay=2.0)
    phi = phi * (1e-2 / l2_norm(phi))

    def cycle():
        for T in (0.25, 0.5, 1.0):
            traj = _probe_trajectory(_gaussian(0.5), T)
            for t in traj.times[1:]:
                duhamel_integral(traj, t, check=False)
        solve_picard(phi, PARAMS, SolverConfig(dt=1e-3, T=1.0))

    cycle()
    lookups, memo = [], solver._node_operators
    monkeypatch.setattr(solver, "_node_operators",
                        lambda *args: lookups.append(args[2:]) or memo(*args))
    builds = count_builds(memo)
    cycle()
    assert builds == []
    assert len(lookups) == 4


def test_trajectory_grid_dies_with_its_last_user(refcounting_only):
    # a grid lives while a trajectory or a datum on it does, with its
    # multipliers, Sobolev weights and node sets; reference counting alone
    # frees it with the last of them
    grid = Grid(8.0 * np.pi, 256)
    ref = weakref.ref(grid)
    phi = _gaussian(0.5, grid)
    stepped = solve_stepper(phi, PARAMS, SolverConfig(dt=1e-3, T=0.05))
    probe = _probe_trajectory(phi, 0.5)
    sobolev_norm(stepped.final_state(), 1.0)
    duhamel_integral(probe, probe.times[-1])
    del grid
    del stepped
    assert ref() is not None
    del probe
    assert ref() is not None  # the datum still uses it
    del phi
    assert ref() is None


def _frozen_node_integral(traj, t, n_nodes):
    # the Duhamel integral at the node time t as it was formed before the
    # node set's array: the one node's operator built on its own, with the
    # library's rule and half multipliers, and its product-sum over the
    # samples' non-negative half, mirrored
    W = _frozen_duhamel_operator(traj.grid, traj.params, traj.times, t, n_nodes,
                                 rule=solver._gauss_legendre, multipliers=core.semigroup_half)
    n = traj.grid.nyquist
    c = np.zeros(traj.grid.M, dtype=np.complex128)
    np.add.reduce(W * traj.nonlinear_samples[:, :n], axis=0, out=c[:n])
    c[n + 1:] = c[n - 1:0:-1].conj()
    return c


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("M", [256, 512])
def test_node_rows_are_each_operators_product_sum_bitwise(M):
    # at every node, duhamel_integral reads a read-only row of the
    # trajectory's node_integrals, and that row is bitwise the product-sum
    # of the one node's operator, built on its own, on the samples
    grid = Grid(8.0 * np.pi, M)
    phi = random_real_field(grid, np.random.default_rng(5), spectral_decay=1.0)
    times = chebyshev_nodes(0.5, 16)
    traj = Trajectory(times, [semigroup_apply(phi, t, PARAMS) for t in times], PARAMS)
    for k, t in enumerate(times[1:]):
        val = duhamel_integral(traj, t, check=False).coeffs
        assert _same_bits(val, _frozen_node_integral(traj, t, 10)), t
        assert np.shares_memory(val, traj.node_integrals[k]) and not val.flags.writeable


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("rough", [False, True], ids=["gaussian", "rough"])
def test_node_doubling_is_the_frozen_per_node_check_bitwise(rough):
    # at every node, duhamel_integral(check=True) returns the frozen 20-node
    # integral, bitwise, where it is within the tolerance of the frozen
    # 10-node one, and raises QuadratureConvergenceError where it is not.
    # The unit Gaussian probe passes at every node, the rough one fails at
    # some nodes and passes at others
    phi = (random_real_field(GRID, np.random.default_rng(7), spectral_decay=1.0) if rough
           else SpectralField.from_function(GRID, lambda x: np.exp(-x * x)))
    traj = _probe_trajectory(phi, 0.5)
    failed = 0
    for t in traj.times[1:]:
        doubled = _frozen_node_integral(traj, t, 20)
        err = (np.linalg.norm(doubled - _frozen_node_integral(traj, t, 10))
               / max(np.linalg.norm(doubled), 1e-300))
        if err > solver._QUAD_TOL:
            failed += 1
            with pytest.raises(QuadratureConvergenceError, match=f"by {err:.3e} "):
                duhamel_integral(traj, t)
        else:
            assert _same_bits(duhamel_integral(traj, t).coeffs, doubled), t
    assert 0 < failed < 16 if rough else failed == 0


def test_node_doubling_builds_its_node_set_once_outside_the_memo(count_builds):
    # a check=True sweep over a trajectory's nodes builds the 20-node set
    # once, unmemoized, and adds no memo entry
    traj = _probe_trajectory(_gaussian(0.5), 0.5)
    traj.node_integrals  # the 10-node entry, memoized
    builds = count_builds(solver._node_operators)
    for t in traj.times[1:]:
        duhamel_integral(traj, t)
    nodes = tuple(traj.times.tolist())
    assert builds == [(PARAMS, nodes, 20)]
    # no entry holds the 20-node set: asking the memo for it builds it
    solver._node_operators(GRID, PARAMS, nodes, 20)
    assert builds == [(PARAMS, nodes, 20)] * 2


def _mirrored(W):
    # a (K, M/2) operator on the non-negative modes as the (K, M) operator
    # on every mode: conjugates on the negative modes, zero at Nyquist
    return np.concatenate([W, np.zeros((len(W), 1)), W[:, :0:-1].conj()], axis=1)


def _frozen_duhamel(traj, t):
    # duhamel_integral(check=False) as written with einsum's product-sum on
    # every mode, with the operator mirrored to full width
    W = _frozen_duhamel_operator(traj.grid, traj.params, traj.times, t, 10,
                                 rule=solver._gauss_legendre, multipliers=core.semigroup_half)
    return np.einsum("jk,jk->k", _mirrored(W), traj.nonlinear_samples)


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("T", [0.25, 1.0])
def test_duhamel_integral_matches_the_frozen_einsum_form(T):
    # the product-sum over the 17 nodes changed form (now on the samples'
    # non-negative half, mirrored), which moves the integral at roundoff
    # only, at the node times, where the probes evaluate it
    traj = _probe_trajectory(random_real_field(GRID, np.random.default_rng(7),
                                               spectral_decay=1.0), T)
    for t in traj.times[1:]:
        ref = _frozen_duhamel(traj, t)
        val = duhamel_integral(traj, t, check=False).coeffs
        assert np.linalg.norm(val - ref) <= 1e-15 * np.linalg.norm(ref), t


@pytest.mark.parametrize("check", [False, True])
def test_duhamel_integral_nyquist_slot_is_zero_by_construction(check):
    # the weights carry the zeroed multiplier slot, so the integral's slot
    # is +0 with no zeroing of its own
    traj = _probe_trajectory(_gaussian(0.5), 0.5)
    for t in traj.times[1:]:
        val = duhamel_integral(traj, t, check=check).coeffs
        assert val[GRID.nyquist].real.hex() == val[GRID.nyquist].imag.hex() == "0x0.0p+0"


def _frozen_semigroup_stack(grid, times, params):
    # the Picard route's multipliers as evaluated on every mode
    E = np.exp(np.multiply.outer(times, linear_symbol(grid.xi, params)))
    E[:, grid.nyquist] = 0.0
    return E


def _frozen_duhamel_operator(grid, params, nodes, t, n_nodes,
                             rule=np.polynomial.legendre.leggauss,
                             multipliers=_frozen_semigroup_stack):
    # the (K, .) operator W of one node time t, built on its own, on panels
    # of length 0.25: by default exponentiated and summed on every mode
    # with numpy's Gauss-Legendre rule
    n_panels = max(1, int(np.ceil(t / 0.25)))
    x, w = rule(n_nodes)
    edges = np.linspace(0.0, t, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    tau = (half * x + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    wq = (half * w).ravel()
    L = _lagrange_matrix(np.array(nodes), tau)
    return (wq[:, None] * L).T @ multipliers(grid, t - tau, params)


@pytest.mark.parametrize("M", [8, 256, 512, 4096])
def test_picard_operators_are_the_half_of_the_full_mode_form(M):
    # the node set's array keeps each (K, M/2) operator on the non-negative
    # modes, which is the non-negative half of the operator exponentiated
    # and summed on every mode, up to the two Gauss-Legendre rules: their
    # weights agree to 1e-12 relative and their nodes to 4 eps (see
    # test_gauss_legendre_matches_leggauss), so every entry agrees to 1e-12
    # of the largest; with the 10- and the 20-node rule (built by the
    # unmemoized body, so the memo keeps no M = 4096 entry)
    grid = Grid(8.0 * np.pi, M)
    for T in (0.25, 1.0):
        nodes = tuple(chebyshev_nodes(T, 16).tolist())
        for n_nodes in (10, 20):
            operators = solver._node_operators.__wrapped__(grid, PARAMS, nodes, n_nodes)
            for W, t in zip(operators, nodes[1:]):
                ref = _frozen_duhamel_operator(grid, PARAMS, nodes, t, n_nodes)
                assert W.shape == (17, M // 2)
                err = np.abs(W - ref[:, :M // 2]).max()
                assert err <= 1e-12 * np.abs(ref).max(), (T, t, n_nodes)


def _assert_hermitian(c):
    # each negative mode bitwise the conjugate of its partner, the Nyquist
    # slot zero
    n = c.shape[-1] // 2
    assert np.array_equal(c[..., n + 1:].view(np.uint64),
                          c[..., n - 1:0:-1].conj().view(np.uint64))
    assert np.all(c[..., n] == 0.0)


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("check", [False, True])
def test_duhamel_integral_is_hermitian_by_construction(check):
    # the nonlinearity's samples are Hermitian only up to rounding; the
    # integral is mirrored from its non-negative half.  A rough probe (whose
    # rule fails node doubling, see test_duhamel_convergence_guard) without
    # the check, a Gaussian one with it
    phi = (_gaussian(0.5) if check else
           random_real_field(GRID, np.random.default_rng(7), spectral_decay=1.0))
    traj = _probe_trajectory(phi, 0.5)
    G = traj.nonlinear_samples
    assert not np.array_equal(G[:, GRID.M // 2 + 1:], G[:, GRID.M // 2 - 1:0:-1].conj())
    for t in (traj.times[5], traj.times[8], traj.times[-1]):
        _assert_hermitian(duhamel_integral(traj, t, check=check).coeffs)


def test_nonlinear_picard_states_are_hermitian():
    # from an exactly Hermitian datum, every Picard state is exactly
    # Hermitian: S(t)phi is, and each Duhamel term is mirrored
    phi = random_real_field(GRID, np.random.default_rng(4), spectral_decay=2.0)
    phi = phi * (1e-2 / l2_norm(phi))
    traj = solve_picard(phi, PARAMS, SolverConfig(dt=1e-3, T=0.5))
    assert len(traj.info["diffs"]) >= 3
    _assert_hermitian(traj.coeffs)


@pytest.mark.parametrize("n", [10, 20])
def test_gauss_legendre_integrates_monomials_exactly(n):
    # exact on degree <= 2n-1, to the rounding of n terms of total weight 2
    x, w = solver._gauss_legendre(n)
    for d in range(2 * n):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(w @ x ** d - exact) <= 4 * n * np.finfo(float).eps, d
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])


@pytest.mark.parametrize("n", [10, 20])
def test_gauss_legendre_matches_leggauss(n):
    # numpy's rule, to 4 eps in the nodes and 1e-12 relative in the weights
    # (leggauss's own weights are off by up to about 1e-13 at n = 20)
    x, w = solver._gauss_legendre(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - x_ref).max() <= 4 * np.finfo(float).eps
    assert np.all(np.abs(w - w_ref) <= 1e-12 * w_ref)


def test_second_probe_builds_no_multiplier(count_builds):
    # the probes' linear flows share the semigroup multiplier at every node
    _probe_trajectory(_gaussian(0.5), 0.25)
    builds = count_builds(semigroup_multiplier)
    _probe_trajectory(_gaussian(0.3), 0.25)
    assert builds == []


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


def test_linear_picard_is_the_semigroup_bitwise():
    # a linear Picard solve is its first iterate S(t)phi, formed in
    # semigroup_apply's operand order (phi-hat * E): every Chebyshev node's
    # state is semigroup_apply's bits, on a smooth and a seeded rough datum
    for phi in (_gaussian(0.5), random_real_field(GRID, np.random.default_rng(3))):
        for p in (LINEAR, EquationParams(beta=0.0, eta=0.25, nonlinear=False)):
            traj = solve_picard(phi, p, SolverConfig(dt=1e-3, T=0.25))
            assert len(traj.times) == 17 and traj.info["diffs"] == [0.0]
            assert _is_semigroup_run(phi, traj)


@pytest.mark.filterwarnings("ignore")  # divergence is the point here
def test_picard_diverges_for_large_data():
    phi = _gaussian(40.0)
    with pytest.raises((NonContractionError, SolverBlowupError, PicardError)):
        solve_picard(phi, PARAMS, SolverConfig(dt=1e-3, T=1.0))


def _frozen_sup_hs(grid, mat, s):
    # solve_picard's sup-in-time norm as written before the stacked form:
    # one SpectralField and one norm per node
    w = spaces._sobolev_weight(grid, s)
    return max(float(np.sqrt(np.sum(w * np.abs(row) ** 2) * grid.dxi)) for row in mat)


@pytest.mark.parametrize("s", [-0.4, 0.0, 1.0])
def test_picard_info_bitwise_equals_the_per_row_sup_norm(s, monkeypatch):
    phi = _gaussian(0.05)
    cfg = SolverConfig(dt=1e-3, T=0.25)
    stacked = solve_picard(phi, PARAMS, cfg, s=s).info
    monkeypatch.setattr(solver, "sobolev_norm_stack",
                        lambda grid, mat, s: np.array([_frozen_sup_hs(grid, mat, s)]))
    frozen = solve_picard(phi, PARAMS, cfg, s=s).info
    assert len(stacked["diffs"]) >= 3
    for key in ("diffs", "ratios"):
        assert [x.hex() for x in stacked[key]] == [x.hex() for x in frozen[key]]
    assert stacked["residual"].hex() == frozen["residual"].hex()


def test_picard_map_is_duhamel_integral_at_every_node_bitwise():
    # solve_picard applies the memoized operators node by node with
    # duhamel_integral's product-sum to its first iterate, S(t)phi in
    # semigroup_apply's operand order, so the residual follows bitwise from
    # duhamel_integral on the final iterate
    phi = _gaussian(0.05)
    s = 0.5
    traj = solve_picard(phi, PARAMS, SolverConfig(dt=1e-3, T=0.25), s=s)
    mapped = phi.coeffs * semigroup_stack(GRID, traj.times, PARAMS)
    for row, t in zip(mapped[1:], traj.times[1:]):
        row -= duhamel_integral(traj, t, check=False).coeffs
    residual = float(sobolev_norm_stack(GRID, mapped - traj.coeffs, s).max())
    assert residual > 0.0
    assert residual.hex() == traj.info["residual"].hex()


def test_warm_picard_solve_holds_no_operator_stack():
    # the operators of a solve are read where the memo holds them, so a
    # warm solve on the contraction grid peaks below one stack of them,
    # (nodes after t = 0, nodes, M) complex, which a stacked copy would add
    import tracemalloc

    grid = Grid(16.0 * np.pi, 512)
    phi = random_real_field(grid, np.random.default_rng(0), spectral_decay=2.0)
    phi = phi * (1e-2 / l2_norm(phi))
    cfg = SolverConfig(dt=1e-3, T=1.0)
    solve_picard(phi, PARAMS, cfg)  # builds and memoizes the operators
    n = solver._PICARD_PANELS
    stack_bytes = np.empty((n, n + 1, grid.M), dtype=np.complex128).nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        solve_picard(phi, PARAMS, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes


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
