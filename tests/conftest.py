"""Fixtures and helpers shared by the test modules."""
import gc

import numpy as np
import pytest

from chenlee_lab.decay import decay_report
from chenlee_lab.solver import Trajectory, stepper_blocks


def solve_stepper_stack(phi, params_list, config) -> list:
    """One Trajectory per parameter set of `params_list`, in order, stepped
    from the same datum as one stack: the collected `stepper_blocks` stream,
    each member's (K, M) slice of one (B, K, M) array, with the stream's
    checks and errors.  The library reduces the stream as it comes; the
    tests hold the runs to compare them whole."""
    grid = phi.grid
    B = len(params_list)
    kept = np.empty((B, len(range(0, config.n_steps, config.keep_every)) + 1, grid.M),
                    dtype=np.complex128)
    times = []
    for block_times, block in stepper_blocks(phi, params_list, config):
        kept[:, len(times):len(times) + len(block_times)] = block
        times += block_times
    n_steps = config.n_steps
    nonlinear = params_list[0].nonlinear  # the stream refused a mixed stack
    return [Trajectory.from_stack(grid, times, coeffs, params,
                                  info={"method": "if_rk4" if nonlinear else "semigroup",
                                        "dt": config.T / n_steps, "n_steps": n_steps,
                                        "sweep_size": B,
                                        "rhs_evals": 4 * n_steps if nonlinear else 0})
            for coeffs, params in zip(kept, params_list)]


def decay_tables(traj) -> list:
    """`decay_report`'s two tables, decay and weighted_energy_rate, of a
    held trajectory's states, read as one block."""
    return decay_report(traj.grid, traj.params, [(traj.times, traj.coeffs)])


@pytest.fixture
def count_builds(monkeypatch):
    """count_builds(memo) wraps the builder of the grid memo `memo` (its
    `__wrapped__`, which a miss calls) and returns the list to which each
    build from then on appends its argument values after the grid."""
    def install(memo):
        builds, build = [], memo.__wrapped__

        def counting(grid, *args):
            builds.append(args)
            return build(grid, *args)

        monkeypatch.setattr(memo, "__wrapped__", counting)
        return builds

    return install


@pytest.fixture
def refcounting_only():
    """The cycle collector off for the test, so that only reference
    counting frees what the test drops."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()
