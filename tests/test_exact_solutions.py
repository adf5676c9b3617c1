"""Exact solutions of the full nonlinear equation as oracles for the
stepper: Benjamin's periodic wave of the Benjamin-Ono equation (eta = 0)
and inviscid Burgers (beta = eta = 0) before it breaks.  Unlike the frozen
copies of earlier code, they are ground truth that holds through any change
of arithmetic.

Each tolerance is fixed from the error model of IF-RK4 in double
precision, not from a measured error: the dt^4 truncation term with unit
constant over the horizon T, plus one rounding (eps) per step, both
relative to the size of the solution."""
import numpy as np
import pytest

from chenlee_lab.core import EquationParams, Grid, SpectralField, values_stack
from chenlee_lab.solver import SolverConfig, solve_stepper
from conftest import solve_stepper_stack

EPS = np.finfo(float).eps
BETA = 1.0
BO_GRID = Grid(8.0 * np.pi, 512)


def _tolerance(T, dt):
    return T * dt ** 4 + round(T / dt) * EPS


def _config(dt, T=1.0):
    return SolverConfig(dt=dt, T=T, keep_every=10 ** 6)  # keep the datum and u(T)


def _periodic_wave(x, t, gamma, n0, L):
    """U = a + 2 beta k sinh(gamma) / (cosh(gamma) - cos k(x - c t)) with
    k = pi n0 / L, the zero-mean choice a = -2 beta k, and c = a + beta k
    coth(gamma): a solution of u_t + u u_x + beta H u_xx = 0 with H the
    multiplier i sgn(xi).  P = sinh(gamma) / (cosh(gamma) - cos(theta)) has
    Fourier coefficients e^{-gamma |n|}, and (P^2)^_n = e^{-gamma |n|}
    (|n| + coth(gamma)), so every harmonic gives the same two conditions on
    the amplitude and the speed (Benjamin, J. Fluid Mech. 29 (1967); Ono,
    J. Phys. Soc. Japan 39 (1975); Amick & Toland, Acta Math. 167 (1991))."""
    k = np.pi * n0 / L
    a = -2.0 * BETA * k
    c = a + BETA * k / np.tanh(gamma)
    return a + 2.0 * BETA * k * np.sinh(gamma) / (np.cosh(gamma) - np.cos(k * (x - c * t)))


def _wave_error(u, gamma, n0, T):
    exact = _periodic_wave(BO_GRID.x, T, gamma, n0, BO_GRID.L)
    return np.abs(values_stack(u.grid, u.coeffs) - exact).max() / np.abs(exact).max()


def _wave_datum(gamma, n0):
    return SpectralField.from_values(BO_GRID, _periodic_wave(BO_GRID.x, 0.0, gamma, n0, BO_GRID.L))


@pytest.mark.parametrize("gamma, n0, dt", [(1.5, 8, 8e-4), (2.0, 4, 4e-4)])
def test_benjamin_ono_periodic_wave(gamma, n0, dt):
    traj = solve_stepper(_wave_datum(gamma, n0), EquationParams(beta=BETA, eta=0.0), _config(dt))
    assert _wave_error(traj.final_state(), gamma, n0, 1.0) <= _tolerance(1.0, dt)


def test_periodic_wave_through_the_stack_path():
    # a stack shares one datum: the wave's, stepped with and without
    # dissipation; row 0 is the wave, bitwise the run of its member alone
    gamma, n0, dt = 1.5, 8, 8e-4
    phi = _wave_datum(gamma, n0)
    members = [EquationParams(beta=BETA, eta=0.0), EquationParams(beta=BETA, eta=0.1)]
    wave, _ = solve_stepper_stack(phi, members, _config(dt))
    alone = solve_stepper(phi, members[0], _config(dt))
    assert _wave_error(wave.final_state(), gamma, n0, 1.0) <= _tolerance(1.0, dt)
    assert np.array_equal(wave.coeffs.view(np.uint64), alone.coeffs.view(np.uint64))


def test_inviscid_burgers_before_breaking():
    # u = phi(x - u t), solved pointwise by fixed-point iteration, which
    # contracts by t max|phi'| < 0.16 at t = 1 (breaking is at t ~ 4.7)
    grid = Grid(8.0 * np.pi, 1024)
    T, dt = 1.0, 1e-3

    def phi(x):
        return 0.5 * np.exp(-x * x / 8.0)

    traj = solve_stepper(SpectralField.from_values(grid, phi(grid.x)),
                         EquationParams(beta=0.0, eta=0.0), _config(dt, T))
    exact = phi(grid.x)
    for _ in range(60):  # 0.16^60 < 1e-47
        exact = phi(grid.x - exact * T)
    err = np.abs(values_stack(traj.grid, traj.final_state().coeffs) - exact).max()
    assert err <= _tolerance(T, dt) * np.abs(exact).max()
