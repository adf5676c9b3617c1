"""Resonance functions, Duhamel kernels, band data, and the closed-form
Picard terms cross-checked against the independent time-quadrature route."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chenlee_lab.core import (
    EquationParams,
    SpectralField,
    semigroup_apply,
    symbol_p,
    symbol_q,
)
from chenlee_lab.flowderiv import (
    IllposedData,
    build_illposed_datum,
    illposed_grid,
    illposed_growth_c2_nd,
    illposed_growth_c3,
    kern,
    kern_diff,
    lambda_nd,
    make_sigma,
    second_term,
    third_term,
)
from chenlee_lab.solver import Trajectory, chebyshev_nodes, duhamel_integral
from chenlee_lab.spaces import l2_norm

PARAMS = EquationParams(beta=1.0, eta=1.0)

finite_xi = st.floats(-50.0, 50.0, allow_nan=False)


# ---------------------------------------------------------------------------
# resonance functions
# ---------------------------------------------------------------------------

def test_sigma_closed_form():
    sigma = make_sigma(EquationParams(beta=2.0, eta=3.0))
    xi, xi1 = 3.0, 1.0
    q = lambda z: 2.0 * z * abs(z)
    p = lambda z: 3.0 * (z * z - abs(z))
    expected = 1j * (q(xi1) + q(xi - xi1) - q(xi)) - (p(xi1) + p(xi - xi1) - p(xi))
    assert complex(sigma(xi, xi1)) == pytest.approx(expected)


@settings(max_examples=50, deadline=None)
@given(finite_xi, finite_xi)
def test_sigma_pair_symmetry(xi, xi1):
    sigma = make_sigma(PARAMS)
    a = complex(sigma(xi, xi1))
    b = complex(sigma(xi, xi - xi1))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-9)


def test_sigma_vanishes_on_trivial_pair():
    sigma = make_sigma(PARAMS)
    for xi in (-2.0, 0.5, 7.0):
        assert complex(sigma(xi, 0.0)) == 0.0
        assert complex(sigma(xi, xi)) == 0.0


def test_lambda_nd_real_and_closed_form():
    # lambda(2 xi1, xi1) = p(2 xi1) - 2 p(xi1) = 2 eta xi1^2 for xi1 >= 1
    eta = 0.7
    for xi1 in (1.0, 3.0, 10.0):
        lam = lambda_nd(2.0 * xi1, xi1, eta)
        assert np.imag(lam) == 0.0
        assert float(np.real(lam)) == pytest.approx(2.0 * eta * xi1 * xi1)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kern_generic_and_origin():
    z, t = 2.0 + 1.0j, 0.3
    assert kern(z, t) == pytest.approx((np.exp(z * t) - 1.0) / z, rel=1e-14)
    assert kern(0.0, t) == pytest.approx(t)  # series branch limit


def test_kern_series_continuity():
    # the series branch (|z| < 1e-8) joins the direct formula smoothly
    t = 0.7
    below = kern(5e-9 + 5e-9j, t)
    above = kern(2e-8 + 2e-8j, t)
    assert abs(below - t) <= 1e-7
    assert abs(above - t) <= 1e-7
    assert abs(below - above) <= 1e-7


def test_kern_diff_divided_difference():
    a, b, t = 1.5 + 0.5j, -0.7 + 2.0j, 0.4
    expected = (kern(a, t) - kern(b, t)) / (a - b)
    assert kern_diff(a, b, t) == pytest.approx(expected, rel=1e-13)
    # symmetric in its two arguments
    assert kern_diff(b, a, t) == pytest.approx(expected, rel=1e-13)


def test_kern_diff_coalescent_is_derivative():
    z, t = 0.8 - 0.3j, 0.6
    h = 1e-6
    fd = (kern(z + h, t) - kern(z - h, t)) / (2 * h)
    assert kern_diff(z, z, t) == pytest.approx(fd, rel=1e-8)


def test_kern_diff_coalescent_at_origin():
    # K'(0) = t^2/2
    t = 0.9
    assert kern_diff(0.0, 0.0, t) == pytest.approx(t * t / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# band data
# ---------------------------------------------------------------------------

def test_illposed_data_validation():
    with pytest.raises(ValueError):
        IllposedData(N=16, epsilon=0.1, gamma=2.0, s=-0.8)
    with pytest.raises(ValueError):
        IllposedData(N=64, epsilon=1.5, gamma=2.0, s=-0.8)
    with pytest.raises(ValueError):
        IllposedData(N=64, epsilon=0.1, gamma=100.0, s=-0.8)
    with pytest.raises(ValueError):
        IllposedData(N=64, epsilon=0.1, gamma=2.0, s=0.2)


def test_illposed_data_derived_values():
    d = IllposedData(N=100.0, epsilon=0.5, gamma=4.0, s=-1.0)
    assert d.t_N == pytest.approx(100.0 ** -2.5)
    assert d.amplitude == pytest.approx(100.0 / 2.0)  # N^{-s} gamma^{-1/2}


def test_illposed_grid_and_datum():
    d = IllposedData(N=64, epsilon=0.25, gamma=16.0, s=-0.8)
    g = illposed_grid(d)
    assert g.dxi == pytest.approx(1.0)  # 2 gamma / 32
    assert g.xi_max >= 2.0 * d.N + 8.0 * d.gamma
    phi = build_illposed_datum(d, g)
    assert np.array_equal(phi.coeffs, np.conj(phi.coeffs[g.mode_index(-g.modes)]))
    in_band = (np.abs(g.xi) >= d.N) & (np.abs(g.xi) <= d.N + 2 * d.gamma)
    assert np.all(np.abs(phi.coeffs[in_band & (np.arange(g.M) != g.M // 2)]
                         - d.amplitude) <= 1e-12 * d.amplitude)
    assert np.abs(phi.coeffs[~in_band]).max() == 0.0


def test_datum_requires_resolved_band():
    d = IllposedData(N=64, epsilon=0.25, gamma=16.0, s=-0.8)
    from chenlee_lab.core import Grid
    coarse = Grid(np.pi / 8.0, 64)  # dxi = 8: band holds too few modes
    with pytest.raises(ValueError):
        build_illposed_datum(d, coarse)


# ---------------------------------------------------------------------------
# Picard terms vs the independent Duhamel quadrature
# ---------------------------------------------------------------------------

def _band_setup():
    d = IllposedData(N=40.0, epsilon=0.3, gamma=8.0, s=-0.8)
    grid = illposed_grid(d)
    phi = build_illposed_datum(d, grid)
    return d, grid, phi


def _u1_trajectory(phi, params, t):
    times = chebyshev_nodes(t, 24)
    states = [semigroup_apply(phi, tau, params) for tau in times]
    return Trajectory(times, states, params)


def test_second_term_matches_duhamel():
    _, grid, phi = _band_setup()
    t = 5e-4  # sigma*t of order one: both kernel regimes active
    u2 = second_term(phi, t, PARAMS).field()
    duh = duhamel_integral(_u1_trajectory(phi, PARAMS, t), t,
                           quad_nodes=16, panel_length=t)
    assert l2_norm(u2 - 2.0 * duh) <= 1e-6 * l2_norm(u2)


def test_third_term_matches_picard_increment():
    _, grid, phi = _band_setup()
    params = PARAMS
    t = 5e-4
    times = chebyshev_nodes(t, 24)
    u1 = [semigroup_apply(phi, tau, params) for tau in times]
    traj1 = Trajectory(times, u1, params)
    # literal second Picard increment w2(tau) = -duhamel(u1)(tau)
    w2 = [SpectralField.zero(phi.grid)] + [
        -1.0 * duhamel_integral(traj1, tau, quad_nodes=16, panel_length=t, check=False)
        for tau in times[1:]
    ]
    traj_sum = Trajectory(times, [SpectralField(grid, a.coeffs + b.coeffs)
                                  for a, b in zip(u1, w2)], params)
    traj_w2 = Trajectory(times, w2, params)
    kw = dict(quad_nodes=16, panel_length=t, check=False)
    # cubic cross part by polarization (the w2*w2 quartic piece cancels)
    cubic = -1.0 * (duhamel_integral(traj_sum, t, **kw)
                    - duhamel_integral(traj1, t, **kw)
                    - duhamel_integral(traj_w2, t, **kw))
    u3 = third_term(phi, t, params).field()
    assert l2_norm(u3 - 2.0 * cubic) <= 1e-4 * l2_norm(u3)


def test_window_restriction():
    d, grid, phi = _band_setup()
    t = d.t_N
    window = (d.N + 3 * d.gamma, d.N + 4 * d.gamma)
    u3w = third_term(phi, t, PARAMS, window=window)
    outside = (grid.xi < window[0]) | (grid.xi > window[1])
    assert np.abs(u3w.coeffs[outside]).max() == 0.0
    assert u3w.hs_norm(-0.8) > 0.0
    # windowed norm is dominated by the full norm
    u3 = third_term(phi, t, PARAMS)
    assert u3w.hs_norm(-0.8) <= u3.hs_norm(-0.8) * (1 + 1e-12)


def test_window_outside_grid_raises():
    _, grid, phi = _band_setup()
    with pytest.raises(ValueError):
        second_term(phi, 1e-3, PARAMS, window=(1e6, 2e6))


def test_terms_vanish_at_t_zero():
    _, grid, phi = _band_setup()
    assert l2_norm(second_term(phi, 0.0, PARAMS).field()) == 0.0
    assert l2_norm(third_term(phi, 0.0, PARAMS).field()) == 0.0
    with pytest.raises(ValueError):
        second_term(phi, -1e-3, PARAMS)


# ---------------------------------------------------------------------------
# sweep harness structure (full slope checks live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_growth_sweep_report_structure():
    rep = illposed_growth_c3(-0.8, 0.2, [32, 64, 128, 256],
                             EquationParams(beta=0.25, eta=0.25))
    assert rep.columns == ["N", "gamma", "t_N", "norm", "target_exponent", "fitted_slope"]
    assert len(rep.rows) == 4
    assert {"fitted_slope", "target_slope", "passed"} <= set(rep.summary)
    assert np.isfinite(rep.summary["fitted_slope"])
    assert rep.summary["target_slope"] == pytest.approx(-2 * -0.8 - 1 - 2 * 0.2)


@pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2])
def test_c3_local_slopes_match_the_exponent_to_three_digits(epsilon):
    # at beta = eta = 0.01 every local slope of ||u3(t_N)||_{H^s} over
    # N = 64..16384 exceeds the target -2s - 1 - 2 eps by at most the
    # eta-linear drift of the dissipative factor: log ||u3|| = a + target
    # log N - kappa eta N^{-eps} gives an excess below kappa eta eps, and
    # its fits gave kappa = 3.1-4.7 at eta = 0.25, so kappa = 5 bounds it
    eta, kappa = 0.01, 5.0
    N = 64.0 * 2.0 ** np.arange(9)
    rep = illposed_growth_c3(-0.8, epsilon, N, EquationParams(beta=0.01, eta=eta), tol=np.inf)
    local = np.diff(np.log(rep.column("norm").astype(float))) / np.diff(np.log(N))
    excess = local - rep.summary["target_slope"]
    assert (excess >= 0.0).all() and (excess <= kappa * eta * epsilon).all(), excess


def test_growth_sweep_input_validation():
    with pytest.raises(ValueError):
        illposed_growth_c3(-0.8, 0.1, [64, 128], PARAMS)  # too few N
    with pytest.raises(ValueError):
        illposed_growth_c2_nd(-0.8, 0.05, [256, 128, 64, 32], 1.0)  # not increasing
