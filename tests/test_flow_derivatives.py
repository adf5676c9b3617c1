"""Resonance functions, Duhamel kernels, band data, and the closed-form
Picard terms cross-checked against the independent time-quadrature route."""
import cmath
import functools
import pathlib
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chenlee_lab import flowderiv
from chenlee_lab.config import parse_config
from chenlee_lab.cli import _apply_quick
from chenlee_lab.core import (
    EquationParams,
    Grid,
    SpectralField,
    semigroup_apply,
    symbol_p,
    symbol_q,
)
from chenlee_lab.flowderiv import (
    IllposedData,
    build_illposed_datum,
    growth_bands,
    illposed_grid,
    illposed_grid_shape,
    illposed_growth_c2_nd,
    illposed_growth_c3,
    kern,
    kern_diff,
    lambda_nd,
    second_term,
    sigma,
    third_term,
)
from chenlee_lab.solver import (
    SolverConfig,
    Trajectory,
    chebyshev_nodes,
    duhamel_integral,
    solve_picard,
    solve_stepper,
)
from chenlee_lab.spaces import l2_norm

PARAMS = EquationParams(beta=1.0, eta=1.0)

finite_xi = st.floats(-50.0, 50.0, allow_nan=False)


# ---------------------------------------------------------------------------
# resonance functions
# ---------------------------------------------------------------------------

def test_sigma_closed_form():
    xi, xi1 = 3.0, 1.0
    q = lambda z: 2.0 * z * abs(z)
    p = lambda z: 3.0 * (z * z - abs(z))
    expected = 1j * (q(xi1) + q(xi - xi1) - q(xi)) - (p(xi1) + p(xi - xi1) - p(xi))
    assert complex(sigma(xi, xi1, EquationParams(beta=2.0, eta=3.0))) == pytest.approx(expected)


@settings(max_examples=50, deadline=None)
@given(finite_xi, finite_xi)
def test_sigma_pair_symmetry(xi, xi1):
    a = complex(sigma(xi, xi1, PARAMS))
    b = complex(sigma(xi, xi - xi1, PARAMS))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-9)


def test_sigma_vanishes_on_trivial_pair():
    for xi in (-2.0, 0.5, 7.0):
        assert complex(sigma(xi, 0.0, PARAMS)) == 0.0
        assert complex(sigma(xi, xi, PARAMS)) == 0.0


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
    assert kern(0.0, t) == pytest.approx(t)  # phi1(0) = 1


@mpmath.workdps(50)
def _mp_kern(z, t):
    """K(z, t) = (e^{zt} - 1)/z at 50 digits; t at z = 0."""
    z, t = mpmath.mpc(z), mpmath.mpf(t)
    return t if z == 0 else mpmath.expm1(z * t) / z


@mpmath.workdps(50)
def _mp_kern_diff(a, b, t):
    """(K(a, t) - K(b, t))/(a - b) at 50 digits; where a = b, the closed-form
    dK/dz = (t z e^{zt} - (e^{zt} - 1))/z^2, t^2/2 at z = 0."""
    a, b, t = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpf(t)
    if a != b:
        return (_mp_kern(a, t) - _mp_kern(b, t)) / (a - b)
    return t * t / 2 if a == 0 else (t * a * mpmath.exp(a * t) - mpmath.expm1(a * t)) / a ** 2


@mpmath.workdps(50)
def _rel_error(got, ref) -> float:
    return float(abs(mpmath.mpc(complex(got)) - ref) / abs(ref))


@st.composite
def _kernel_arg(draw):
    """(z, t): t log-uniform from 1e-6 to 10, and |z t| from 1e-12 to 3e2,
    in any direction."""
    t = 10.0 ** draw(st.floats(-6.0, 1.0))
    r = 10.0 ** draw(st.floats(-12.0, np.log10(3e2)))
    return r * cmath.exp(1j * draw(st.floats(0.0, 2.0 * np.pi))) / t, t


@st.composite
def _kernel_pair(draw):
    """(a, b, t): b at a relative distance |a - b|/|a| from a of 0
    (coalescence) or log-uniform from 1e-16 to 1, or drawn as a is; in
    either order."""
    a, t = draw(_kernel_arg())
    if draw(st.booleans()):
        gap = draw(st.one_of(st.just(0.0), st.floats(-16.0, 0.0).map(lambda e: 10.0 ** e)))
        b = a * (1.0 + gap * cmath.exp(1j * draw(st.floats(0.0, 2.0 * np.pi))))
    else:
        b = draw(_kernel_arg().map(lambda zt: zt[0] * zt[1] / t))
    return (a, b, t) if draw(st.booleans()) else (b, a, t)


@settings(max_examples=150, deadline=None)
@given(_kernel_arg())
@example((1e-7, 1e-3))
@example((1.0, 1e-9))
def test_kern_matches_mpmath(zt):
    z, t = zt
    assert _rel_error(kern(z, t), _mp_kern(z, t)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(_kernel_pair())
@example((1e-7, 1e-7, 1e-3))
@example((1000.0 + 1e-6, 1000.0, 1e-3))
@example((0.1, 100.0, 1.0))  # the smaller first: the pair is ordered
@example((1.0, 1.0 + 5e-324j, 1.0))  # a subnormal gap: phi1 must not divide by it
def test_kern_diff_matches_mpmath(abt):
    a, b, t = abt
    assert _rel_error(kern_diff(a, b, t), _mp_kern_diff(a, b, t)) <= 1e-12


def test_kern_diff_at_the_seam():
    # |at| = 1/2 from below (the series) and above (the Leibniz rule), with
    # the other point coalescent, near, halfway, opposite, rotated and at 0
    for r in (0.5 - 1e-12, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.5 + 1e-12):
        for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            x = r * cmath.exp(1j * angle)
            for y in (x, 0.99 * x, 0.5 * x, -x, 1j * x, 0.0):
                for t in (1.0, 1e-3):
                    a, b = x / t, y / t
                    ref = _mp_kern_diff(a, b, t)
                    assert _rel_error(kern_diff(a, b, t), ref) <= 1e-12, (r, angle, y, t)
                    assert _rel_error(kern_diff(b, a, t), ref) <= 1e-12, (r, angle, y, t)


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


def _doubled_grid(d, xi_factor):
    # illposed_grid as it was: from M = 8, double until xi_max covers
    # xi_factor*N + 8 gamma, building each grid
    grid = Grid(np.pi / (2.0 * d.gamma / 32), 8)
    while grid.xi_max < xi_factor * d.N + 8.0 * d.gamma:
        grid = Grid(grid.L, 2 * grid.M)
    return grid


@pytest.mark.parametrize("quick", [False, True])
@pytest.mark.parametrize("name", ["illposed-c3", "illposed-c2nd"])
def test_tuned_sweep_grids_are_the_doubling_loops(name, quick):
    # the grid size found by arithmetic is the doubling loop's, at every N
    # of both tuned configs, full and --quick, so the sweeps' grids and
    # arrays are as they were
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    cfg = _apply_quick(cfg) if quick else cfg
    for d, xi_factor in growth_bands(name.removeprefix("illposed-"), cfg.illposed_s,
                                     cfg.illposed_epsilon, cfg.illposed_N):
        assert illposed_grid(d, xi_factor) == _doubled_grid(d, xi_factor), d.N


@given(N=st.floats(32.0, 1e4), epsilon=st.floats(0.01, 0.99),
       xi_factor=st.sampled_from([2.0, 2.5]))
@settings(max_examples=50, deadline=None)
def test_grid_size_is_the_doubling_loops(N, epsilon, xi_factor):
    d = IllposedData(N=N, epsilon=epsilon, gamma=N ** (1.0 - epsilon), s=-0.8)
    assert illposed_grid_shape(d, xi_factor)[1] == _doubled_grid(d, xi_factor).M


def test_grid_size_past_a_float_is_refused():
    # the box 16 pi / gamma overflows: no grid reaches the band
    with pytest.raises(ValueError, match="needs more grid points than a float holds"):
        illposed_grid_shape(IllposedData(N=64.0, epsilon=1e-320, gamma=6.4e-319, s=-0.8))


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
    duh = duhamel_integral(_u1_trajectory(phi, PARAMS, t), t)
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
        -1.0 * duhamel_integral(traj1, tau, check=False)
        for tau in times[1:]
    ]
    traj_sum = Trajectory(times, [SpectralField(grid, a.coeffs + b.coeffs)
                                  for a, b in zip(u1, w2)], params)
    traj_w2 = Trajectory(times, w2, params)
    # cubic cross part by polarization (the w2*w2 quartic piece cancels)
    cubic = -1.0 * (duhamel_integral(traj_sum, t, check=False)
                    - duhamel_integral(traj1, t, check=False)
                    - duhamel_integral(traj_w2, t, check=False))
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
# the Picard terms as Taylor coefficients of the nonlinear flow
# ---------------------------------------------------------------------------

# u(delta phi) = delta u1 + delta^2 c2 + delta^3 c3 + ..., where c2 = -u2/2
# and c3 = +u3/2 in the closed forms' convention (second_term is twice the
# Duhamel integral of u1 u1_x, see test_second_term_matches_duhamel).  On a
# window where u1 vanishes, the odd part of u(+-delta phi) over delta^3 (the
# even part over delta^2) is f(delta) = c + a delta^2 + b delta^4 + ...
# Richardson over delta and 2 delta, (4 f(delta) - f(2 delta)) / 3, leaves
# c - 4 b delta^4.  With rho = |f(2 delta) - f(delta)| / (3 |c|), the raw
# quotient's relative O(delta^2) remainder, and terms that shrink
# geometrically (|b| delta^4 <= rho^2 |c|), the extrapolated error is at
# most 4 rho^2.  So each sweep's tolerance is fixed beforehand from a bound
# RHO_MAX on rho at _DELTA, which the test checks too.
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
_DELTA = 1e-3


def _taylor_coefficient(flow, phi, order, where):
    """(Richardson value, rho) of the odd (order 3) or even (order 2) part
    of flow(+-delta phi) / delta^order on the modes `where`, over _DELTA and
    2 _DELTA, against nothing: rho is relative to the Richardson value."""
    def quotient(h):
        plus, minus = flow(phi * h)[where], flow(phi * -h)[where]
        return (plus - minus if order == 3 else plus + minus) / (2.0 * h ** order)

    f1, f2 = quotient(_DELTA), quotient(2.0 * _DELTA)
    value = (4.0 * f1 - f2) / 3.0
    return value, np.linalg.norm(f2 - f1) / (3.0 * np.linalg.norm(value))


def _picard_flow(params, t):
    return lambda psi: solve_picard(psi, params, SolverConfig(dt=t, T=t)).final_state().coeffs


def _sweep(name):
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    return cfg, [float(N) for N in cfg.illposed_N]


_C3, _C3_N = _sweep("illposed-c3")
_C2ND, _C2ND_N = _sweep("illposed-c2nd")


def _assert_taylor(value, rho, ref, rho_max):
    err = np.linalg.norm(value - ref) / np.linalg.norm(ref)
    assert rho <= rho_max and err <= 4.0 * rho_max ** 2, (rho, err)


# the iterates' products of u1 with u2 reach 3.6 N, past the grid's 2.8 N;
# their modes lie far from the window and enter it at delta^4 at the earliest
@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("N", _C3_N)
def test_picard_cubic_taylor_coefficient_is_half_u3(N):
    # the tuned c3 sweep's probe (beta = eta = 0.25, s = -0.8, eps = 0.1) on
    # its own grid, M = 1024, at t_N; rho measured 2.6e-7..8.4e-7, the
    # extrapolated error 3e-13..1.5e-12
    cfg = _C3
    d = IllposedData(N=N, epsilon=cfg.illposed_epsilon, gamma=cfg.illposed_epsilon * N,
                     s=cfg.illposed_s)
    grid = illposed_grid(d)
    phi = build_illposed_datum(d, grid)
    params = cfg.equation_params()
    window = (N + 3.0 * d.gamma, N + 4.0 * d.gamma)
    where = (grid.xi >= window[0]) & (grid.xi <= window[1])
    value, rho = _taylor_coefficient(_picard_flow(params, d.t_N), phi, 3, where)
    u3 = third_term(phi, d.t_N, params, window=window).coeffs[where]
    _assert_taylor(value, rho, u3 / 2.0, rho_max=1e-5)


@pytest.mark.parametrize("N", _C2ND_N)
def test_picard_quadratic_taylor_coefficient_is_minus_half_u2(N):
    # the tuned c2nd sweep's probe (beta = 0, eta = 0.1, s = -0.8, eps =
    # 0.05) on its own grid, M = 512, at t_N; rho measured 9e-6..3.2e-5, the
    # extrapolated error 2.3e-10..2.7e-9
    cfg = _C2ND
    eps = cfg.illposed_epsilon
    d = IllposedData(N=N, epsilon=eps, gamma=N ** (1.0 - eps), s=cfg.illposed_s)
    grid = illposed_grid(d, xi_factor=2.5)
    phi = build_illposed_datum(d, grid)
    params = EquationParams(beta=0.0, eta=cfg.eq_eta)
    window = (2.0 * N, 2.0 * N + 4.0 * d.gamma)
    where = (grid.xi >= window[0]) & (grid.xi <= window[1])
    value, rho = _taylor_coefficient(_picard_flow(params, d.t_N), phi, 2, where)
    u2 = second_term(phi, d.t_N, params, window=window).coeffs[where]
    _assert_taylor(value, rho, -u2 / 2.0, rho_max=1e-4)


def test_stepper_taylor_coefficients_are_the_picard_terms():
    # the same oracle on the stepper, at the band datum with beta = eta = 1
    # and t = 5e-4 in 50 IF-RK4 steps (dt max|q| = 0.65): -u2/2 on every
    # mode and u3/2 on the window past the band.  Here the step's O(dt^4)
    # error, not delta, sets the extrapolated error: measured 4.5e-9 (u2)
    # and 9.4e-8 (u3), falling 16 times per halving of dt
    d, grid, phi = _band_setup()
    t = 5e-4
    cfg = SolverConfig(dt=t / 50, T=t, keep_every=50)
    flow = functools.cache(lambda psi: solve_stepper(psi, PARAMS, cfg).final_state().coeffs)
    window = (d.N + 3.0 * d.gamma, d.N + 4.0 * d.gamma)
    where = (grid.xi >= window[0]) & (grid.xi <= window[1])
    for order, ref, mask in ((2, -second_term(phi, t, PARAMS).coeffs / 2.0, slice(None)),
                             (3, third_term(phi, t, PARAMS, window=window).coeffs[where] / 2.0,
                              where)):
        value, rho = _taylor_coefficient(flow, phi, order, mask)
        err = np.linalg.norm(value - ref) / np.linalg.norm(ref)
        assert rho <= 1e-6 and err <= 1e-6, (order, rho, err)


# ---------------------------------------------------------------------------
# sweep harness structure (full slope checks live in the acceptance suite)
# ---------------------------------------------------------------------------

def test_growth_sweep_report_structure():
    rep = illposed_growth_c3(-0.8, 0.2, [32, 64, 128, 256],
                             EquationParams(beta=0.25, eta=0.25), tol=0.15)
    assert rep.columns == ["N", "gamma", "t_N", "norm", "target_exponent", "fitted_slope"]
    assert len(rep.rows) == 4
    assert {"fitted_slope", "target_slope", "passed"} <= set(rep.summary)
    assert np.isfinite(rep.summary["fitted_slope"])
    assert rep.summary["target_slope"] == pytest.approx(-2 * -0.8 - 1 - 2 * 0.2)


def test_growth_sweep_frees_each_grid_on_return(monkeypatch, refcounting_only):
    # the memo tables live on the grid, so no grid of a finished sweep stays
    # alive, and reference counting alone frees it
    refs, build = [], flowderiv.illposed_grid

    def tracking(*args):
        grid = build(*args)
        refs.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(flowderiv, "illposed_grid", tracking)
    illposed_growth_c3(-0.8, 0.2, [32, 64, 128, 256], EquationParams(beta=0.25, eta=0.25),
                       tol=0.15)
    assert len(refs) == 4 and [ref() for ref in refs] == [None] * 4


# the dissipative drift of the c3 slopes: log ||u3|| = a + target log N -
# kappa eta N^{-eps}, whose fits gave kappa = 3.1-4.7 at eta = 0.25
_KAPPA = 5.0


@functools.cache
def _c3_excess(eta, epsilon):
    """The local slopes of ||u3(t_N)||_{H^s} over N = 64..16384 at beta =
    0.01, s = -0.8, minus the target -2s - 1 - 2 eps (read-only, as the
    cache shares it)."""
    N = 64.0 * 2.0 ** np.arange(9)
    rep = illposed_growth_c3(-0.8, epsilon, N, EquationParams(beta=0.01, eta=eta), tol=np.inf)
    local = np.diff(np.log(rep.column("norm").astype(float))) / np.diff(np.log(N))
    excess = local - rep.summary["target_slope"]
    excess.flags.writeable = False
    return excess


@pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2])
def test_c3_local_slopes_match_the_exponent_to_three_digits(epsilon):
    # at beta = eta = 0.01 every local slope exceeds the target by at most
    # the eta-linear drift of the dissipative factor, whose model gives an
    # excess below kappa eta eps
    eta = 0.01
    excess = _c3_excess(eta, epsilon)
    assert (excess >= 0.0).all() and (excess <= _KAPPA * eta * epsilon).all(), excess


@pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2])
def test_c3_slope_excess_is_linear_in_eta(epsilon):
    # the drift is first order in eta: at 4 eta each local-slope excess is
    # 4 times that at eta = 0.01, up to the model's second-order term, whose
    # relative size kappa (4 eta) N^{-eps} / 2 <= kappa (4 eta) / 2 = 0.1
    # bounds the deviation (the eta = 0.01 sweeps are the test above's)
    eta = 0.01
    ratio = _c3_excess(4.0 * eta, epsilon) / _c3_excess(eta, epsilon)
    assert (np.abs(ratio / 4.0 - 1.0) <= _KAPPA * 4.0 * eta / 2.0).all(), ratio


def test_growth_sweep_input_validation():
    with pytest.raises(ValueError):
        illposed_growth_c3(-0.8, 0.1, [64, 128], PARAMS, tol=0.15)  # too few N
    with pytest.raises(ValueError):
        illposed_growth_c2_nd(-0.8, 0.05, [256, 128, 64, 32], 1.0, tol=0.15)  # not increasing
