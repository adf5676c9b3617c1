"""Closed-form Picard terms of the data-to-solution map and the rough-data
norm-inflation experiments.

The first three terms of the Picard expansion at data phi are

    u1(t) = S(t) phi,
    u2(t) = -int_0^t S(t-t') d/dx(u1 u1) dt'   (evaluated in closed form
            through the resonance kernel (e^{sigma t}-1)/sigma),
    u3(t) = the next iterate's genuinely cubic part, whose kernel is a
            divided difference of the same function at (psi, sigma).

For characteristic-function band data centered at a large frequency N and
Sobolev index s < -1/2, ||u3(t_N)||_{H^s} (resp. ||u2|| in the
non-dispersive case) grows like a positive power of N, which rules out a
C^3 (resp. C^2) data-to-solution map at the origin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LOG_FLOAT_MAX,
    TWO_PI_SQRT,
    EquationParams,
    Grid,
    SpectralField,
    semigroup_multiplier,
    symbol_p,
    symbol_q,
)
from .report import ExperimentReport, fit_loglog
from .spaces import sobolev_norm

_SERIES_EPS = 1e-8


# ---------------------------------------------------------------------------
# resonance functions and kernels
# ---------------------------------------------------------------------------

def make_sigma(params: EquationParams):
    """sigma(xi, xi1) = i(q(xi1)+q(xi-xi1)-q(xi)) - (p(xi1)+p(xi-xi1)-p(xi)):
    phase/damping mismatch of the pair (xi1, xi-xi1) producing xi."""

    def sigma(xi, xi1):
        xi = np.asarray(xi, dtype=float)
        xi1 = np.asarray(xi1, dtype=float)
        q = lambda z: symbol_q(z, params)
        p = lambda z: symbol_p(z, params)
        return 1j * (q(xi1) + q(xi - xi1) - q(xi)) - (p(xi1) + p(xi - xi1) - p(xi))

    return sigma


def lambda_nd(xi, xi1, eta: float):
    """Non-dispersive (beta=0) resonance: real, -(p(xi1)+p(xi-xi1)-p(xi))."""
    p = EquationParams(beta=0.0, eta=eta)
    sig = make_sigma(p)(xi, xi1)
    return np.real(sig)


def kern(z, t: float):
    """K(z, t) = (e^{z t} - 1)/z, entire in z; 3-term series below 1e-8."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _SERIES_EPS
    safe = np.where(small, 1.0, z)
    out = np.where(small,
                   t + z * (t * t / 2.0) + z * z * (t ** 3 / 6.0),
                   (np.exp(z * t) - 1.0) / safe)
    return out if out.shape else complex(out)


def _kern_prime(z, t: float):
    """dK/dz = (t z e^{z t} - (e^{z t} - 1)) / z^2, with its own series."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _SERIES_EPS
    safe = np.where(small, 1.0, z)
    ezt = np.exp(z * t)
    out = np.where(small,
                   t * t / 2.0 + z * (t ** 3 / 3.0) + z * z * (t ** 4 / 8.0),
                   (t * z * ezt - (ezt - 1.0)) / (safe * safe))
    return out


def kern_diff(a, b, t: float):
    """Divided difference (K(a,t) - K(b,t)) / (a - b); K'(midpoint) when
    a and b coalesce.  This is the u3 kernel bracket divided by
    sigma(xi2, xi1), all removable singularities included."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    d = a - b
    small = np.abs(d) < _SERIES_EPS
    out = (kern(a, t) - kern(b, t)) / np.where(small, 1.0, d)
    if not out.shape:
        return complex(_kern_prime(0.5 * (a + b), t) if small else out)
    out[small] = _kern_prime((0.5 * (a + b))[small], t)  # only where they coalesce
    return out


# ---------------------------------------------------------------------------
# rough data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IllposedData:
    """Band datum phi_hat = N^{-s} gamma^{-1/2} (chi_{I}(xi) + chi_{I}(-xi)),
    I = [N, N + 2 gamma], probed at time t_N = N^{-2-eps}."""

    N: float
    epsilon: float
    gamma: float
    s: float

    def __post_init__(self):
        if self.N < 32:
            raise ValueError(f"N must be >= 32, got {self.N:g}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not 0 < self.gamma:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        # the bands +-[N, N+2 gamma] must not touch the origin / each other
        if self.gamma > self.N:
            raise ValueError(f"gamma={self.gamma} too wide: bands would overlap 0")
        # the growth regime is s < -1/2, but the consistency harness reruns
        # the same sweep on the well-posed side, so only s < 0 is enforced
        if self.s >= 0:
            raise ValueError(f"s must be negative, got {self.s}")
        if -self.s * np.log(self.N) > LOG_FLOAT_MAX:
            raise ValueError(f"s = {self.s} overflows the amplitude at N = {self.N:g}; raise s")

    @property
    def t_N(self) -> float:
        return float(self.N) ** (-2.0 - self.epsilon)

    @property
    def amplitude(self) -> float:
        return float(self.N) ** (-self.s) / np.sqrt(self.gamma)


def growth_bands(sweep: str, s: float, epsilon: float, N_list) -> list:
    """(datum, xi_factor) at each N (`band_centers`) of the growth sweep "c3"
    (gamma = epsilon N) or "c2nd" (gamma = N^(1 - epsilon), grids to 2.5 N)."""
    Ns = band_centers(N_list)
    if sweep == "c3":
        return [(IllposedData(N=N, epsilon=epsilon, gamma=epsilon * N, s=s), 2.0) for N in Ns]
    return [(IllposedData(N=N, epsilon=epsilon, gamma=N ** (1.0 - epsilon), s=s), 2.5) for N in Ns]


def illposed_grid_shape(d: IllposedData, xi_factor: float = 2.0) -> tuple:
    """(L, M) of `illposed_grid(d, xi_factor)` by arithmetic, no grid built;
    ValueError where no M that a float can hold reaches the band."""
    L, xi_need = np.pi / (2.0 * d.gamma / 32), xi_factor * d.N + 8.0 * d.gamma
    if not np.isfinite(xi_need * L):
        raise ValueError(f"N = {d.N:g} with gamma = {d.gamma:g} needs more grid points "
                         f"than a float holds")
    M = 8
    while Grid.xi_max_of(L, M) < xi_need:
        M *= 2
    return L, M


def illposed_grid(d: IllposedData, xi_factor: float = 2.0) -> Grid:
    """Grid resolving the band [N, N + 2 gamma] with 32 frequencies and
    covering |xi| up to xi_factor*N + 8 gamma (room for the convolution
    lookups): the least power of two M >= 8 that does."""
    return Grid(*illposed_grid_shape(d, xi_factor))


def build_illposed_datum(d: IllposedData, grid: Grid) -> SpectralField:
    xi = grid.xi
    in_band = (np.abs(xi) >= d.N) & (np.abs(xi) <= d.N + 2.0 * d.gamma)
    n_inside = int(np.count_nonzero(in_band & (xi > 0)))
    if n_inside < 16:
        raise ValueError(
            f"band [N, N+2*gamma] holds only {n_inside} grid frequencies (need >= 16)"
        )
    return SpectralField.from_modes(grid, grid.band(in_band), d.amplitude)


# ---------------------------------------------------------------------------
# Picard terms
# ---------------------------------------------------------------------------

@dataclass
class PicardTerm:
    """One Picard-expansion term evaluated on (part of) the frequency grid.

    `coeffs` is a full fft-order array; outside `window` (a positive
    frequency interval, if set) the entries are zero and the H^s norm is
    the windowed norm."""

    grid: Grid
    coeffs: np.ndarray
    t: float
    order: int
    window: tuple | None = None

    def field(self) -> SpectralField:
        return SpectralField(self.grid, self.coeffs, check=False)

    def hs_norm(self, s: float) -> float:
        return sobolev_norm(self.field(), s)


def _window_modes(grid: Grid, window):
    """The represented mode numbers with frequency in `window` (all when None)."""
    if window is None:
        return grid.band()
    lo, hi = window
    n = grid.band((grid.xi >= lo) & (grid.xi <= hi))
    if n.size == 0:
        raise ValueError(f"frequency window [{lo}, {hi}] outside grid support")
    return n


def _picard_term(phi: SpectralField, t: float, params: EquationParams, window,
                 order: int, entry) -> PicardTerm:
    """The term of `order` at time t whose entry at each output mode n, of
    frequency xi, is entry(n, xi, E(xi, t), n1, xi1, phi1), with n1 the
    datum's nonzero modes, xi1 their frequencies and phi1 their values; zero
    at t = 0 or for zero data."""
    if t < 0:
        raise ValueError("t must be >= 0")
    grid = phi.grid
    n_out, n1 = _window_modes(grid, window), grid.band(np.abs(phi.coeffs) > 0)
    c = np.zeros(n_out.size, dtype=np.complex128)
    if t > 0 and n1.size:
        support = n1, grid.at_modes(grid.xi, n1), grid.at_modes(phi.coeffs, n1)
        E = grid.at_modes(semigroup_multiplier(grid, t, params), n_out)
        for j, (n, xi) in enumerate(zip(n_out, grid.at_modes(grid.xi, n_out))):
            c[j] = entry(n, xi, E[j], *support)
    return PicardTerm(grid, SpectralField.from_modes(grid, n_out, c).coeffs, t, order=order,
                      window=tuple(window) if window is not None else None)


def second_term(phi: SpectralField, t: float, params: EquationParams,
                window=None) -> PicardTerm:
    """u2_hat(xi) = i xi E(xi,t) (2 pi)^{-1/2} int phi_hat(xi - xi1)
    phi_hat(xi1) K(sigma(xi, xi1), t) dxi1 (trapezoid in xi1)."""
    grid, sigma = phi.grid, make_sigma(params)

    def entry(n, xi, E, n1, xi1, phi1):
        phi_shift = grid.at_modes(phi.coeffs, n - n1)
        K = kern(sigma(xi, xi1), t)
        return (1j * xi * E / TWO_PI_SQRT) * grid.dxi * np.sum(phi_shift * phi1 * K)

    return _picard_term(phi, t, params, window, 2, entry)


def third_term(phi: SpectralField, t: float, params: EquationParams,
               window=None) -> PicardTerm:
    """u3_hat(xi) = -xi E(xi,t) (2 pi)^{-1} int int phi_hat(xi1)
    phi_hat(xi2-xi1) phi_hat(xi-xi2) xi2 * D(xi, xi1, xi2) dxi1 dxi2,
    with D the divided difference of K between psi(xi,xi1,xi2) and
    sigma(xi,xi2).

    The double sum is restricted to the support of phi_hat in xi1 and to
    xi2 with phi_hat(xi - xi2) != 0, so band data costs O(band^2) per
    output frequency.
    """
    grid, sigma = phi.grid, make_sigma(params)

    def entry(n, xi, E, n1, xi1, phi1):
        # xi2 must satisfy phi_hat(xi - xi2) != 0: xi2 = xi - (band)
        m2 = n - n1
        m2 = m2[grid.represents(m2)]
        if m2.size == 0:
            return 0.0
        xi2 = grid.at_modes(grid.xi, m2)  # (n2,)
        phi_tail = grid.at_modes(phi.coeffs, n - m2)  # phi_hat(xi - xi2)
        phi_mid = grid.at_modes(phi.coeffs, m2[:, None] - n1[None, :])  # phi_hat(xi2 - xi1)
        sig2 = sigma(xi, xi2)  # (n2,)
        sig21 = sigma(xi2[:, None], xi1[None, :])  # (n2, n1)
        D = kern_diff(sig2[:, None] + sig21, sig2[:, None], t)
        inner = np.sum(phi_mid * phi1[None, :] * D, axis=1)  # (n2,)
        total = np.sum(phi_tail * xi2 * inner)
        return (-xi * E / (2.0 * np.pi)) * grid.dxi ** 2 * total

    return _picard_term(phi, t, params, window, 3, entry)


# ---------------------------------------------------------------------------
# norm-inflation sweeps
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ["N", "gamma", "t_N", "norm", "target_exponent", "fitted_slope"]


def band_centers(N) -> np.ndarray:
    """A growth sweep's frequency centers N as floats, >= 4 strictly increasing."""
    centers = np.asarray(N, dtype=float)
    if centers.size < 4 or np.any(np.diff(centers) <= 0):
        raise ValueError(f"N must be >= 4 strictly increasing values; got {centers.tolist()}")
    return centers


def _finish_report(report: ExperimentReport, target: float, tol: float):
    N = report.column("N").astype(float)
    norms = report.column("norm").astype(float)
    slope, _ = fit_loglog(N, norms)
    slope_tail = slope
    if N.size >= 4:
        slope_tail, _ = fit_loglog(N, norms, drop_head=2)
    report.rows = [row[:-1] + (slope,) for row in report.rows]
    report.summary.update({
        "fitted_slope": slope,
        "fitted_slope_drop2": slope_tail,
        "target_slope": target,
        "slope_tolerance": tol,
        "passed": abs(slope - target) <= tol,
    })
    return report


def illposed_growth_c3(s: float, epsilon: float, N_list, params: EquationParams,
                       tol: float) -> ExperimentReport:
    """Growth of ||u3(t_N)||_{H^s} vs N for band data with gamma = eps*N;
    target log-log slope -2s - 1 - 2*eps (positive for s < -1/2: no C^3
    data-to-solution map)."""
    target = -2.0 * s - 1.0 - 2.0 * epsilon
    report = ExperimentReport("illposed_c3", list(REPORT_COLUMNS))
    for d, xi_factor in growth_bands("c3", s, epsilon, N_list):
        grid = illposed_grid(d, xi_factor)
        phi = build_illposed_datum(d, grid)
        window = (d.N + 3.0 * d.gamma, d.N + 4.0 * d.gamma)
        u3 = third_term(phi, d.t_N, params, window=window)
        report.add_row(int(d.N), d.gamma, d.t_N, u3.hs_norm(s), target, np.nan)
    return _finish_report(report, target, tol)


def illposed_growth_c2_nd(s: float, epsilon: float, N_list, eta: float,
                          tol: float) -> ExperimentReport:
    """Non-dispersive (beta=0) growth of ||u2(t_N)||_{H^s} vs N with
    gamma = N^{1-eps} and output window [2N, 2N+4 gamma]; target slope
    (-2s - 1 - 3*eps)/2."""
    params = EquationParams(beta=0.0, eta=eta)
    target = (-2.0 * s - 1.0 - 3.0 * epsilon) / 2.0
    report = ExperimentReport("illposed_c2_nd", list(REPORT_COLUMNS))
    lam_ratios, exp_floors = [], []
    for d, xi_factor in growth_bands("c2nd", s, epsilon, N_list):
        grid = illposed_grid(d, xi_factor)
        phi = build_illposed_datum(d, grid)
        window = (2.0 * d.N, 2.0 * d.N + 4.0 * d.gamma)
        u2 = second_term(phi, d.t_N, params, window=window)
        report.add_row(int(d.N), d.gamma, d.t_N, u2.hs_norm(s), target, np.nan)
        # resonance scale lambda ~ eta N^2 on interacting pairs
        xi1 = np.linspace(d.N, d.N + 2.0 * d.gamma, 8)
        lam = np.abs(lambda_nd(2.0 * xi1, xi1, eta))
        lam_ratios.extend((lam / (eta * d.N * d.N)).tolist())
        # dissipative factor stays bounded below on the output window
        xi_w = np.linspace(*window, 8)
        exp_floors.append(float(np.min(np.exp(eta * (np.abs(xi_w) - xi_w ** 2) * d.t_N))))
    report.summary["lambda_over_etaN2_min"] = float(np.min(lam_ratios))
    report.summary["lambda_over_etaN2_max"] = float(np.max(lam_ratios))
    report.summary["dissipative_floor_min"] = float(np.min(exp_floors))
    return _finish_report(report, target, tol)
