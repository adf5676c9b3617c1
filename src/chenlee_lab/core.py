"""Periodic Fourier grid, linear symbols, Hilbert transform and semigroup.

The equation solved downstream is

    u_t + u u_x + beta*H u_xx + eta*(H u_x - u_xx) = 0

on [-L, L) periodic, with H the Hilbert transform (Fourier multiplier
i*sgn(xi)).  The linear part is diagonal in Fourier space with symbol
i*q(xi) - p(xi), where q(xi) = beta*xi*|xi| and p(xi) = eta*(xi^2 - |xi|).
p is negative on the band 0 < |xi| < 1, so low modes grow while high
modes are damped.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI_SQRT = np.sqrt(2.0 * np.pi)


class AliasingBudgetWarning(UserWarning):
    """Raised when the quadratic product carries too much energy in the
    modes that the 2/3-rule truncation discards."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with M points.

    Mode k carries the continuum frequency xi_k = pi*k/L, so the symbols
    q, p apply verbatim at grid frequencies.
    """

    L: float
    M: int
    # derived arrays, excluded from equality/repr
    x: np.ndarray = field(init=False, repr=False, compare=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.M < 8 or not _is_power_of_two(self.M):
            raise ValueError(f"M must be a power of two >= 8, got {self.M}")
        object.__setattr__(self, "x", -self.L + self.dx * np.arange(self.M))
        k = np.fft.fftfreq(self.M, d=1.0 / self.M)  # integer mode numbers
        object.__setattr__(self, "xi", (np.pi / self.L) * k)
        # alternating sign (-1)^k absorbs the x-origin phase of the FFT
        object.__setattr__(self, "_phase", np.where(k.astype(int) % 2 == 0, 1.0, -1.0))
        # the same sign on nonlinear_term's 3/2-padded grid, where slot and mode parity agree
        object.__setattr__(self, "_phase_pad", np.resize([1.0, -1.0], 3 * self.M // 2))
        object.__setattr__(self, "_nyquist", self.M // 2)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def dxi(self) -> float:
        return np.pi / self.L

    @property
    def xi_max(self) -> float:
        return np.pi * (self.M // 2 - 1) / self.L

    def mode_index(self, n):
        """fft-order storage index of integer mode number n."""
        return np.asarray(n) % self.M


@dataclass(frozen=True)
class EquationParams:
    """beta: dispersion strength, eta: dissipation strength."""

    beta: float = 1.0
    eta: float = 1.0
    nonlinear: bool = True

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")


class SpectralField:
    """Real periodic grid function stored as continuum-normalized Fourier
    coefficients (fft mode order).

    coeffs[k] approximates u_hat(xi_k) = (2*pi)^{-1/2} int u(x) e^{-i xi_k x} dx,
    so Plancherel reads sum |coeffs|^2 * dxi = int |u|^2 dx exactly on the grid.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: Grid, coeffs: np.ndarray, check: bool = True):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.M,):
            raise ValueError("coefficient array does not match grid size")
        if check and not np.all(np.isfinite(coeffs.view(np.float64))):
            raise ValueError("non-finite Fourier coefficients")
        self.grid = grid
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.M, dtype=np.complex128), check=False)

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        """Forward transform of physical samples.  The Nyquist mode is
        zeroed (it has no conjugate partner and breaks real symmetry under
        the odd multipliers)."""
        values = np.asarray(values)
        c = (grid.dx / TWO_PI_SQRT) * grid._phase * np.fft.fft(values)
        c[grid._nyquist] = 0.0
        return cls(grid, c)

    @classmethod
    def from_function(cls, grid: Grid, f) -> "SpectralField":
        return cls.from_values(grid, f(grid.x))

    @classmethod
    def single_mode(cls, grid: Grid, n: int, amplitude: complex = 1.0) -> "SpectralField":
        """Real field amplitude*cos(xi_n x) built directly in Fourier space."""
        c = np.zeros(grid.M, dtype=np.complex128)
        w = grid.L * np.sqrt(2.0 / np.pi) * amplitude / 2.0
        c[grid.mode_index(n)] += w
        c[grid.mode_index(-n)] += np.conj(w)
        return cls(grid, c, check=False)

    # -- basic queries -------------------------------------------------
    def values(self) -> np.ndarray:
        """Inverse transform to physical samples (real part; solver states
        are Hermitian-symmetric)."""
        u = self.grid.M * (self.grid.dxi / TWO_PI_SQRT) * np.fft.ifft(self.coeffs * self.grid._phase)
        return u.real

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy(), check=False)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        c = self.coeffs
        mirror = np.conj(c[self.grid.mode_index(-np.arange(self.grid.M))])
        scale = max(np.abs(c).max(), 1e-300)
        return bool(np.abs(c - mirror).max() <= tol * scale)

    # -- arithmetic (coefficient-wise, same grid) ----------------------
    def _binop(self, other, op):
        if isinstance(other, SpectralField):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return SpectralField(self.grid, op(self.coeffs, other.coeffs), check=False)
        return SpectralField(self.grid, op(self.coeffs, other), check=False)

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar, check=False)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs, check=False)


# ---------------------------------------------------------------------------
# linear symbols
# ---------------------------------------------------------------------------

def symbol_q(xi, params: EquationParams):
    """Dispersion symbol q(xi) = beta * xi * |xi| (odd)."""
    xi = np.asarray(xi, dtype=float)
    return params.beta * xi * np.abs(xi)


def symbol_p(xi, params: EquationParams):
    """Dissipation symbol p(xi) = eta * (xi^2 - |xi|); negative exactly on
    the instability band 0 < |xi| < 1."""
    xi = np.asarray(xi, dtype=float)
    return params.eta * (xi * xi - np.abs(xi))


def linear_symbol(xi, params: EquationParams):
    """i*q(xi) - p(xi): the Fourier symbol of the linear evolution."""
    return 1j * symbol_q(xi, params) - symbol_p(xi, params)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def hilbert_transform(f: SpectralField) -> SpectralField:
    """Multiply coefficient-wise by i*sgn(xi); sgn(0) = 0 so the mean maps
    to zero and H^2 = -I on mean-zero fields."""
    g = f.grid
    c = f.coeffs * (1j * np.sign(g.xi))
    c[g._nyquist] = 0.0
    return SpectralField(g, c, check=False)


def x_derivative(f: SpectralField, order: int = 1) -> SpectralField:
    g = f.grid
    c = f.coeffs * (1j * g.xi) ** order
    c[g._nyquist] = 0.0
    return SpectralField(g, c, check=False)


def semigroup_multiplier(grid: Grid, t: float, params: EquationParams) -> np.ndarray:
    """E(xi, t) = exp(i q(xi) t - p(xi) t), with the Nyquist slot zeroed."""
    E = np.exp(linear_symbol(grid.xi, params) * t)
    E[grid._nyquist] = 0.0
    return E


def semigroup_apply(f: SpectralField, t: float, params: EquationParams) -> SpectralField:
    """Exact application of the linear solution operator S(t).

    Rejects t < 0: the dissipative factor e^{p(xi) t} blows up backward in
    time for |xi| > 1.
    """
    if t < 0:
        raise ValueError(f"semigroup is forward-only, got t={t}")
    return SpectralField(f.grid, f.coeffs * semigroup_multiplier(f.grid, t, params))


def nonlinear_term(u: SpectralField, dealias_budget: float = 1e-6) -> SpectralField:
    """Spectral representation of u*u_x = (1/2) d/dx (u^2).

    The square is formed on a 3/2 zero-padded grid, so the retained modes
    are alias-free (2/3 rule).  The energy fraction of u^2 living in the
    truncated upper third of the padded spectrum is compared against
    `dealias_budget`; exceeding it signals an under-resolved product.
    """
    g = u.grid
    M = g.M
    Mp = 3 * M // 2
    # zero-pad the spectrum (fft order: positive modes first, then negative)
    cp = np.zeros(Mp, dtype=np.complex128)
    half = M // 2
    cp[:half] = u.coeffs[:half]
    cp[Mp - half:] = u.coeffs[half:]
    # physical samples on the fine grid; transform pair normalized as in
    # SpectralField but with Mp points on the same [-L, L)
    up = Mp * (g.dxi / TWO_PI_SQRT) * np.fft.ifft(cp * g._phase_pad)
    vp = up * up
    wp = ((2.0 * g.L / Mp) / TWO_PI_SQRT) * g._phase_pad * np.fft.fft(vp)

    total = np.sum(np.abs(wp) ** 2)
    if total > 0:
        tail = np.sum(np.abs(wp[half:Mp - half]) ** 2)
        if tail / total > dealias_budget:
            warnings.warn(
                f"quadratic product carries {tail / total:.3e} of its energy in "
                f"truncated modes (budget {dealias_budget:.1e})",
                AliasingBudgetWarning,
                stacklevel=2,
            )

    c = np.zeros(M, dtype=np.complex128)
    c[:half] = wp[:half]
    c[half:] = wp[Mp - half:]
    c *= 0.5j * g.xi  # (1/2) d/dx; annihilates the mean exactly
    c[g._nyquist] = 0.0
    return SpectralField(g, c, check=False)


def random_real_field(grid: Grid, rng: np.random.Generator, band=None,
                      spectral_decay: float = 0.0) -> SpectralField:
    """Seeded random real field: unit-scale complex coefficients with
    Hermitian symmetry, optionally restricted to |xi| in `band` and shaped
    by |xi|^{-spectral_decay}."""
    M = grid.M
    c = np.zeros(M, dtype=np.complex128)
    kpos = np.arange(1, M // 2)
    xi_pos = grid.xi[kpos]
    amp = rng.standard_normal(kpos.size) + 1j * rng.standard_normal(kpos.size)
    if spectral_decay != 0.0:
        amp = amp * np.abs(xi_pos) ** (-spectral_decay)
    if band is not None:
        lo, hi = band
        amp = np.where((np.abs(xi_pos) >= lo) & (np.abs(xi_pos) <= hi), amp, 0.0)
    c[kpos] = amp
    c[grid.mode_index(-kpos)] = np.conj(amp)
    if band is None or band[0] <= 0:
        c[0] = rng.standard_normal()
    return SpectralField(grid, c, check=False)
