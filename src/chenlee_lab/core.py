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

import functools
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI_SQRT = np.sqrt(2.0 * np.pi)
LOG_FLOAT_MAX = np.log(sys.float_info.max)  # e^x overflows above it
DEALIAS_BUDGET = 1e-6  # see nonlinear_stack


class AliasingBudgetWarning(UserWarning):
    """Raised when the quadratic product carries too much energy in the
    modes that the 2/3-rule truncation discards; `fraction` is the worst
    share of that energy among the products judged at once (the text names
    only the budget)."""


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
    modes: np.ndarray = field(init=False, repr=False, compare=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.M < 8 or self.M & (self.M - 1):
            raise ValueError(f"M must be a power of two >= 8, got {self.M}")
        object.__setattr__(self, "x", -self.L + self.dx * np.arange(self.M))
        modes = np.fft.fftfreq(self.M, d=1.0 / self.M).astype(int)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "xi", (np.pi / self.L) * modes)
        # the kernel's tables: the forward and inverse scales of the padded
        # transform pair, and (1/2) d/dx in the block layout (2, M/2) of a
        # spectrum's halves (see nonlinear_stack).  All are complex, as numpy
        # would cast them for every product with a spectrum (same bits); a
        # 0-d array also skips the scalar conversion.
        Mp = 3 * self.M // 2
        object.__setattr__(self, "_fwd_scale", np.array(complex((2.0 * self.L / Mp) / TWO_PI_SQRT)))
        object.__setattr__(self, "_pad_scale", np.array(complex(Mp * (self.dxi / TWO_PI_SQRT))))
        object.__setattr__(self, "_half_ixi", (0.5j * self.xi).reshape(2, -1))
        # the tables of `grid_memo`'s builders on this grid, which die with it
        object.__setattr__(self, "_memo", {})

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def dxi(self) -> float:
        return np.pi / self.L

    @property
    def nyquist(self) -> int:
        """Storage index of the Nyquist mode -M/2, which has no conjugate
        partner; every spectrum keeps it zero."""
        return self.M // 2

    @property
    def xi_max(self) -> float:
        return self.xi_max_of(self.L, self.M)

    @staticmethod
    def xi_max_of(L: float, M: int) -> float:
        """The largest frequency that Grid(L, M) represents, without building it."""
        return np.pi * (M // 2 - 1) / L

    def mode_index(self, n):
        """fft-order storage index of integer mode number n."""
        return np.asarray(n) % self.M

    def represents(self, n):
        """Where integer mode number n has a slot of its own: |n| < M/2."""
        return np.abs(n) < self.nyquist

    def at_modes(self, table, n):
        """The (..., M) `table` (a spectrum, or `xi`) at integer mode numbers
        n of any shape, zero where n is not represented."""
        return np.where(self.represents(n), table[..., self.mode_index(n)], 0.0)

    def band(self, where=True):
        """The represented mode numbers where the (M,) table `where` holds."""
        return self.modes[self.represents(self.modes) & where]


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
        if check and not np.isfinite(coeffs.view(np.float64)).all():
            raise ValueError("non-finite Fourier coefficients")
        self.grid = grid
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.M, dtype=np.complex128), check=False)

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        """The one-row case of `from_values_stack`."""
        return cls(grid, from_values_stack(grid, values))

    @classmethod
    def from_function(cls, grid: Grid, f) -> "SpectralField":
        return cls.from_values(grid, f(grid.x))

    @classmethod
    def from_modes(cls, grid: Grid, n, values) -> "SpectralField":
        """The spectrum holding `values` at the distinct represented mode
        numbers n, zero elsewhere."""
        if not grid.represents(n).all():
            raise ValueError("a mode number is not represented on the grid")
        c = np.zeros(grid.M, dtype=np.complex128)
        c[grid.mode_index(n)] = values
        return cls(grid, c, check=False)

    @classmethod
    def single_mode(cls, grid: Grid, n: int, amplitude: complex = 1.0) -> "SpectralField":
        """Real field amplitude*cos(xi_n x) built directly in Fourier space;
        |n| must be below M/2, the Nyquist mode."""
        if not grid.represents(n):
            raise ValueError(f"mode {n} is not below the Nyquist index M/2 = {grid.nyquist}")
        c = np.zeros(grid.M, dtype=np.complex128)
        w = grid.L * np.sqrt(2.0 / np.pi) * amplitude / 2.0
        c[grid.mode_index(n)] += w
        c[grid.mode_index(-n)] += np.conj(w)
        return cls(grid, c, check=False)

    # -- arithmetic (coefficient-wise, same grid) ----------------------
    def __sub__(self, other):
        if isinstance(other, SpectralField):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            other = other.coeffs
        return SpectralField(self.grid, self.coeffs - other, check=False)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar, check=False)

    __rmul__ = __mul__


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

def hilbert_stack(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """H along the last axis of a (..., M) stack of spectra: the multiplier
    i*sgn(xi), sgn(0) = 0, so H^2 = -I on mean-zero fields."""
    c = coeffs * (1j * np.sign(grid.xi))
    c[..., grid.nyquist] = 0.0
    return c


def x_derivative_stack(grid: Grid, coeffs: np.ndarray, order: int = 1) -> np.ndarray:
    """d^order/dx^order along the last axis of a (..., M) stack of spectra."""
    c = coeffs * (1j * grid.xi) ** order
    c[..., grid.nyquist] = 0.0
    return c


def x_derivative(f: SpectralField, order: int = 1) -> SpectralField:
    return SpectralField(f.grid, x_derivative_stack(f.grid, f.coeffs, order), check=False)


def semigroup_half(grid: Grid, times, params: EquationParams) -> np.ndarray:
    """E(xi, t) on the non-negative modes 0..M/2-1 for each t of the 1-d
    `times`, as a (len(times), M/2) array: the half of a real field's
    multipliers that `hermitian_sums` applies."""
    return np.exp(np.multiply.outer(times, linear_symbol(grid.xi[:grid.nyquist], params)))


def hermitian_sums(grid: Grid, operators: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """The (R, M) spectra sum_j W[j] G[j], one per row W of the (R, K, M/2)
    `operators` on the non-negative modes 0..M/2-1 (real-weighted sums of
    `semigroup_half` rows), with G the (K, M) `samples`.  Each sum is
    formed on the non-negative half of G and mirrored, each negative mode
    the conjugate of its partner and the Nyquist slot zero, so it is
    Hermitian by construction.  The symbol's real part is even and its
    imaginary part odd, bitwise, and numpy's complex exp is conjugate-
    symmetric, so for Hermitian samples this is bitwise the sum on every
    mode up to the sign of an exact zero; otherwise it differs by the
    samples' rounding away from Hermitian symmetry."""
    n = grid.nyquist
    G = samples[:, :n]
    c = np.zeros((len(operators), grid.M), dtype=np.complex128)
    for row, W in zip(c, operators):
        np.add.reduce(W * G, axis=0, out=row[:n])  # .sum(axis=0), minus np.sum's dispatch
    np.conjugate(c[:, n - 1:0:-1], out=c[:, n + 1:])
    return c


def semigroup_stack(grid: Grid, times, params: EquationParams) -> np.ndarray:
    """E(xi, t) for each t of the 1-d `times`, as a (len(times), M) array
    with the Nyquist slot zeroed: the multipliers of Picard and linear runs."""
    E = np.multiply.outer(times, linear_symbol(grid.xi, params))
    np.exp(E, out=E)
    E[:, grid.nyquist] = 0.0
    return E


def grid_memo(maxsize: int):
    """Memoize `build(grid, ...)` on `grid` itself, keyed by the other
    arguments, all positional, so each table lives and dies with the grid
    it was built for.  A hit returns the stored value, shared; past
    `maxsize` entries of one builder on one grid, its least recently used
    one goes.  A miss calls the memo's `__wrapped__`, looked up then, which
    builds without storing.  Nothing stored may refer to its grid, or only
    the cycle collector could free the pair."""
    def decorate(build):
        @functools.wraps(build)
        def memo(grid: Grid, *args):
            table = grid._memo.setdefault(build, {})
            value = table.pop(args, None)
            if value is None:
                value = memo.__wrapped__(grid, *args)
                if len(table) >= maxsize:
                    del table[next(iter(table))]
            table[args] = value  # (again) the most recently used
            return value
        return memo
    return decorate


@grid_memo(maxsize=64)
def semigroup_multiplier(grid: Grid, t: float, params: EquationParams) -> np.ndarray:
    """E(xi, t) = exp(i q(xi) t - p(xi) t): the one-row `semigroup_stack`.

    Built once per (t, params) on each grid and read-only, as every hit
    shares it.  64 per grid hold the 49 multipliers of the C_CONTRACTION
    probe sweep (16 Chebyshev node times on each of 3 horizons, plus
    t = 0, visited cyclically, where fewer would miss on every call)."""
    E = semigroup_stack(grid, (t,), params)[0]
    E.flags.writeable = False
    return E


def semigroup_apply(f: SpectralField, t: float, params: EquationParams) -> SpectralField:
    """Exact application of the linear solution operator S(t).

    Rejects t < 0: the dissipative factor e^{p(xi) t} blows up backward in
    time for |xi| > 1.
    """
    if t < 0:
        raise ValueError(f"semigroup is forward-only, got t={t}")
    return SpectralField(f.grid, f.coeffs * semigroup_multiplier(f.grid, t, params))


def phase_flip(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(-1)^k times a stack of spectra along its last axis, into `out` (new
    when None; it may be `coeffs`), which is returned.  This is the x-origin
    phase of the transform, and the only code that applies it: the grid
    starts at x_0 = -L, so a plain FFT of the samples carries e^{i xi_k L} =
    (-1)^k on mode k.  The last axis holds fft order, or the block layout
    (..., 2, M/2) of `nonlinear_stack`, where slot and mode parity agree as
    M/2 is even.  The odd modes are negated, which is exact, signed zeros
    included."""
    if out is None:
        out = np.empty_like(coeffs)
    if out is not coeffs:
        out[..., ::2] = coeffs[..., ::2]
    np.negative(coeffs[..., 1::2], out=out[..., 1::2])
    return out


def _ifft(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`np.fft.ifft(a, out=out)` along the last axis, bitwise, by the
    pocketfft gufunc behind it (numpy >= 2.0), without np.fft's argument
    handling: 5-8 us a call, which an IF-RK4 step pays eight times.  The
    scale 1.0 / n is np.fft's `reciprocal(n)`; both are correctly rounded.
    The gufunc is looked up at call time, as numpy loads `numpy.fft` lazily
    and importing the package should not load it; Grid's `fftfreq` has."""
    return np.fft._pocketfft_umath.ifft(a, 1.0 / a.shape[-1], out=out)


def _fft(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`np.fft.fft(a, out=out)` along the last axis, bitwise; see `_ifft`."""
    return np.fft._pocketfft_umath.fft(a, 1.0, out=out)


def values_stack(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Physical samples of a (..., M) stack of spectra, row by row (real
    part; solver states are Hermitian-symmetric).  The inverse transform
    runs in place in the flipped copy, by the pocketfft gufunc behind
    `np.fft.ifft` (see `_ifft`)."""
    u = phase_flip(coeffs)
    _ifft(u, out=u)
    np.multiply(grid.M * (grid.dxi / TWO_PI_SQRT), u, out=u)
    return u.real


def from_values_stack(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Spectra of a (..., M) stack of physical samples, row by row, in
    double precision (see `_fft`).  The Nyquist mode is zeroed (it has no
    conjugate partner and breaks real symmetry under the odd multipliers)."""
    values = np.asarray(values)
    c = _fft(values, out=np.empty(values.shape, dtype=np.complex128))
    np.multiply(grid.dx / TWO_PI_SQRT, c, out=c)
    phase_flip(c, out=c)
    c[..., grid.nyquist] = 0.0
    return c


@functools.lru_cache(maxsize=None)
def _energy_sums(k: int) -> np.ndarray:
    """Row 0 adds the 3k chunk energies of a padded spectrum, the total;
    row 1 those of the middle third, the tail.  Read-only, as hits share it."""
    sums = np.zeros((2, 3 * k))
    sums[0] = 1.0
    sums[1, k:2 * k] = 1.0
    sums.flags.writeable = False
    return sums


class PaddedBuffer:
    """The kernel's workspace on `grid` for (*lead, M) stacks: `flat`, a new
    C-contiguous complex128 (*lead, 3M/2) array, in which the pocketfft
    gufuncs behind `np.fft` transform in place (see `_ifft`), with its views
    in the block layout of `nonlinear_stack`, made once: `retained`, blocks
    0 and 2, and `middle`, block 1, as (..., 2, M/2) and (..., M/2) arrays.
    `power` is the float view the aliasing check sums, as (..., 3k, c)
    chunks of c = min(M, 4096) floats, k = M/c per third, and `sums` the
    table that adds their energies (see `_energy_sums`): OpenBLAS runs a
    ddot over more than 10,000 floats on its thread pool, and no ddot here
    is that long.

    A stepper's workspace, on (b,) stacks, holds all an IF-RK4 run knows
    of storage.  The stack's state is in the block layout as (-1)^k c, and
    a stage written into `retained` is where the kernel reads it; negation
    commutes exactly with the kernel and with each operation of a step, up
    to the sign of an exact zero."""

    __slots__ = ("flat", "retained", "middle", "power", "sums", "grid")

    def __init__(self, grid: Grid, lead: tuple):
        n = grid.nyquist
        flat = np.empty((*lead, 3 * n), dtype=np.complex128)
        thirds = flat.reshape((*lead, 3, n))
        self.grid = grid
        self.flat = flat
        self.retained = thirds[..., ::2, :]
        self.middle = thirds[..., 1, :]
        c = min(2 * n, 4096)
        self.power = flat.view(np.float64).reshape((*lead, 6 * n // c, c))
        self.sums = _energy_sums(2 * n // c)

    def load(self, stack: np.ndarray, *multipliers: np.ndarray) -> tuple:
        """The (b, M) datum stack `stack`, overwritten, as the state (the
        Nyquist slot zeroed, then flipped), then the (b, M) diagonal
        `multipliers`, which commute with the flip, in its layout.  Raises
        ValueError on a non-finite datum."""
        stack[:, self.grid.nyquist] = 0.0
        if not np.isfinite(stack.view(np.float64)).all():
            raise ValueError("non-finite Fourier coefficients")
        phase_flip(stack, out=stack)  # in place, so no copy adds to peak memory
        return tuple(a.reshape(len(a), 2, self.grid.nyquist) for a in (stack,) + multipliers)

    def energy_rows(self, n: int) -> np.ndarray:
        """n new (*lead, 3k) rows for chunk energies (see `nonlinear_blocks`)."""
        return np.empty((n,) + self.power.shape[:-1])

    def evaluate(self, src: np.ndarray, out: np.ndarray, scale: np.ndarray, energies):
        """out <- scale * (-1)^k (u u_x)^ at the stage `src`, its energies into `energies`."""
        if src is not self.retained:
            np.copyto(self.retained, src)
        nonlinear_blocks(self.grid, self, out, energies)
        np.multiply(out, scale, out=out)

    @staticmethod
    def store(state: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The state as (b, M) spectra, written into `out` and returned."""
        return phase_flip(state.reshape(out.shape), out=out)


def nonlinear_stack(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Spectra of u*u_x = (1/2) d/dx (u^2) for a (..., M) stack of spectra u,
    row by row.

    The square is formed on a 3/2 zero-padded grid, so the retained modes
    are alias-free (2/3 rule).  The energy fraction of each row's u^2 living
    in the truncated upper third of the padded spectrum is compared against
    `DEALIAS_BUDGET`; exceeding it signals an under-resolved product.  One
    warning per call carries the worst row's fraction as `.fraction`; its
    text names only the budget, so Python's once-per-location filter folds
    the repeats of a run.

    Four steps: `phase_flip` writes the stack into the retained blocks of
    a new (..., 3M/2) padded buffer (see `PaddedBuffer`), the phase-free
    kernel `nonlinear_blocks` writes the flipped product into the result,
    `aliasing_verdict` judges it, and `phase_flip` turns it back in place.
    The result is that of the plain form `(s2*phase * fft(v * v)) * 0.5j*xi`
    with `v = s1 * ifft(pad(u) * phase)`, bitwise up to the sign of an
    exact zero: rounding is symmetric, so a
    product with the sign, alone or folded into a scale, is the exact
    negation a flip writes, and the kernel runs the plain form's other
    operations in the same order, each operand on the same side.  Keep
    that rule here and in the stepper: numpy's complex multiply rounds one
    of its two products and fuses the other into the sum (FMA), so `a * b`
    and `b * a` can differ in the last bit (the stepper's `E1 * k1` written
    as `k1 * E1` moves the decay experiment's CSV).
    """
    lead, half = coeffs.shape[:-1], grid.M // 2
    out = np.empty(lead + (grid.M,), dtype=np.complex128)
    pad = PaddedBuffer(grid, lead)
    energies = pad.energy_rows(1)
    blocks = out.reshape(lead + (2, half))
    phase_flip(coeffs.reshape(lead + (2, half)), out=pad.retained)
    nonlinear_blocks(grid, pad, blocks, energies[0])
    aliasing_verdict(pad, energies)
    phase_flip(blocks, out=blocks)
    return out


def nonlinear_blocks(grid: Grid, pad: PaddedBuffer, out: np.ndarray, energies) -> np.ndarray:
    """The kernel of `nonlinear_stack`, in phase-free coordinates and the
    block layout: the spectra c~ = (-1)^k c of a stack, already written into
    `pad.retained`, give the spectra (-1)^k (u u_x)^ in `out`, a complex128
    (..., 2, M/2) array for the same leading shape, which is returned.
    `pad`'s contents on return are scratch.  The transform pair runs in
    place in `pad.flat`, by the pocketfft gufuncs behind `np.fft` (see
    `_ifft`).  It judges nothing: each product's chunk energies go into
    `energies`, a row of `pad.energy_rows`, for the caller's
    `aliasing_verdict`, after one product or several."""
    work = pad.flat
    pad.middle.fill(0.0)
    # physical samples on the fine grid; transform pair normalized as in
    # SpectralField but with 3M/2 points on the same [-L, L)
    _ifft(work, out=work)
    np.multiply(grid._pad_scale, work, out=work)
    np.multiply(work, work, out=work)
    _fft(work, out=work)
    # energies of the unscaled spectrum (the scale cancels), a ddot per chunk
    np.vecdot(pad.power, pad.power, out=energies)

    np.multiply(grid._fwd_scale, pad.retained, out=out)
    np.multiply(out, grid._half_ixi, out=out)  # (1/2) d/dx; annihilates the mean exactly
    out[..., 1, 0] = 0.0  # Nyquist
    return out


def aliasing_verdict(pad: PaddedBuffer, energies: np.ndarray):
    """One AliasingBudgetWarning (`.fraction` the worst), attributed to the first
    caller outside this module, where any product's tail (middle third) exceeds
    `DEALIAS_BUDGET` times its total, from chunk energies `nonlinear_blocks` wrote."""
    # the total and the tail as two ddots: cheaper than two reductions, and a
    # matmul would be a gemv, whose BLAS work buffer adds 0.28 MB to peak RSS
    sums = np.vecdot(energies[..., None, :], pad.sums)
    total, tail = sums[..., 0], sums[..., 1]
    over = tail > DEALIAS_BUDGET * total
    if np.count_nonzero(over):
        warning = AliasingBudgetWarning(
            f"quadratic product carries more than its budget {DEALIAS_BUDGET:.1e} "
            f"of its energy in truncated modes")
        warning.fraction = float(np.max(tail[over] / total[over]))
        frame, level = sys._getframe(1), 2  # this function's caller...
        while frame.f_globals is globals():  # ...past nonlinear_stack/_term
            frame, level = frame.f_back, level + 1
        warnings.warn(warning, stacklevel=level)


def nonlinear_term(u: SpectralField) -> SpectralField:
    """Spectral representation of u*u_x, dealiased and checked against
    `DEALIAS_BUDGET`: the one-row case of `nonlinear_stack`."""
    return SpectralField(u.grid, nonlinear_stack(u.grid, u.coeffs), check=False)


def random_real_field(grid: Grid, rng: np.random.Generator,
                      spectral_decay: float = 0.0) -> SpectralField:
    """Seeded random real field: unit-scale complex coefficients with
    Hermitian symmetry, shaped by |xi|^{-spectral_decay}."""
    c = np.zeros(grid.M, dtype=np.complex128)
    kpos = np.arange(1, grid.nyquist)
    amp = rng.standard_normal(kpos.size) + 1j * rng.standard_normal(kpos.size)
    if spectral_decay != 0.0:
        amp = amp * grid.xi[kpos] ** (-spectral_decay)
    c[kpos] = amp
    c[grid.mode_index(-kpos)] = np.conj(amp)
    c[0] = rng.standard_normal()
    return SpectralField(grid, c, check=False)
