"""Grid/transform invariants, linear symbols, Hilbert transform, semigroup
and the dealiased quadratic nonlinearity."""
import ast
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chenlee_lab
from chenlee_lab import solver, spaces
from chenlee_lab.core import (
    TWO_PI_SQRT,
    AliasingBudgetWarning,
    EquationParams,
    Grid,
    PaddedBuffer,
    SpectralField,
    aliasing_verdict,
    from_values_stack,
    hilbert_stack,
    linear_symbol,
    nonlinear_blocks,
    nonlinear_stack,
    nonlinear_term,
    phase_flip,
    random_real_field,
    semigroup_apply,
    semigroup_multiplier,
    semigroup_stack,
    symbol_p,
    symbol_q,
    values_stack,
    x_derivative,
)

GRID = Grid(8.0 * np.pi, 256)
PARAMS = EquationParams(beta=1.0, eta=1.0)


def _rand_field(seed, grid=GRID):
    return random_real_field(grid, np.random.default_rng(seed), spectral_decay=1.0)


def _is_hermitian(coeffs, grid=GRID, tol=1e-10):
    # a real field's spectrum: each mode the conjugate of its partner's
    mirror = np.conj(coeffs[grid.mode_index(-grid.modes)])
    return np.abs(coeffs - mirror).max() <= tol * max(np.abs(coeffs).max(), 1e-300)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 64)
    with pytest.raises(ValueError):
        Grid(1.0, 48)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1.0, 4)  # too small


def test_grid_derived_quantities():
    g = Grid(5.0, 64)
    assert g.dx * g.M == pytest.approx(2.0 * g.L)
    assert g.dxi == pytest.approx(np.pi / g.L)
    assert g.x[0] == pytest.approx(-g.L)
    assert g.xi_max == pytest.approx(np.pi * 31 / 5.0)
    assert g.mode_index(-1) == g.M - 1


# ---------------------------------------------------------------------------
# transform pair
# ---------------------------------------------------------------------------

def test_roundtrip_smooth_function():
    f = SpectralField.from_function(GRID, lambda x: np.exp(-x * x) * np.cos(x))
    vals = f.values()
    ref = np.exp(-GRID.x ** 2) * np.cos(GRID.x)
    assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()


def test_plancherel_exact():
    u = _rand_field(0)
    lhs = np.sum(np.abs(u.coeffs) ** 2) * GRID.dxi
    rhs = np.sum(u.values() ** 2) * GRID.dx
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_continuum_normalization_gaussian():
    # u_hat(0) = (2 pi)^{-1/2} int e^{-x^2} dx = 1/sqrt(2)
    f = SpectralField.from_function(GRID, lambda x: np.exp(-x * x))
    assert f.coeffs[0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_single_mode_values():
    f = SpectralField.single_mode(GRID, 5, 0.7)
    xi5 = 5 * np.pi / GRID.L
    assert np.abs(f.values() - 0.7 * np.cos(xi5 * GRID.x)).max() <= 1e-12


def test_nyquist_zeroed():
    rng = np.random.default_rng(3)
    f = SpectralField.from_values(GRID, rng.standard_normal(GRID.M))
    assert f.coeffs[GRID.M // 2] == 0.0


def test_grid_storage_facts():
    g = Grid(5.0, 16)
    assert g.nyquist == 8
    assert g.modes.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, -8, -7, -6, -5, -4, -3, -2, -1]
    assert np.array_equal(g.mode_index(g.modes), np.arange(16))
    assert np.array_equal(g.xi, (np.pi / g.L) * g.modes)


def test_lookup_by_mode_number():
    # the represented band is |n| < M/2, in storage order; the lookup reads
    # any (..., M) table there and gives zero outside, Nyquist mode included
    g = Grid(5.0, 16)
    assert g.represents(np.array([0, 7, -7, 8, -8, 9])).tolist() == [1, 1, 1, 0, 0, 0]
    assert g.band().tolist() == [0, 1, 2, 3, 4, 5, 6, 7, -7, -6, -5, -4, -3, -2, -1]
    assert g.band(g.xi > 0.5).tolist() == [1, 2, 3, 4, 5, 6, 7]
    table = np.arange(16.0) + 100.0
    n = np.array([[3, -3], [8, -8], [20, -1]])
    assert g.at_modes(table, n).tolist() == [[103.0, 113.0], [0.0, 0.0], [0.0, 115.0]]
    stack = np.array([table, -table])
    assert g.at_modes(stack, np.array([1, -1])).tolist() == [[101.0, 115.0], [-101.0, -115.0]]
    assert np.array_equal(g.at_modes(g.xi, g.band()), g.xi[g.band() % 16])


def test_from_modes_places_values_and_rejects_unrepresented_modes():
    g = Grid(5.0, 16)
    f = SpectralField.from_modes(g, np.array([2, -2, 0]), np.array([1 + 2j, 1 - 2j, 3.0]))
    expected = np.zeros(16, dtype=complex)
    expected[[2, 14, 0]] = [1 + 2j, 1 - 2j, 3.0]
    assert np.array_equal(f.coeffs.view(np.uint64), expected.view(np.uint64))
    assert _is_hermitian(f.coeffs, g)
    for n in (8, -8, 9):
        with pytest.raises(ValueError, match="not represented"):
            SpectralField.from_modes(g, np.array([1, n]), 1.0)


@pytest.mark.parametrize("M", [8, 256])
def test_semigroup_stack_equals_frozen_form_bitwise(M):
    # the Picard route's multipliers as solve_picard built them: the symbol
    # with its Nyquist slot zeroed, exponentiated at every time, the slot
    # zeroed again; each row is semigroup_multiplier's bits at its time
    grid = Grid(8.0 * np.pi, M)
    times = np.linspace(0.0, 1.0, 17) ** 2
    sym = linear_symbol(grid.xi, PARAMS)
    sym[M // 2] = 0.0
    ref = np.exp(np.multiply.outer(times, sym))
    ref[:, M // 2] = 0.0
    got = semigroup_stack(grid, times, PARAMS)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    rows = np.array([semigroup_multiplier(grid, t, PARAMS) for t in times.tolist()])
    assert np.array_equal(rows.view(np.uint64), ref.view(np.uint64))


def test_stepper_workspace_round_trip_is_exact():
    # load zeroes the Nyquist slot and flips the stack; store turns it
    # back: the datum, signed zeros included
    grid = Grid(8.0 * np.pi, 64)
    rng = np.random.default_rng(4)
    k = grid.band((grid.xi >= 1.0) & (grid.xi <= 3.0))  # a band-limited datum
    amp = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
    datum = SpectralField.from_modes(grid, np.concatenate([k, -k]),
                                     np.concatenate([amp, amp.conj()])).coeffs
    datum[grid.nyquist] = 5.0
    datum[3] = complex(-0.0, 0.0)
    stack = np.repeat(datum[None, :], 2, axis=0)
    E = rng.standard_normal(stack.shape) + 0j
    pad = PaddedBuffer(grid, (len(stack),))
    state, E_blocks = pad.load(stack, E)
    assert state.shape == E_blocks.shape and np.shares_memory(E_blocks, E)
    datum[grid.nyquist] = 0.0
    expected = np.repeat(datum[None, :], 2, axis=0)
    loaded = phase_flip(expected)
    assert np.array_equal(state.reshape(stack.shape).view(np.uint64), loaded.view(np.uint64))
    out = np.full_like(stack, np.nan)
    assert pad.store(state, out) is out
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    with pytest.raises(ValueError, match="non-finite"):
        pad.load(np.full_like(stack, np.nan))


def test_single_mode_rejects_nyquist_and_above():
    # mode M/2 would land on the zeroed Nyquist slot, and mode M/2 + 1 + j
    # would alias to a lower one
    for n in (GRID.M // 2, -GRID.M // 2, GRID.M // 2 + 1, 5000):
        with pytest.raises(ValueError, match="Nyquist"):
            SpectralField.single_mode(GRID, n)
    top = SpectralField.single_mode(GRID, -(GRID.M // 2 - 1), 0.5)
    assert np.abs(top.values() - 0.5 * np.cos(GRID.xi_max * GRID.x)).max() <= 1e-12


def _same_but_zero_signs(x, y):
    """Bitwise equal, except that an exact zero may have either sign (the
    rule of tests/test_mild_solver.py)."""
    x, y = (np.ascontiguousarray(v).view(np.float64) for v in (x, y))
    zero = (x == 0.0) & (y == 0.0)
    return np.array_equal(np.where(zero, 0.0, x).view(np.uint64),
                          np.where(zero, 0.0, y).view(np.uint64))


def _frozen_from_values(grid, values):
    """SpectralField.from_values as it read with a float (-1)^k table before
    `phase_flip` applied the phase: the oracle it must equal up to the sign
    of an exact zero."""
    phase = np.resize([1.0, -1.0], grid.M)
    c = (grid.dx / TWO_PI_SQRT) * phase * np.fft.fft(values)
    c[grid.nyquist] = 0.0
    return c


def _frozen_values(grid, coeffs):
    """SpectralField.values as it read with the float (-1)^k table: the
    oracle it must equal bitwise."""
    phase = np.resize([1.0, -1.0], grid.M)
    return (grid.M * (grid.dxi / TWO_PI_SQRT) * np.fft.ifft(coeffs * phase)).real


@pytest.mark.parametrize("data", ["random", "gaussian", "single-mode"])
@pytest.mark.parametrize("M", [8, 256, 4096])
def test_transform_pair_equals_frozen_table_form(M, data):
    grid = Grid(8.0 * np.pi, M)
    rng = np.random.default_rng(M)
    n = min(5, grid.nyquist - 1)
    if data == "random":
        samples = rng.standard_normal(M)
        field = random_real_field(grid, rng, spectral_decay=1.0)
    elif data == "gaussian":
        samples = np.exp(-grid.x ** 2)
        field = SpectralField.from_values(grid, samples)
    else:
        samples = 0.7 * np.cos((n * grid.dxi) * grid.x)
        field = SpectralField.single_mode(grid, n, 0.7)
    assert _same_but_zero_signs(SpectralField.from_values(grid, samples).coeffs,
                                _frozen_from_values(grid, samples))
    assert np.array_equal(field.values().view(np.uint64),
                          _frozen_values(grid, field.coeffs).view(np.uint64))


def test_nonfinite_rejected():
    c = np.zeros(GRID.M, dtype=complex)
    c[3] = np.nan
    with pytest.raises(ValueError):
        SpectralField(GRID, c)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_from_values_hermitian(seed):
    rng = np.random.default_rng(seed)
    f = SpectralField.from_values(GRID, rng.standard_normal(GRID.M))
    assert _is_hermitian(f.coeffs)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-3, 3))
def test_arithmetic_preserves_hermitian(seed, alpha):
    # the field arithmetic the library has (a - b, alpha * a), and a sum and
    # a negation of the spectra
    a = _rand_field(seed)
    b = _rand_field(seed + 1)
    assert _is_hermitian(a.coeffs + b.coeffs)
    assert _is_hermitian((a - b).coeffs)
    assert _is_hermitian((alpha * a).coeffs)
    assert _is_hermitian(-a.coeffs)


def test_grid_mismatch_raises():
    a = _rand_field(0)
    b = _rand_field(0, Grid(8.0 * np.pi, 512))
    with pytest.raises(ValueError):
        a - b


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_symbol_values():
    p = EquationParams(beta=2.0, eta=3.0)
    assert symbol_q(2.0, p) == pytest.approx(8.0)
    assert symbol_q(-2.0, p) == pytest.approx(-8.0)  # odd
    assert symbol_p(0.5, p) == pytest.approx(-0.75)  # instability band
    assert symbol_p(1.0, p) == 0.0
    assert symbol_p(2.0, p) == pytest.approx(6.0)
    assert linear_symbol(2.0, p) == pytest.approx(8j - 6.0)


def test_instability_band_is_unit_interval():
    xi = np.linspace(-3, 3, 1201)
    p = symbol_p(xi, PARAMS)
    inside = (np.abs(xi) > 1e-12) & (np.abs(xi) < 1.0 - 1e-12)
    assert np.all(p[inside] < 0)
    assert np.all(p[~inside] >= -1e-15)


def test_params_validation():
    with pytest.raises(ValueError):
        EquationParams(beta=-1.0)
    with pytest.raises(ValueError):
        EquationParams(eta=-0.1)


# ---------------------------------------------------------------------------
# Hilbert transform and derivative
# ---------------------------------------------------------------------------

def test_hilbert_cos_sin():
    xi5 = 5 * np.pi / GRID.L
    c = SpectralField.from_function(GRID, lambda x: np.cos(xi5 * x))
    s = SpectralField.from_function(GRID, lambda x: np.sin(xi5 * x))
    H = hilbert_stack(GRID, np.array([c.coeffs, s.coeffs]))
    assert np.abs(values_stack(GRID, H[0]) + np.sin(xi5 * GRID.x)).max() <= 1e-12
    assert np.abs(values_stack(GRID, H[1]) - np.cos(xi5 * GRID.x)).max() <= 1e-12


def test_hilbert_kills_mean():
    f = SpectralField.from_function(GRID, lambda x: 1.0 + np.cos(x))
    assert hilbert_stack(GRID, f.coeffs)[0] == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_hilbert_squared_is_minus_identity(seed):
    u = _rand_field(seed)
    c = u.coeffs.copy()
    c[0] = 0.0  # mean-zero
    hh = hilbert_stack(GRID, hilbert_stack(GRID, c))
    assert np.abs(hh + c).max() <= 1e-13 * max(np.abs(c).max(), 1.0)


def test_x_derivative_sin():
    xi3 = 3 * np.pi / GRID.L
    s = SpectralField.from_function(GRID, lambda x: np.sin(xi3 * x))
    d = x_derivative(s)
    assert np.abs(d.values() - xi3 * np.cos(xi3 * GRID.x)).max() <= 1e-12
    d2 = x_derivative(s, order=2)
    assert np.abs(d2.values() + xi3 ** 2 * np.sin(xi3 * GRID.x)).max() <= 1e-11


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def test_semigroup_identity_at_zero():
    u = _rand_field(1)
    v = semigroup_apply(u, 0.0, PARAMS)
    assert np.abs(v.coeffs - u.coeffs).max() == 0.0


def test_semigroup_forward_only():
    with pytest.raises(ValueError):
        semigroup_apply(_rand_field(0), -0.1, PARAMS)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_semigroup_law(t, s):
    E_t = semigroup_multiplier(GRID, t, PARAMS)
    E_s = semigroup_multiplier(GRID, s, PARAMS)
    E_ts = semigroup_multiplier(GRID, t + s, PARAMS)
    assert np.abs(E_t * E_s - E_ts).max() <= 1e-12 * max(np.abs(E_ts).max(), 1.0)


def test_semigroup_multiplier_memo_is_read_only_and_a_fresh_build(count_builds):
    builds = count_builds(semigroup_multiplier)
    E = semigroup_multiplier(GRID, 0.3, PARAMS)
    assert semigroup_multiplier(GRID, 0.3, PARAMS) is E  # a hit shares the array
    assert len(builds) <= 1  # the first call may hit an entry of an earlier test
    assert not E.flags.writeable
    with pytest.raises(ValueError):
        E[0] = 0.0
    # an equal grid is another object, with tables of its own
    fresh = semigroup_multiplier(Grid(GRID.L, GRID.M), 0.3, PARAMS)
    assert fresh is not E and builds[-1] == (0.3, PARAMS)
    # a memo keys by position alone, so it refuses a keyword
    with pytest.raises(TypeError):
        semigroup_multiplier(GRID, t=0.3, params=PARAMS)
    # the one-row semigroup_stack, the same bits as the multiplier's own
    # exponential read before it was that row
    built = np.exp(linear_symbol(GRID.xi, PARAMS) * 0.3)
    built[GRID.M // 2] = 0.0
    row = semigroup_stack(GRID, [0.3], PARAMS)[0]
    for ref in (E, built, row):
        assert np.array_equal(fresh.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("memo, maxsize, key", [
    (semigroup_multiplier, 64, lambda i: (0.01 * i, PARAMS)),
    (spaces._sobolev_weight, 8, lambda i: (0.5 * i,)),
    (solver._node_operators, 4, lambda i: (PARAMS, (0.0, 0.1 * (i + 1)), 10)),
], ids=["multiplier", "sobolev_weight", "node_operators"])
def test_grid_memo_drops_the_least_recently_used_entry_past_its_bound(memo, maxsize, key,
                                                                      count_builds):
    # each builder keeps `maxsize` entries per grid; one more drops the
    # least recently used: the second built, as the first was read again
    grid = Grid(1.0, 8)
    builds = count_builds(memo)
    first = memo(grid, *key(0))
    for i in range(1, maxsize):
        memo(grid, *key(i))
    assert memo(grid, *key(0)) is first
    memo(grid, *key(maxsize))
    assert builds == [key(i) for i in range(maxsize + 1)]
    for i in [0, *range(2, maxsize + 1)]:
        memo(grid, *key(i))  # every other entry is still held
    assert len(builds) == maxsize + 1
    memo(grid, *key(1))
    assert builds[-1] == key(1) and len(builds) == maxsize + 2
    # the bound counts per grid: another grid's entries drop none of these
    memo(Grid(2.0, 8), *key(maxsize + 1))
    memo(grid, *key(maxsize))
    assert len(builds) == maxsize + 3


def test_semigroup_growth_cap():
    # |E(xi, t)| = e^{-p(xi) t} <= e^{eta t / 4}, max at xi = 1/2
    for t in (0.1, 0.5, 1.0):
        E = semigroup_multiplier(GRID, t, PARAMS)
        assert np.abs(E).max() <= np.exp(PARAMS.eta * t / 4.0) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

def test_nonlinear_term_cosine_oracle():
    # u = cos(a x)  =>  u u_x = -(a/2) sin(2 a x)
    a = 5 * np.pi / GRID.L
    u = SpectralField.from_function(GRID, lambda x: np.cos(a * x))
    w = nonlinear_term(u)
    ref = -(a / 2.0) * np.sin(2 * a * GRID.x)
    assert np.abs(w.values() - ref).max() <= 1e-12


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
def test_nonlinear_term_mean_exactly_zero():
    u = _rand_field(4)  # deliberately rough: the mean must vanish regardless
    assert nonlinear_term(u).coeffs[0] == 0.0


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
def test_nonlinear_term_hermitian():
    assert _is_hermitian(nonlinear_term(_rand_field(5)).coeffs)


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
def test_nonlinear_stack_rows_equal_nonlinear_term():
    rng = np.random.default_rng(3)
    stack = np.array([random_real_field(GRID, rng, spectral_decay=d).coeffs
                      for d in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)])
    rows = np.array([nonlinear_term(SpectralField(GRID, c)).coeffs for c in stack])
    assert np.array_equal(nonlinear_stack(GRID, stack), rows)
    assert np.array_equal(nonlinear_stack(GRID, stack.reshape(2, 3, -1)), rows.reshape(2, 3, -1))


def test_nonlinear_stack_warns_with_worst_row():
    smooth = SpectralField.from_function(GRID, lambda x: np.exp(-x * x))
    rough = random_real_field(GRID, np.random.default_rng(6))
    with pytest.warns(AliasingBudgetWarning) as alone:
        nonlinear_term(rough)
    with pytest.warns(AliasingBudgetWarning) as stacked:
        nonlinear_stack(GRID, np.array([smooth.coeffs, rough.coeffs, smooth.coeffs]))
    assert [w.message.fraction for w in stacked] == [w.message.fraction for w in alone]


def _frozen_nonlinear_stack(grid, coeffs, dealias_budget=1e-6):
    """nonlinear_stack as it read before it ran in one buffer: the oracle it
    must equal bitwise.  Returns the spectra and the worst tail fraction
    over the budget (None when no row exceeds it).  It builds its own float
    (-1)^k table, as the kernel did then, so it does not follow the grid's
    stored tables."""
    M = grid.M
    Mp = 3 * M // 2
    half = M // 2
    phase_pad = np.resize([1.0, -1.0], Mp)
    cp = np.zeros(coeffs.shape[:-1] + (Mp,), dtype=np.complex128)
    cp[..., :half] = coeffs[..., :half]
    cp[..., Mp - half:] = coeffs[..., half:]
    up = Mp * (grid.dxi / TWO_PI_SQRT) * np.fft.ifft(cp * phase_pad)
    vp = up * up
    wp = ((2.0 * grid.L / Mp) / TWO_PI_SQRT) * phase_pad * np.fft.fft(vp)
    power = np.abs(wp) ** 2
    total = np.sum(power, axis=-1)
    tail = np.sum(power[..., half:Mp - half], axis=-1)
    over = tail > dealias_budget * total
    worst = np.max(tail[over] / total[over]) if over.any() else None
    c = np.concatenate((wp[..., :half], wp[..., Mp - half:]), axis=-1)
    c *= 0.5j * grid.xi
    c[..., grid.nyquist] = 0.0
    return c, worst


@pytest.mark.parametrize("shape", [(), (6,), (2, 3)], ids=["M", "6xM", "2x3xM"])
@pytest.mark.parametrize("M", [8, 64, 512, 4096])
def test_nonlinear_stack_equals_frozen_kernel_bitwise(M, shape):
    grid = Grid(8.0 * np.pi, M)
    rng = np.random.default_rng(M)
    n = int(np.prod(shape))
    # smooth rows and, in the stacks, a last row with a flat spectrum that
    # trips the aliasing budget
    decays = np.linspace(6.0, 0.0, n) if n > 1 else [6.0]
    coeffs = np.array([random_real_field(grid, rng, spectral_decay=d).coeffs
                       for d in decays]).reshape(shape + (M,))
    before = coeffs.copy()
    ref, worst = _frozen_nonlinear_stack(grid, coeffs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AliasingBudgetWarning)
        got = nonlinear_stack(grid, coeffs)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(coeffs.view(np.uint64), before.view(np.uint64))
    assert not np.shares_memory(got, coeffs)
    if n > 1:
        assert worst is not None
    if worst is None:
        assert caught == []
    else:
        [warning] = caught
        assert warning.message.fraction == pytest.approx(worst, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("M", [8192, 16384])
def test_aliasing_check_in_chunks_equals_frozen_kernel(M):
    # above M = 4096 each third of the padded buffer's float view is summed
    # in chunks of 4096 floats, short enough that OpenBLAS runs each ddot
    # on one thread; the spectra stay bitwise up to the sign of an exact
    # zero (a few top modes of the smooth row) and the fraction moves at
    # roundoff only
    grid = Grid(8.0 * np.pi, M)
    assert PaddedBuffer(grid, ()).power.shape == (3 * M // 4096, 4096)
    rng = np.random.default_rng(M)
    coeffs = np.array([random_real_field(grid, rng, spectral_decay=d).coeffs
                       for d in (6.0, 0.0)])
    ref, worst = _frozen_nonlinear_stack(grid, coeffs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AliasingBudgetWarning)
        got = nonlinear_stack(grid, coeffs)
    assert _same_but_zero_signs(got, ref)
    [warning] = caught
    assert warning.message.fraction == pytest.approx(worst, rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("shape", [(), (6,), (2, 3)], ids=["M", "6xM", "2x3xM"])
@pytest.mark.parametrize("M", [8, 512, 4096])
def test_nonlinear_stack_workspace_equals_allocating_call_bitwise(M, shape):
    # a workspace reused as the stepper reuses its own:
    # the stack flipped into a padded buffer, the phase-free kernel, the
    # result flipped back, twice over the same buffers, gives
    # nonlinear_stack's new arrays, and each row is its one-row call
    grid = Grid(8.0 * np.pi, M)
    rng = np.random.default_rng(M + 1)
    n = int(np.prod(shape))
    decays = np.linspace(6.0, 0.0, n) if n > 1 else [3.0]
    coeffs = np.array([random_real_field(grid, rng, spectral_decay=d).coeffs
                       for d in decays]).reshape(shape + (M,))
    ref = nonlinear_stack(grid, coeffs)
    rows = coeffs.reshape(-1, M)
    assert np.array_equal(ref.reshape(-1, M).view(np.uint64), np.array(
        [nonlinear_stack(grid, row) for row in rows]).view(np.uint64))
    # a NaN left in the padded buffer's middle third would reach every mode
    pad = PaddedBuffer(grid, shape)
    pad.flat.fill(np.nan)
    out = np.empty(shape + (2, M // 2), dtype=np.complex128)
    energies = pad.energy_rows(1)
    for _ in range(2):
        phase_flip(coeffs.reshape(shape + (2, M // 2)), out=pad.retained)
        phase_flip(nonlinear_blocks(grid, pad, out, energies[0]), out=out)
        assert np.array_equal(out.reshape(ref.shape).view(np.uint64), ref.view(np.uint64))


def test_phase_flip_negates_odd_modes_exactly():
    # (-1)^k by mode number, signed zeros included; an involution, in place too
    rng = np.random.default_rng(7)
    c = rng.standard_normal((2, 3, 16)) + 1j * rng.standard_normal((2, 3, 16))
    c[..., :4] = complex(0.0, -0.0)
    odd = np.fft.fftfreq(16, d=1.0 / 16) % 2 == 1
    ref = np.where(odd, -c, c)
    flipped = phase_flip(c)
    assert np.array_equal(flipped.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(phase_flip(flipped).view(np.uint64), c.view(np.uint64))
    assert phase_flip(flipped, out=flipped) is flipped
    assert np.array_equal(flipped.view(np.uint64), c.view(np.uint64))


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("M", [8, 512, 4096])
def test_nonlinear_blocks_is_the_phase_free_kernel_bitwise(M):
    # spectra flipped into the retained blocks give the flipped result of
    # nonlinear_stack, whatever the buffer held before
    grid = Grid(8.0 * np.pi, M)
    rng = np.random.default_rng(M + 2)
    coeffs = np.array([random_real_field(grid, rng, spectral_decay=d).coeffs
                       for d in (6.0, 3.0, 0.0)])
    pad = PaddedBuffer(grid, (3,))
    pad.flat.fill(np.nan)
    pad.retained[...] = phase_flip(coeffs).reshape(3, 2, M // 2)
    out = np.empty((3, 2, M // 2), dtype=np.complex128)
    assert nonlinear_blocks(grid, pad, out, pad.energy_rows(1)[0]) is out
    got = phase_flip(out.reshape(3, M))
    assert np.array_equal(got.view(np.uint64), nonlinear_stack(grid, coeffs).view(np.uint64))


@pytest.mark.parametrize("M", [8, 256, 4096])
def test_values_stack_rows_equal_values_bitwise(M):
    grid = Grid(8.0 * np.pi, M)
    rng = np.random.default_rng(M)
    fields = [random_real_field(grid, rng, spectral_decay=d) for d in (0.0, 1.0, 2.0, 3.0)]
    stack = values_stack(grid, np.array([u.coeffs for u in fields]))
    assert np.array_equal(stack.view(np.uint64),
                          np.array([u.values() for u in fields]).view(np.uint64))
    # and the forward transform: a stack's rows are the rows' transforms
    back = from_values_stack(grid, stack)
    assert np.array_equal(back.view(np.uint64), np.array(
        [SpectralField.from_values(grid, v).coeffs for v in stack]).view(np.uint64))


def test_aliasing_warning_on_rough_data():
    rng = np.random.default_rng(6)
    u = random_real_field(GRID, rng)  # flat spectrum: badly under-resolved square
    with pytest.warns(AliasingBudgetWarning):
        nonlinear_term(u)


def test_aliasing_warning_is_attributed_to_the_public_callers_line():
    # each public entry's warning names the line that called it, however
    # deep in core.py the verdict that raises it sits; the kernel alone
    # judges nothing
    rough = random_real_field(GRID, np.random.default_rng(6))
    pad = PaddedBuffer(GRID, ())
    out = np.empty((2, GRID.M // 2), dtype=np.complex128)
    energies = pad.energy_rows(1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AliasingBudgetWarning)
        nonlinear_term(rough)
        nonlinear_stack(GRID, rough.coeffs)
        phase_flip(rough.coeffs.reshape(2, -1), out=pad.retained)
        nonlinear_blocks(GRID, pad, out, energies[0])
        assert len(caught) == 2
        aliasing_verdict(pad, energies)
    assert [w.category for w in caught] == [AliasingBudgetWarning] * 3
    assert [w.filename for w in caught] == [__file__] * 3
    assert len({w.lineno for w in caught}) == 3


def test_no_aliasing_warning_when_resolved():
    u = SpectralField.from_function(GRID, lambda x: np.exp(-x * x))
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error", AliasingBudgetWarning)
        nonlinear_term(u)


# ---------------------------------------------------------------------------
# random fields
# ---------------------------------------------------------------------------

def test_random_field_seeded_and_hermitian():
    a = _rand_field(11)
    b = _rand_field(11)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert _is_hermitian(a.coeffs)
    assert np.abs(a.values().imag if np.iscomplexobj(a.values()) else 0.0) == 0.0


# ---------------------------------------------------------------------------
# the transform convention lives in core.py
# ---------------------------------------------------------------------------

_FFT_MODULES = ("numpy.fft", "scipy.fft")
# names by which a module reaches a transform: the packages and numpy's
# pocketfft gufuncs behind np.fft, which core.py calls directly
_FFT_NAMES = {"fft", "_pocketfft", "_pocketfft_umath"}


def _names_fft_module(name):
    return name in _FFT_MODULES or name.startswith(tuple(m + "." for m in _FFT_MODULES))


def _fft_leaks(source, filename, private=frozenset()):
    """Each place in `source` that reaches a transform module, a gufunc
    behind one, or one of the attribute names in `private`."""
    leaks = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute) and (node.attr in _FFT_NAMES or node.attr in private):
            leaks.append(f"{filename}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Import):
            leaks += [f"{filename}:{node.lineno}: import {a.name}" for a in node.names
                      if _names_fft_module(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            leaks += [f"{filename}:{node.lineno}: from {node.module} import {a.name}"
                      for a in node.names
                      if _names_fft_module(node.module)
                      or _names_fft_module(f"{node.module}.{a.name}")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                node.value in _FFT_NAMES or _names_fft_module(node.value)):
            leaks.append(f"{filename}:{node.lineno}: {node.value!r}")
    return leaks


# how a spectrum is stored: the unpaired Nyquist slot, fft mode order, the
# (-1)^k phase and the kernel's block layout and workspace
_STORAGE_NAMES = {"nyquist", "mode_index", "modes", "phase_flip", "PaddedBuffer",
                  "nonlinear_blocks"}
# the one storage name another module may use: the stepper builds its own
# workspace, whose methods keep the layout in core.py
_WORKSPACE_BUILDER = "solver.py"


def _named(node):
    """The identifiers a node names: a variable, an attribute, an imported
    or defined name, an argument, a keyword or a string (as for getattr)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [part for a in node.names for part in a.name.split(".")]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.arg, ast.keyword)):
        return [node.arg]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _storage_leaks(source, filename):
    """Each place in `source` that names a storage fact, or halves a grid
    size (`M // 2`, `grid.M // 2`, `cfg.grid_M // 2`)."""
    leaks = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        leaks += [f"{filename}:{node.lineno}: {name}" for name in _named(node)
                  if name in _STORAGE_NAMES]
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                and isinstance(node.right, ast.Constant) and node.right.value == 2
                and any(name == "M" or str(name).endswith("_M")
                        for n in ast.walk(node.left) for name in _named(n))):
            leaks.append(f"{filename}:{node.lineno}: // 2")
    return leaks


def _library_sources():
    return {path.name: path.read_text()
            for path in sorted(pathlib.Path(chenlee_lab.__file__).parent.glob("*.py"))
            if path.name != "core.py"}


def test_only_core_touches_the_fft_and_the_grids_private_tables():
    # np.fft, the grid's private tables and the storage facts are how
    # spectra are stored; every other module goes through core.py's
    # functions and Grid's lookups by mode number (represents, at_modes,
    # band), its frequencies xi and its sizes
    private = {name for name in vars(Grid(1.0, 8)) if name.startswith("_")}
    private |= {name for name in vars(Grid) if name.startswith("_") and not name.startswith("__")}
    assert private  # the ratchet looks at something
    leaks = []
    for name, source in _library_sources().items():
        leaks += _fft_leaks(source, name, private) + [
            leak for leak in _storage_leaks(source, name)
            if not (name == _WORKSPACE_BUILDER and leak.endswith(": PaddedBuffer"))]
    assert leaks == []
    # core.py itself names them, so the scan sees what it looks for
    core_source = (pathlib.Path(chenlee_lab.__file__).parent / "core.py").read_text()
    assert {leak.split(": ")[1] for leak in _storage_leaks(core_source, "core.py")} == (
        _STORAGE_NAMES | {"// 2"})


@pytest.mark.parametrize("module, planted", [
    ("solver.py", "c[:, grid.nyquist] = 0.0"),
    ("flowderiv.py", "from .core import phase_flip"),
    ("solver.py", "from .core import PaddedBuffer, nonlinear_blocks"),
    ("limits.py", "pad = core.PaddedBuffer(work)"),
    ("flowderiv.py", "m = grid.modes[supp]"),
    ("config.py", "c[grid.mode_index(-idx)] = np.conj(c[idx])"),
    ("spaces.py", "slot = getattr(grid, 'nyquist')"),
    ("decay.py", "def kernel(grid, pad, nonlinear_blocks=None): pass"),
    ("config.py", "half = cfg.grid_M // 2"),
    ("flowderiv.py", "while (M // 2 - 1) * dxi < xi_need: M *= 2"),
    ("limits.py", "top = 3 * grid.M // 2"),
])
def test_ratchet_catches_a_planted_storage_leak(module, planted):
    source = _library_sources()[module] + "\n" + planted + "\n"
    line = source.count("\n")
    assert any(leak.startswith(f"{module}:{line}: ") for leak in _storage_leaks(source, module))


@pytest.mark.parametrize("source", [
    "np.fft._pocketfft_umath.ifft(a, 1.0 / n, out=a)",
    "import numpy.fft._pocketfft_umath as pfu",
    "import numpy.fft",
    "from numpy.fft import _pocketfft_umath",
    "from numpy.fft._pocketfft_umath import ifft",
    "from numpy import fft",
    "from scipy.fft import fft",
    "pfu = sys.modules['numpy.fft._pocketfft_umath']",
    "pfu = importlib.import_module('numpy.fft._pocketfft_umath')",
    "pfu = getattr(np.linalg, '_pocketfft_umath')",
    "transforms = getattr(np, 'fft')",
])
def test_ratchet_catches_every_route_to_the_transform(source):
    # the ratchet above is only as good as its scan: each way a module could
    # reach np.fft or the pocketfft gufuncs behind it is a leak
    assert _fft_leaks(source, "module.py") != []
