"""Sobolev and weighted norms."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from chenlee_lab.core import Grid, SpectralField, random_real_field, values_stack
from chenlee_lab import spaces
from chenlee_lab.spaces import (
    BoundaryMassWarning,
    hs_inner,
    l2_norm,
    sobolev_norm,
    sobolev_norm_stack,
    weighted_l2_norm,
)

GRID = Grid(16.0 * np.pi, 1024)


def _rand_field(seed, grid=GRID):
    return random_real_field(grid, np.random.default_rng(seed), spectral_decay=1.5)


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------

def test_l2_norm_matches_physical():
    u = _rand_field(0)
    phys = np.sqrt(np.sum(values_stack(GRID, u.coeffs) ** 2) * GRID.dx)
    assert l2_norm(u) == pytest.approx(phys, rel=1e-12)


def test_sobolev_weight_memo_is_read_only_and_a_fresh_build(count_builds):
    u = _rand_field(2)
    builds = count_builds(spaces._sobolev_weight)
    w = spaces._sobolev_weight(GRID, -0.5)
    assert spaces._sobolev_weight(GRID, -0.5) is w  # a hit shares the array
    assert len(builds) <= 1  # the first call may hit an entry of an earlier test
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    norm = sobolev_norm(u, -0.5)
    # an equal grid is another object, with tables of its own
    fresh = spaces._sobolev_weight(Grid(GRID.L, GRID.M), -0.5)
    assert fresh is not w and builds[-1] == (-0.5,)
    built = (1.0 + GRID.xi * GRID.xi) ** -0.5
    assert np.array_equal(fresh.view(np.uint64), w.view(np.uint64))
    assert np.array_equal(fresh.view(np.uint64), built.view(np.uint64))
    assert sobolev_norm(u, -0.5) == norm


def _frozen_sobolev_norm(f, s):
    # the one-row norm as written before the stacked form
    w = spaces._sobolev_weight(f.grid, s)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2) * f.grid.dxi))


@pytest.mark.parametrize("M", [256, 512, 1024, 4096])
def test_stacked_norm_is_bitwise_the_per_row_norm(M):
    # 17 rows (a Picard iterate's node count) spanning ten decades of size
    grid = Grid(8.0 * np.pi, M)
    rng = np.random.default_rng(M)
    rows = [random_real_field(grid, rng, spectral_decay=1.0) * amp
            for amp in np.geomspace(1e-8, 1e2, 17)]
    stack = np.array([u.coeffs for u in rows])
    for s in (-0.8, -0.5, 0.0, 1.0, 2.0):
        norms = sobolev_norm_stack(grid, stack, s)
        assert norms.shape == (17,)
        for norm, u in zip(norms, rows):
            assert float(norm).hex() == _frozen_sobolev_norm(u, s).hex()
            assert float(norm).hex() == sobolev_norm(u, s).hex()
        # any leading shape
        block = sobolev_norm_stack(grid, stack.reshape(1, 17, M), s)
        assert np.array_equal(block.view(np.uint64), norms.view(np.uint64)[None])


def test_repeated_norm_builds_no_weight(count_builds):
    u, v = _rand_field(3), _rand_field(4)
    sobolev_norm(u, 1.5)
    builds = count_builds(spaces._sobolev_weight)
    sobolev_norm(v, 1.5)
    hs_inner(u, v, 1.5)
    assert builds == []


def test_sobolev_norm_gaussian_oracle():
    # ||e^{-x^2}||_{H^1}^2 = int (1+xi^2) |phi_hat|^2 dxi with
    # phi_hat = 2^{-1/2} e^{-xi^2/4}
    u = SpectralField.from_function(GRID, lambda x: np.exp(-x * x))
    ref_sq, _ = quad(lambda xi: (1 + xi * xi) * 0.5 * np.exp(-xi * xi / 2.0),
                     -np.inf, np.inf)
    assert sobolev_norm(u, 1.0) == pytest.approx(np.sqrt(ref_sq), rel=1e-9)


def test_sobolev_norm_ordering():
    u = _rand_field(1)
    assert sobolev_norm(u, -0.5) <= sobolev_norm(u, 0.0) <= sobolev_norm(u, 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-5, 5), st.floats(-1, 2))
def test_norm_homogeneity(seed, alpha, s):
    u = _rand_field(seed)
    assert sobolev_norm(alpha * u, s) == pytest.approx(abs(alpha) * sobolev_norm(u, s),
                                                      rel=1e-12, abs=1e-12)


def test_hs_inner_consistency():
    u, v = _rand_field(2), _rand_field(3)
    assert hs_inner(u, u, 1.0) == pytest.approx(sobolev_norm(u, 1.0) ** 2, rel=1e-12)
    assert hs_inner(u, v, 0.5) == pytest.approx(hs_inner(v, u, 0.5), rel=1e-12)
    with pytest.raises(ValueError):
        hs_inner(u, _rand_field(0, Grid(16.0 * np.pi, 512)), 0.0)


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def test_weighted_norm_quad_oracle():
    # int (1+x^2) e^{-2x^2} dx, independent quadrature oracle.
    # (The closed form is (5/4) sqrt(pi/2).)
    u = SpectralField.from_function(GRID, lambda x: np.exp(-x * x))
    ref_sq, _ = quad(lambda x: (1 + x * x) * np.exp(-2 * x * x), -np.inf, np.inf)
    assert ref_sq == pytest.approx(1.25 * np.sqrt(np.pi / 2.0), rel=1e-12)
    assert weighted_l2_norm(u, 1) == pytest.approx(np.sqrt(ref_sq), rel=1e-10)


def test_weighted_norm_r0_is_l2():
    u = SpectralField.from_function(GRID, lambda x: np.exp(-x * x) * np.sin(x))
    assert weighted_l2_norm(u, 0) == pytest.approx(l2_norm(u), rel=1e-12)


def test_weighted_norm_boundary_warning():
    wide = SpectralField.from_function(GRID, lambda x: np.exp(-(x / (0.8 * GRID.L)) ** 2))
    with pytest.warns(BoundaryMassWarning):
        weighted_l2_norm(wide, 2)


def test_weighted_norm_rejects_negative_order():
    with pytest.raises(ValueError):
        weighted_l2_norm(_rand_field(0), -1)
