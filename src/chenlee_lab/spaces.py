"""Sobolev / weighted norms used by the well-posedness machinery.

Discrete norm convention: frequency quadrature weight dxi = pi/L, so the
H^0 norm agrees with the physical L^2 norm by Plancherel and discrete
norms converge to their continuum values as L, M grow.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from .core import Grid, SpectralField, grid_memo, values_stack


class BoundaryMassWarning(UserWarning):
    """Weighted integral no longer faithful: too much mass near the
    periodic boundary."""


@grid_memo(maxsize=8)
def _sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """<xi_k>^{2s} = (1 + xi_k^2)^s on the grid, built once per s on each
    grid and read-only, as every hit shares it; L^2 norms (s = 0) need none.
    8 per grid hold the 2 orders of `calibrated_cs` (s = 2 and 1)."""
    w = (1.0 + grid.xi * grid.xi) ** s
    w.flags.writeable = False
    return w


def _sobolev_norm_sq(grid: Grid, coeffs: np.ndarray, s: float):
    """Squared H^s norms of a (..., M) stack of spectra along its last axis.
    Each row is summed pairwise on its own, so every entry is bitwise the
    sum of that row alone.  At s = 0 the weight is all ones and 1.0 * x is
    x, so the product is skipped."""
    sq = np.abs(coeffs) ** 2
    if s != 0.0:
        sq = _sobolev_weight(grid, s) * sq
    return sq.sum(axis=-1) * grid.dxi


def sobolev_norm_stack(grid: Grid, coeffs: np.ndarray, s: float) -> np.ndarray:
    """`sobolev_norm` of every spectrum of a (..., M) stack on `grid`, as an
    array of the stack's leading shape; each entry is bitwise the norm of
    its row as a SpectralField."""
    return np.sqrt(_sobolev_norm_sq(grid, coeffs, s))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """(sum_k <xi_k>^{2s} |u_hat(xi_k)|^2 dxi)^{1/2}: the one-row case of
    `sobolev_norm_stack`, with the same bits (both square roots are
    correctly rounded)."""
    return math.sqrt(_sobolev_norm_sq(f.grid, f.coeffs, s))


def l2_norm(f: SpectralField) -> float:
    return sobolev_norm(f, 0.0)


def weighted_l2_norm(f: SpectralField, r: int, boundary_guard: float = 0.01) -> float:
    """(int (1+x^2)^r |f(x)|^2 dx)^{1/2} by rectangle-rule quadrature on the
    grid (spectrally accurate for smooth periodic integrands).

    Warns when the region |x| > 0.9 L contributes more than
    `boundary_guard` of the integral: the domain truncation is then no
    longer faithful to the decaying full-line problem.
    """
    if r < 0:
        raise ValueError(f"weight order must be >= 0, got {r}")
    g = f.grid
    u = values_stack(g, f.coeffs)
    w = (1.0 + g.x * g.x) ** r * u * u
    total = np.sum(w) * g.dx
    edge = np.sum(w[np.abs(g.x) > 0.9 * g.L]) * g.dx
    if total > 0 and edge / total > boundary_guard:
        warnings.warn(
            f"boundary region carries {edge / total:.2%} of the weighted "
            f"integral (guard {boundary_guard:.0%})",
            BoundaryMassWarning,
            stacklevel=2,
        )
    return float(np.sqrt(max(total, 0.0)))


def hs_inner(f: SpectralField, g_field: SpectralField, s: float) -> float:
    """Real H^s pairing (f, g)_s = Re sum <xi>^{2s} f_hat conj(g_hat) dxi."""
    g = f.grid
    if g_field.grid != g:
        raise ValueError("grid mismatch")
    w = _sobolev_weight(g, s)
    return float(np.real(np.sum(w * f.coeffs * np.conj(g_field.coeffs))) * g.dxi)
