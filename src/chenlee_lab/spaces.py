"""Sobolev / weighted norms and the closed-form dissipative estimate
functions used by the well-posedness machinery.

Discrete norm convention: frequency quadrature weight dxi = pi/L, so the
H^0 norm agrees with the physical L^2 norm by Plancherel and discrete
norms converge to their continuum values as L, M grow.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Grid, SpectralField


class BoundaryMassWarning(UserWarning):
    """Weighted integral no longer faithful: too much mass near the
    periodic boundary."""


@dataclass
class TimeWeightedTrace:
    """Samples of ||u(t)||_{H^s} and ||u(t)||_{L^2} on (0, T], for the
    sup-in-time norm ||u|| = sup_t (||u(t)||_{H^s} + t^{|s|/2} ||u(t)||_{L^2})."""

    times: np.ndarray
    hs_values: np.ndarray
    l2_values: np.ndarray
    s: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.hs_values = np.asarray(self.hs_values, dtype=float)
        self.l2_values = np.asarray(self.l2_values, dtype=float)
        if not (self.times.shape == self.hs_values.shape == self.l2_values.shape):
            raise ValueError("trace arrays must have equal length")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("trace times must be strictly increasing")
        for a in (self.hs_values, self.l2_values):
            if self.times.size and (not np.all(np.isfinite(a)) or np.any(a < 0)):
                raise ValueError("trace values must be finite and nonnegative")


@functools.lru_cache(maxsize=8)
def _sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """<xi_k>^{2s} = (1 + xi_k^2)^s on the grid, built once per (grid, s)
    and read-only, as every hit shares it.  8 entries hold the 4 keys of
    the C_CONTRACTION probes and Picard solves, and the at most 5 of one
    experiment (illposed's five grids); at M = 4096 they take 0.25 MB."""
    w = (1.0 + grid.xi * grid.xi) ** s
    w.flags.writeable = False
    return w


def sobolev_norm(f: SpectralField, s: float) -> float:
    """(sum_k <xi_k>^{2s} |u_hat(xi_k)|^2 dxi)^{1/2}."""
    g = f.grid
    w = _sobolev_weight(g, s)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2) * g.dxi))


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
    u = f.values()
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


def xts_norm(trace: TimeWeightedTrace) -> float:
    """sup over sample times of ||u(t)||_{H^s} + t^{|s|/2} ||u(t)||_{L^2}."""
    if trace.times.size == 0:
        raise ValueError("empty trace")
    if trace.s >= 0:
        raise ValueError(f"time-weighted norm requires s < 0, got s={trace.s}")
    w = trace.times ** (abs(trace.s) / 2.0)
    return float(np.max(trace.hs_values + w * trace.l2_values))


def f_lambda(t: float, lam: float, eta: float) -> float:
    """Closed-form envelope for sup_xi |t xi^2|^lam e^{eta(|xi|-xi^2) t}:

        (t^lam + eta^-lam) * exp((eta/8) (t + sqrt(t) sqrt(t + 16 lam/eta))),

    nondecreasing in t > 0.
    """
    if t <= 0 or lam <= 0 or eta <= 0:
        raise ValueError("f_lambda requires t, lambda, eta > 0")
    return (t ** lam + eta ** (-lam)) * np.exp(
        (eta / 8.0) * (t + np.sqrt(t) * np.sqrt(t + 16.0 * lam / eta))
    )


def f_lambda_argmax(t: float, lam: float, eta: float) -> float:
    """Maximizer x1 of x^{2 lam} e^{eta(x sqrt(t) - x^2)}, x >= 0."""
    return 0.25 * (np.sqrt(t) + np.sqrt(t + 16.0 * lam / eta))


def g_s_eta(t: float, s: float, eta: float) -> float:
    """Nondecreasing envelope on (0, 1] for the rough-data semigroup trace
    t^{|s|/2} ||S(t) phi||_{L^2} / ||phi||_{H^s}:

        e^{eta t/4} + (t^{|s|/2} + eta^{-|s|/2})
                      * exp((eta/8) (t + sqrt(t) sqrt(t + 8|s|/eta))).
    """
    if not (0 <= t <= 1):
        raise ValueError(f"g_s_eta defined on [0, 1], got t={t}")
    if s >= 0 or eta <= 0:
        raise ValueError("g_s_eta requires s < 0 and eta > 0")
    a = abs(s)
    return np.exp(eta * t / 4.0) + (t ** (a / 2.0) + eta ** (-a / 2.0)) * np.exp(
        (eta / 8.0) * (t + np.sqrt(t) * np.sqrt(t + 8.0 * a / eta))
    )


def hs_inner(f: SpectralField, g_field: SpectralField, s: float) -> float:
    """Real H^s pairing (f, g)_s = Re sum <xi>^{2s} f_hat conj(g_hat) dxi."""
    g = f.grid
    if g_field.grid != g:
        raise ValueError("grid mismatch")
    w = _sobolev_weight(g, s)
    return float(np.real(np.sum(w * f.coeffs * np.conj(g_field.coeffs))) * g.dxi)
