"""Moment and weighted-energy diagnostics behind the unique-continuation
mechanism.

Tracked in one pass over a run's stream of kept states: the conserved
zero mode u_hat(t, 0), the first moment d/dxi u_hat(t, 0) =
-i (2 pi)^{-1/2} int x u dx, the identity relating the moment of
d/dx(u^2) to the L^2 norm, the time-smoothed L^2 functional
int_0^t (t - tau) ||u(tau)||^2 dtau, and the exact energy balance for
||x u||_{L^2}.
"""
from __future__ import annotations

import numpy as np

from .core import (
    TWO_PI_SQRT,
    EquationParams,
    Grid,
    from_values_stack,
    hilbert_stack,
    nonlinear_stack,
    values_stack,
    x_derivative_stack,
)
from .report import ExperimentReport
from .spaces import sobolev_norm_stack


def mass_drift(mass) -> float:
    """max_t |u_hat(t,0) - u_hat(0,0)| over a sequence of zero modes: zero
    in exact arithmetic."""
    mass = np.asarray(mass)
    return float(np.abs(mass - mass[0]).max())


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y at N >= 3 increasing points x,
    operation for operation as scipy.integrate.simpson (1.17) on 1-D data:
    the irregular-spacing rule on pairs of intervals, and for even N
    Cartwright's correction for the last interval.  That correction is
    formed on 1-element slices of the spacings, which take numpy's array
    power loop as scipy's 0-d arrays do; numpy scalars take another
    (C pow) and can differ in the last bit."""
    y = np.asarray(y, dtype=float)
    h = np.diff(np.asarray(x, dtype=float))
    stop = y.size - 2 if y.size % 2 else y.size - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                        + y[2:stop + 2:2] * (2.0 - h0divh1))
    result = np.sum(tmp)
    if y.size % 2:
        return float(result)
    hm2, hm1 = h[-2:-1], h[-1:]
    alpha = (2 * hm1 ** 2 + 3 * hm2 * hm1) / (6 * (hm1 + hm2))
    beta = (hm1 ** 2 + 3.0 * hm2 * hm1) / (6 * hm2)
    eta = hm1 ** 3 / (6 * hm2 * (hm2 + hm1))
    return float((result + (alpha * y[-1] + beta * y[-2] - eta * y[-3]))[0])


def weighted_energy_rate(times, xu_sq, rhs, l2sq) -> ExperimentReport:
    """Exact balance for the first weighted energy:

        (1/2) d/dt ||x u||^2 = -(x u, x u u_x) - beta (x u, x H u_xx)
                               - eta (x u, x H u_x) + eta (x u, x u_xx),

    from `decay_report`'s per-row floats at the kept `times`: ||x u||^2
    (`xu_sq`), the right side by spectral evaluation of the four pairings
    (`rhs`) and ||u||^2 (`l2sq`).  The left side is centered finite
    differences of the `xu_sq` trace; the residual is the O(dt^2)
    differencing error.  ValueError with fewer than 3 kept states.
    """
    if len(times) < 3:
        raise ValueError("need at least 3 stored states")
    lhs = np.gradient(0.5 * xu_sq, times, edge_order=2)
    resid = np.abs(lhs[1:-1] - rhs[1:-1])  # interior: centered differences

    report = ExperimentReport("weighted_energy_rate",
                              ["t", "lhs", "rhs", "residual"])
    for row in zip(times[1:-1], lhs[1:-1], rhs[1:-1], resid):
        report.add_row(*row)
    scale = max(np.abs(rhs).max(), 1.0)
    # Gronwall-style constant: growth rate against the full weighted norm
    fnorm_sq = l2sq + xu_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        C_fit = float(np.nanmax(np.abs(2.0 * rhs[1:-1]) / fnorm_sq[1:-1]))
    report.summary.update({
        "max_residual": float(resid.max()),
        "rhs_scale": float(scale),
        "gronwall_C": C_fit,
    })
    return report


def decay_report(grid: Grid, params: EquationParams, blocks) -> list:
    """The decay experiment's two tables, `decay` and `weighted_energy_rate`,
    from one pass over `blocks`, the kept states as (times, (k, M) block)
    pairs in time order from t = 0 (`solver.stepper_blocks`' blocks of one
    run): each block is transformed once, reduced to the per-row floats of
    both tables and dropped, so the run is never held whole.

    The decay table is the per-time moments and energies, with the worst
    residual of the first-moment identity in the summary:

        int x d/dx(u^2) dx = -||u(t)||_{L^2}^2

    by integration by parts for decaying u; equivalently the first
    frequency-derivative of the nonlinearity's transform at 0 is the L^2
    energy over sqrt(2 pi).  The residual, over sqrt(2 pi), is pure
    quadrature/boundary error.

    The `re_dmass` column is identically zero: it is the real part of the
    first moment, which is purely imaginary for a real u.  It stays, so
    that `decay.csv` keeps its bytes, until the benchmark's reference
    CSVs are re-recorded.
    """
    g, p, x = grid, params, grid.x
    times, parts = [], []
    for block_times, c in blocks:
        # u_hat(t, 0) (copied, so that the block is not kept), the first
        # moment -i (2 pi)^{-1/2} int x u dx, ||u||^2, ||x^r u||_{L^2} and the
        # identity's residual, by rectangle-rule quadrature
        u = values_stack(g, c)
        l2sq = sobolev_norm_stack(g, c, 0.0) ** 2
        w1, w2, w3 = (np.sqrt(np.sum((g.x ** r * u) ** 2, axis=-1) * g.dx) for r in (1, 2, 3))
        w = x_derivative_stack(g, from_values_stack(g, u ** 2))
        moment = np.sum(g.x * values_stack(g, w), axis=-1) * g.dx
        # ||x u||^2 and the weighted-energy balance's right side
        xu = x * u
        terms = -x * values_stack(g, nonlinear_stack(g, c))
        u_xx = x_derivative_stack(g, c, 2)
        terms -= p.beta * x * values_stack(g, hilbert_stack(g, u_xx))
        terms -= p.eta * x * values_stack(g, hilbert_stack(g, x_derivative_stack(g, c)))
        terms += p.eta * x * values_stack(g, u_xx)
        times.extend(block_times)
        parts.append((c[:, 0].copy(), -1j / TWO_PI_SQRT * np.sum(g.x * u, axis=-1) * g.dx,
                      l2sq, w1, w2, w3, np.abs(moment + l2sq) / TWO_PI_SQRT,
                      np.sum(xu * xu, axis=-1) * g.dx, np.sum(xu * terms, axis=-1) * g.dx))
    mass, dmass, l2sq, w1, w2, w3, yacasi, xu_sq, rhs = map(np.concatenate, zip(*parts))
    times = np.array(times, dtype=float)
    report = ExperimentReport(
        "decay",
        ["t", "re_mass", "im_mass", "re_dmass", "l2sq", "w1", "w2", "w3", "listo"],
    )
    for i, t in enumerate(times):
        # int_0^t (t - tau) ||u(tau)||^2 dtau, Simpson on the states up to t
        listo = (_simpson((t - times[:i + 1]) * l2sq[:i + 1], times[:i + 1])
                 if i >= 2 else 0.0)
        report.add_row(t, mass[i].real, mass[i].imag, dmass[i].real,
                       l2sq[i], w1[i], w2[i], w3[i], listo)
    report.summary["mass_drift"] = mass_drift(mass)
    report.summary["yacasi_residual"] = float(yacasi.max())
    return [report, weighted_energy_rate(times, xu_sq, rhs, l2sq)]
