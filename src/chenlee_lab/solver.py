"""Mild-solution solvers for u_t + u u_x + beta*H u_xx + eta*(H u_x - u_xx) = 0.

Two independent routes to u(t) = S(t) phi - int_0^t S(t-t') [u u_x](t') dt':

* `solve_picard` iterates the Duhamel map on Chebyshev-spaced time nodes
  (the contraction-mapping construction, valid for small data / short T)
  with the map the node set's Duhamel operator array (`_node_operators`),
  whose row at a node is every Duhamel integral taken there;
* `stepper_blocks` is an integrating-factor RK4 production stepper (exact
  linear multiplier, classical RK4 on the transformed nonlinearity, and
  S(t) phi unstepped for a linear run) that streams its kept states in
  row blocks; it steps several parameter sets from one datum as one stack
  of spectra, which is how the singular-limit sweeps run, and every row
  is bitwise its run alone.  Every stepped experiment reduces the stream
  block by block, so none holds its run.  `solve_stepper` collects the
  stream of one parameter set into a Trajectory; nothing in the library
  calls it.

They agree within combined tolerance, which is the discrete uniqueness
check used throughout the experiment suite.
"""
from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    EquationParams,
    Grid,
    PaddedBuffer,
    SpectralField,
    aliasing_verdict,
    grid_memo,
    hermitian_sums,
    nonlinear_stack,
    semigroup_half,
    semigroup_stack,
    symbol_q,
    values_stack,
)
from .spaces import sobolev_norm_stack

_EPS = np.finfo(float).eps


class CflError(ValueError):
    """Time step too large for the fastest retained linear phase."""


class SolverBlowupError(RuntimeError):
    def __init__(self, t_blowup, message=None):
        self.t_blowup = t_blowup
        super().__init__(message or f"solution blew up near t={t_blowup:.6g}")

    def __reduce__(self):  # args holds the message alone, not t_blowup
        return type(self), (self.t_blowup, str(self))


class PicardError(RuntimeError):
    pass


class NonContractionError(PicardError):
    pass


class QuadratureConvergenceError(RuntimeError):
    pass


# the Picard route's Chebyshev panels, and the composite Gauss-Legendre rule
# of every Duhamel integral: nodes per panel, panel length, and the one
# tolerance of its Lebesgue guard and of node doubling
_PICARD_PANELS = 16
_QUAD_NODES = 10
_PANEL_LENGTH = 0.25
_QUAD_TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    T: float = 1.0
    picard_max_iters: int = 40
    picard_tol: float = 1e-12
    keep_every: int = 1

    def __post_init__(self):
        if not 0 < self.dt <= self.T:
            raise ValueError(f"dt must be positive and at most T, got dt={self.dt}, T={self.T}")
        if not self.T / self.dt <= sys.maxsize:  # inf too
            raise ValueError(f"T / dt = {self.T / self.dt:.3g} steps is more than a step "
                             f"count can hold ({sys.maxsize}); lower T or raise dt")
        if abs(self.T / self.dt - self.n_steps) > 1e-9 * self.n_steps:
            raise ValueError(f"T / dt = {self.T / self.dt:.10g} is not a whole number of "
                             f"steps; dt = {self.T / self.n_steps!r} takes {self.n_steps}")
        for name in ("picard_max_iters", "keep_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.picard_tol <= 0:
            raise ValueError(f"picard_tol must be positive, got {self.picard_tol}")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)  # >= 1, as dt <= T; T / dt is whole to 1e-9

    @property
    def n_kept(self) -> int:
        return -(-self.n_steps // self.keep_every) + 1  # step 0, each keep_every-th, the last


class Trajectory:
    """A solution sampled at increasing `times` from t = 0: one read-only
    complex (K, M) array `coeffs` on `grid`, row k the spectrum at times[k],
    of which `states` and `final_state()` are SpectralField views.  `times`
    is read-only too, so what is cached from them cannot go stale.  Built
    from SpectralFields, stacked once (a copy), or by the solvers from a
    stack they hand over (`from_stack`)."""

    def __init__(self, times, states, params: EquationParams, info: dict | None = None):
        states = tuple(states)
        if any(u.grid != states[0].grid for u in states):
            raise ValueError("states on different grids")
        self._adopt(states[0].grid if states else None, np.array(times, dtype=float),
                    np.array([u.coeffs for u in states], dtype=np.complex128), params, info)

    @classmethod
    def from_stack(cls, grid: Grid, times, coeffs: np.ndarray, params: EquationParams,
                   info: dict | None = None) -> "Trajectory":
        """The trajectory of the (K, M) array `coeffs`, taken over as it is."""
        traj = cls.__new__(cls)
        traj._adopt(grid, np.asarray(times, dtype=float), coeffs, params, info)
        return traj

    def _adopt(self, grid, times, coeffs, params, info):
        if not times.size or times.shape != coeffs.shape[:1]:
            raise ValueError("a trajectory needs one state per time, and at least one")
        if times[0] != 0.0 or (np.diff(times) <= 0).any():
            raise ValueError("trajectory times must start at t=0 and increase strictly")
        times.flags.writeable = coeffs.flags.writeable = False
        self.grid, self.times, self.coeffs, self.params = grid, times, coeffs, params
        self.info = {} if info is None else info

    @property
    def states(self) -> tuple:
        return tuple(SpectralField(self.grid, row, check=False) for row in self.coeffs)

    def final_state(self) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[-1], check=False)

    @functools.cached_property
    def nonlinear_samples(self) -> np.ndarray:
        """(K, M) spectra of u u_x at the stored states, computed once."""
        return nonlinear_stack(self.grid, self.coeffs)

    @functools.cached_property
    def node_integrals(self) -> np.ndarray:
        """Read-only (K-1, M) stack of `duhamel_integral` at times[1:] without
        node doubling: the node set's memoized operators' `hermitian_sums` on
        `nonlinear_samples`, checked finite (else ValueError)."""
        return self._integrals(_node_operators, _QUAD_NODES)

    @functools.cached_property
    def _doubled_integrals(self) -> np.ndarray:
        """`node_integrals` with twice the nodes per panel, outside the memo."""
        return self._integrals(_node_operators.__wrapped__, 2 * _QUAD_NODES)

    def _integrals(self, build, n_nodes: int) -> np.ndarray:
        operators = build(self.grid, self.params, tuple(self.times.tolist()), n_nodes)
        c = hermitian_sums(self.grid, operators, self.nonlinear_samples)
        if not np.isfinite(c.view(np.float64)).all():
            raise ValueError("non-finite Fourier coefficients")
        c.flags.writeable = False
        return c

    @functools.cached_property
    def _node_rows(self) -> dict:
        """The row of `node_integrals` of each node time after t = 0."""
        return {t: k for k, t in enumerate(self.times[1:].tolist())}


# ---------------------------------------------------------------------------
# contraction construction
# ---------------------------------------------------------------------------

def g_exponent(s: float) -> float:
    """Time-gain exponent of the bilinear estimate: (1+2s)/4 on (-1/2, 0),
    1/4 for s >= 0."""
    if s <= -0.5:
        raise ValueError(f"contraction construction requires s > -1/2, got s={s}")
    return 0.25 * (1.0 + 2.0 * s) if s < 0 else 0.25


def contraction_time(phi_norm_hs: float, s: float, C: float) -> float:
    """Guaranteed contraction horizon min{1, (4 C gamma)^(-1/g(s))} with
    gamma = 2 C ||phi||_{H^s}; C is the calibrated bilinear-estimate
    constant for the equation's dissipation and s."""
    if C <= 0:
        raise ValueError("calibration constant C must be positive")
    if phi_norm_hs < 0:
        raise ValueError("negative norm")
    g = g_exponent(s)
    gamma = 2.0 * C * phi_norm_hs
    if gamma == 0.0:
        return 1.0
    return float(min(1.0, (4.0 * C * gamma) ** (-1.0 / g)))


# ---------------------------------------------------------------------------
# time quadrature of the Duhamel integral
# ---------------------------------------------------------------------------

def chebyshev_nodes(T: float, n: int) -> np.ndarray:
    """n+1 Chebyshev-Lobatto nodes on [0, T], increasing from 0."""
    i = np.arange(n + 1)
    return 0.5 * T * (1.0 - np.cos(np.pi * i / n))


@functools.cache
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes (increasing) and weights on [-1, 1]: 8 Newton
    steps on P_n, evaluated by its three-term recurrence, from the guesses
    -cos(pi (k + 3/4) / (n + 1/2)), where about 4 reach roundoff; then
    symmetrized, so the rule is exactly even."""
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = n * (p0 - x * p1) / (1.0 - x * x)  # P_n'(x)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _lagrange_matrix(nodes: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """L[q, j] = l_j(tau_q), the barycentric Lagrange basis of `nodes` at `tau`.
    Node weights are products over nodes scaled by 4 / (their span), so they
    neither overflow nor underflow; a tau on a node gets a unit row."""
    d = (nodes[:, None] - nodes[None, :]) * (4.0 / (nodes[-1] - nodes[0]))
    np.fill_diagonal(d, 1.0)
    weights = 1.0 / d.prod(axis=1)
    diff = tau[:, None] - nodes[None, :]
    on_node = diff == 0.0
    diff[on_node] = 1.0
    L = weights / diff
    L /= L.sum(axis=1, keepdims=True)
    return np.where(on_node.any(axis=1, keepdims=True), on_node, L)


def _panel_rule(t: float, n_nodes: int):
    """Points tau and weights of the composite Gauss-Legendre rule on
    [0, t]: `n_nodes` per panel of length at most `_PANEL_LENGTH`."""
    x, w = _gauss_legendre(n_nodes)
    edges = np.linspace(0.0, t, max(1, int(np.ceil(t / _PANEL_LENGTH))) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (half * x + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel(), (half * w).ravel()


@grid_memo(maxsize=4)
def _node_operators(grid: Grid, params: EquationParams, nodes: tuple,
                    n_nodes: int) -> np.ndarray:
    """Read-only (K-1, K, M/2) array of the K node times `nodes` (0 first)
    whose row k-1 is the W with sum_j W[j] G_j = int_0^t S(t-tau) G(tau) dtau
    at t = nodes[k], G interpolating samples G_j at the nodes, by composite
    Gauss-Legendre (`_panel_rule`) on the non-negative modes
    (`semigroup_half`), which `hermitian_sums` mirrors.  Each node's
    interpolation table is formed first, alone, and the set refused (a
    ValueError, before the array exists) where eps times the largest
    Lebesgue constant max_q sum_j |l_j(tau_q)|, which bounds how
    interpolation amplifies rounding, exceeds `_QUAD_TOL`, so nothing
    refused is stored.  Memoized per (params, nodes, n_nodes) on each grid,
    4 of them: the C_CONTRACTION probes' 3 node sets and a Picard solve's;
    `__wrapped__` builds without storing."""
    times = np.array(nodes)
    rules = [_panel_rule(t, n_nodes) for t in nodes[1:]]
    lebesgue = max((float(np.abs(_lagrange_matrix(times, tau)).sum(axis=1).max())
                    for tau, _ in rules), default=0.0)
    if _EPS * lebesgue > _QUAD_TOL:
        raise ValueError(f"interpolation in time through {len(nodes)} nodes has Lebesgue "
                         f"constant {lebesgue:.2e}; rounding in the samples would exceed "
                         f"tol {_QUAD_TOL:.1e} (use fewer or Chebyshev-spaced nodes)")
    ops = np.empty((len(nodes) - 1, len(nodes), grid.band(grid.xi >= 0).size), complex)
    for W, t, (tau, wq) in zip(ops, nodes[1:], rules):
        L = _lagrange_matrix(times, tau)
        np.matmul((wq[:, None] * L).T, semigroup_half(grid, t - tau, params), out=W)
    ops.flags.writeable = False
    return ops


def duhamel_integral(traj_segment: Trajectory, t: float, check: bool = True) -> SpectralField:
    """int_0^t S(t - t') [u u_x](t') dt' from a stored trajectory, at t = 0
    or one of its node times (else ValueError): a read-only row of its
    `node_integrals`, which interpolate the nonlinearity's samples in time
    and integrate them with the exact semigroup by `_QUAD_NODES`
    Gauss-Legendre nodes per panel of length `_PANEL_LENGTH`.  With `check`,
    the row with twice the nodes per panel, formed once per trajectory too;
    QuadratureConvergenceError where it is more than `_QUAD_TOL` away."""
    row, times = traj_segment._node_rows.get(float(t)), traj_segment.times
    if row is None and t != 0.0:
        raise ValueError(f"t={t} is not 0 or a node time of the trajectory "
                         f"(its {times.size} nodes run from 0 to {times[-1]})")
    if row is None or not traj_segment.params.nonlinear:
        return SpectralField.zero(traj_segment.grid)  # empty interval or linear flow
    if not check:
        return SpectralField(traj_segment.grid, traj_segment.node_integrals[row], check=False)
    doubled = traj_segment._doubled_integrals[row]  # first, so its guard speaks for the check
    err = (np.linalg.norm(doubled - traj_segment.node_integrals[row])
           / max(np.linalg.norm(doubled), 1e-300))
    if err > _QUAD_TOL:
        raise QuadratureConvergenceError(
            f"node doubling changed the Duhamel integral by {err:.3e} (tol {_QUAD_TOL:.1e})")
    return SpectralField(traj_segment.grid, doubled, check=False)


# ---------------------------------------------------------------------------
# Picard iteration on Chebyshev time nodes
# ---------------------------------------------------------------------------

def solve_picard(phi: SpectralField, params: EquationParams, config: SolverConfig,
                 s: float = 0.0) -> Trajectory:
    """Fixed-point iteration of Psi(u) = S(t) phi - (1/2) int_0^t S(t-t')
    d/dx(u^2) dt' from the first iterate u(t) = S(t) phi.

    Converges geometrically for data inside the contraction ball; the
    per-iteration sup-in-time H^s ratios are recorded in info["ratios"].
    """
    if params.eta <= 0:
        raise ValueError("the Picard route needs eta > 0 (dissipative estimates)")
    grid = phi.grid
    times = chebyshev_nodes(config.T, _PICARD_PANELS)
    lin = semigroup_stack(grid, times, params)
    np.multiply(phi.coeffs, lin, out=lin)  # semigroup_apply's operands, phi-hat * E
    # the memoized operators of the node set, one per node after t = 0; the
    # map's product-sums are the iterate's node_integrals, bitwise
    Ws = _node_operators(grid, params, tuple(times.tolist()), _QUAD_NODES)

    def apply_map(u_mat: np.ndarray) -> np.ndarray:
        out = lin.copy()
        if params.nonlinear:
            out[1:] -= hermitian_sums(grid, Ws, nonlinear_stack(grid, u_mat))
        return out

    def sup_hs(mat: np.ndarray) -> float:
        return float(sobolev_norm_stack(grid, mat, s).max())

    u = lin.copy()
    diffs, ratios = [], []
    bad_streak = 0
    for _ in range(config.picard_max_iters):
        u_new = apply_map(u)
        if not np.isfinite(u_new.view(np.float64)).all():
            raise SolverBlowupError(config.T, "Picard iterate diverged")
        d = sup_hs(u_new - u)
        if diffs:
            r = d / diffs[-1] if diffs[-1] > 0 else 0.0
            ratios.append(r)
            bad_streak = bad_streak + 1 if r >= 1.0 else 0
            if bad_streak >= 3:
                raise NonContractionError(
                    f"no contraction: ratios {ratios[-3:]} (data too large for T={config.T}?)"
                )
        diffs.append(d)
        u = u_new
        if d < config.picard_tol:
            break
    else:
        raise PicardError(
            f"Picard did not reach tol={config.picard_tol:.1e} in "
            f"{config.picard_max_iters} iterations (last diff {diffs[-1]:.3e})"
        )

    residual = sup_hs(apply_map(u) - u)
    return Trajectory.from_stack(grid, times, u, params,
                                 info={"method": "picard", "diffs": diffs, "ratios": ratios,
                                       "residual": residual, "s": s})


# ---------------------------------------------------------------------------
# integrating-factor RK4 stepper
# ---------------------------------------------------------------------------

def _check_cfl(grid: Grid, dt: float, params: EquationParams):
    qmax = float(np.max(np.abs(symbol_q(grid.xi, params))))
    if dt * qmax > 1.0 + 1e-12:
        raise CflError(
            f"dt={dt:.3e} does not resolve the fastest linear phase: "
            f"dt*max|q| = {dt * qmax:.3f} > 1"
        )


def solve_stepper(phi: SpectralField, params: EquationParams,
                  config: SolverConfig) -> Trajectory:
    """The `stepper_blocks` stream of `params` alone, collected into one
    Trajectory, with the stream's checks and errors.  A linear run is
    S(t) phi at the kept times, bitwise `semigroup_apply`.  Nothing in the
    library calls it: the benchmark's tracer times and counts it by name,
    and it goes once the tracer skips a name that is absent."""
    times, blocks = [], []
    for block_times, (block,) in stepper_blocks(phi, [params], config):
        times += block_times
        blocks.append(block)
    n_steps = config.n_steps
    return Trajectory.from_stack(phi.grid, times, np.concatenate(blocks), params,
                                 info={"method": "if_rk4" if params.nonlinear else "semigroup",
                                       "dt": config.T / n_steps, "n_steps": n_steps,
                                       "sweep_size": 1,
                                       "rhs_evals": 4 * n_steps if params.nonlinear else 0})


def stepper_blocks(phi: SpectralField, params_list, config: SolverConfig):
    """The IF-RK4 runs from `phi` of every parameter set of `params_list`,
    kept at every `keep_every`-th step from 0 and the last, as a stream:
    yields (times, block) in time order, `block` a new (B, k, M) array of
    every member's spectra at the k kept `times` (a list), k at most
    max(1, 4096 // M), its times n * dt at its kept step numbers n.  A caller
    that reduces each block as it comes never holds the (B, K, M) run.

    Before the first block, the members are checked all nonlinear or all
    linear (else ValueError), and every member's CFL check runs.  Linear
    members are S(t) phi, phi-hat times `semigroup_stack` at the block's
    times.  Nonlinear ones are stepped together as one (B, M) stack of
    spectra, whose row b is bitwise the run with params_list[b] alone, and
    a block is handed over before the step after its last kept state.  Their
    multipliers E1 = e^{dt L} and E2 = e^{dt L / 2} are each member's row of
    `semigroup_stack`, which is `semigroup_multiplier`'s bits without its
    memo copy, so the run holds one copy of each.  A
    blow-up raises at the earliest step any member fails, a non-finite
    state before the amplitude cap, so no block holds a time at or past it."""
    grid = phi.grid
    kinds = {p.nonlinear for p in params_list}
    if len(kinds) > 1:
        raise ValueError("a stack's members must be all nonlinear or all linear")
    for params in params_list:
        _check_cfl(grid, config.dt, params)
    n_steps, every, rows = config.n_steps, config.keep_every, max(1, 4096 // grid.M)
    dt = config.T / n_steps
    kept = (min(n, n_steps) for n in range(0, n_steps + every, every))  # n_steps last
    schedule = iter(lambda: list(itertools.islice(kept, rows)), [])  # each block's steps
    if True in kinds:
        E1, E2 = (np.concatenate([semigroup_stack(grid, (h,), p) for p in params_list])
                  for h in (dt, 0.5 * dt))
        c = np.repeat(phi.coeffs[None, :], len(params_list), axis=0)
        yield from _if_rk4(grid, c, E1, E2, dt, schedule)
    else:  # S(t) phi: semigroup_apply's product, in place in each block
        for steps in schedule:
            times = [n * dt for n in steps]
            with np.errstate(over="ignore", invalid="ignore"):  # a blow-up, raised below
                block = np.array([semigroup_stack(grid, times, p) for p in params_list])
                np.multiply(phi.coeffs, block, out=block)
                # judged at each time as _if_rk4 judges a kept step; S(0) phi = phi
                finite = np.isfinite(block.view(np.float64)).all(axis=(0, 2))
                capped = np.abs(values_stack(grid, block)).max(axis=(0, 2)) > _AMPLITUDE_CAP
            for t, ok, over in zip(times, finite, capped):
                if not ok:
                    raise SolverBlowupError(t) if t else ValueError("non-finite datum")
                if over:
                    raise SolverBlowupError(t, _CAP_MESSAGE)
            yield times, block  # outside errstate, which the caller would inherit


# a kept state whose largest |u(x)| exceeds the cap is a blow-up
_AMPLITUDE_CAP = 1e6
_CAP_MESSAGE = "amplitude cap exceeded"


def _if_rk4(grid: Grid, c: np.ndarray, E1: np.ndarray, E2: np.ndarray, dt: float,
            schedule):
    """Step the (b, M) datum stack `c`, overwritten, by IF-RK4 steps of size
    dt with multipliers E1 = e^{dt L}, E2 = e^{dt L / 2} per row.  For each
    list of step numbers of `schedule` (increasing from 0) yields (times,
    block): a new (b, k, M) block of the states at those k steps, each before
    the step after its last state.  Raises ValueError on a non-finite
    datum, SolverBlowupError at the first non-finite state or kept state over
    the amplitude cap.  The loop is the step's algebra and one aliasing verdict
    a step, on its four stages; the workspace (`core.PaddedBuffer`) loads the
    state, evaluates each stage, stores each kept state back and finds its
    largest |u(x)| for the cap in a free scratch stack, of the five."""
    (B, M), n = c.shape, 0  # n: the steps taken
    pad = PaddedBuffer(grid, (B,))
    c, E1, E2 = pad.load(c, E1, E2)
    E2x2 = 2.0 * E2
    # one workspace for the whole run: three stages, the fourth written over
    # k2 once the update has taken it in, E1*c, one temporary, the energies
    k1, k2, k3, E1c, w = (np.empty_like(c) for _ in range(5))
    e1, e2, e3, e4 = energies = pad.energy_rows(4)
    stage = pad.retained  # where the kernel reads a stage
    # the step's scalars as 0-d complex arrays: numpy casts a float to the
    # same complex value for every product with a spectrum (same bits), and
    # an array skips that conversion; k <- dt times the right-hand side
    # -u u_x is the stage's kernel result times neg_dt
    neg_dt, half, six = (np.array(complex(x)) for x in (-dt, 0.5, 6.0))

    # The classical IF-RK4 step
    #   k1 = dt*f(c), k2 = dt*f(E2*(c + 0.5*k1)), k3 = dt*f(E2*c + 0.5*k2),
    #   k4 = dt*f(E1*c + E2*k3),
    #   c <- E1*c + (E1*k1 + 2*E2*(k2 + k3) + k4)/6,
    # formed in place with each complex product's operands in that order
    # (see nonlinear_stack on why the order is part of the result).  Stage 3
    # takes 0.5*k2 in k3, which it then overwrites, and E1*k1 + 2*E2*(k2 + k3)
    # is formed in k1 before stage 4, which writes k4 into k2: five scratch
    # stacks.  The stage is strided in the padded buffer, where numpy buffers
    # a ufunc, so one product a stage is written there, and no more.
    for steps in schedule:
        block = np.empty((B, len(steps), M), dtype=np.complex128)
        for i, kept in enumerate(steps):
            for n in range(n + 1, kept + 1):
                np.multiply(E1, c, out=E1c)
                pad.evaluate(c, k1, neg_dt, e1)
                np.multiply(half, k1, out=w)
                np.add(c, w, out=w)
                np.multiply(E2, w, out=stage)
                pad.evaluate(stage, k2, neg_dt, e2)
                np.multiply(E2, c, out=w)
                np.multiply(half, k2, out=k3)
                np.add(w, k3, out=stage)
                pad.evaluate(stage, k3, neg_dt, e3)
                np.multiply(E1, k1, out=k1)
                np.add(k2, k3, out=k2)
                np.multiply(E2x2, k2, out=k2)
                np.add(k1, k2, out=k1)
                np.multiply(E2, k3, out=w)
                np.add(E1c, w, out=stage)
                pad.evaluate(stage, k2, neg_dt, e4)
                aliasing_verdict(pad, energies)
                np.add(k1, k2, out=k1)
                np.divide(k1, six, out=k1)
                np.add(E1c, k1, out=c)
                if not np.isfinite(c.view(np.float64)).all():
                    raise SolverBlowupError(n * dt)
            pad.store(c, block[:, i])
            if n and pad.peak(c, w) > _AMPLITUDE_CAP:  # n = 0: the datum
                raise SolverBlowupError(n * dt, _CAP_MESSAGE)
        yield [m * dt for m in steps], block
