"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line with the measured quantity.

Criterion 04's oracle, the closed-form smoothing envelope, is defined
here with the tests that check it against brute force.

Criterion 10's Cauchy-rate clause is a documented expected failure: for
smooth data the solution map is differentiable in the dissipation
parameter, so the measured Cauchy rate is ~1, not the non-sharp
square-root bound of the energy argument (slope 0.83 measured).  See the
analysis in the project notes; the assertion is kept at the stated
tolerance and marked xfail(strict=True) rather than weakened.
"""
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chenlee_lab.calibration import C_CONTRACTION
from chenlee_lab.cli import _limit_cfg, main as cli_main
from chenlee_lab.config import RunConfig, build_initial_data, parse_config
from chenlee_lab.core import (
    EquationParams,
    Grid,
    SpectralField,
    random_real_field,
    semigroup_apply,
)
from chenlee_lab.decay import decay_report, weighted_energy_rate
from chenlee_lab.flowderiv import illposed_growth_c2_nd, illposed_growth_c3
from chenlee_lab.limits import beta_limit_sweep, eta_limit_sweep
from chenlee_lab.report import fit_loglog
from chenlee_lab.solver import SolverConfig, contraction_time, solve_picard, solve_stepper
from chenlee_lab.spaces import l2_norm, sobolev_norm

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"

# mass drift of every nonlinear solver run executed by this suite
# (criterion 6 asserts over all of them)
_MASS_DRIFTS = []


def _mass_drift(traj):
    mass = np.array([u.coeffs[0] for u in traj.states])
    drift = float(np.abs(mass - mass[0]).max())
    _MASS_DRIFTS.append((traj.info.get("method", "?"), drift))
    return drift


def _line(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")


def _gaussian(grid, amp, width=1.0):
    return SpectralField.from_function(grid, lambda x: amp * np.exp(-((x / width) ** 2)))


def _tuned_sweep(experiment):
    """The sweep the CLI runs for configs/<experiment>.cfg: its datum, sweep
    values, equation and solver settings."""
    cfg = parse_config((CONFIG_DIR / f"{experiment}.cfg").read_text())
    return _limit_cfg(cfg, ())


# ---------------------------------------------------------------------------
# 1. linear exactness
# ---------------------------------------------------------------------------

def test_criterion01_linear_exactness():
    # a linear run is S(t)phi: every kept state is semigroup_apply's, bitwise
    grid = Grid(8.0 * np.pi, 256)
    phi = _gaussian(grid, 1.0)
    states = differ = 0
    for beta in (0.0, 0.5, 1.0):
        for eta in (0.0, 0.5, 1.0):
            p = EquationParams(beta=beta, eta=eta, nonlinear=False)
            traj = solve_stepper(phi, p, SolverConfig(dt=2e-3, T=1.0, keep_every=100))
            for t, u in zip(traj.times, traj.states):
                ref = semigroup_apply(phi, t, p)
                states += 1
                differ += not np.array_equal(u.coeffs.view(np.uint64), ref.coeffs.view(np.uint64))
    ok = differ == 0
    _line(1, "linear-exactness", ok,
          f"{differ} of {states} kept states differ from S(t)phi in any bit")
    assert ok


# ---------------------------------------------------------------------------
# 2. semigroup growth bound
# ---------------------------------------------------------------------------

def test_criterion02_semigroup_growth():
    grid = Grid(8.0 * np.pi, 256)
    rng = np.random.default_rng(2024)
    fields = [random_real_field(grid, rng, spectral_decay=1.0) for _ in range(100)]
    times = np.linspace(0.0, 1.0, 11)
    violations = 0
    worst = 0.0
    for s in (-0.4, 0.0, 1.0):
        for eta in (0.5, 1.0, 2.0):
            p = EquationParams(beta=1.0, eta=eta)
            for phi in fields:
                denom = sobolev_norm(phi, s)
                for t in times:
                    ratio = sobolev_norm(semigroup_apply(phi, t, p), s) / (
                        np.exp(eta * t / 4.0) * denom)
                    worst = max(worst, ratio)
                    if ratio > 1.0 + 1e-12:
                        violations += 1
    ok = violations == 0
    _line(2, "semigroup-growth", ok,
          f"{violations} violations over 100 fields x 9 (s, eta) combos, "
          f"worst ratio {worst:.12f}")
    assert ok


# ---------------------------------------------------------------------------
# 3. smoothing rate
# ---------------------------------------------------------------------------

def test_criterion03_smoothing_rate():
    cfg = RunConfig(grid_L=4.0 * np.pi, grid_M=4096, data_kind="rough-band")
    phi = build_initial_data(cfg)
    p = EquationParams(beta=1.0, eta=1.0)
    ts = np.geomspace(1e-4, 1e-2, 9)
    ok = True
    details = []
    for lam in (0.5, 1.0, 2.0):
        norms = [sobolev_norm(semigroup_apply(phi, t, p), lam) for t in ts]
        slope, _ = fit_loglog(ts, norms)
        target = -lam / 2.0
        this_ok = abs(slope - target) <= 0.10 * abs(target)
        ok = ok and this_ok
        details.append(f"lambda={lam:g}: slope {slope:.4f} vs {target:g}")
    _line(3, "smoothing-rate", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 4. closed-form envelope oracle
# ---------------------------------------------------------------------------

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


def _brute_sup(t, lam, eta, n=200001):
    x1 = f_lambda_argmax(t, lam, eta)
    xi = np.linspace(0.0, 6.0 * x1 + 10.0, n)
    return np.max(np.abs(t * xi ** 2) ** lam * np.exp(eta * (xi - xi ** 2) * t))


def test_criterion04_envelope_oracle():
    worst = 0.0
    for t in np.geomspace(1e-3, 1.0, 13):
        for lam in (0.5, 1.0, 2.0):
            for eta in (0.5, 1.0, 2.0):
                worst = max(worst, _brute_sup(t, lam, eta) / f_lambda(t, lam, eta))
    ok = worst <= 10.0
    _line(4, "envelope-oracle", ok, f"max brute/closed-form ratio {worst:.4f} (C <= 10)")
    assert ok


def test_f_lambda_dominates_brute_force():
    worst = 0.0
    for t in np.geomspace(1e-3, 1.0, 7):
        for lam in (0.5, 1.0, 2.0):
            for eta in (0.5, 1.0, 2.0):
                worst = max(worst, _brute_sup(t, lam, eta) / f_lambda(t, lam, eta))
    assert worst <= 1.0  # the closed form is a true envelope


def test_f_lambda_argmax_is_maximizer():
    t, lam, eta = 0.1, 1.0, 1.0
    x1 = f_lambda_argmax(t, lam, eta)

    def h(x):
        return x ** (2 * lam) * np.exp(eta * (x * np.sqrt(t) - x * x))

    assert h(x1) >= h(x1 * 1.001)
    assert h(x1) >= h(x1 * 0.999)


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-3, 0.5), st.floats(1e-3, 0.5))
def test_f_lambda_nondecreasing(t, dt):
    assert f_lambda(t + dt, 1.0, 1.0) >= f_lambda(t, 1.0, 1.0) - 1e-12


def test_f_lambda_domain():
    with pytest.raises(ValueError):
        f_lambda(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        f_lambda(0.5, 1.0, 0.0)


# ---------------------------------------------------------------------------
# 5. contraction  (+ feeds criterion 6)
# ---------------------------------------------------------------------------

def test_criterion05_contraction():
    grid = Grid(16.0 * np.pi, 512)
    phi = _gaussian(grid, 1e-3)
    params = EquationParams(beta=1.0, eta=1.0)
    T = min(contraction_time(l2_norm(phi), 0.0, C_CONTRACTION), 1.0)
    cfg = SolverConfig(dt=1e-3, T=T)
    traj_p = solve_picard(phi, params, cfg, s=0.0)
    traj_s = solve_stepper(phi, params, cfg)
    _mass_drift(traj_s)
    worst_ratio = max(traj_p.info["ratios"]) if traj_p.info["ratios"] else 0.0
    residual = traj_p.info["residual"]
    agreement = l2_norm(traj_p.final_state() - traj_s.final_state())
    iters = len(traj_p.info["diffs"])
    ok = (worst_ratio <= 0.75 and residual <= 1e-10 and iters <= 40
          and agreement <= 1e-6)
    _line(5, "contraction", ok,
          f"T={T:.4g}, {iters} iterations, max ratio {worst_ratio:.3e}, "
          f"residual {residual:.3e}, Picard/stepper agreement {agreement:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# 7. ill-posedness C^3 slope (incl. well-posed-side consistency at s=-0.3)
# ---------------------------------------------------------------------------

N_SWEEP = (64.0, 128.0, 256.0, 512.0, 1024.0)
# small coupling keeps the finite-N drift of the dissipative prefactor and
# of the kernel regime inside the stated tolerance (see project notes)
ILLPOSED_PARAMS = EquationParams(beta=0.25, eta=0.25)


def test_criterion07_c3_slope():
    rep = illposed_growth_c3(-0.8, 0.1, N_SWEEP, ILLPOSED_PARAMS, tol=0.15)
    slope = rep.summary["fitted_slope"]
    rep_wp = illposed_growth_c3(-0.3, 0.1, N_SWEEP, ILLPOSED_PARAMS, tol=np.inf)
    slope_wp = rep_wp.summary["fitted_slope"]
    ok = rep.summary["passed"] and slope_wp <= 0.0
    _line(7, "illposed-c3-slope", ok,
          f"s=-0.8: slope {slope:.4f} vs target 0.40 +- 0.15; "
          f"s=-0.3 consistency: slope {slope_wp:.4f} <= 0")
    assert ok


# ---------------------------------------------------------------------------
# 8. ill-posedness C^2 slope (non-dispersive)
# ---------------------------------------------------------------------------

def test_criterion08_c2_slope():
    rep = illposed_growth_c2_nd(-0.8, 0.05, N_SWEEP, eta=0.1, tol=0.15)
    slope = rep.summary["fitted_slope"]
    floor = rep.summary["dissipative_floor_min"]
    ok = rep.summary["passed"] and floor > 0.0
    _line(8, "illposed-c2nd-slope", ok,
          f"slope {slope:.4f} vs target 0.225 +- 0.15; "
          f"dissipative floor {floor:.3f} > 0")
    assert ok


# ---------------------------------------------------------------------------
# 9. beta -> 0 rate
# ---------------------------------------------------------------------------

def test_criterion09_beta_rate():
    rep = beta_limit_sweep(_tuned_sweep("beta-limit"), tol=0.15)
    slope = rep.summary["fitted_slope"]
    ok = rep.summary["passed"]
    _line(9, "beta-limit-rate", ok,
          f"slope {slope:.4f} vs target 1.00 +- 0.15, "
          f"monotone={rep.summary['monotone']}")
    assert ok


# ---------------------------------------------------------------------------
# 10. eta -> 0 Cauchy rate (rate clause is the documented red item)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eta_sweep_report():
    return eta_limit_sweep(_tuned_sweep("eta-limit"), tol=0.1)


def test_criterion10_horizon_and_envelope(eta_sweep_report):
    rep = eta_sweep_report
    ok = rep.summary["rho_envelope_ok"] and len(rep.rows) == 4
    _line(10, "eta-limit-envelope", ok,
          f"all runs reached T=1, rho envelope ok={rep.summary['rho_envelope_ok']}, "
          f"C_s={rep.summary['C_s']:.4g}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="smooth data make the flow differentiable in eta: measured Cauchy "
           "rate ~0.83, the sqrt-Gronwall bound is not sharp here (see the "
           "decisions ledger, 'Honestly-red acceptance items')")
def test_criterion10_cauchy_rate(eta_sweep_report):
    rep = eta_sweep_report
    slope = rep.summary["fitted_slope"]
    ok = abs(slope - 0.5) <= 0.1
    _line(10, "eta-limit-cauchy-rate", ok,
          f"slope {slope:.4f} vs target 0.50 +- 0.10 "
          f"(sup-vs-reference slope {rep.summary['fitted_slope_sup_vs_ref']:.4f})")
    assert ok


def test_criterion10_cauchy_local_slopes_climb_toward_one(eta_sweep_report):
    # the finding behind the xfail above: smooth data make the flow
    # differentiable in eta, so the local slopes log2(cauchy(eta) /
    # cauchy(eta/2)) of the tuned run (configs/eta-limit.cfg, the fixture's
    # settings) climb toward 1 as eta -> 0, not toward the Gronwall 1/2
    cauchy = eta_sweep_report.column("cauchy_diff").astype(float)
    slopes = np.log2(cauchy[:-1] / cauchy[1:])
    ok = len(slopes) == 3 and np.all(np.diff(slopes) > 0) and slopes[-1] < 1.0
    _line(10, "eta-limit-local-slopes", ok,
          "local slopes " + ", ".join(f"{s:.3f}" for s in slopes))
    assert ok


# ---------------------------------------------------------------------------
# 11. moment identities
# ---------------------------------------------------------------------------

def test_criterion11_moment_identities():
    # (a) first-moment identity residual on bump data
    grid = Grid(32.0 * np.pi, 1024)
    phi = _gaussian(grid, 0.1)
    params = EquationParams(beta=1.0, eta=1.0)
    traj = solve_stepper(phi, params, SolverConfig(dt=5e-4, T=0.3, keep_every=8))
    _mass_drift(traj)
    yac = decay_report(traj).summary["yacasi_residual"]

    # (b) time-smoothed functional: closed forms on single-mode linear runs
    g4 = Grid(4.0 * np.pi, 64)
    lin = EquationParams(beta=1.0, eta=1.0, nonlinear=False)
    listo_err = 0.0
    listo_min = np.inf
    for mode, alpha in ((4, 0.0), (8, -4.0)):  # xi = 1 (neutral), xi = 2 (damped)
        phi_m = SpectralField.single_mode(g4, mode, 0.2)
        traj_m = solve_stepper(phi_m, lin, SolverConfig(dt=1e-3, T=1.0, keep_every=2))
        e0 = l2_norm(phi_m) ** 2
        rep = decay_report(traj_m)  # its listo column, read at stored times
        times, listo = rep.column("t"), rep.column("listo")
        for t in (0.25, 0.5, 1.0):
            k = int(np.argmin(np.abs(times - t)))
            assert abs(times[k] - t) <= 1e-12
            val = listo[k]
            ref = (e0 * t * t / 2.0 if alpha == 0.0
                   else e0 * (np.exp(alpha * t) - 1.0 - alpha * t) / alpha ** 2)
            listo_err = max(listo_err, abs(val - ref) / ref)
            listo_min = min(listo_min, val)

    # (c) weighted-energy balance: residual small and second order in the
    # stored sampling interval (compared at common times)
    coarse = weighted_energy_rate(solve_stepper(
        phi, params, SolverConfig(dt=1e-3, T=0.3, keep_every=8)))
    fine = weighted_energy_rate(traj)  # same run as (a): half the spacing
    resid = coarse.summary["max_residual"]
    tc, rc = coarse.column("t"), coarse.column("residual")
    tf, rf = fine.column("t"), fine.column("residual")
    common = np.intersect1d(np.round(tc, 12), np.round(tf, 12))
    # drop points within one coarse store interval of T: the stepper stores
    # the final state off-lattice there, so the centered difference has
    # mixed spacing and the ratio is not a clean convergence measurement
    spacing = float(np.median(np.diff(tc)))
    common = common[common < 0.3 - 1.001 * spacing]
    ratios = np.array([rc[np.argmin(np.abs(tc - t))] / rf[np.argmin(np.abs(tf - t))]
                       for t in common])
    halving = float(ratios.min())

    ok = (yac <= 1e-8 and listo_err <= 1e-8 and listo_min > 0.0
          and resid <= 1e-5 and halving >= 4.0)
    _line(11, "moment-identities", ok,
          f"first-moment residual {yac:.3e} (tol 1e-8); smoothed-L2 closed-form "
          f"error {listo_err:.3e} (tol 1e-8, min value {listo_min:.3e} > 0); "
          f"energy residual {resid:.3e} (tol 1e-5), halving ratio {halving:.4f} >= 4")
    assert ok


# ---------------------------------------------------------------------------
# 12. determinism
# ---------------------------------------------------------------------------

def test_criterion12_determinism(tmp_path):
    cfgs = {
        "smoothing": ("experiment = smoothing\ngrid.L = 12.566370614359172\n"
                      "grid.M = 1024\nsmoothing.lambdas = 0.5,1.0\n"),
        "solve": ("experiment = solve\ngrid.L = 50.26548245743669\ngrid.M = 512\n"
                  "data.kind = random\nseed = 11\ndata.amplitude = 0.05\n"
                  "solver.dt = 1e-3\nsolver.T = 0.1\nsolver.keep_every = 20\n"),
    }
    ok = True
    details = []
    for name, text in cfgs.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        payloads = []
        for sub in ("a", "b"):
            out = tmp_path / name / sub
            rc = cli_main([name, "--config", str(path), "--out", str(out)])
            assert rc == 0
            payloads.append(b"".join(sorted(
                p.read_bytes() for p in out.glob("*.csv"))))
        same = payloads[0] == payloads[1]
        ok = ok and same
        details.append(f"{name}: byte-identical={same}")
    _line(12, "determinism", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 6. mass conservation across every nonlinear run of this suite
#     (defined last so the other criteria have registered their runs)
# ---------------------------------------------------------------------------

def test_criterion06_mass_conservation():
    grid = Grid(16.0 * np.pi, 512)
    traj = solve_stepper(_gaussian(grid, 0.5), EquationParams(beta=1.0, eta=1.0),
                         SolverConfig(dt=1e-3, T=0.5, keep_every=25))
    _mass_drift(traj)
    worst = max(d for _, d in _MASS_DRIFTS)
    ok = worst <= 1e-10 and len(_MASS_DRIFTS) >= 3
    _line(6, "mass-conservation", ok,
          f"max |u_hat(t,0) - u_hat(0,0)| = {worst:.3e} over "
          f"{len(_MASS_DRIFTS)} nonlinear runs (tol 1e-10)")
    assert ok
