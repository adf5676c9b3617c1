"""The benchmark's workloads: inputs made from the seed, and the operations
run on them inside one worker process.

Every operation goes through the library's public functions, looked up on
their module at call time, so that the tracer's wrappers (tracer.py) see
the same calls the program makes.  This module imports the library only
inside `prepare`, so that the parent process (run.py) can read its tables
without paying for the import.
"""
import math
import pathlib

WORKLOADS = ("battery", "picard", "solve-m4096")

# Expected exit code per experiment, copied from the table in
# scripts/run_all_experiments.py (the benchmark keeps its own copy so that
# a change to that script cannot move the benchmark's notion of success).
# eta-limit exits 1 by design: its square-root rate clause is a documented
# expected failure for smooth data.
EXPECTED_EXIT = {
    "solve": 0,
    "smoothing": 0,
    "contraction": 0,
    "illposed-c3": 0,
    "illposed-c2nd": 0,
    "beta-limit": 0,
    "eta-limit": 1,
    "decay": 0,
}

# solve-m4096: the CLI's default grid (L = 32 pi, M = 4096, dt = 2e-4) with
# the horizon shortened from 1 to 0.25 (1250 steps), so that one worker
# takes about 3 s and a run holds a dozen of them.
SOLVE_M4096_CONFIG = "solver.T = 0.25\n"

# picard, part 1: the C_CONTRACTION probe measurement of scripts/calibrate.py.
PROBE_L, PROBE_M = 8.0 * math.pi, 256
N_ROUGH_PROBES = 30
GAUSS_WIDTHS = (0.5, 1.0, 2.0)
HORIZONS = (0.25, 0.5, 1.0)
PROBE_NODES = 16
# picard, part 2: solve_picard on small random data on the contraction grid.
PICARD_L, PICARD_M = 16.0 * math.pi, 512
N_PICARD_SOLVES = 4
PICARD_L2 = 1e-2  # L^2 size of each datum; converges in 3 iterations
PICARD_T = 1.0


def op_names(workload):
    """Names of the operations one worker runs, in order."""
    if workload == "battery":
        return list(EXPECTED_EXIT)
    if workload == "solve-m4096":
        return ["solve"]
    probes = [f"rough{i}" for i in range(N_ROUGH_PROBES)]
    probes += [f"gauss{w:g}" for w in GAUSS_WIDTHS]
    names = [f"probe:{p}:T{T:g}" for p in probes for T in HORIZONS]
    names.append("calibrated_cs")
    names += [f"solve_picard:{i}" for i in range(N_PICARD_SOLVES)]
    return names


def prepare(workload, seed, root, out_dir):
    """Build the workload's inputs from `seed` and return its operations as
    a list of (name, zero-argument callable returning a dict of outputs)."""
    root = pathlib.Path(root)
    out_dir = pathlib.Path(out_dir)
    if workload == "battery":
        return _prepare_cli(
            {exp: (root / "configs" / f"{exp}.cfg").read_text()
             for exp in EXPECTED_EXIT}, seed, out_dir)
    if workload == "solve-m4096":
        return _prepare_cli({"solve": SOLVE_M4096_CONFIG}, seed, out_dir)
    if workload == "picard":
        return _prepare_picard(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _prepare_cli(configs, seed, out_dir):
    """One CLI run per experiment, as scripts/run_all_experiments.py makes
    them.  The configs use Gaussian data, so the seed only fills the
    `seed` key and the outputs do not depend on it."""
    from chenlee_lab import cli

    ops = []
    for exp, text in configs.items():
        cfg_path = out_dir / f"{exp}.cfg"
        cfg_path.write_text(text.rstrip("\n") + f"\nseed = {seed}\n")
        argv = [exp, "--config", str(cfg_path), "--out", str(out_dir / exp)]
        ops.append((exp, lambda argv=argv: {"rc": cli.main(argv)}))
    return ops


def _prepare_picard(seed):
    import numpy as np

    from chenlee_lab import calibration, core, limits, solver, spaces

    params = core.EquationParams(beta=1.0, eta=1.0)
    probe_grid = core.Grid(PROBE_L, PROBE_M)
    rng = np.random.default_rng(seed)
    probes = [(f"rough{i}", core.random_real_field(probe_grid, rng, spectral_decay=1.0))
              for i in range(N_ROUGH_PROBES)]
    probes += [(f"gauss{w:g}", core.SpectralField.from_function(
        probe_grid, lambda x, w=w: np.exp(-((x / w) ** 2)))) for w in GAUSS_WIDTHS]

    def bilinear_ratio(phi, T):
        # as scripts/calibrate.py: sup of the Duhamel term over the sup of
        # the linear trajectory squared, at 16 Chebyshev nodes
        times = solver.chebyshev_nodes(T, PROBE_NODES)
        states = [core.semigroup_apply(phi, t, params) for t in times]
        traj = solver.Trajectory(times, states, params)
        sup_lin = max(spaces.l2_norm(u) for u in states)
        sup_duh = max(spaces.l2_norm(solver.duhamel_integral(traj, t, check=False))
                      for t in times[1:])
        return {"ratio": sup_duh / (T ** 0.25 * sup_lin ** 2),
                "bound": calibration.C_CONTRACTION}

    ops = [(f"probe:{name}:T{T:g}", lambda phi=phi, T=T: bilinear_ratio(phi, T))
           for name, phi in probes for T in HORIZONS]
    ops.append(("calibrated_cs", lambda: {
        "cs": limits.calibrated_cs(probe_grid, s=2.0),
        "frozen": calibration.C_KATO_S2}))

    picard_grid = core.Grid(PICARD_L, PICARD_M)
    config = solver.SolverConfig(dt=1e-3, T=PICARD_T)

    def picard_solve(phi):
        traj = solver.solve_picard(phi, params, config, s=0.0)
        mass = np.array([u.coeffs[0] for u in traj.states])
        return {"iterations": len(traj.info["diffs"]),
                "max_iterations": config.picard_max_iters,
                "max_ratio": max(traj.info["ratios"], default=0.0),
                "residual": traj.info["residual"],
                "mass_drift": float(np.abs(mass - phi.coeffs[0]).max()),
                "final_l2": spaces.l2_norm(traj.final_state())}

    for i in range(N_PICARD_SOLVES):
        phi = core.random_real_field(picard_grid, rng, spectral_decay=2.0)
        phi = phi * (PICARD_L2 / spaces.l2_norm(phi))
        ops.append((f"solve_picard:{i}", lambda phi=phi: picard_solve(phi)))
    return ops
