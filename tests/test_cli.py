"""Config parsing, initial-data construction, and the CLI contract:
exit codes, output files and determinism."""
import dataclasses
import hashlib
import importlib.util
import json
import pathlib
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from chenlee_lab import cli, config, flowderiv, limits, solver
from chenlee_lab.cli import _apply_quick, build_parser, main, run_experiment
from chenlee_lab.config import (
    ConfigError,
    RunConfig,
    build_initial_data,
    config_echo,
    parse_config,
)
from chenlee_lab.core import Grid, semigroup_apply
from chenlee_lab.report import format_value
from chenlee_lab.spaces import l2_norm, sobolev_norm

SMOOTHING_CFG = """\
# fast smoothing run
experiment = smoothing
grid.L = 12.566370614359172
grid.M = 1024
smoothing.lambdas = 0.5,1.0
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_valid_defaults():
    cfg = parse_config("")
    assert cfg.experiment == "solve"
    assert cfg.grid_M == 4096
    assert cfg.explicit_keys == set()


def test_parse_records_explicit_keys():
    cfg = parse_config("eq.beta = 0.5\nseed = 3\n")
    assert cfg.eq_beta == 0.5 and cfg.seed == 3
    assert cfg.explicit_keys == {"eq.beta", "seed"}


def test_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match=r"line 2.*'betaa'"):
        parse_config("eq.eta = 1\nbetaa = 2\n")


def test_bad_value_with_line_number():
    with pytest.raises(ConfigError, match=r"line 1.*'grid.M'"):
        parse_config("grid.M = lots\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match=r"line 3"):
        parse_config("# comment\n\neq.beta 0.5\n")


def test_validation_names_fields():
    with pytest.raises(ConfigError, match="eta"):
        parse_config("eq.eta = -1\n")
    with pytest.raises(ConfigError, match="grid.M"):
        parse_config("grid.M = 100\n")
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("experiment = frobnicate\n")
    with pytest.raises(ConfigError, match="solver.dt"):
        parse_config("solver.dt = 2.0\nsolver.T = 1.0\n")


def test_comments_and_lists():
    cfg = parse_config("smoothing.lambdas = 0.5, 1.0, 2.0  # three gains\n"
                       "eq.nonlinear = false\n")
    assert cfg.smoothing_lambdas == (0.5, 1.0, 2.0)
    assert cfg.eq_nonlinear is False


def test_config_echo_roundtrips_keys():
    echo = config_echo(RunConfig())
    assert echo["grid.M"] == 4096
    assert echo["eq.beta"] == 1.0
    assert isinstance(echo["smoothing.lambdas"], list)


def test_each_key_is_its_fields_name():
    # a key is its RunConfig field's name with the first '_' written as '.',
    # one to one; the field's spelling is not a key, and each default has a
    # type the parser reads
    names = [f.name for f in dataclasses.fields(RunConfig)]
    keys = list(config_echo(RunConfig()))
    assert keys == [name.replace("_", ".", 1) for name in names]
    assert len(set(keys)) == len(keys) == len(names)
    assert {key: f.name for key, f in config._FIELDS.items()} == dict(zip(keys, names))
    for f in dataclasses.fields(RunConfig):
        assert type(f.default) in (bool, int, float, str, tuple), f.name
        if "_" in f.name:
            with pytest.raises(ConfigError, match=rf"line 1: unknown key '{f.name}'"):
                parse_config(f"{f.name} = 1\n")


# sha256 (first 16 hex digits) of each tuned config's sorted config_echo, as
# recorded when every key was still declared in a separate key table; those
# of solve, beta-limit, contraction and eta-limit again when the step guard
# came to judge only the band a run populates and their steps were coarsened
# to what it and the output contract's dt-against-dt/2 bound admit
TUNED_ECHO_DIGESTS = {
    "beta-limit": "120a223b76e9de4c",
    "contraction": "ded65911e1fdb72c",
    "decay": "0e50bd5458a07de2",
    "eta-limit": "365542749f7d0acd",
    "illposed-c2nd": "880d00466ec3c6f1",
    "illposed-c3": "e4af87e8df1f0c99",
    "smoothing": "ee1ad70a4f8e868e",
    "solve": "57221b9a6b95dda0",
}


# the verdict thresholds that were keys, each with the module constant that
# replaced it: folded back into an echo, they give the digests above
REMOVED_THRESHOLDS = {
    "check.mass_tolerance": cli.MASS_TOLERANCE,
    "check.yacasi_tolerance": cli.YACASI_TOLERANCE,
    "check.energy_residual_tolerance": cli.ENERGY_RESIDUAL_TOLERANCE,
    "check.contraction_ratio_max": cli.CONTRACTION_RATIO_MAX,
    "check.contraction_residual_max": cli.CONTRACTION_RESIDUAL_MAX,
    "check.agreement_tolerance": cli.AGREEMENT_TOLERANCE,
    "smoothing.tolerance": cli.SMOOTHING_TOLERANCE,
    "illposed.tolerance": flowderiv.SLOPE_TOLERANCE,
    "sweep.tolerance": limits.SLOPE_TOLERANCE,
}


@pytest.mark.parametrize("experiment", list(TUNED_ECHO_DIGESTS))
def test_tuned_config_echo_is_unchanged(experiment):
    echo = config_echo(parse_config((RUN_ALL.CONFIG_DIR / f"{experiment}.cfg").read_text()))
    echo.update(REMOVED_THRESHOLDS)
    digest = hashlib.sha256(json.dumps(echo, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == TUNED_ECHO_DIGESTS[experiment]


@pytest.mark.parametrize("key", list(REMOVED_THRESHOLDS))
def test_a_removed_threshold_key_is_refused(key, tmp_path, capsys):
    # even at its constant, the value two tuned configs once set
    path = _write(tmp_path, f"grid.M = 256\n{key} = {REMOVED_THRESHOLDS[key]}\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: line 2: unknown key {key!r}\n"
    assert not (tmp_path / "out").exists()


def test_readme_lists_every_key():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The keys:", 1)[1].split("```")[1]
    # every key is listed, and every listed word but data.kind's choices is a key
    listed = {word for word in block.replace("(", " ").split() if "|" not in word}
    assert listed == set(config_echo(RunConfig()))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_initial_data_kinds():
    base = dict(grid_L=8 * np.pi, grid_M=256)
    g = build_initial_data(RunConfig(data_kind="gaussian", **base))
    s = build_initial_data(RunConfig(data_kind="single-mode", **base))
    r = build_initial_data(RunConfig(data_kind="random", **base))
    b = build_initial_data(RunConfig(data_kind="rough-band", **base))
    for phi in (g, s, r, b):  # real fields: each mode the conjugate of its partner
        c = phi.coeffs
        mirror = np.conj(c[phi.grid.mode_index(-phi.grid.modes)])
        assert np.abs(c - mirror).max() <= 1e-10 * np.abs(c).max()
    r2 = build_initial_data(RunConfig(data_kind="random", **base))
    assert np.array_equal(r.coeffs, r2.coeffs)  # seeded
    # rough-band: |phi_hat| ~ |xi|^{-1/2} on the band
    pos = b.grid.xi > 1.0
    nz = np.abs(b.coeffs[pos]) > 0
    xi = b.grid.xi[pos][nz]
    assert np.allclose(np.abs(b.coeffs[pos][nz]),
                       RunConfig().data_amplitude * xi ** -0.5)


def test_initial_data_h2_normalization():
    cfg = RunConfig(grid_L=8 * np.pi, grid_M=256, data_normalize_h2=True)
    phi = build_initial_data(cfg)
    assert sobolev_norm(phi, 2.0) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------

def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)

def test_cli_pass_run_and_outputs(tmp_path):
    cfg = _write(tmp_path, SMOOTHING_CFG)
    out = tmp_path / "out"
    rc = main(["smoothing", "--config", cfg, "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "smoothing"
    assert manifest["passed"] is True
    for name in manifest["reports"]:
        assert (out / name).exists()


def test_cli_determinism(tmp_path):
    cfg = _write(tmp_path, SMOOTHING_CFG)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    a = (outs[0] / "smoothing.csv").read_bytes()
    b = (outs[1] / "smoothing.csv").read_bytes()
    assert a == b
    assert b"\r\n" in a  # fixed line terminator


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["no-such-experiment"]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = _write(tmp_path, "betaa = 1\n", "bad.cfg")
    assert main(["solve", "--config", bad]) == 2
    assert "line 1" in capsys.readouterr().err
    cfg = _write(tmp_path, "experiment = decay\n", "mismatch.cfg")
    assert main(["solve", "--config", cfg]) == 2
    capsys.readouterr()
    assert main(["smoothing", "--config", _write(tmp_path, SMOOTHING_CFG),
                 "--jobs", "2"]) == 2  # removed: the process count follows the CPUs
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_help_names_the_run_config_defaults(capsys):
    # every default --help states, read back as a config file, is RunConfig's
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: chenlee-lab")
    text = " ".join(build_parser().description.split())
    pairs = dict(item.split("=") for item in
                 text.split("defaults are ", 1)[1].rstrip(".").split(", "))
    assert {"grid.M", "solver.dt", "solver.T"} <= set(pairs)
    pairs["grid.L"] = repr(float(pairs["grid.L"].removesuffix("*pi")) * np.pi)
    cfg = parse_config("".join(f"{key} = {value}\n" for key, value in pairs.items()))
    assert cfg.explicit_keys == set(pairs)
    assert cfg == RunConfig()


def test_cli_cfl_violation_is_config_error(tmp_path, capsys):
    # the width-1 Gaussian populates |xi| <= 12.75 on this grid (u u_x's
    # edge), where dt = 0.05 gives dt * |q| = 8.13: exit 2, and a message
    # that names dt, the band's |xi|, dt * |q| there and the dt to take
    cfg = _write(tmp_path, "experiment = solve\ngrid.L = 12.566370614359172\n"
                           "grid.M = 1024\nsolver.dt = 0.05\nsolver.T = 0.1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: dt=5.000e-02 does not resolve the fastest populated linear phase: "
        "dt*|q| = 8.128 > 1 at |xi| = 12.75, the largest frequency where the datum or its "
        "nonlinear term exceeds 1e-08 of its peak; lower solver.dt to at most 6.151e-03\n")
    assert not (tmp_path / "o").exists()


def test_cli_refuses_a_rough_datum(tmp_path, capsys):
    # the planted rough datum through the CLI: data.kind = random, whose
    # |phi_hat| ~ |xi|^-2 stays far above 1e-8 of its peak up to xi_max,
    # populates every mode, so at dt * max|q| = 4 over the grid it is refused
    L, M = 8.0 * np.pi, 256
    dt = 4.0 / Grid.xi_max_of(L, M) ** 2
    cfg = _write(tmp_path, f"experiment = solve\ngrid.L = {L!r}\ngrid.M = {M}\n"
                           f"data.kind = random\nsolver.dt = {dt!r}\nsolver.T = {10 * dt!r}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "dt*|q| = 4.000 > 1 at |xi| = 15.88," in capsys.readouterr().err


def test_cli_refuses_a_step_that_moves_a_gated_figure(tmp_path, monkeypatch):
    # the planted under-resolved step: the tuned beta-limit config at
    # dt = 0.25, every step kept, is refused with exit 2 (dt * |q| = 16.6
    # on the populated band).  With the guard taken out it runs, and its
    # gated sup_error moves from the tuned run by 2.0e-6 by the resolution
    # ladder's cell formula, past the ladder's BOUND
    text = (RUN_ALL.CONFIG_DIR / "beta-limit.cfg").read_text()
    coarse = re.sub(r"^solver\.dt = .*$", "solver.dt = 0.25", text, flags=re.M)
    coarse = re.sub(r"^solver\.keep_every = .*$", "solver.keep_every = 1", coarse, flags=re.M)
    assert main(["beta-limit", "--config", _write(tmp_path, coarse),
                 "--out", str(tmp_path / "refused")]) == 2
    assert not (tmp_path / "refused").exists()
    monkeypatch.setattr(solver, "_check_step", lambda *args: None)
    tables = {}
    for name, run_text in (("tuned", text), ("coarse", coarse)):
        assert LADDER.run(parse_config(run_text), tmp_path / name)[0] == 0
        tables[name] = LADDER.figures(tmp_path / name)
    gated = LADDER.GATED["beta-limit"]
    moved = max(LADDER.change(tables["coarse"].get(key), cells, *key)
                for key, cells in tables["tuned"].items() if key[1] in gated)
    assert moved > LADDER.BOUND, moved


def test_cli_linear_solve_is_the_semigroup(tmp_path):
    # a linear solve is S(t)phi: its zero mode does not move (E(0, t) = 1),
    # so it passes the mass check, and its l2 column prints the norms of
    # semigroup_apply; too large a dt is still a config error
    text = ("experiment = solve\ngrid.L = 25.132741228718345\ngrid.M = 256\n"
            "eq.nonlinear = false\nsolver.dt = 1e-3\nsolver.T = 0.5\n"
            "solver.keep_every = 100\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:lines.index("")]]
    summary = dict(line.split(",") for line in lines[lines.index("") + 1:])
    assert float(summary["mass_drift"]) == 0.0 and summary["passed"] == "true"
    cfg = parse_config(text)
    phi, params = build_initial_data(cfg), cfg.equation_params()
    times = [n * 1e-3 for n in range(0, 501, 100)]  # the kept steps times dt
    assert [row[0] for row in rows] == [format_value(t) for t in times]
    assert [row[1] for row in rows] == [
        format_value(l2_norm(semigroup_apply(phi, t, params))) for t in times]
    too_large = _write(tmp_path, text.replace("solver.dt = 1e-3", "solver.dt = 0.05"), "cfl.cfg")
    assert main(["solve", "--config", too_large, "--out", str(tmp_path / "c")]) == 2


def test_cli_solve_never_holds_its_trajectory(tmp_path):
    # a solve reduces each block of kept states to its CSV rows as it is
    # stepped: keeping all 501 states of M = 1024 (keep_every = 1), the
    # run's traced peak stays below the one (K, M) array that holding them
    # would take
    text = ("experiment = solve\ngrid.L = 50.26548245743669\ngrid.M = 1024\n"
            "data.amplitude = 0.5\nsolver.dt = 8e-4\nsolver.T = 0.4\n"
            "solver.keep_every = 1\n")
    cfg, out = _write(tmp_path, text), tmp_path / "o"
    stack_bytes = np.empty((501, 1024), dtype=np.complex128).nbytes
    tracemalloc.start()
    try:
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines.index("") == 1 + 501  # the header and one row per kept state
    assert peak < stack_bytes


@pytest.mark.parametrize("experiment, kept", [("decay", 601), ("contraction", 501)])
def test_cli_decay_and_contraction_never_hold_their_runs(experiment, kept, tmp_path):
    # decay reduces each block of kept states to both tables' rows as it is
    # stepped, and contraction keeps the last state alone: with every state
    # kept (keep_every = 1), each tuned run's traced peak stays below the
    # one (K, M) array that holding its stepper run would take
    root = pathlib.Path(__file__).resolve().parents[1]
    text = (root / "configs" / f"{experiment}.cfg").read_text() + "solver.keep_every = 1\n"
    path, out = _write(tmp_path, text), tmp_path / "o"
    stack_bytes = np.empty((kept, parse_config(text).grid_M), dtype=np.complex128).nbytes
    tracemalloc.start()
    try:
        assert main([experiment, "--config", path, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if experiment == "decay":
        lines = (out / "decay.csv").read_text().splitlines()
        assert lines.index("") == 1 + kept  # the header and one row per kept state
    assert peak < stack_bytes


@pytest.mark.filterwarnings("ignore")  # the run is meant to blow up noisily
def test_cli_numerical_failure_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "experiment = solve\ngrid.L = 100.53096491487338\n"
                           "grid.M = 256\ndata.kind = single-mode\n"
                           "data.amplitude = 2e6\nsolver.dt = 1e-5\n"
                           "solver.T = 2e-4\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["experiment"] == "solve"
    assert 0.0 < record["t_blowup"] <= 2e-4
    assert "FAIL" in capsys.readouterr().err


def test_cli_quick_scales_grid(tmp_path):
    # quick mode shrinks the grid for solver experiments...
    # wide bump: stays spectrally resolved even on the quick-mode grid
    cfg = parse_config("grid.M = 1024\nsolver.T = 0.2\nsolver.dt = 1e-3\n"
                       "data.amplitude = 0.1\ndata.width = 4.0\n")
    cfg.experiment = "solve"
    out = tmp_path / "o"
    assert run_experiment(cfg, str(out), quick=True) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["quick"] is True
    assert manifest["config"]["grid.M"] == 256
    # ...but keeps the smoothing grid (the asymptotics need the full band)
    cfg2 = parse_config(SMOOTHING_CFG)
    out2 = tmp_path / "o2"
    assert run_experiment(cfg2, str(out2), quick=True) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["config"]["grid.M"] == 1024


def _load_script(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN_ALL = _load_script("run_all_experiments")
LADDER = _load_script("ladder")


@pytest.mark.parametrize("experiment", LADDER.STEPPED)
def test_tuned_config_steps_a_whole_number_of_steps(experiment):
    # T is a whole number of time steps, as SolverConfig requires of every
    # config, and of kept intervals
    cfg = parse_config((RUN_ALL.CONFIG_DIR / f"{experiment}.cfg").read_text())
    for count in (cfg.solver_T / cfg.solver_dt,
                  cfg.solver_T / (cfg.solver_dt * cfg.solver_keep_every)):
        assert abs(count - round(count)) <= 1e-9, count


@pytest.mark.parametrize("fine, box, expected", [
    (4.13e-9, 0.0, "converged"),  # the stepper's largest gated move under fine
    (LADDER.BOUND, LADDER.BOUND, "converged"),
    (1.70e-4, 0.0, "dt-dependent"),  # the same move with an IF-Euler update
    (4.13e-9, 2e-6, "box-dependent"),
], ids=["if_rk4", "at_bound", "if_euler", "box"])
def test_ladder_labels_a_move_against_its_bound(fine, box, expected):
    assert LADDER.BOUND == 1e-6
    assert LADDER.label(fine, box) == expected


def test_ladder_counts_a_lost_figure_as_a_mismatch():
    # a figure the rung did not write, or wrote over other rows, fails the gate
    tuned = ["1.0", "2.0"]
    assert LADDER.change(tuned, tuned, "decay.csv", "mass_drift") == 0.0
    for cells in (None, ["1.0"]):
        moved = LADDER.change(cells, tuned, "decay.csv", "mass_drift")
        assert moved == LADDER.check.MISMATCH_DEV > LADDER.BOUND


def test_ladder_forms_the_coarse_rung_only_where_kept_times_match():
    # 2dt keeps the tuned run's kept times only where keep_every halves
    cfg = RunConfig(solver_dt=1e-3, solver_keep_every=8)
    coarse = LADDER.RUNGS["coarse"](cfg)
    assert (coarse.solver_dt, coarse.solver_keep_every) == (2e-3, 4)
    for odd in (1, 3, 5):
        assert LADDER.RUNGS["coarse"](dataclasses.replace(cfg, solver_keep_every=odd)) is None


@pytest.mark.parametrize("experiment, expected", list(RUN_ALL.EXPECTED.items()))
def test_every_tuned_config_passes_under_quick(experiment, expected, tmp_path):
    # each tuned config scaled by --quick exits with its documented code, as
    # scripts/run_all_experiments.py --quick expects (decay keeps its grid)
    cfg = parse_config((RUN_ALL.CONFIG_DIR / f"{experiment}.cfg").read_text())
    assert run_experiment(cfg, str(tmp_path / experiment), quick=True) == expected


@pytest.mark.parametrize("experiment", list(RUN_ALL.EXPECTED))
def test_a_finished_experiment_frees_its_grids(experiment, tmp_path, monkeypatch,
                                               refcounting_only):
    # every grid an experiment builds dies when the run returns, with the
    # memo tables stored on it; reference counting alone frees it
    refs, init = [], Grid.__post_init__

    def tracking(grid):
        init(grid)
        refs.append(weakref.ref(grid))

    monkeypatch.setattr(Grid, "__post_init__", tracking)
    cfg = parse_config((RUN_ALL.CONFIG_DIR / f"{experiment}.cfg").read_text())
    run_experiment(cfg, str(tmp_path), quick=True)
    assert refs and [ref() for ref in refs] == [None] * len(refs)


@pytest.mark.parametrize("M, quick_M", [(64, 64), (256, 256), (512, 256), (1024, 256)])
def test_quick_never_enlarges_a_grid(M, quick_M):
    # a quarter of the grid, but not below 256; a grid below 256 keeps its size
    cfg = parse_config(f"grid.M = {M}\n")
    assert _apply_quick(cfg).grid_M == quick_M


def test_quick_leaves_the_callers_config_alone(tmp_path):
    cfg = parse_config("grid.M = 1024\nsolver.T = 0.2\nsolver.dt = 1e-3\n"
                       "data.amplitude = 0.1\ndata.width = 4.0\n")
    cfg.experiment = "solve"
    before = config_echo(cfg)
    first, second = _apply_quick(cfg), _apply_quick(cfg)
    assert (first.solver_T, first.grid_M) == (second.solver_T, second.grid_M) == (0.05, 256)
    assert config_echo(cfg) == before
    # two quick runs from one parsed config run the same configuration
    echoes = []
    for name in ("a", "b"):
        assert run_experiment(cfg, str(tmp_path / name), quick=True) == 0
        echoes.append(json.loads((tmp_path / name / "manifest.json").read_text())["config"])
    assert echoes[0] == echoes[1] and echoes[0]["solver.T"] == 0.05
    assert config_echo(cfg) == before


def test_contraction_verdict_line_gives_its_figures(tmp_path, capsys):
    # contraction's summary is its verdict alone, so its line gives the
    # report row's figures by column name, .4g like every summary figure,
    # as contraction.csv writes them
    cfg = parse_config((RUN_ALL.CONFIG_DIR / "contraction.cfg").read_text())
    assert run_experiment(cfg, str(tmp_path)) == 0
    header, row = (tmp_path / "contraction.csv").read_text().splitlines()[:2]
    figures = ", ".join(f"{k}={float(v):.4g}" if "." in v else f"{k}={v}"
                        for k, v in zip(header.split(","), row.split(",")))
    assert figures.startswith("T=1, iterations=3, max_ratio=0.0002674, residual=")
    assert capsys.readouterr().out == f"[PASS] contraction: contraction: {figures}\n"
