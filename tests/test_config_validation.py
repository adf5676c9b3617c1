"""Out-of-range sweep and solver inputs are config errors: the CLI exits 2
with a message naming the key, before any experiment runs."""
import dataclasses
import json
import pathlib
import re
import time

import numpy as np
import pytest

from chenlee_lab import config
from chenlee_lab.cli import main
from chenlee_lab.config import ConfigError, build_initial_data, parse_config, validate
from chenlee_lab.core import EquationParams, Grid, SpectralField
from chenlee_lab.flowderiv import IllposedData, illposed_growth_c2_nd, illposed_growth_c3
from chenlee_lab.limits import LimitSweepConfig
from chenlee_lab.solver import SolverConfig

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

BAD_CONFIGS = {
    "sweep-values-not-decreasing": ("beta-limit", "sweep.values",
                                    "sweep.values = 0.1, 0.2, 0.3, 0.4"),
    "illposed-N-below-32": ("illposed-c3", "illposed.N",
                            "illposed.N = 16, 32, 64, 128"),
    "illposed-N-too-few": ("illposed-c3", "illposed.N",
                           "illposed.N = 64, 128, 256"),
    "picard-max-iters-zero": ("contraction", "solver.picard_max_iters",
                              "solver.picard_max_iters = 0"),
    "picard-tol-zero": ("contraction", "solver.picard_tol", "solver.picard_tol = 0"),
    # the default grid has M = 4096: mode 2048 is the zeroed Nyquist slot, and
    # mode 5000 would alias to mode 904
    "data-mode-nyquist": ("solve", "data.mode",
                          "data.kind = single-mode\ndata.mode = 2048"),
    "data-mode-negative-nyquist": ("solve", "data.mode",
                                   "data.kind = single-mode\ndata.mode = -2048"),
    "data-mode-aliased": ("solve", "data.mode",
                          "data.kind = single-mode\ndata.mode = 5000"),
    # 1e300 here ended in a traceback (exit 1): geomspace over reversed or
    # negative times gave non-finite fields, and N^(-s) an OverflowError
    "smoothing-times-reversed": ("smoothing", "smoothing.t_min", "smoothing.t_min = 1e300"),
    "smoothing-t-max-negative": ("smoothing", "smoothing.t_max", "smoothing.t_max = -1e300"),
    "illposed-amplitude-overflows": ("illposed-c3", "illposed.s", "illposed.s = -1e300"),
    # 312.5 steps: the stepper took 312 of 0.25/312 while the run echoed 8e-4
    "solver-steps-not-whole": ("solve", "solver.dt", "solver.T = 0.25\nsolver.dt = 8e-4"),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_bad_sweep_input_exits_2(case, tmp_path, capsys):
    experiment, key, line = BAD_CONFIGS[case]
    with pytest.raises(ConfigError, match=key):
        parse_config(line + "\n")
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    rc = main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "out").exists()



def test_data_mode_checked_on_the_quick_grid(tmp_path, capsys):
    # mode 200 fits grid.M = 1024, but --quick shrinks the grid to M = 256,
    # whose Nyquist mode is 128
    text = "grid.M = 1024\ndata.kind = single-mode\ndata.mode = 200\n"
    assert parse_config(text).data_mode == 200
    path = tmp_path / "quick.cfg"
    path.write_text(text)
    rc = main(["solve", "--config", str(path), "--quick", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "data.mode" in err
    assert not (tmp_path / "out").exists()


# every key read as floats (a plain float, or a tuple of them)
_FLOAT_KEYS = [key for key, f in config._FIELDS.items()
               if isinstance(f.default, (float, tuple))]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_value_is_a_config_error(key, bad):
    # NaN passes every range check (each comparison is false), and an
    # infinity passes the one-sided ones; both are refused where the value
    # is read, with its key and line, in a tuple entry too
    value = f"64, 128, {bad}, 512" if isinstance(config._FIELDS[key].default, tuple) else bad
    with pytest.raises(ConfigError, match=rf"line 2: bad value for '{key}'.*finite"):
        parse_config(f"# a non-finite value\n{key} = {value}\n")


def test_non_finite_grid_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text("grid.M = 256\ngrid.L = nan\nsolver.T = 0.01\n")
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid.L" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
@pytest.mark.parametrize("big", ["1e300", "-1e300"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_huge_value_builds_a_finite_datum_or_is_a_config_error(key, big):
    # +-1e300 are finite, so they are read; each tuned config with one such
    # edit either raises ConfigError naming the key, in validation or where
    # its datum is built, or builds a finite datum.  Nothing runs at these
    # values: a huge step count or grid would allocate without bound
    value = f"64, 128, {big}, 512" if isinstance(config._FIELDS[key].default, tuple) else big
    for path in sorted(CONFIGS.glob("*.cfg")):
        try:
            cfg = parse_config(f"{path.read_text()}\n{key} = {value}\n")
            validate(cfg)
            phi = build_initial_data(cfg)
        except ConfigError as exc:
            assert key.split(".", 1)[1] in str(exc), (path.name, str(exc))
            continue
        assert np.isfinite(phi.coeffs.view(np.float64)).all(), path.name


# the verdict thresholds that were float keys until each became a module
# constant beside its verdict
_REMOVED_THRESHOLD_KEYS = [
    "check.mass_tolerance", "check.yacasi_tolerance", "check.energy_residual_tolerance",
    "check.contraction_ratio_max", "check.contraction_residual_max",
    "check.agreement_tolerance", "smoothing.tolerance", "illposed.tolerance",
    "sweep.tolerance",
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300", "-1e300"])
@pytest.mark.parametrize("key", _REMOVED_THRESHOLD_KEYS)
def test_a_removed_threshold_key_is_unknown_at_any_value(key, value):
    # the non-finite and huge values the float keys are checked at: a removed
    # key is refused by its name before its value is read, so a NaN is not
    # "bad value" but "unknown key", on the line that names it, in every
    # tuned config
    assert key not in config._FIELDS
    for path in sorted(CONFIGS.glob("*.cfg")):
        text = path.read_text().rstrip("\n") + "\n"
        line = text.count("\n") + 1
        with pytest.raises(ConfigError) as exc:
            parse_config(f"{text}{key} = {value}\n")
        assert str(exc.value) == f"line {line}: unknown key {key!r}", path.name


@pytest.mark.parametrize("line", ["solver.T = 1e300", "solver.dt = 1e-300"])
def test_unrepresentable_step_count_is_a_config_error(line):
    # T/dt = 5e303 and 1e300 steps: the stepper's list of kept steps
    # raised OverflowError (exit 1) at the first of them
    with pytest.raises(ConfigError, match=r"solver\.T / solver\.dt = (5e\+303|1e\+300) steps"):
        parse_config(line + "\n")


def test_kept_states_beyond_physical_memory_are_a_config_error(monkeypatch):
    # a streamed run holds 1280 bytes of report rows per kept state and 3800
    # bytes of workspace per grid point: the default run keeps 251 states (1 s
    # in steps of 2e-4, every 20th and the last) on 4096 points, and every
    # step kept, 5001
    for cfg, kept in ((config.RunConfig(), 251), (config.RunConfig(solver_keep_every=1), 5001)):
        run_bytes = kept * 1280 + 4096 * 3800
        monkeypatch.setattr(config, "_physical_memory", lambda: float(run_bytes))
        validate(cfg)
        monkeypatch.setattr(config, "_physical_memory", lambda: float(run_bytes - 1))
        with pytest.raises(ConfigError, match=rf"keep {kept} states on grid\.M = 4096 points"
                                              rf".*solver\.keep_every"):
            validate(cfg)


def test_decay_with_fewer_than_3_kept_states_exits_2(tmp_path, capsys, monkeypatch):
    # 2 steps of 1e-3, every 8th kept, keep the datum and u(T): too few for
    # the weighted energy's centered differences, refused before any grid
    # is built rather than raised from the energy table (exit 1)
    path = tmp_path / "short.cfg"
    path.write_text((CONFIGS / "decay.cfg").read_text()
                    + "solver.T = 0.002\nsolver.dt = 0.001\nsolver.keep_every = 8\n")
    monkeypatch.setattr(config, "Grid", None)
    assert main(["decay", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "keeps 2" in err
    assert "solver.keep_every" in err and "solver.T" in err
    assert not (tmp_path / "out").exists()
    # three kept states run, and pass
    path.write_text((CONFIGS / "decay.cfg").read_text()
                    + "solver.T = 0.002\nsolver.dt = 0.001\nsolver.keep_every = 1\n")
    monkeypatch.undo()
    assert main(["decay", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("experiment, lines, M", [
    # c3's grids grow like 1/epsilon, c2nd's like N^epsilon
    ("illposed-c3", "illposed.epsilon = 1e-9", 2 ** 36),
    ("illposed-c2nd", "illposed.epsilon = 0.9\nillposed.N = 64, 1e10, 1e20, 1e30", 2 ** 97),
])
def test_growth_sweep_beyond_physical_memory_exits_2(experiment, lines, M, tmp_path, capsys):
    # the sweep's grid sizes are found by arithmetic and refused before any
    # grid is built: through parse_config where the config names the
    # experiment, and through the run's own validation where only the
    # command line does
    message = (rf"illposed\.epsilon = [\de.+-]+ and illposed\.N up to [\de.+-]+ need grids "
               rf"of up to M = {M} points \([\de.+]+ GiB\), more than .* physical memory")
    with pytest.raises(ConfigError, match=message):
        parse_config(f"experiment = {experiment}\n{lines}\n")
    path = tmp_path / "big.cfg"
    path.write_text(lines + "\n")
    start = time.perf_counter()
    rc = main([experiment, "--config", str(path), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 0.1
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and re.search(message, err)
    assert not (tmp_path / "out").exists()


def test_growth_sweep_memory_counts_every_grid(monkeypatch):
    # the tuned c3 sweep's five grids of 1024 points hold 112 bytes per
    # point at most: refused only below that
    cfg = parse_config((CONFIGS / "illposed-c3.cfg").read_text())
    held = 112 * 5 * 1024
    monkeypatch.setattr(config, "_physical_memory", lambda: float(held))
    validate(cfg)
    monkeypatch.setattr(config, "_physical_memory", lambda: float(held - 1))
    with pytest.raises(ConfigError, match="up to M = 1024 points"):
        validate(cfg)


@pytest.mark.parametrize("experiment, per_point", [
    ("smoothing", 256), ("illposed-c3", 40), ("illposed-c2nd", 40)])
def test_runs_that_keep_no_state_are_charged_their_grid_alone(experiment, per_point,
                                                             monkeypatch):
    # solver.* would keep 1e9 states, which only a stepped run holds: these
    # runs are charged their bytes per grid.M point alone, and refused only
    # below them, where solve, with the same keys, is refused on its states
    cfg = parse_config((CONFIGS / f"{experiment}.cfg").read_text() + "grid.M = 1048576\n"
                       "solver.T = 1e6\nsolver.dt = 1e-3\nsolver.keep_every = 1\n")
    need = per_point * 1048576
    monkeypatch.setattr(config, "_physical_memory", lambda: float(need))
    validate(cfg)
    monkeypatch.setattr(config, "_physical_memory", lambda: float(need - 1))
    with pytest.raises(ConfigError, match=r"on grid\.M = 1048576 points would hold .* "
                                          r"physical memory; lower grid\.M$"):
        validate(cfg)
    monkeypatch.setattr(config, "_physical_memory", lambda: 2.0 ** 40)
    with pytest.raises(ConfigError, match="keep 1000000001 states on grid"):
        validate(dataclasses.replace(cfg, experiment="solve"))


def test_kept_states_are_checked_against_this_machines_memory():
    # a run on 2^30 points holds about 3.7 TiB; validate allocates none of it
    with pytest.raises(ConfigError, match="physical memory"):
        parse_config("grid.M = 1073741824\nsolver.keep_every = 1\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing norm warns
@pytest.mark.parametrize("text", ["data.amplitude = 0", "grid.L = 1e300"])
def test_datum_without_an_h2_norm_is_a_config_error(text):
    # data.normalize_h2 divides by the datum's H^2 norm: zero for a zero
    # datum, infinite where the squares overflow
    cfg = parse_config((CONFIGS / "eta-limit.cfg").read_text() + "\n" + text + "\n")
    with pytest.raises(ConfigError, match="data.normalize_h2"):
        build_initial_data(cfg)


# one run per exit code: a small solve as it is (0) or with one 1e300 edit,
# and the tuned eta-limit under --quick, whose rate clause fails by design (1)
_SMALL = "grid.L = 25.132741228718345\ngrid.M = 256\nsolver.T = 0.01\n"
_EXIT_CODES = {
    "passes": (0, ["solve"], _SMALL),
    "fails-its-check": (1, ["eta-limit", "--quick"], (CONFIGS / "eta-limit.cfg").read_text()),
    "step-count": (2, ["solve"], _SMALL + "solver.T = 1e300"),
    "non-finite-datum": (2, ["solve"], _SMALL + "grid.L = 1e300\ndata.kind = random"),
    "blows-up": (3, ["solve"], _SMALL + "data.amplitude = 1e300"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up and the datum overflow
@pytest.mark.parametrize("case", list(_EXIT_CODES))
def test_cli_exit_codes(case, tmp_path, capsys):
    code, args, text = _EXIT_CODES[case]
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    out = tmp_path / "out"
    assert main([*args, "--config", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error:")
    if code == 3:
        assert json.loads((out / "error.json").read_text())["error"] == "SolverBlowupError"


def test_smoothing_past_the_semigroups_overflow_exits_2(tmp_path, capsys):
    # at eta = 1 the instability band's e^(eta t/4) overflows past t = 2839:
    # S(t) phi was 0 * inf = NaN on the datum's empty modes, a ValueError
    # traceback (exit 1); the run refuses it before taking a norm
    path = tmp_path / "late.cfg"
    path.write_text("grid.M = 256\nsmoothing.t_max = 1e4\n")
    rc = main(["smoothing", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: smoothing.t_max") and "past t = 2839" in err


# one row per rule that a library type owns: the config text that breaks
# it, the key its ConfigError names, and the library call that refuses the
# same value (with the default config's other values)
_DEFAULT_GRID = (32.0 * np.pi, 4096)
OWNED_RULES = {
    "grid-L-positive": ("grid.L = -1", "grid.L", lambda: Grid(-1.0, 4096)),
    "grid-M-power-of-two": ("grid.M = 100", "grid.M", lambda: Grid(32.0 * np.pi, 100)),
    "eq-beta-non-negative": ("eq.beta = -1", "eq.beta", lambda: EquationParams(beta=-1.0)),
    "eq-eta-non-negative": ("eq.eta = -1", "eq.eta", lambda: EquationParams(eta=-1.0)),
    "solver-dt-positive": ("solver.dt = -1", "solver.dt", lambda: SolverConfig(dt=-1.0)),
    "solver-dt-within-T": ("solver.dt = 2", "solver.dt", lambda: SolverConfig(dt=2.0)),
    # 1e300 steps: accepted by SolverConfig before it owned the step count
    "solver-step-count": ("solver.dt = 1e-300", "solver.T / solver.dt",
                          lambda: SolverConfig(dt=1e-300, T=1.0)),
    "solver-keep-every": ("solver.keep_every = 0", "solver.keep_every",
                          lambda: SolverConfig(keep_every=0)),
    "solver-picard-max-iters": ("solver.picard_max_iters = 0", "solver.picard_max_iters",
                                lambda: SolverConfig(picard_max_iters=0)),
    "solver-picard-tol": ("solver.picard_tol = 0", "solver.picard_tol",
                          lambda: SolverConfig(picard_tol=0.0)),
    "data-mode-below-nyquist": ("data.kind = single-mode\ndata.mode = -2048", "data.mode",
                                lambda: SpectralField.single_mode(Grid(*_DEFAULT_GRID), -2048)),
    "illposed-epsilon": ("illposed.epsilon = 1", "illposed.epsilon",
                         lambda: IllposedData(N=64.0, epsilon=1.0, gamma=64.0, s=-0.8)),
    "illposed-s-negative": ("illposed.s = 0", "illposed.s",
                            lambda: IllposedData(N=64.0, epsilon=0.1, gamma=6.4, s=0.0)),
    # N^(-s) overflows: IllposedData accepted it, and its amplitude raised
    # OverflowError
    "illposed-s-overflow": ("illposed.s = -1e300", "illposed.s",
                            lambda: IllposedData(N=64.0, epsilon=0.1, gamma=6.4, s=-1e300)),
    "illposed-N-at-least-32": ("illposed.N = 16, 32, 64, 128", "illposed.N",
                               lambda: IllposedData(N=16.0, epsilon=0.1, gamma=1.6, s=-0.8)),
    "illposed-N-at-least-4": ("illposed.N = 64, 128, 256", "illposed.N",
                              lambda: illposed_growth_c3(-0.8, 0.1, (64.0, 128.0, 256.0),
                                                         EquationParams())),
    "illposed-N-increasing": ("illposed.N = 64, 128, 128, 256", "illposed.N",
                              lambda: illposed_growth_c2_nd(-0.8, 0.1, (64.0, 128.0, 128.0, 256.0),
                                                            eta=1.0)),
    "sweep-values": ("sweep.values = 0.1, 0.2, 0.3, 0.4", "sweep.values",
                     lambda: LimitSweepConfig(phi=SpectralField.zero(Grid(*_DEFAULT_GRID)),
                                              sweep_values=(0.1, 0.2, 0.3, 0.4),
                                              solver=SolverConfig())),
}


@pytest.mark.parametrize("case", list(OWNED_RULES))
def test_each_rule_is_the_library_types_own(case):
    # the config refuses a value by building the type that takes it: its
    # message is the library's, with the group's keys written in full
    text, key, build = OWNED_RULES[case]
    with pytest.raises(ConfigError, match=re.escape(key)) as refused:
        parse_config(text + "\n")
    with pytest.raises(ValueError) as owned:
        build()
    assert not isinstance(owned.value, ConfigError)
    group = key.split(".", 1)[0] + "."
    assert str(refused.value).replace(group, "") == str(owned.value)


# the tuned configs' single +-1e300 edits that ended in a traceback (exit 1):
# norms that vanish or overflow admit no log-log fit, a failed verdict; a
# negative gain in smoothing.lambdas and a zero contraction horizon are
# config errors
_HUGE_EDITS = [
    ("beta-limit", "grid.L = 1e300", 1),
    ("beta-limit", "data.width = 1e300", 1),
    ("beta-limit", "sweep.s = -1e300", 1),
    ("eta-limit", "data.width = 1e300", 1),
    ("eta-limit", "sweep.s = -1e300", 1),
    ("illposed-c3", "eq.beta = 1e300", 1),
    ("smoothing", "grid.L = 1e300", 1),
    ("smoothing", "smoothing.lambdas = 0.5, -1e300, 2", 2),
    ("contraction", "grid.L = 1e300", 2),
    ("contraction", "data.amplitude = 1e300", 2),
    ("contraction", "data.amplitude = -1e300", 2),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the norms' overflow
@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
@pytest.mark.parametrize("experiment, edit, code", _HUGE_EDITS,
                         ids=[f"{e}:{t.replace(' ', '')}" for e, t, _ in _HUGE_EDITS])
def test_huge_edit_exits_without_a_traceback(experiment, edit, code, tmp_path, capsys):
    path = tmp_path / "huge.cfg"
    path.write_text(f"{(CONFIGS / f'{experiment}.cfg').read_text()}\n{edit}\n")
    out = tmp_path / "out"
    assert main([experiment, "--config", str(path), "--quick", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 1:  # the run ran: its verdict says why it failed
        assert captured.out.startswith(f"[FAIL] {experiment}: log-log fit needs positive finite")
        assert json.loads((out / "error.json").read_text())["error"] == "FitError"
    else:
        key = edit.split(" =")[0]
        assert captured.err.startswith("config error:") and key in captured.err
