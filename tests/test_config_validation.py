"""Out-of-range sweep and solver inputs are config errors: the CLI exits 2
with a message naming the key, before any experiment runs."""
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


@pytest.mark.parametrize("line", ["solver.T = 1e300", "solver.dt = 1e-300"])
def test_unrepresentable_step_count_is_a_config_error(line):
    # T/dt = 5e303 and 1e300 steps: the stepper's list of kept steps
    # raised OverflowError (exit 1) at the first of them
    with pytest.raises(ConfigError, match=r"solver\.T / solver\.dt = (5e\+303|1e\+300) steps"):
        parse_config(line + "\n")


def test_kept_states_beyond_physical_memory_are_a_config_error(monkeypatch):
    # the default run keeps 251 states (1 s in steps of 2e-4, every 20th
    # and the last) of 4096 complex128 modes: 16,449,536 bytes
    kept_bytes = 251 * 4096 * 16
    monkeypatch.setattr(config, "_physical_memory", lambda: float(kept_bytes))
    validate(config.RunConfig())
    monkeypatch.setattr(config, "_physical_memory", lambda: float(kept_bytes - 1))
    with pytest.raises(ConfigError, match=r"keep 251 states of grid\.M = 4096.*solver\.keep_every"):
        validate(config.RunConfig())


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
    # point at most: refused only below that (a short solver.T keeps the
    # unused trajectory estimate below it)
    cfg = parse_config((CONFIGS / "illposed-c3.cfg").read_text() + "solver.T = 0.01\n")
    held = 112 * 5 * 1024
    monkeypatch.setattr(config, "_physical_memory", lambda: float(held))
    validate(cfg)
    monkeypatch.setattr(config, "_physical_memory", lambda: float(held - 1))
    with pytest.raises(ConfigError, match="up to M = 1024 points"):
        validate(cfg)


def test_kept_states_are_checked_against_this_machines_memory():
    # 5001 states of 2^30 modes are 80 TiB; validate allocates none of it
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


# one small solve per exit code, each with one +-1e300 edit
_SMALL = "grid.L = 25.132741228718345\ngrid.M = 256\nsolver.T = 0.01\n"
_EXIT_CODES = {
    "passes": (0, "check.mass_tolerance = 1e300"),
    "fails-its-check": (1, "check.mass_tolerance = -1e300"),
    "step-count": (2, "solver.T = 1e300"),
    "non-finite-datum": (2, "grid.L = 1e300\ndata.kind = random"),
    "blows-up": (3, "data.amplitude = 1e300"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up and the datum overflow
@pytest.mark.parametrize("case", list(_EXIT_CODES))
def test_cli_exit_code_at_huge_values(case, tmp_path, capsys):
    code, text = _EXIT_CODES[case]
    path = tmp_path / "run.cfg"
    path.write_text(_SMALL + text + "\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == code
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
                                                         EquationParams(), tol=0.15)),
    "illposed-N-increasing": ("illposed.N = 64, 128, 128, 256", "illposed.N",
                              lambda: illposed_growth_c2_nd(-0.8, 0.1, (64.0, 128.0, 128.0, 256.0),
                                                            eta=1.0, tol=0.15)),
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
