"""Out-of-range sweep and solver inputs are config errors: the CLI exits 2
with a message naming the key, before any experiment runs."""
import pytest

from chenlee_lab import config
from chenlee_lab.cli import main
from chenlee_lab.config import ConfigError, parse_config

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
