"""Self-tests of the benchmark's output check.

    python3 -m pytest perfbench/test_check.py
"""
import pathlib
import shutil

import check

BATTERY = check.REFERENCE / "battery"


def test_selftest_cases():
    assert check.selftest() == []


def _copy_reference(tmp_path, experiment):
    out = tmp_path / experiment
    shutil.copytree(BATTERY / experiment, out)
    return out


def _edit(path, edit):
    path.write_bytes(edit(path.read_bytes().decode()).encode())


def test_reference_matches_itself(tmp_path):
    out = _copy_reference(tmp_path, "decay")
    results = check.compare_csvs(out, BATTERY / "decay")
    assert [name for name, _, _ in results] == ["decay.csv", "weighted_energy_rate.csv"]
    assert all(same and dev == 0.0 for _, same, dev in results)


def test_perturbed_csv_fails(tmp_path):
    out = _copy_reference(tmp_path, "beta-limit")
    path = out / "beta_limit.csv"
    # change one sup_error value in its 8th significant digit
    value = path.read_bytes().decode().splitlines()[1].split(",")[1]
    mantissa, exponent = value.split("e")
    bumped = f"{float(mantissa) * (1 + 1e-7):.12f}e{exponent}"
    _edit(path, lambda text: text.replace(value, bumped, 1))
    ok, reason, results = check.check_op(
        "battery", "beta-limit", {"error": None, "values": {"rc": 0}, "warnings": {}},
        tmp_path, {"beta-limit": 0}, {})
    assert not ok and "beta_limit.csv" in reason
    assert results == [("beta_limit.csv", False, results[0][2])]
    assert results[0][2] > check.RTOL


def test_missing_csv_fails(tmp_path):
    out = _copy_reference(tmp_path, "decay")
    (out / "weighted_energy_rate.csv").unlink()
    ok, reason, _ = check.check_op(
        "battery", "decay", {"error": None, "values": {"rc": 0}, "warnings": {}},
        tmp_path, {"decay": 0}, {})
    assert not ok and "weighted_energy_rate.csv" in reason


def test_contraction_roundoff_passes(tmp_path):
    out = _copy_reference(tmp_path, "contraction")

    def noisy(text):
        header, row, *rest = text.split("\r\n")
        cells = row.split(",")
        cells[3] = f"{float(cells[3]) * (1 + 3e-6):.12e}"  # residual, ~4e-18
        cells[4] = f"{float(cells[4]) * (1 + 2e-13):.12e}"  # agreement, ~5e-15
        return "\r\n".join([header, ",".join(cells), *rest])

    _edit(out / "contraction.csv", noisy)
    ok, reason, results = check.check_op(
        "battery", "contraction", {"error": None, "values": {"rc": 0}, "warnings": {}},
        tmp_path, {"contraction": 0}, {})
    assert ok, reason
    assert results[0][1] is False and results[0][2] <= check.RTOL


def test_wrong_exit_code_fails(tmp_path):
    _copy_reference(tmp_path, "eta-limit")
    ok, reason, _ = check.check_op(
        "battery", "eta-limit", {"error": None, "values": {"rc": 0}, "warnings": {}},
        tmp_path, {"eta-limit": 1}, {})
    assert not ok and "exit code" in reason


def test_picard_solve_invariants():
    good = {"iterations": 3, "max_iterations": 40, "max_ratio": 3e-4,
            "residual": 1e-17, "mass_drift": 0.0, "final_l2": 1e-2}
    record = {"error": None, "values": good, "warnings": {}}
    assert check.check_op("picard", "solve_picard:0", record, pathlib.Path("."), {}, {})[0]
    bad = dict(good, residual=1e-8)
    record = {"error": None, "values": bad, "warnings": {}}
    assert not check.check_op("picard", "solve_picard:0", record, pathlib.Path("."), {}, {})[0]


def test_picard_probe_against_reference():
    name = "probe:gauss1:T1"
    ref = {name: 0.19605275283210102}

    def probe(ratio):
        record = {"error": None, "values": {"ratio": ratio, "bound": 0.4}, "warnings": {}}
        return check.check_op("picard", name, record, pathlib.Path("."), {}, ref)[0]

    assert probe(0.19605275283210102)
    assert not probe(0.1960527)  # perturbed in the 7th digit
    assert not probe(0.5)  # above C_CONTRACTION
