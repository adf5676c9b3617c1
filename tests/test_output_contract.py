"""The output contract: the eight experiments, run in-process with their
tuned configs as a user runs them, reproduce the reference outputs of the
benchmark (perfbench/reference/) within its tolerances, and so does every
operation of its Picard workload.

perfbench's `check` and `workloads` modules are loaded read-only from
their files, so this test and the benchmark share one definition of "the
same answers": `check.csv_deviation` with `check.RTOL` and the floors of
`check.ATOL`, and the exit codes of `workloads.EXPECTED_EXIT`."""
import importlib.util
import json
import pathlib
from dataclasses import replace

import pytest

from chenlee_lab.cli import run_experiment
from chenlee_lab.config import parse_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1  # the battery's configs use Gaussian data, so only picard reads it


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
workloads = _load("workloads")


@pytest.mark.parametrize("experiment", list(workloads.EXPECTED_EXIT))
def test_battery_csvs_match_the_reference(experiment, tmp_path):
    ops = dict(workloads.prepare("battery", SEED, ROOT, tmp_path))
    assert ops[experiment]()["rc"] == workloads.EXPECTED_EXIT[experiment]
    ref_dir = check.REFERENCE / "battery" / experiment
    results = check.compare_csvs(tmp_path / experiment, ref_dir)
    assert len(results) == len(list(ref_dir.glob("*.csv"))) > 0
    for name, _, deviation in results:
        assert deviation <= check.RTOL, f"{name} deviates by {deviation:.3e}"


@pytest.mark.parametrize("experiment", ["beta-limit", "eta-limit", "contraction"])
def test_retuned_time_step_agrees_with_half_of_it(experiment, tmp_path):
    # the configs whose dt is the coarsest the resolution ladder keeps
    # (scripts/ladder.py): at --quick scale, dt and dt/2 (keep_every x 2, so
    # the kept times match) give CSVs a tenth of the benchmark's tolerance apart
    cfg = parse_config((ROOT / "configs" / f"{experiment}.cfg").read_text())
    half = replace(cfg, solver_dt=cfg.solver_dt / 2,
                   solver_keep_every=2 * cfg.solver_keep_every)
    for name, run_cfg in (("dt", cfg), ("half", half)):
        rc = run_experiment(run_cfg, str(tmp_path / name), quick=True)
        assert rc == workloads.EXPECTED_EXIT[experiment]
    results = check.compare_csvs(tmp_path / "dt", tmp_path / "half")
    assert results
    for name, _, deviation in results:
        assert deviation <= check.RTOL / 10, f"{name} deviates by {deviation:.3e}"


@pytest.mark.filterwarnings("ignore::chenlee_lab.core.AliasingBudgetWarning")
def test_picard_workload_matches_the_reference(tmp_path):
    # the Gaussian probe ratios and calibrated_cs against picard.json at
    # RTOL; the seeded rough probes and Picard solves against the
    # invariants check.check_op asserts for them
    reference = json.loads((check.REFERENCE / "picard.json").read_text())
    ops = workloads.prepare("picard", SEED, ROOT, tmp_path)
    assert reference.keys() <= {name for name, _ in ops}
    for name, op in ops:
        record = {"error": None, "values": op()}
        ok, reason, _ = check.check_op("picard", name, record, tmp_path,
                                       workloads.EXPECTED_EXIT, reference)
        assert ok, f"{name}: {reason}"
