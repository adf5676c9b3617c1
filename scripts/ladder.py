#!/usr/bin/env python3
"""Resolution ladder: every stepped tuned config, run through
`cli.run_experiment` at four rungs, and the largest change of each CSV
column and verdict figure from the tuned run at each rung.

    tuned   the config of configs/<experiment>.cfg as it is
    fine    2M, dt/4 and keep_every x 4, so the kept times match
    box     2L and 2M: the same dx and dt on a box twice as long
    coarse  2dt and keep_every / 2: the CFL guard refuses it where the tuned
            dt is the coarsest step the guard admits

A change is perfbench/check.py's cell deviation |a - b| / max(|b|,
ATOL / RTOL), with the floors of `check.ATOL`, of the rung's cell from the
tuned run's cell, the largest over a column's rows; a flag that flips
counts as `check.MISMATCH_DEV`.  A rung that wrote no CSV (exit 2 where the
CFL guard refuses it, or where its dt leaves T a step count that is not
whole, as 2dt does for an odd count) shows its exit code in place of a
change.  The
figures are the CSVs' columns and their summary keys, which are the
figures of the verdict lines.  Each figure is marked "converged" when it
moves by at most BOUND (1e-6) under "fine" and under "box",
"box-dependent" when it moves more under "box", and "dt-dependent" when
it moves more under "fine" alone.

The script exits 1 when a figure of GATED moves under "fine" by more than
BOUND, or names no figure of the tuned run, and 0 otherwise.  It costs
several batteries (the fine rung steps 4 times as often on a grid twice as
large), so CI runs it apart from the tier-1 suite.

Usage: python3 scripts/ladder.py
"""
import contextlib
import csv
import importlib.util
import io
import pathlib
import sys
import tempfile
from dataclasses import replace

from chenlee_lab.cli import run_experiment
from chenlee_lab.config import parse_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def _load_check():
    """perfbench/check.py, loaded read-only from its file as the tier-1
    output contract loads it, so the ladder and the benchmark share one cell
    formula and one set of floors."""
    spec = importlib.util.spec_from_file_location("perfbench_check",
                                                  ROOT / "perfbench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load_check()

# the experiments that step in time; the growth sweeps and smoothing choose
# their own grids and take no time step
STEPPED = ("solve", "contraction", "beta-limit", "eta-limit", "decay")

# the tuned runs' gated figures move by at most 4.1e-9 under "fine"; with
# the IF-RK4 update cut to integrating-factor Euler they move by up to 1.7e-4
BOUND = 1e-6

# experiment -> the figures whose change under "fine" fails the ladder, fixed
# before the ladder was first run; None gates every figure.  Reported only:
# eta-limit's C_s (a box term: 9.94e-4 tuned, 9.57e-4 fine, 1.69e-4 box) and
# decay's w2, w3 and yacasi_residual (weighted norms and an identity residual
# carried by the tails at the box's ends)
GATED = {
    "solve": None,
    "contraction": {"iterations", "max_ratio", "residual", "agreement"},
    "beta-limit": {"fitted_slope", "sup_error"},
    "eta-limit": {"fitted_slope", "fitted_slope_sup_vs_ref", "sup_error", "cauchy_diff"},
    "decay": {"mass_drift", "gronwall_C"},
}

RUNGS = {
    "tuned": lambda c: c,
    "fine": lambda c: replace(c, grid_M=2 * c.grid_M, solver_dt=c.solver_dt / 4,
                              solver_keep_every=4 * c.solver_keep_every),
    "box": lambda c: replace(c, grid_L=2 * c.grid_L, grid_M=2 * c.grid_M),
    "coarse": lambda c: replace(c, solver_dt=2 * c.solver_dt,
                                solver_keep_every=max(1, c.solver_keep_every // 2)),
}


def run(cfg, out_dir):
    """Exit code of one CLI run, and its verdict line or, where it wrote
    none, its error message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_experiment(cfg, str(out_dir))
    return rc, (out.getvalue() or err.getvalue()).strip()


def figures(out_dir):
    """{(CSV name, figure): cells}: each CSV column's cells over the rows,
    and each summary key's value."""
    table = {}
    for path in sorted(pathlib.Path(out_dir).glob("*.csv")):
        rows = list(csv.reader(path.read_text().splitlines()))
        summary = False  # rows after the blank line are `key,value` summaries
        for row in rows[1:]:
            summary = summary or not row
            if summary and row:
                table[(path.name, row[0])] = row[1:]
            elif row:
                for column, cell in zip(rows[0], row):
                    table.setdefault((path.name, column), []).append(cell)
    return table


def change(cells, tuned, name, figure):
    """Largest floored deviation of `cells` from the tuned run's `tuned`;
    a missing figure or another row count is a mismatch."""
    if cells is None or len(cells) != len(tuned):
        return check.MISMATCH_DEV
    floor = check.ATOL.get((name, figure), 0.0) / check.RTOL
    return max(check._cell_dev(a, b, floor) for a, b in zip(cells, tuned))


def label(fine, box):
    if box > BOUND:
        return "box-dependent"
    return "dt-dependent" if fine > BOUND else "converged"


def ladder(experiment, work):
    """Run one experiment's rungs, print its report; returns the failures."""
    cfg = parse_config((CONFIG_DIR / f"{experiment}.cfg").read_text())
    print(f"{experiment}")
    codes, tables = {}, {}
    for rung, make in RUNGS.items():
        codes[rung], line = run(make(cfg), work / experiment / rung)
        print(f"  {rung:<7} exit {codes[rung]}  {line.splitlines()[-1] if line else ''}")
        tables[rung] = figures(work / experiment / rung)  # empty where refused
    tuned = tables.pop("tuned")
    gated = GATED[experiment]
    failures = []
    if not tuned:
        failures.append(f"{experiment}: the tuned run wrote no CSV")
    unknown = set() if gated is None else gated - {fig for _, fig in tuned}
    failures += [f"{experiment}: gated figure {fig!r} is not in the tuned run's CSVs"
                 for fig in sorted(unknown)]
    print(f"  {'figure':<40} {'fine':>9} {'box':>9} {'coarse':>9}  label")
    for (name, fig), cells in tuned.items():
        moved = {rung: change(table.get((name, fig)), cells, name, fig)
                 for rung, table in tables.items()}
        is_gated = gated is None or fig in gated
        cols = " ".join(f"{format(d, '.2e') if tables[rung] else f'exit {codes[rung]}':>9}"
                        for rung, d in moved.items())
        print(f"  {name + ' ' + fig:<40} {cols}  {label(moved['fine'], moved['box'])}"
              f"{', gated' if is_gated else ''}")
        if is_gated and moved["fine"] > BOUND:
            failures.append(f"{experiment}: {name} {fig} moves by {moved['fine']:.2e} "
                            f"under fine, more than {BOUND:g}")
    print()
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        failures = [f for exp in STEPPED for f in ladder(exp, pathlib.Path(tmp))]
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"ladder: {len(failures)} gated figure(s) failed" if failures
          else f"ladder: every gated figure moves by at most {BOUND:g} under fine")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
