#!/usr/bin/env python3
"""Run every experiment with its tuned config from configs/.

Each experiment writes its CSVs and manifest under OUT/<experiment>/.
The eta-limit run is expected to exit 1: its square-root Cauchy-rate
clause is a documented expected failure for smooth data (the Gronwall
bound is not sharp there); every other experiment is expected to pass.
The script exits 0 when every experiment matches its expected outcome.
The summary gives each experiment's wall time in milliseconds and the
process's peak resident memory once it finished (getrusage's ru_maxrss,
in MB; `-` where the `resource` module is missing), so the row where the
column jumps is the experiment that set the battery's peak.  Under
each experiment's row, every CSV it wrote gets a line with the first 12
hex digits of its sha256, so a diff of two runs' standard output shows
which CSVs changed.  Only the time and memory columns should differ: every CSV,
contraction.csv included, is byte-identical from one process to the
next, so a changed digest means changed output.

Usage: python3 scripts/run_all_experiments.py [--out DIR] [--quick]
"""
import argparse
import hashlib
import pathlib
import sys
import time

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from chenlee_lab.cli import main as cli_main
from chenlee_lab.config import EXPERIMENTS


def peak_rss() -> str:
    """The process's peak resident memory so far in MB (ru_maxrss is in KB
    on Linux), or `-` without the `resource` module."""
    if resource is None:
        return "-"
    return f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}"


CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

# experiment -> expected exit code: eta-limit's rate clause is the
# documented expected failure, every other experiment passes
EXPECTED = {exp: int(exp == "eta-limit") for exp in EXPERIMENTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--quick", action="store_true",
                        help="pass --quick through to every experiment")
    args = parser.parse_args(argv)

    results = []
    for exp, expected in EXPECTED.items():
        cfg = CONFIG_DIR / f"{exp}.cfg"
        cli_args = [exp, "--config", str(cfg),
                    "--out", str(pathlib.Path(args.out) / exp)]
        if args.quick:
            cli_args.append("--quick")
        start = time.perf_counter()
        rc = cli_main(cli_args)
        results.append((exp, rc, expected, time.perf_counter() - start, peak_rss()))

    print()
    print(f"{'experiment':<14} {'exit':>4} {'expected':>8} {'time':>8} {'peak MB':>8}  verdict")
    bad = 0
    for exp, rc, expected, wall, peak in results:
        ok = rc == expected
        bad += not ok
        note = "as expected" if ok else "UNEXPECTED"
        if exp == "eta-limit" and ok:
            note += " (documented red: rate clause)"
        print(f"{exp:<14} {rc:>4} {expected:>8} {1e3 * wall:>6.0f}ms {peak:>8}  {note}")
        for csv in sorted((pathlib.Path(args.out) / exp).glob("*.csv")):
            print(f"  {csv.name:<40} {hashlib.sha256(csv.read_bytes()).hexdigest()[:12]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
