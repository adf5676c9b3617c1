#!/usr/bin/env python3
"""Record the reference outputs that check.py compares against.

    python3 perfbench/record_reference.py

Run once from the root of the source tree at the commit whose outputs are
the reference (the benchmark's were recorded at the seed commit).  It runs
one worker of each workload with seed 0 and stores under
perfbench/reference/:

* battery/<experiment>/*.csv and solve-m4096/solve/*.csv: the CLI's CSVs,
  which do not depend on the seed (Gaussian data);
* picard.json: the bilinear ratios of the Gaussian probes and the value of
  calibrated_cs, which do not depend on the seed either.  The seeded rough
  probes and Picard solves are checked against invariants instead.
"""
import json
import shutil
import sys

import check
import run
import workloads


def main():
    picard = {}
    for workload in workloads.WORKLOADS:
        sample = run.run_worker(workload, 0, "run", "reference")
        record = sample["record"]
        if record is None:
            print(f"{workload}: worker failed; see {sample['out_dir']}/worker.log")
            return 1
        for op in record["ops"]:
            if op["error"]:
                print(f"{workload}: {op['name']} raised:\n{op['error']}")
                return 1
            if workload == "picard":
                if op["name"].startswith("probe:gauss"):
                    picard[op["name"]] = op["values"]["ratio"]
                elif op["name"] == "calibrated_cs":
                    picard[op["name"]] = op["values"]["cs"]
            else:
                src = run.WORK / workload / "reference" / op["name"]
                dst = check.REFERENCE / workload / op["name"]
                shutil.rmtree(dst, ignore_errors=True)
                dst.mkdir(parents=True)
                for csv in sorted(src.glob("*.csv")):
                    shutil.copyfile(csv, dst / csv.name)
    (check.REFERENCE / "picard.json").write_text(
        json.dumps(picard, indent=1, sort_keys=True) + "\n")
    print(f"reference outputs written under {check.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
