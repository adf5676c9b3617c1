"""One benchmark worker: a fresh process that imports the library, builds
one workload's inputs and runs its operations once, then writes what it
saw to a JSON file for run.py to check.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR RESULT_JSON MODE

MODE is `setup` (import and build the inputs, then stop), `run` or
`trace` (run with the per-layer wrappers of tracer.py installed).  The
speed probe of speed.py samples from just after numpy's import until
the inputs are built, and in `run` mode also while the operations run.
Set-up and import times are recorded less the probe's own time.  The
library must be importable (run.py puts `src` on PYTHONPATH).
"""
import time

T_START = time.perf_counter()

import collections  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import speed  # noqa: E402  (imports numpy, as the library does)

SAMPLER = speed.Sampler(sys.argv[1])
SAMPLER.start()
import_start = time.perf_counter()
import chenlee_lab.cli  # noqa: E402,F401  (imports every module of the library)

import_end = time.perf_counter()
import_s = import_end - import_start - SAMPLER.busy(import_start, import_end)

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_op(fn):
    """Run one operation with every warning recorded, never raising; record
    its wall and CPU time."""
    record = {"error": None, "values": {}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            record["values"] = fn()
        except Exception:  # an operation that raises is a failed operation
            record["error"] = traceback.format_exc(limit=3)
        record["t0"] = t0
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - c0
    record["warnings"] = dict(collections.Counter(w.category.__name__ for w in caught))
    return record


def main(argv):
    workload, seed, out_dir, result_path, mode = argv
    ops = workloads.prepare(workload, int(seed), ".", out_dir)
    SAMPLER.stop()
    ready = time.perf_counter()
    result = {"ready": time.monotonic(), "ready_cpu": time.process_time(),
              "import_s": import_s,
              "setup_s": ready - T_START - SAMPLER.busy(T_START, ready),
              "setup_probes": len(SAMPLER.samples)}
    if mode != "setup":
        trace = None
        if mode == "trace":
            trace = tracer.Tracer()
            tracer.install(trace)
        else:
            SAMPLER.start()
        result["ops"] = [dict(run_op(fn), name=name) for name, fn in ops]
        SAMPLER.stop()
        if trace is not None:
            result["layers"] = tracer.metrics(trace, workloads.EXPECTED_EXIT)
            result["counts"] = tracer.work_counts(trace)
    result["probe"] = SAMPLER.samples
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
