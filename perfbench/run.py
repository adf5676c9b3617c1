#!/usr/bin/env python3
"""chenlee-lab benchmark.

    python3 perfbench/run.py --workload battery|picard|solve-m4096 \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree (it needs `src/` and `configs/`).  Each
workload runs in fresh worker processes (worker.py), one after another:
a closed loop with one client and no concurrency.  Workers are repeated
until the time budget is spent.  The end-to-end set-up, wall and CPU
times are medians over workers of their times scaled to the speed
probe's reference speed (see speed.py and scaled); memory is a median
over workers.
With `--trace 1` the workers alternate between untraced and traced ones,
and the per-layer figures come from the traced ones.

Every operation's outputs are checked (check.py).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Details, machine facts and every sample go to
perfbench/_work/<workload>-seed<N>-trace<T>.json.
"""
import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import timeit

import check
import speed
import tracer
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

MIN_RUNS = 3  # untraced workers per run, whatever the budget
MIN_TRACED = 2  # traced workers per traced run, so that counts can repeat
WORKER_TIMEOUT_S = 120.0  # keeps a run with one hung worker under 180 s

# BLAS/OpenMP pools are fixed at one thread: the library's transforms are
# single-threaded, and default pools made contraction's time vary 2x.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

TIME_KEYS = ("wall_s", "cpu_s")
PROBE_WINDOW_S = 0.1
# end-to-end metric -> the per-worker samples whose median it reports
END_TO_END = {"wall_s": "scaled_wall_s", "cpu_s": "scaled_cpu_s",
              "setup_s": "scaled_setup_s", "peak_rss_mb": "peak_rss_mb"}
FFT_SIZES = (256, 512, 1024, 4096)


def worker_env():
    env = dict(os.environ)
    env.pop("CHENLEE_LAB_OUT", None)  # would redirect the CLI's outputs
    env.pop("PYTHONWARNINGS", None)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload, seed, mode, tag):
    """Start one worker and wait for it.  Returns its sample: wall, set-up,
    CPU time and peak RSS of the process, and the worker's own record."""
    out_dir = WORK / workload / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result_path = out_dir / "result.json"
    with open(out_dir / "worker.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             str(out_dir), str(result_path), mode],
            cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if proc.returncode == 0 and result_path.is_file():
        record = json.loads(result_path.read_text())
    return {
        "mode": mode,
        "out_dir": str(out_dir),
        "returncode": proc.returncode,
        "wall_s": t_exit - t_spawn,
        "setup_s": record["ready"] - t_spawn if record else None,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "record": record,
    }


def check_sample(workload, sample, reference, problems):
    """Check every operation of one worker; returns (attempted, failed,
    csv results)."""
    names = workloads.op_names(workload)
    record = sample["record"]
    if record is None:
        problems.append(f"{sample['mode']} worker exited {sample['returncode']} "
                        f"without a result; see {sample['out_dir']}/worker.log")
        return len(names), len(names), []
    ops = {op["name"]: op for op in record["ops"]}
    failed, csvs = 0, []
    for name in names:
        ok, reason, results = check.check_op(
            workload, name, ops.get(name), sample["out_dir"],
            workloads.EXPECTED_EXIT, reference)
        csvs += results
        if not ok:
            failed += 1
            problems.append(f"{name}: {reason}")
    return len(names), failed, csvs


def warning_counts(sample):
    counts = {}
    for op in (sample["record"] or {}).get("ops", []):
        for category, n in op["warnings"].items():
            counts[category] = counts.get(category, 0) + n
    return counts


def fft_pair_us(M):
    """Bare complex FFT pair (ifft then fft) at the padded size 3M/2, the
    transforms nonlinear_term wraps: median of 5 timings, in microseconds."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal(3 * M // 2) + 0j
    number = max(20, 200000 // M)
    times = timeit.repeat(lambda: np.fft.fft(np.fft.ifft(a)), number=number, repeat=5)
    return statistics.median(times) / number * 1e6


def machine_facts():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "revision": git_revision(),
        "thread_env": THREAD_ENV,
    }


def git_revision():
    """HEAD of the source tree's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scaled(sample, workload):
    """One worker's set-up, wall and CPU time at the speed probe's reference
    speed (speed.py), each less the probe's own time.

    The samples are evenly spaced in time, so the mean of reference over
    sample is the share of the time the work ran at the reference speed.
    Set-up is scaled by that mean over the samples taken during set-up;
    each operation by the mean over the samples taken within
    PROBE_WINDOW_S of it; the rest (exit, the worker's own code) by the
    mean over all the worker's samples.  A set-up-only worker gives only
    setup_s."""
    record = sample["record"]
    probe, n = record["probe"], record["setup_probes"]
    reference = speed.PROBES[workload][2]

    def factor(durations, default):
        return statistics.fmean(reference / d for d in durations) if durations else default

    whole = factor([p[3] for p in probe], 1.0)
    at_setup = factor([p[3] for p in probe[:n]], whole)
    setup = {"wall_s": sample["setup_s"] - sum(p[1] for p in probe[:n]),
             "cpu_s": record["ready_cpu"] - sum(p[2] for p in probe[:n])}
    out = {"setup_s": setup["wall_s"] * at_setup}
    if "ops" not in record:
        return out
    column = {"wall_s": 1, "cpu_s": 2}
    for key in TIME_KEYS:
        rest = sample[key] - setup[key] - sum(p[column[key]] for p in probe[n:])
        total = setup[key] * at_setup
        for op in record["ops"]:
            t0, t1 = op["t0"], op["t0"] + op["wall_s"]
            near = [p[3] for p in probe[n:]
                    if t0 - PROBE_WINDOW_S <= p[0] < t1 + PROBE_WINDOW_S]
            inside = sum(p[column[key]] for p in probe[n:] if t0 <= p[0] < t1)
            net = op[key] - inside
            total += net * factor(near, whole)
            rest -= net
        out[key] = total + rest * whole
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/chenlee_lab/__init__.py", "configs")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a chenlee-lab source tree ({', '.join(missing)} "
              f"missing under {ROOT})", file=sys.stderr)
        return 2
    reference = json.loads((check.REFERENCE / "picard.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    problems = check.selftest()
    if problems:
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        return 2

    start = time.monotonic()
    w, seed = args.workload, args.seed
    warm = run_worker(w, seed, "setup", "warmup")  # fills caches; discarded
    if warm["record"] is None:
        print(f"perfbench: set-up worker failed; see {warm['out_dir']}/worker.log",
              file=sys.stderr)
        return 1

    # a closed loop of workers until the budget is spent; a traced run
    # alternates untraced and traced workers, an untraced run follows each
    # worker with a set-up-only one, so that setup_s has twice the samples
    runs, traced, setups = [], [], []
    while True:
        if args.trace:
            short = len(runs) < 1 or len(traced) < MIN_TRACED
        else:
            short = len(runs) < MIN_RUNS
        estimate = max((s["wall_s"] for s in runs + traced), default=0.0)
        estimate += max((s["wall_s"] for s in setups), default=0.0)
        if not short and time.monotonic() - start + estimate > args.seconds:
            break
        if args.trace and len(traced) < len(runs):
            traced.append(run_worker(w, seed, "trace", f"trace{len(traced)}"))
        else:
            runs.append(run_worker(w, seed, "run", f"run{len(runs)}"))
            if not args.trace:
                setups.append(run_worker(w, seed, "setup", f"setup{len(setups)}"))

    problems = []
    attempted = failed = 0
    csvs = []
    for sample in runs + traced:
        a, f, results = check_sample(w, sample, reference, problems)
        attempted += a
        failed += f
        csvs += results

    # exact work counts and warning counts must repeat across workers
    warns = [warning_counts(s) for s in runs + traced]
    if any(c != warns[0] for c in warns):
        problems.append(f"warning counts differ between workers: {warns}")
    counts = [s["record"]["counts"] for s in traced if s["record"]]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between traced workers")
    problems += [f"set-up worker exited {s['returncode']}; see {s['out_dir']}/worker.log"
                 for s in setups if s["record"] is None]
    correct = failed == 0 and not problems

    # raw and scaled samples per worker; set-up-only workers add set-up times
    done = [s for s in runs if s["record"]]
    both = done + [s for s in setups if s["record"]]
    samples = {k: [s[k] for s in done] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [s["setup_s"] for s in both]
    times = [scaled(s, w) for s in both]
    samples["scaled_setup_s"] = [t["setup_s"] for t in times]
    for k in TIME_KEYS:
        samples["scaled_" + k] = [t[k] for t in times[:len(done)]]
    facts = machine_facts()
    if args.trace:
        figures = traced_metrics(runs, traced, csvs, warns[0] if warns else {}, facts)
        declared = units["per_layer"]
    else:
        figures = {k: statistics.median(samples[src]) for k, src in
                   END_TO_END.items() if samples[src]}
        declared = units["end_to_end"]
    missing = sorted(set(declared) - set(figures))
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
        correct = False
    metrics = {k: {"value": figures[k], "unit": u}
               for k, u in declared.items() if k in figures}

    print(f"perfbench {w} seed={seed} trace={args.trace}: {len(runs)} untraced "
          f"and {len(traced)} traced workers; "
          f"{attempted} operations, {failed} failed "
          f"(fail_frac {failed / max(attempted, 1):.4g})")
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    for k, v in samples.items():
        if v:
            q1, q3 = quartiles(v)
            print(f"  {k:<18} per worker: min {min(v):.4f}, "
                  f"median {statistics.median(v):.4f}, q1 {q1:.4f}, q3 {q3:.4f}, "
                  f"n={len(v)}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for p in problems[:20]:
        print(f"  FAILED {p}")

    WORK.mkdir(exist_ok=True)
    detail = {"workload": w, "seed": seed, "trace": args.trace, "machine": facts,
              "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems, "samples": samples, "metrics": metrics,
              "warnings": warns[0] if warns else {},
              "counts": counts[0] if counts else None,
              "workers": runs + traced}
    (WORK / f"{w}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def traced_metrics(runs, traced, csvs, warns, facts):
    """Per-layer figures of the fastest traced worker, so that its layer
    self times, set-up, hook time and unattributed remainder add up to its
    wall time less the speed probe's samples during its set-up.  These
    times are as measured, not scaled."""
    done = [s for s in traced if s["record"]]
    if not done:
        return {}
    def probe_s(sample):  # the speed probe's own time in a worker
        return sum(p[1] for p in sample["record"]["probe"])

    best = min(done, key=lambda s: s["wall_s"])
    out = dict(best["record"]["layers"])
    wall = best["wall_s"] - probe_s(best)
    out["setup.import_s"] = best["record"]["import_s"]
    out["setup.self_s"] = best["record"]["setup_s"]
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = base = min(
        s["wall_s"] - probe_s(s) for s in runs if s["record"])
    out["trace.overhead_frac"] = wall / base - 1.0
    out["trace.unattributed_s"] = wall - out["trace.hook_s"] - sum(
        out[f"{layer}.self_s"] for layer in ("setup",) + tracer.LAYERS)
    out["flowderiv.wall_share"] = out.pop("flowderiv.incl_s") / wall
    out["core.alias_warnings"] = warns.get("AliasingBudgetWarning", 0)
    out["spaces.boundary_warnings"] = warns.get("BoundaryMassWarning", 0)
    for M in FFT_SIZES:
        pair = fft_pair_us(M)
        out[f"machine.fft_pair_us.M{M}"] = pair
        out[f"core.nonlinear_term.fft_ratio.M{M}"] = \
            out[f"core.nonlinear_term.us_per_call.M{M}"] / pair
    out["machine.nproc"] = facts["nproc"]
    out["report.byte_identical_frac"] = (
        sum(same for _, same, _ in csvs) / len(csvs) if csvs else 1.0)
    out["report.csv_max_rel_dev"] = max((dev for _, _, dev in csvs), default=0.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
