"""Per-layer tracing from outside the library.

`install` wraps public functions of the library's modules in timed spans.
The modules bind names with `from .core import nonlinear_term`, so a
wrapper replaces the function in every module of the package that holds
it, not only in the defining one.  A span's self time is its duration
minus the time of the spans it encloses; the wrappers' own bookkeeping is
charged to `trace.hook_s`, so that the layers' self times, the set-up, the
hook time and an unattributed remainder add up to the worker's wall time.
"""
import collections
import functools
import os
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [name, time covered by child spans]
        self.calls = collections.Counter()  # span name -> calls
        self.incl_s = collections.defaultdict(float)  # span name -> inclusive time
        self.self_s = collections.defaultdict(float)  # span name -> self time
        self.layer_incl_s = collections.defaultdict(float)  # outermost spans only
        self.counts = collections.Counter()  # exact work counts from hooks
        self.seconds = collections.defaultdict(float)  # timings from hooks
        self.hook_s = 0.0
        self.distinct = set()  # (M, hash of coefficients) fed to nonlinear_term

    def wrap(self, name, fn, hook=None):
        """Time `fn` as span `name`; `hook(tracer, dt, args, kwargs, result)`
        records counts after a successful call.  A call made directly
        inside a span of the same name (l2_norm -> sobolev_norm) belongs to
        the outer span."""
        stack = self._stack
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            dt = t1 - t0
            self.calls[name] += 1
            self.incl_s[name] += dt
            self.self_s[name] += dt - frame[1]
            if not stack or stack[-1][0].split(".", 1)[0] != layer:
                self.layer_incl_s[layer] += dt
            if hook is not None:
                hook(self, dt, args, kwargs, result)
            t_out = perf_counter()
            if stack:
                stack[-1][1] += t_out - t_in
            self.hook_s += (t_out - t_in) - dt
            return result

        return traced


# -- hooks: exact work counts at the layer boundaries -----------------------

def _nonlinear_term(tr, dt, args, kwargs, result):
    u = args[0]
    M = u.grid.M
    tr.counts[f"nonlinear_term.calls.M{M}"] += 1
    tr.seconds[f"nonlinear_term.M{M}"] += dt
    tr.distinct.add((M, hash(u.coeffs.tobytes())))


def _solve_stepper(tr, dt, args, kwargs, result):
    M = args[0].grid.M
    steps = result.info["n_steps"]
    tr.counts["solve_stepper.steps"] += steps
    tr.counts[f"solve_stepper.steps.M{M}"] += steps
    tr.seconds[f"solve_stepper.M{M}"] += dt


def _solve_picard(tr, dt, args, kwargs, result):
    iterations = len(result.info["diffs"])
    tr.counts["solve_picard.iterations"] += iterations
    tr.counts["solve_picard.maps"] += iterations + 1  # plus the residual map


def _output_freqs(tr, dt, args, kwargs, result):
    # second_term/third_term(phi, t, params, window=None): output
    # frequencies are the grid modes inside the window, Nyquist excluded
    grid = args[0].grid
    window = kwargs.get("window", args[3] if len(args) > 3 else None)
    if window is None:
        n = grid.M - 1
    else:
        n = int(((grid.xi >= window[0]) & (grid.xi <= window[1])).sum())
    tr.counts[f"term{result.order}.output_freqs"] += n
    tr.seconds[f"term{result.order}"] += dt


def _write_csv(tr, dt, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tr.counts["report.bytes_written"] += os.path.getsize(path)


def _run_experiment(tr, dt, args, kwargs, result):
    cfg = args[0]
    tr.seconds[f"cli.{cfg.experiment}"] += dt


# (module, attribute, span name, hook)
SPANS = (
    ("core", "nonlinear_term", "core.nonlinear_term", _nonlinear_term),
    ("core", "semigroup_apply", "core.semigroup_apply", None),
    ("core", "random_real_field", "core.random_real_field", None),
    ("solver", "solve_stepper", "solver.solve_stepper", _solve_stepper),
    ("solver", "solve_picard", "solver.solve_picard", _solve_picard),
    ("solver", "duhamel_integral", "solver.duhamel_integral", None),
    ("spaces", "sobolev_norm", "spaces.norm", None),
    ("spaces", "l2_norm", "spaces.norm", None),
    ("spaces", "weighted_l2_norm", "spaces.norm", None),
    ("flowderiv", "second_term", "flowderiv.second_term", _output_freqs),
    ("flowderiv", "third_term", "flowderiv.third_term", _output_freqs),
    ("flowderiv", "illposed_growth_c3", "flowderiv.illposed_growth", None),
    ("flowderiv", "illposed_growth_c2_nd", "flowderiv.illposed_growth", None),
    ("limits", "beta_limit_sweep", "limits.sweep", None),
    ("limits", "eta_limit_sweep", "limits.sweep", None),
    ("limits", "calibrated_cs", "limits.calibrated_cs", None),
    ("decay", "decay_report", "decay.decay_report", None),
    ("decay", "weighted_energy_rate", "decay.weighted_energy_rate", None),
    ("report", "fit_loglog", "report.fit_loglog", None),
    ("config", "parse_config", "config.parse_config", None),
    ("config", "build_initial_data", "config.build_initial_data", None),
    ("cli", "run_experiment", "cli.run_experiment", _run_experiment),
    ("cli", "main", "cli.main", None),
)

LAYERS = ("core", "solver", "spaces", "flowderiv", "limits", "decay",
          "report", "config", "cli")


def install(tracer, package="chenlee_lab"):
    """Replace every binding of each traced function in the package's
    modules (already imported) by its wrapper."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for mod_name, attr, span, hook in SPANS:
        original = getattr(sys.modules[f"{package}.{mod_name}"], attr)
        wrapped = tracer.wrap(span, original, hook)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    report_cls = sys.modules[f"{package}.report"].ExperimentReport
    report_cls.write_csv = tracer.wrap("report.write_csv", report_cls.write_csv,
                                       _write_csv)


def _per(total, n, scale=1.0):
    return total / n * scale if n else 0.0


def metrics(tr, experiments):
    """Per-layer figures of one traced worker (timings in seconds unless the
    name says otherwise; 0 where the layer was not reached)."""
    c, s = tr.counts, tr.seconds
    out = {}
    nt_calls = sum(v for k, v in c.items() if k.startswith("nonlinear_term.calls."))
    out["core.nonlinear_term.calls"] = nt_calls
    out["core.nonlinear_term.self_s"] = tr.self_s["core.nonlinear_term"]
    out["core.nonlinear_term.distinct_frac"] = _per(len(tr.distinct), nt_calls)
    for M in (256, 512, 1024, 4096):
        out[f"core.nonlinear_term.us_per_call.M{M}"] = _per(
            s[f"nonlinear_term.M{M}"], c[f"nonlinear_term.calls.M{M}"], 1e6)

    out["solver.solve_stepper.calls"] = tr.calls["solver.solve_stepper"]
    out["solver.solve_stepper.self_s"] = tr.self_s["solver.solve_stepper"]
    out["solver.solve_stepper.steps"] = c["solve_stepper.steps"]
    for M in (512, 1024, 4096):
        out[f"solver.solve_stepper.us_per_step.M{M}"] = _per(
            s[f"solve_stepper.M{M}"], c[f"solve_stepper.steps.M{M}"], 1e6)
    out["solver.solve_picard.calls"] = tr.calls["solver.solve_picard"]
    out["solver.solve_picard.iterations"] = c["solve_picard.iterations"]
    out["solver.solve_picard.s_per_map"] = _per(
        tr.incl_s["solver.solve_picard"], c["solve_picard.maps"])
    out["solver.duhamel_integral.calls"] = tr.calls["solver.duhamel_integral"]
    out["solver.duhamel_integral.self_s"] = tr.self_s["solver.duhamel_integral"]
    out["solver.duhamel_integral.ms_per_call"] = _per(
        tr.incl_s["solver.duhamel_integral"], tr.calls["solver.duhamel_integral"], 1e3)

    out["spaces.norm.calls"] = tr.calls["spaces.norm"]
    out["spaces.norm.self_s"] = tr.self_s["spaces.norm"]

    out["flowderiv.second_term.us_per_output_freq"] = _per(
        s["term2"], c["term2.output_freqs"], 1e6)
    out["flowderiv.third_term.us_per_output_freq"] = _per(
        s["term3"], c["term3.output_freqs"], 1e6)

    out["limits.sweep.self_s"] = tr.self_s["limits.sweep"]
    out["limits.calibrated_cs.s"] = tr.incl_s["limits.calibrated_cs"]

    out["report.write_csv.s"] = tr.incl_s["report.write_csv"]
    out["report.bytes_written"] = c["report.bytes_written"]
    out["config.parse_config.s"] = tr.incl_s["config.parse_config"]
    out["cli.run_experiment.self_s"] = tr.self_s["cli.run_experiment"]
    for exp in experiments:
        out[f"cli.{exp}.s"] = s[f"cli.{exp}"]

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in tr.self_s.items()
                                     if k.split(".", 1)[0] == layer)
    out["flowderiv.incl_s"] = tr.layer_incl_s["flowderiv"]
    out["trace.hook_s"] = tr.hook_s
    return out


def work_counts(tr):
    """The exact work counts, which must repeat across runs of one code."""
    counts = dict(tr.counts)
    counts["nonlinear_term.distinct"] = len(tr.distinct)
    for name, n in tr.calls.items():
        counts[f"{name}.calls"] = n
    return counts
