"""Output checks: each operation's outputs against the reference outputs
recorded at the seed commit (perfbench/reference/), or against the
invariants the library promises where the outputs depend on the seed.

CSV cells are compared as numbers.  A cell passes when

    |a - b| <= RTOL * max(|b|, ATOL[file, column] / RTOL)

so most columns are compared relatively, and the listed roundoff-scale
columns get an absolute floor: contraction's Picard residual (about 4e-18)
and Picard-vs-stepper agreement (about 5e-15) change in their last digits
from one run to the next on the same code.
"""
import csv
import math
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

RTOL = 1e-9
ATOL = {
    ("contraction.csv", "residual"): 1e-15,
    ("contraction.csv", "agreement"): 1e-12,
}
# a structural mismatch (missing file, other shape, changed text) counts
# as this deviation
MISMATCH_DEV = 1.0

CONTRACTION_RATIO_MAX = 0.75  # the contraction experiment's check.* defaults
PICARD_RESIDUAL_MAX = 1e-10
MASS_DRIFT_MAX = 1e-15  # the mean mode is conserved exactly by the map


def _cell_dev(a, b, floor):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return 0.0 if a == b else MISMATCH_DEV
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return MISMATCH_DEV
    return abs(x - y) / max(abs(y), floor, 1e-300)


def csv_deviation(text, ref_text, name):
    """Largest scaled deviation of CSV `text` from `ref_text`: 0 when equal,
    at most RTOL when every cell passes."""
    rows = list(csv.reader(text.splitlines()))
    ref = list(csv.reader(ref_text.splitlines()))
    if len(rows) != len(ref) or any(len(r) != len(q) for r, q in zip(rows, ref)):
        return MISMATCH_DEV
    header = ref[0] if ref else []
    worst = 0.0
    summary = False  # rows after the blank line are `key,value` summaries
    for row, ref_row in zip(rows, ref):
        summary = summary or not ref_row
        for j, (a, b) in enumerate(zip(row, ref_row)):
            column = ref_row[0] if summary else header[j]
            floor = ATOL.get((name, column), 0.0) / RTOL
            worst = max(worst, _cell_dev(a, b, floor))
    return worst


def compare_csvs(out_dir, ref_dir):
    """Compare every CSV of `ref_dir` with the one of the same name in
    `out_dir`; a CSV present on one side only is a mismatch.  Returns a
    list of (name, byte_identical, deviation)."""
    out_dir, ref_dir = pathlib.Path(out_dir), pathlib.Path(ref_dir)
    names = sorted({p.name for p in ref_dir.glob("*.csv")}
                   | {p.name for p in out_dir.glob("*.csv")})
    results = []
    for name in names:
        out, ref = out_dir / name, ref_dir / name
        if not (out.is_file() and ref.is_file()):
            results.append((name, False, MISMATCH_DEV))
            continue
        data, ref_data = out.read_bytes(), ref.read_bytes()
        dev = 0.0 if data == ref_data else csv_deviation(
            data.decode(), ref_data.decode(), name)
        results.append((name, data == ref_data, dev))
    return results


def _against_reference(name, value, ref):
    """Compare one recorded number with its reference, if it has one."""
    if ref is None:
        return True, "", []
    dev = _cell_dev(value, ref, 0.0)
    if dev > RTOL:
        return False, f"{value!r} differs from the reference {ref!r}", [(name, False, dev)]
    return True, "", [(name, value == ref, dev)]


def check_op(workload, name, record, out_dir, expected_exit, reference):
    """Pass/fail one operation.  Returns (ok, reason, csv results), where
    csv results are (name, byte_identical, deviation) triples."""
    if record is None:
        return False, "worker produced no record", []
    if record["error"]:
        return False, record["error"].strip().splitlines()[-1], []
    v = record["values"]
    if workload in ("battery", "solve-m4096"):
        csvs = compare_csvs(pathlib.Path(out_dir) / name,
                            REFERENCE / workload / name)
        if v["rc"] != expected_exit[name]:
            return False, f"exit code {v['rc']}, expected {expected_exit[name]}", csvs
        bad = [n for n, _, dev in csvs if dev > RTOL]
        if bad:
            return False, f"outputs differ from the reference: {', '.join(bad)}", csvs
        return True, "", csvs
    # picard: values recorded by the worker
    if name.startswith("probe:"):
        r = v["ratio"]
        if not (math.isfinite(r) and 0.0 < r <= v["bound"]):
            return False, f"bilinear ratio {r} outside (0, C_CONTRACTION={v['bound']}]", []
        return _against_reference(name, r, reference.get(name))
    if name == "calibrated_cs":
        cs = v["cs"]
        if abs(cs - v["frozen"]) > 0.5 * v["frozen"]:
            return False, f"calibrated_cs {cs} disagrees with C_KATO_S2 {v['frozen']}", []
        return _against_reference(name, cs, reference[name])
    if name.startswith("solve_picard:"):
        if not v["iterations"] <= v["max_iterations"]:
            return False, f"{v['iterations']} iterations", []
        if not v["max_ratio"] <= CONTRACTION_RATIO_MAX:
            return False, f"contraction ratio {v['max_ratio']}", []
        if not v["residual"] <= PICARD_RESIDUAL_MAX:
            return False, f"fixed-point residual {v['residual']}", []
        if not v["mass_drift"] <= MASS_DRIFT_MAX:
            return False, f"mass drift {v['mass_drift']}", []
        if not math.isfinite(v["final_l2"]):
            return False, "non-finite solution", []
        return True, "", []
    return False, f"unknown operation {name!r}", []


def selftest():
    """The comparison must pass a reference CSV against itself and against
    last-digit noise in a floored column, and must fail a perturbed
    value, a changed flag and a dropped row.  Returns a list of problems."""
    ref = ("T,iterations,max_ratio,residual,agreement\r\n"
           "1.000000000000e+00,3,2.674484429504e-04,3.980598995503e-18,"
           "4.772614365533e-15\r\n\r\npassed,true\r\n")
    noisy = ref.replace("3.980598995503e-18", "3.980594041110e-18")
    cases = [
        ("identical", ref, True),
        ("roundoff in a floored column", noisy, True),
        ("perturbed value", ref.replace("2.674484429504e-04", "2.674494429504e-04"), False),
        ("changed flag", ref.replace("passed,true", "passed,false"), False),
        ("dropped row", ref.split("\r\n\r\n")[0] + "\r\n", False),
        ("changed count", ref.replace(",3,", ",4,"), False),
    ]
    problems = []
    for label, text, should_pass in cases:
        passed = csv_deviation(text, ref, "contraction.csv") <= RTOL
        if passed != should_pass:
            problems.append(f"CSV check self-test: {label} "
                            f"{'passed' if passed else 'failed'}")
    return problems
