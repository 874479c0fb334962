#!/usr/bin/env python3
"""The mobichk benchmark: one command for every workload.

    python3 mobibench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the driver (mobibench/driver.cpp) and the library from ../src into
.bench_build/mobibench as a Release build, runs the workload for --seconds
seconds, checks every run's outputs, and prints each metric with its unit
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1
alternates untraced and traced runs and reports the per-layer metrics.
Metric names, units and directions come from BENCHMARK.json; pinned
outputs and workload notes from mobibench/spec.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "mobibench"
DRIVER = BUILD_DIR / "mobibench"
RUN_LIMIT_S = 170  # the whole command must end within 180 s once built
BUILD_LIMIT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Spans: [name, start_ns, end_ns, parent_index]


def span_self_ns(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children counted once)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def span_totals(spans):
    """name -> [count, total_s, self_s]."""
    table = {}
    for s, self_ns in zip(spans, span_self_ns(spans)):
        row = table.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (s[2] - s[1]) * 1e-9
        row[2] += self_ns * 1e-9
    return table


def top_level_s(spans):
    return sum(s[2] - s[1] for s in spans if s[3] < 0) * 1e-9


# ---------------------------------------------------------------------------
# Correctness


def checks_pass(checks):
    """Every boolean check holds and no orphan message was found."""
    for key, value in checks.items():
        if isinstance(value, bool) and not value:
            return False
    return checks.get("orphans_found", 0) == 0


def subset_equal(expected, actual):
    """True when every key of `expected` has the same value in `actual`."""
    return all(k in actual and actual[k] == v for k, v in expected.items())


def judge(workload, records, spec, seed):
    """Checks the driver's records. Returns (attempted, failed, problems)."""
    problems = []
    attempted = failed = 0
    pins = spec["workloads"][workload].get("pins")
    pinned = pins if pins and pins.get("seed") == seed else None

    def fail(units, why):
        nonlocal failed
        failed += units
        problems.append(why)

    preflight = [r for r in records if r["record"] == "preflight"]
    reps = [r for r in records if r["record"] == "rep"]
    refs = [r for r in records if r["record"] == "reference"]
    if len(preflight) != 1 or not reps or len(refs) != 1:
        return 1, 1, ["driver output is incomplete"]

    attempted += 1
    golden = spec["preflight"]["outputs"]
    if preflight[0]["outputs"] != golden or not checks_pass(preflight[0]["checks"]):
        fail(1, "golden Fig. 1 preflight: %s" % json.dumps(preflight[0]["outputs"]))

    ref = refs[0]
    attempted += 1
    ref_ok = "error" not in ref and checks_pass(ref["checks"])
    if ref_ok and pinned is not None and ref["outputs"] != pinned["reference"]:
        ref_ok = False
    if not ref_ok:
        fail(1, "reference run (%s): %s" % (ref.get("of", "?"), ref.get("error", "mismatch")))

    first = next((r["outputs"] for r in reps if "error" not in r), None)
    expected = pinned["outputs"] if pinned is not None else first
    for i, rep in enumerate(reps):
        units = rep.get("units", 1)
        attempted += units
        if "error" in rep:
            fail(units, "run %d raised: %s" % (i, rep["error"]))
            continue
        why = None
        out = rep["outputs"]
        if not checks_pass(rep["checks"]):
            why = "checks failed: %s" % json.dumps(rep["checks"])
        elif out != expected:
            why = "outputs differ from the %s" % ("pins" if pinned else "first run")
        elif "outputs" not in ref:
            why = "no reference run to compare with"
        elif workload == "paper_sweep":
            cells0 = out["cells"][0]
            for k, n in enumerate(ref["outputs"]["n_tot"].values()):
                if not cells0[k][2] <= n <= cells0[k][3]:
                    why = "reference replication N_tot outside the sweep cell"
        elif not subset_equal(ref["outputs"], out):
            why = "outputs differ from the %s twin" % ref.get("of", "reference")
        if why is None and "twin_outputs" in rep and not subset_equal(rep["twin_outputs"], out):
            why = "observed run differs from its unobserved twin"
        if why is not None:
            fail(units, "run %d: %s" % (i, why))
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps, attempted, failed):
    runs = [r for r in reps if not r["traced"] and "error" not in r]
    return {
        "wall_s": median([r["wall_s"] for r in runs]),
        "setup_s": median([r["setup_s"] for r in runs]),
        "events_per_s": median([r["events"] / (r["wall_s"] - r["setup_s"]) for r in runs]),
        "peak_rss_mb": max([r["peak_rss_mb"] for r in runs], default=0.0),
        "ok_share": (attempted - failed) / attempted,
    }


SPAN_METRICS = {
    "sim.report_s": ["report"],
    "core.verify_s": ["verify"],
    "core.recovery_line_s": ["verify.recovery_line"],
    "core.find_orphans_s": ["verify.find_orphans"],
    "obs.export.jsonl_s": ["export.jsonl"],
    "obs.export.chrome_s": ["export.chrome"],
    "sim.run_s": ["run", "run_figure"],
}


def traced_numbers(rep):
    """Per-layer values of one traced run: the driver's layer numbers plus
    the span-derived ones."""
    values = dict(rep["layers"])
    totals = span_totals(rep["spans"])
    for metric, names in SPAN_METRICS.items():
        values[metric] = sum(totals[n][1] for n in names if n in totals)
    values["trace.uncovered_s"] = rep["wall_s"] - top_level_s(rep["spans"])
    return values


def per_layer(reps, names):
    traced = [r for r in reps if r["traced"] and "error" not in r]
    untraced = [r for r in reps if not r["traced"] and "error" not in r]
    rows = [traced_numbers(r) for r in traced]
    metrics = {n: median([row.get(n, 0.0) for row in rows]) for n in names}
    metrics["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median(
        [r["wall_s"] for r in untraced])
    return metrics


def span_report(reps):
    """Human-readable span tables (medians over traced runs): the timed
    workload's spans, then those of its untimed companion run."""
    traced = [r for r in reps if r["traced"] and "error" not in r]
    lines = []
    for key, title in (("spans", "span"), ("aux_spans", "companion span")):
        rows = {}
        for r in traced:
            for name, row in span_totals(r[key]).items():
                rows.setdefault(name, []).append(row)
        if not rows:
            continue
        lines.append("%-24s %7s %12s %12s" % (title, "count", "total_s", "self_s"))
        for name, samples in rows.items():
            lines.append("%-24s %7d %12.6f %12.6f" % (
                name, samples[0][0], median([s[1] for s in samples]),
                median([s[2] for s in samples])))
    return lines


# ---------------------------------------------------------------------------


def build():
    if not (ROOT / "src" / "mobichk.hpp").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("error: the mobichk sources (src/) are not next to mobibench/; "
            "run from a full checkout of the repository")
        return False
    deadline = time.monotonic() + BUILD_LIMIT_S
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("error: build timed out")
            return False
        if done.returncode != 0:
            log("error: build failed: %s" % " ".join(cmd))
            return False
    return True


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be in [0, 2^64)")
    if args.seconds is not None and args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def main(argv):
    bench_path = ROOT / "BENCHMARK.json"
    spec_path = HERE / "spec.json"
    if not bench_path.is_file() or not spec_path.is_file():
        log("error: BENCHMARK.json or mobibench/spec.json missing")
        return 2
    bench, spec = load_json(bench_path), load_json(spec_path)
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    seed = spec["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if not build():
        return 2

    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("error: driver exceeded %d s" % RUN_LIMIT_S)
        return 1
    if done.returncode != 0:
        log("error: driver exited with %d" % done.returncode)
        return 1
    records = [json.loads(line) for line in done.stdout.splitlines() if line.strip()]
    attempted, failed, problems = judge(args.workload, records, spec, seed)
    for p in problems:
        log("FAILED: " + p)
    reps = [r for r in records if r["record"] == "rep"]

    if args.trace:
        catalog = bench["per_layer"]
        metrics = per_layer(reps, [m["name"] for m in catalog])
        for line in span_report(reps):
            print(line)
    else:
        catalog = bench["end_to_end"]
        metrics = end_to_end(reps, attempted, failed)
    print("%s seed=%d runs=%d" % (args.workload, seed, len(reps)))
    result = {}
    for m in catalog:
        value = metrics[m["name"]]
        print("  %-34s %16.9g %s" % (m["name"], value, m["unit"]))
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
