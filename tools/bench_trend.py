#!/usr/bin/env python3
"""Aggregate BENCH_*.json snapshots into a trend table and gate regressions.

Every perf job in CI writes one small flat-JSON document (kernel_smoke,
fig_scale, fig_dataplane, the shard sweep). Each has a "benchmark" key
naming the producer; the rest is scalar metrics. Downloading those
artifacts across commits leaves a directory of snapshots — this tool
turns them into something a human can read at a glance and CI can gate
on:

  * snapshots are grouped by "benchmark" and ordered (oldest first) by
    --order=mtime (default) or the order given on the command line;
  * per group, every numeric key becomes one table row with the value per
    snapshot plus the relative change from first to last;
  * tracked keys (TRACKED below, e.g. kernel_smoke's fig1_allocs_per_event)
    are repeated after the tables as one first -> last trajectory line
    each; they are informational and never gate;
  * if --baseline=FILE is given (the committed bench/kernel_baseline.json),
    the newest kernel_smoke snapshot's sim_heap_ratio (Simulator churn
    events/s over the same churn through a bare binary heap) is gated
    against the baseline ratio at the baseline's sim_heap_ratio_tolerance
    (relative; --tolerance overrides it), mirroring kernel_smoke's own
    --baseline gate so the check also runs where only the artifacts are
    at hand.

Exit status: 0 clean, 1 on a gated regression (or unreadable input).
Usage: tools/bench_trend.py [--baseline=FILE] [--tolerance=T]
                            [--order=mtime|argv] FILE [FILE ...]
"""

import json
import os
import sys

GATE_KEY = "sim_heap_ratio"
TOLERANCE_KEY = GATE_KEY + "_tolerance"
# Informational per-commit trajectories: benchmark -> keys.
TRACKED = {"kernel_smoke": ["fig1_allocs_per_event"]}


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("top level is not an object")
    return doc


def numeric_keys(docs):
    """Union of keys holding numbers in any snapshot, first-seen order."""
    keys = []
    for doc in docs:
        for key, value in doc.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if key not in keys:
                    keys.append(key)
    return keys


def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def print_group(name, entries):
    """entries: ordered [(label, doc)]."""
    docs = [doc for _, doc in entries]
    labels = [label for label, _ in entries]
    print(f"\n== {name} ({len(docs)} snapshot{'s' if len(docs) != 1 else ''}) ==")
    width = max(len(k) for k in numeric_keys(docs)) if numeric_keys(docs) else 0
    header = " " * width + "  " + "  ".join(f"{l:>14}" for l in labels)
    if len(docs) > 1:
        header += "  " + f"{'change':>8}"
    print(header)
    for key in numeric_keys(docs):
        values = [doc.get(key) for doc in docs]
        row = f"{key:<{width}}  " + "  ".join(f"{fmt(v):>14}" for v in values)
        if len(docs) > 1:
            first = next((v for v in values if v is not None), None)
            last = next((v for v in reversed(values) if v is not None), None)
            if first and last and first != 0:
                row += f"  {100.0 * (last - first) / first:>+7.1f}%"
            else:
                row += f"  {'-':>8}"
        print(row)


def print_tracked(groups):
    """One trajectory line per tracked key present in any snapshot."""
    for name, keys in TRACKED.items():
        entries = groups.get(name, [])
        for key in keys:
            values = [doc.get(key) for _, doc in entries]
            if all(v is None for v in values):
                continue
            path = " -> ".join(fmt(v) for v in values)
            print(f"\ntracked {name}.{key}: {path} (informational)")


def gate(groups, baseline_path, tolerance):
    """Newest kernel_smoke snapshot vs the committed baseline ratio."""
    baseline = load(baseline_path)
    want = baseline.get(GATE_KEY)
    if not isinstance(want, (int, float)):
        raise ValueError(f"baseline {baseline_path} has no numeric {GATE_KEY!r}")
    if tolerance is None:
        tolerance = baseline.get(TOLERANCE_KEY)
        if not isinstance(tolerance, (int, float)):
            raise ValueError(f"baseline {baseline_path} has no numeric {TOLERANCE_KEY!r}")
    entries = groups.get("kernel_smoke")
    if not entries:
        print(f"bench_trend: gate skipped (no kernel_smoke snapshot)")
        return 0
    label, newest = entries[-1]
    got = newest.get(GATE_KEY)
    if not isinstance(got, (int, float)):
        print(f"bench_trend: FAIL: {label} has no {GATE_KEY!r}", file=sys.stderr)
        return 1
    floor = want * (1.0 - tolerance)
    verdict = "ok" if got >= floor else "REGRESSION"
    print(
        f"\nbench_trend: gate {GATE_KEY}: {got:.3f} vs baseline {want:.3f} "
        f"(floor {floor:.3f} at {tolerance:.0%} tolerance) -> {verdict}"
    )
    if got < floor:
        print(
            f"bench_trend: FAIL: {label}: {GATE_KEY} {got:.3f} dropped below "
            f"{floor:.3f}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv):
    paths = [a for a in argv[1:] if not a.startswith("--")]
    baseline_path = None
    tolerance = None  # the baseline's own tolerance unless overridden
    order = "mtime"
    for a in argv[1:]:
        if a.startswith("--baseline="):
            baseline_path = a.split("=", 1)[1]
        elif a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])
        elif a.startswith("--order="):
            order = a.split("=", 1)[1]
    if not paths or order not in ("mtime", "argv"):
        print(__doc__.strip(), file=sys.stderr)
        return 2

    if order == "mtime":
        paths = sorted(paths, key=lambda p: os.path.getmtime(p))
    groups = {}  # benchmark name -> ordered [(label, doc)]
    for path in paths:
        try:
            doc = load(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"bench_trend: {path}: {e}", file=sys.stderr)
            return 1
        name = doc.get("benchmark") or os.path.splitext(os.path.basename(path))[0]
        label = os.path.splitext(os.path.basename(path))[0]
        groups.setdefault(name, []).append((label, doc))

    for name in groups:
        print_group(name, groups[name])
    print_tracked(groups)
    if baseline_path is not None:
        try:
            return gate(groups, baseline_path, tolerance)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"bench_trend: {baseline_path}: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
