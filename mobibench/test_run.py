"""Tests of the benchmark's own logic (no build, no driver run needed).

    python3 mobibench/test_run.py
"""

import copy
import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = run.load_json(run.ROOT / "BENCHMARK.json")
SPEC = run.load_json(run.HERE / "spec.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


class SpanSelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            span("workload", 0, 100),
            span("setup", 0, 10, 0),
            span("run", 10, 80, 0),
            span("verify", 80, 95, 0),
            span("verify.recovery_line", 81, 84, 3),
            span("verify.find_orphans", 84, 90, 3),
            span("verify.recovery_line", 90, 91, 3),
        ]
        self.assertEqual(run.span_self_ns(spans), [5, 10, 70, 5, 3, 6, 1])
        totals = run.span_totals(spans)
        self.assertEqual(totals["verify.recovery_line"][0], 2)
        self.assertAlmostEqual(totals["verify.recovery_line"][1], 4e-9)
        self.assertAlmostEqual(totals["verify"][2], 5e-9)
        self.assertAlmostEqual(run.top_level_s(spans), 100e-9)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span("parent", 10, 50),
            span("a", 5, 20, 0),   # starts before the parent: only 10..20 counts
            span("b", 15, 30, 0),  # overlaps a: only 20..30 counts
            span("c", 45, 60, 0),  # ends after the parent: only 45..50 counts
        ]
        self.assertEqual(run.span_self_ns(spans)[0], 40 - 10 - 10 - 5)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.span_self_ns([span("x", 3, 7)]), [4])


def records_for(outputs, reference):
    """Driver records of a clean run whose outputs are `outputs`."""
    return [
        {"record": "preflight", "outputs": copy.deepcopy(SPEC["preflight"]["outputs"]),
         "checks": {"invariants_ok": True, "orphans_found": 0}},
        {"record": "rep", "traced": False, "wall_s": 1.0, "setup_s": 0.1, "events": 10,
         "units": 1, "peak_rss_mb": 1.0, "outputs": copy.deepcopy(outputs),
         "checks": {"invariants_ok": True, "orphans_found": 0}},
        {"record": "reference", "of": "twin", "outputs": copy.deepcopy(reference),
         "checks": {"invariants_ok": True, "orphans_found": 0}},
    ]


class PinnedOutputs(unittest.TestCase):
    def setUp(self):
        self.pins = SPEC["workloads"]["city_sharded"]["pins"]
        self.seed = self.pins["seed"]

    def judge(self, records, spec=SPEC, seed=None):
        return run.judge("city_sharded", records, spec, self.seed if seed is None else seed)

    def test_pinned_outputs_pass(self):
        records = records_for(self.pins["outputs"], self.pins["reference"])
        self.assertEqual(self.judge(records), (3, 0, []))

    def test_tampered_pinned_hash_is_a_failure(self):
        spec = copy.deepcopy(SPEC)
        pins = spec["workloads"]["city_sharded"]["pins"]
        pins["outputs"]["trace_hash"] = "0123456789abcdef"
        records = records_for(self.pins["outputs"], self.pins["reference"])
        attempted, failed, problems = self.judge(records, spec)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("pins", problems[0])

    def test_sharded_hash_must_equal_sequential_on_held_out_seed(self):
        outputs = dict(self.pins["outputs"], trace_hash="00000000000000aa")
        reference = dict(self.pins["reference"], trace_hash="00000000000000bb")
        attempted, failed, _ = self.judge(records_for(outputs, reference),
                                          seed=self.seed + 1)
        self.assertEqual((attempted, failed), (3, 1))

    def test_held_out_seed_checks_only_seed_independent_properties(self):
        outputs = dict(self.pins["outputs"], trace_hash="00000000000000aa")
        reference = dict(self.pins["reference"], trace_hash="00000000000000aa")
        records = records_for(outputs, reference)
        self.assertEqual(self.judge(records, seed=self.seed + 1), (3, 0, []))

    def test_orphans_invariants_and_exceptions_count_as_failures(self):
        for mutate in (lambda r: r["checks"].update(orphans_found=1),
                       lambda r: r["checks"].update(invariants_ok=False),
                       lambda r: r.update(error="boom")):
            records = records_for(self.pins["outputs"], self.pins["reference"])
            mutate(records[1])
            self.assertEqual(self.judge(records)[1], 1)

    def test_reference_exception_fails_the_runs_it_should_check(self):
        records = records_for(self.pins["outputs"], self.pins["reference"])
        records[2] = {"record": "reference", "of": "shards=1", "error": "boom"}
        self.assertEqual(self.judge(records)[:2], (3, 2))

    def test_golden_preflight_miss_is_a_failure(self):
        records = records_for(self.pins["outputs"], self.pins["reference"])
        records[0]["outputs"]["events_executed"] += 1
        self.assertEqual(self.judge(records)[1], 1)

    def test_observed_twin_must_match(self):
        pins = SPEC["workloads"]["observed_recovery"]["pins"]
        records = records_for(pins["outputs"], pins["reference"])
        rep = dict(records[1], traced=True)
        rep["twin_outputs"] = dict(pins["reference"], events_executed=1)
        records.insert(2, rep)
        attempted, failed, _ = run.judge("observed_recovery", records, SPEC, pins["seed"])
        self.assertEqual((attempted, failed), (4, 1))


class Catalog(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_metric_counts(self):
        self.assertGreaterEqual(len(BENCH["end_to_end"]), 1)
        self.assertLessEqual(len(BENCH["end_to_end"]), 16)
        self.assertGreaterEqual(len(BENCH["per_layer"]), 1)
        self.assertLessEqual(len(BENCH["per_layer"]), 128)
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)

    def test_end_to_end_bounds_and_setup_metric(self):
        for m in BENCH["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def test_every_workload_has_notes_and_pins(self):
        self.assertEqual(set(SPEC["workloads"]), {w["name"] for w in BENCH["workloads"]})
        for name, notes in SPEC["workloads"].items():
            for key in ("why", "config", "threads", "shards", "queue", "pins"):
                self.assertIn(key, notes, name)
            self.assertEqual(notes["pins"]["seed"], SPEC["default_seed"])

    def test_reported_metrics_match_the_catalog(self):
        pins = SPEC["workloads"]["city_sharded"]["pins"]
        reps = records_for(pins["outputs"], pins["reference"])[1:2]
        e2e = run.end_to_end(reps, 3, 0)
        self.assertEqual(set(e2e), {m["name"] for m in BENCH["end_to_end"]})
        traced = dict(reps[0], traced=True, layers={}, aux_spans=[],
                      spans=[span("setup", 0, 10), span("run", 10, 90)])
        names = [m["name"] for m in BENCH["per_layer"]]
        layer = run.per_layer(reps + [traced], names)
        self.assertEqual(set(layer), set(names))
        self.assertAlmostEqual(layer["sim.run_s"], 80e-9)


if __name__ == "__main__":
    unittest.main()
