#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest perfbench/test_perfbench.py

- metric arithmetic: medians, quartile spreads, ratios with their
  bases, and the span-overhead correction;
- a smoke run of every workload, untraced and traced, at a tiny
  instruction budget: correct, and every metric BENCHMARK.json names;
- the correctness gate's mutation test: every perturbed RunResult
  field of a real run counts as a failed cell.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class Arithmetic(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertEqual(run.median([]), 0.0)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]
        # quantiles(n=4), exclusive method: q1 = 11.25, q3 = 15.75.
        self.assertAlmostEqual(run.quartile_spread(values),
                               (15.75 - 11.25) / 13.5)
        self.assertEqual(run.quartile_spread([5.0]), 0.0)

    def test_ratio_with_empty_base_is_zero(self):
        self.assertEqual(run.ratio(3, 4), 0.75)
        self.assertEqual(run.ratio(3, 0), 0.0)

    def test_end_to_end_takes_the_best_iteration(self):
        def it(setup, run_s, wall):
            return {"setup_s": setup, "run_s": run_s, "wall_s": wall,
                    "cell_instructions": 2_000_000}
        raw = {"peak_rss_kb": 2048, "iterations": [
            it(0.3, 2.0, 2.4), it(0.1, 4.0, 4.5), it(0.2, 0.5, 0.6)]}
        m = run.end_to_end(raw)
        self.assertEqual(m["setup_s"], (0.1, "s"))
        self.assertEqual(m["wall_s"], (0.6, "s"))
        self.assertEqual(m["sim_mips"], (4.0, "Minstr/s"))
        self.assertEqual(m["peak_rss_mb"], (2.0, "MiB"))

    def test_corrected_self_time(self):
        layer = {"self_ns": 1000, "spans": 10, "child_spans": 5}
        # 1000 - 10 spans * 40 - 5 children * 20
        self.assertEqual(run.corrected_self_ns(layer, 40, 20), 500)
        self.assertEqual(run.corrected_self_ns(layer, 200, 0), 0.0)

    def test_per_layer_ratios_and_bases(self):
        names = [*run.NS_LAYERS, "sim.step", "cache.finish_access",
                 "sim.collect"]
        layers = {n: {"self_ns": 0, "spans": 0, "child_spans": 0}
                  for n in names}
        layers["tlb.lookup"] = {"self_ns": 3000, "spans": 100,
                                "child_spans": 0}
        layers["cache.finish_access"] = {"self_ns": 2000, "spans": 100,
                                         "child_spans": 100}
        layers["cache.l1_access"] = {"self_ns": 1500, "spans": 100,
                                     "child_spans": 0}
        raw = {"traced": {
            "iterations": 2, "span_empty_ns": 10, "span_per_child_ns": 5,
            "layers": layers,
            "replay": {"steps": 100, "tlb_lookups": 100, "tlb_l1_hits": 90,
                       "tlb_walks": 4, "tlb_faults": 2, "os_events": 6},
            "phases": {"steps": 100, "warmup_s": 2e-6, "measured_s": 8e-6,
                       "collect_s": 1e-6, "measured_steps": 80},
            "counters": {"l1_accesses": 2000, "l1_hits": 1500,
                         "l2_accesses": 500, "l2_hits": 100,
                         "llc_accesses": 400, "llc_hits": 300,
                         "tft_lookups": 1000, "tft_hits": 990,
                         "probes": 200, "probe_hits": 50,
                         "invalidations": 7, "owner_supplies": 3},
            "setup": [{"os_init_s": 1, "memhog_s": 2, "heap_map_s": 3,
                       "complex_build_s": 4}],
            "onepass_setup_s": [], "onepass_run_s": [],
            "queue_wait_s": [], "busy_ratio": [0.5, 0.7, 0.9],
            "untraced_run_s": 2.0, "traced_run_s": 5.0,
        }}
        m = run.per_layer(raw)
        self.assertEqual(m["tlb.lookup_ns"][0], 20.0)      # (3000-1000)/100
        self.assertEqual(m["cache.l1_access_ns"][0], 5.0)  # (1500-1000)/100
        # finish inclusive: own (2000-1000-500) + l1 child 500, per step.
        self.assertEqual(m["cache.finish_access_ns"][0], 10.0)
        self.assertAlmostEqual(m["sim.step_ns"][0], 100.0)
        self.assertAlmostEqual(m["sim.unattributed_ns"][0], 100.0 - 30.0)
        self.assertAlmostEqual(m["sim.ns_per_measured_access"][0], 100.0)
        self.assertEqual(m["tlb.l1_hit_ratio"], (0.9, "hit/lookup"))
        self.assertEqual(m["tlb.walk_ratio"][0], 0.04)
        self.assertEqual(m["tlb.faults"][0], 1.0)         # per iteration
        self.assertEqual(m["core.tft_hit_ratio"][0], 0.99)
        self.assertEqual(m["cache.l1_hit_ratio"][0], 0.75)
        self.assertEqual(m["cache.l2_hit_ratio"][0], 0.2)
        self.assertEqual(m["cache.llc_hit_ratio"][0], 0.75)
        self.assertEqual(m["coherence.probes_per_kacc"][0], 100.0)
        self.assertEqual(m["coherence.probe_hit_ratio"][0], 0.25)
        self.assertEqual(m["sim.os_events"][0], 3.0)
        self.assertEqual(m["harness.busy_ratio"][0], 0.7)
        self.assertEqual(m["sim.onepass_run_s"][0], 0.0)
        self.assertEqual(m["trace.overhead_ratio"][0], 2.5)
        self.assertEqual({n: m[n][0] for n in (
            "mem.os_init_s", "mem.memhog_s", "mem.heap_map_s",
            "sim.complex_build_s")}, {"mem.os_init_s": 1, "mem.memhog_s": 2,
                                      "mem.heap_map_s": 3,
                                      "sim.complex_build_s": 4})
        self.assertEqual(sorted(m), sorted(p["name"]
                                           for p in SPEC["per_layer"]))


def bench(*args):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=run.ROOT,
                          timeout=900)
    return proc.returncode, proc.stdout


class Smoke(unittest.TestCase):
    def check(self, workload, trace, names):
        code, out = bench("--workload", workload, "--seed", "5",
                          "--seconds", "1", "--trace", str(trace),
                          "--budget-scale", "0.02")
        self.assertEqual(code, 0, out)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(names))

    def test_every_workload_untraced_and_traced(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        layers = [m["name"] for m in SPEC["per_layer"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, e2e)
                self.check(w["name"], 1, layers)

    def test_unknown_workload_fails_without_a_result(self):
        code, out = bench("--workload", "nosuch", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertNotIn("correct", out)


class GateMutation(unittest.TestCase):
    def test_perturbed_results_count_as_failed(self):
        binary = run.build()
        proc = subprocess.run([str(binary), "--self-test"],
                              stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertGreater(report["mutations"], 40)
        self.assertEqual(report["caught"], report["mutations"])
        self.assertEqual(report["controls_failed"], 0)


if __name__ == "__main__":
    unittest.main()
