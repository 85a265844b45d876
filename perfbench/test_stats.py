#!/usr/bin/env python3
"""Tests of the benchmark's statistics and metric wiring.

    python3 perfbench/test_stats.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402

BENCHMARK = os.path.join(HERE, "..", "BENCHMARK.json")


class PercentileTest(unittest.TestCase):
    def test_p50_is_the_median(self):
        self.assertEqual(stats.p50([3, 1, 2]), 2)
        self.assertEqual(stats.p50([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.p50([])

    def test_tail_picks_the_highest_grid_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail(range(1, 101)), (90, 90.0, 100))
        self.assertEqual(stats.tail(range(1, 1001)), (900, 90.0, 1000))
        grid = (99.0, 90.0)
        self.assertEqual(stats.tail(range(1, 1001), grid=grid),
                         (990, 99.0, 1000))
        # 999 samples leave only 9 above p99, so p90 it is.
        self.assertEqual(stats.tail(range(1, 1000), grid=grid)[1], 90.0)

    def test_tail_below_the_grid_is_the_tenth_from_the_top(self):
        value, percentile, n = stats.tail(range(1, 51))
        self.assertEqual((value, n), (40, 50))
        self.assertAlmostEqual(percentile, 80.0)
        self.assertEqual(stats.tail(range(1, 12))[0], 1)
        with self.assertRaises(ValueError):
            stats.tail(range(10))

    def test_tail_always_leaves_ten_samples_above(self):
        for n in range(11, 2500, 7):
            values = list(range(n, 0, -1))  # unsorted input
            value, _, _ = stats.tail(values)
            self.assertGreaterEqual(sum(v > value for v in values), 10, n)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([10] * 10), 0.0)
        self.assertGreater(stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 0.5)


class SpanTest(unittest.TestCase):
    @staticmethod
    def span(name, span_id, parent, dur, calls=1):
        return {"ph": "X", "name": name, "ts": 0.0, "dur": dur,
                "args": {"id": span_id, "parent": parent, "calls": calls}}

    def test_self_time_subtracts_direct_children(self):
        events = [self.span("op.plan", 1, 0, 100.0),
                  self.span("rpc.plan", 2, 1, 60.0),
                  self.span("protocol.encode", 3, 1, 10.0),
                  self.span("inner", 4, 2, 50.0)]
        own = stats.self_times(events)
        self.assertEqual(own, {1: 30.0, 2: 10.0, 3: 10.0, 4: 50.0})
        self.assertEqual(stats.mean_self_us(events, "op."), 30.0)

    def test_per_call_divides_loop_spans_by_their_calls(self):
        events = [self.span("micro.decode", 1, 0, 200.0, calls=100),
                  self.span("micro.decode", 2, 0, 100.0, calls=100)]
        self.assertEqual(stats.per_call_us(events, "micro.decode"), 1.5)
        with self.assertRaises(ValueError):
            stats.per_call_us(events, "micro.missing")


class MetricNameTest(unittest.TestCase):
    def test_rule(self):
        for good in ("p50_ms", "core.decode_us", "ladder.R2m_ms", "9x", "a-b"):
            self.assertTrue(stats.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, None):
            self.assertFalse(stats.valid_metric_name(bad), bad)

    def test_benchmark_json_names_follow_the_rule_and_are_unique(self):
        with open(BENCHMARK, encoding="utf-8") as handle:
            contract = json.load(handle)
        names = [w["name"] for w in contract["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in contract[group]]
        for name in names:
            self.assertTrue(stats.valid_metric_name(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in contract["workloads"]],
                         list(run.WORKLOADS))


class WiringTest(unittest.TestCase):
    """run.py computes exactly the metrics BENCHMARK.json lists."""

    def setUp(self):
        with open(BENCHMARK, encoding="utf-8") as handle:
            self.contract = json.load(handle)
        self.report = {
            "setup_s": [0.02, 0.03, 0.025], "latency_ms": [1.0] * 200,
            "traced_latency_ms": [1.01] * 200, "read_ms": [],
            "items": 400, "window_s": 2.0, "program_steps": [10, 12],
            "rss_peak_mb": 20.0, "attempted": 200, "failed": 0,
            "failures": [],
            "counts": {"ea_evaluations": 7504.0, "ea_runs": 1.0,
                       "response_bytes": 800.0, "ladder_deltas_planned": 9.0,
                       "ladder_deltas_raw": 10.0, "instances": 8.0,
                       "cache_hits": 3.0},
        }

    def test_end_to_end(self):
        values = run.end_to_end(self.report)
        self.assertEqual(set(values),
                         {m["name"] for m in self.contract["end_to_end"]})
        self.assertEqual(values["items_per_s"], 200.0)
        self.assertEqual(values["program_steps_mean"], 11.0)

    def test_per_layer(self):
        names = ["ladder." + r for r in
                 ("R0", "R1", "R2", "R2m", "R3", "S0", "S1", "S2", "S3", "S4",
                  "S4_replay")]
        names += ["micro." + m for m in
                  ("decode", "jsr", "ea", "plan_encode", "plan_decode",
                   "mutate_encode", "mutate_decode", "cache_lookup",
                   "session_replay", "fsync")]
        events = [SpanTest.span(n, k + 1, 0, 1000.0 * (k + 1))
                  for k, n in enumerate(names)]
        events += [SpanTest.span("op.plan", 100, 0, 50.0),
                   SpanTest.span("rpc.plan", 101, 100, 40.0)]
        values = run.per_layer(self.report, {"traceEvents": events})
        self.assertEqual(set(values),
                         {m["name"] for m in self.contract["per_layer"]})
        self.assertAlmostEqual(values["plan_cache.hit_frac"], 3.0 / 8.0)
        self.assertAlmostEqual(values["supervisor.dispatch_ms"], 1.0)
        self.assertAlmostEqual(values["client.self_us"], 10.0)
        self.assertAlmostEqual(values["trace.overhead_frac"], 0.01)


if __name__ == "__main__":
    unittest.main()
