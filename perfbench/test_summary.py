"""Tests of the benchmark's own summary code.

    python3 -m unittest discover -s perfbench
"""

import json
import unittest
from pathlib import Path

import summary


def driver_record(op_ms, **overrides):
    """One driver process's raw record."""
    raw = {
        "workload": "imm-lt-sparse",
        "seed": 1,
        "config": {"threads_used": "2"},
        "scrubbed_env": [],
        "notes": [],
        "loadavg_start": "0.1",
        "loadavg_end": "0.2",
        "setup_s": 1.2,
        "op_ms": op_ms,
        "timed_wall_s": 2.0,
        "attempted": len(op_ms),
        "failed": dict.fromkeys(summary.FAILURE_KINDS, 0),
        "maxrss_kib": 2048,
        "seed_spread": 200.5,
        "layers": {},
    }
    raw.update(overrides)
    return raw


def raw_record(op_ms, **overrides):
    """A run made of one driver process."""
    return summary.merge([driver_record(op_ms, **overrides)])


class NearestRank(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(summary.nearest_rank([3, 1, 2], 50), 2)
        # Nearest rank picks a sample, never an interpolation.
        self.assertEqual(summary.nearest_rank([4, 1, 3, 2], 50), 2)

    def test_extremes(self):
        samples = list(range(1, 101))
        self.assertEqual(summary.nearest_rank(samples, 0), 1)
        self.assertEqual(summary.nearest_rank(samples, 99), 99)
        self.assertEqual(summary.nearest_rank(samples, 100), 100)

    def test_single_sample(self):
        self.assertEqual(summary.nearest_rank([7.5], 99), 7.5)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            summary.nearest_rank([], 50)


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        # n = 1000: rank 990, exactly ten samples beyond it.
        samples = list(range(1, 1001))
        self.assertEqual(summary.tail_percentile(samples, 99), 990)
        # n = 999: rank 990, nine beyond -> omitted.
        self.assertIsNone(summary.tail_percentile(list(range(1, 1000)), 99))

    def test_p90_with_one_hundred_samples(self):
        samples = list(range(1, 101))
        self.assertEqual(summary.tail_percentile(samples, 90), 90)
        self.assertIsNone(summary.tail_percentile(samples[:99], 90))

    def test_empty(self):
        self.assertIsNone(summary.tail_percentile([], 99))


class FailFrac(unittest.TestCase):
    def test_every_failure_kind_counts(self):
        failed = {"threw": 1, "refused": 2, "timed_out": 3, "invalid": 4}
        self.assertAlmostEqual(summary.fail_frac(100, failed), 0.10)

    def test_refused_and_timed_out_ops_are_failures(self):
        self.assertAlmostEqual(summary.fail_frac(4, {"refused": 1}), 0.25)
        self.assertAlmostEqual(summary.fail_frac(4, {"timed_out": 2}), 0.5)

    def test_clean_run(self):
        self.assertEqual(summary.fail_frac(10, dict.fromkeys(
            summary.FAILURE_KINDS, 0)), 0.0)

    def test_rejects_bad_accounting(self):
        with self.assertRaises(ValueError):
            summary.fail_frac(0, {})
        with self.assertRaises(ValueError):
            summary.fail_frac(2, {"threw": 3})
        with self.assertRaises(ValueError):
            summary.fail_frac(2, {"lost": 1})

    def test_result_line_counts_failures(self):
        line = summary.result_line({"x": 1.0}, {"x": ("ms", "lower")}, 10,
                                   {"refused": 1, "timed_out": 1})
        self.assertEqual(line["failed"], 2)
        self.assertFalse(line["correct"])
        self.assertEqual(line["metrics"]["x"], {"value": 1.0, "unit": "ms"})


class EndToEnd(unittest.TestCase):
    def test_maxrss_kib_to_mib(self):
        self.assertEqual(summary.kib_to_mib(1024), 1.0)
        self.assertEqual(summary.kib_to_mib(1536), 1.5)
        values, _ = summary.end_to_end(raw_record([1.0]))
        self.assertEqual(values["peak_rss_mb"], 2.0)

    def test_short_run_reports_slowest_op_as_tail(self):
        values, notes = summary.end_to_end(raw_record([5.0, 1.0, 3.0]))
        self.assertEqual(values["op_p50_ms"], 3.0)
        self.assertEqual(values["op_p90_ms"], 5.0)
        self.assertIn("slowest of 3", notes["op_p90_ms"])
        self.assertEqual(values["ops_per_s"], 1.5)
        self.assertEqual(values["setup_s"], 1.2)
        self.assertEqual(values["seed_spread"], 200.5)

    def test_long_run_reports_p90_and_p99_as_context(self):
        ops = [float(i) for i in range(1, 2001)]
        values, notes = summary.end_to_end(raw_record(ops))
        self.assertEqual(values["op_p90_ms"], 1800.0)
        self.assertIn("p90 of 2000", notes["op_p90_ms"])
        self.assertIn("p99 1980", notes["op_p90_ms"])

    def test_p90_without_a_p99(self):
        ops = [float(i) for i in range(1, 201)]
        values, notes = summary.end_to_end(raw_record(ops))
        self.assertEqual(values["op_p90_ms"], 180.0)
        self.assertNotIn("p99", notes["op_p90_ms"])

    def test_every_metric_present(self):
        values, _ = summary.end_to_end(raw_record([1.0, 2.0]))
        self.assertEqual(set(values), set(summary.END_TO_END))

    def test_no_ops(self):
        with self.assertRaises(ValueError):
            summary.end_to_end(raw_record([]))


class Merge(unittest.TestCase):
    def test_processes_pool_into_one_run(self):
        raws = [
            driver_record([1.0, 2.0], setup_s=1.5, maxrss_kib=1024,
                          layers={"core.theta": [5]}),
            driver_record([3.0], setup_s=1.1, maxrss_kib=3072,
                          failed={"threw": 0, "refused": 1, "timed_out": 0,
                                  "invalid": 0}),
            driver_record([4.0, 5.0], setup_s=1.3, maxrss_kib=2048,
                          layers={"core.theta": [7]}),
        ]
        merged = summary.merge(raws)
        self.assertEqual(merged["op_ms"], [1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(merged["attempted"], 5)
        self.assertEqual(merged["failed"]["refused"], 1)
        self.assertEqual(merged["timed_wall_s"], 6.0)
        self.assertEqual(merged["layers"]["core.theta"], [5, 7])
        self.assertEqual(len(merged["loadavg"]), 3)
        values, notes = summary.end_to_end(merged)
        self.assertEqual(values["setup_s"], 1.3)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        self.assertEqual(values["op_p50_ms"], 3.0)
        self.assertIn("median of 3 processes", notes["setup_s"])
        self.assertAlmostEqual(summary.fail_frac(merged["attempted"],
                                                 merged["failed"]), 0.2)


class PerLayer(unittest.TestCase):
    def test_samples_become_medians_and_missing_layers_zero(self):
        raw = raw_record([1.0], layers={"core.theta": [30, 10, 20]})
        values = summary.per_layer(raw)
        self.assertEqual(values["core.theta"], 20)
        self.assertEqual(values["serve.reload_ms"], 0.0)
        self.assertEqual(set(values), set(summary.PER_LAYER))


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json and summary.py must name the same metrics."""

    def test_metric_tables_match(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("BENCHMARK.json not present")
        spec = json.loads(path.read_text())
        for key, table in (("end_to_end", summary.END_TO_END),
                           ("per_layer", summary.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.assertEqual(listed, table)


if __name__ == "__main__":
    unittest.main()
