"""Self-tests of the benchmark's Python side: comparison verdicts, metric
naming and BENCHMARK.json itself. The C++ rules (percentile rule, windowed
tail, open-loop latency from the due time) are tested by perfbench_selftest,
which this suite runs when it has been built.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402


class CompareVerdicts(unittest.TestCase):
    BOUND = 0.10

    def test_clear_gain_is_improved(self):
        parent = [100.0 + i * 0.1 for i in range(10)]
        change = [110.0 + i * 0.1 for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", self.BOUND),
                         "improved")

    def test_gain_in_the_lower_direction(self):
        parent = [10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.1]
        change = [x - 1.0 for x in parent]
        self.assertEqual(compare.verdict(parent, change, "lower", self.BOUND),
                         "improved")

    def test_winning_nine_of_ten_within_parent_spread_is_not_a_gain(self):
        parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0,
                  108.0, 109.0]
        change = [x + 0.5 for x in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", self.BOUND),
                         "unchanged")

    def test_too_few_pairs_cannot_claim_a_gain(self):
        parent = [100.0, 100.1, 100.2]
        change = [101.0, 101.1, 101.2]
        self.assertEqual(compare.verdict(parent, change, "higher", self.BOUND),
                         "unchanged")

    def test_loss_beyond_the_bound_is_regressed(self):
        parent = [100.0 + i * 0.1 for i in range(10)]
        change = [80.0 + i * 0.1 for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", self.BOUND),
                         "regressed")

    def test_loss_within_the_bound_is_unchanged(self):
        parent = [100.0 + i * 0.1 for i in range(10)]
        change = [95.0 + i * 0.1 for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", self.BOUND),
                         "unchanged")

    def test_spread_beyond_the_bound_is_unresolved(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                  100.0]
        change = [x * 0.8 for x in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", self.BOUND),
                         "unresolved")

    def test_domination_wins_over_spread(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                  100.0]
        change = [x + 200.0 for x in parent]
        self.assertEqual(compare.verdict(parent, change, "higher", self.BOUND),
                         "improved")


def record(seed, value, failed=0, correct=True, attempted=100):
    return {"seed": seed, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": {"m": {"value": value, "unit": "s"}}}


class CompareRuns(unittest.TestCase):
    def test_runs_pair_by_seed_not_by_name(self):
        # Seeds 2 and 10 sort the other way as text; pairs must match seeds.
        parent = [record(2, 1.0), record(10, 3.0)]
        change = [record(10, 4.0), record(2, 2.0)]
        self.assertEqual(compare.pair_by_seed(parent, change, "m"),
                         [(1.0, 2.0), (3.0, 4.0)])

    def test_unmatched_seeds_are_not_paired(self):
        parent = [record(1, 1.0), record(2, 2.0)]
        change = [record(2, 5.0), record(3, 6.0)]
        self.assertEqual(compare.pair_by_seed(parent, change, "m"),
                         [(2.0, 5.0)])

    def test_more_failed_operations_is_flagged(self):
        parent = [record(1, 1.0, failed=0), record(2, 1.0, failed=1)]
        change = [record(1, 1.0, failed=2), record(2, 1.0, failed=0)]
        self.assertTrue(compare.more_failures(parent, change))
        self.assertFalse(compare.more_failures(change, parent))

    def test_more_failed_checks_is_flagged(self):
        parent = [record(1, 1.0)]
        change = [record(1, 1.0, correct=False)]
        self.assertTrue(compare.more_failures(parent, change))

    def test_equal_failures_are_not_flagged(self):
        parent = [record(1, 1.0, failed=3)]
        change = [record(1, 2.0, failed=3)]
        self.assertFalse(compare.more_failures(parent, change))

    def test_load_runs_reads_untraced_records_in_seed_order(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            for name, seed, trace in (("w-seed10-trace0-t1", 10, 0),
                                      ("w-seed9-trace0-t2", 9, 0),
                                      ("w-seed9-trace1-t3", 9, 1)):
                rec = dict(record(seed, float(seed)), workload="w",
                           trace=trace)
                (pathlib.Path(tmp) / (name + ".json")).write_text(
                    json.dumps(rec))
            runs = compare.load_runs(tmp)
        self.assertEqual([r["seed"] for r in runs["w"]], [9, 10])


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("latency_p99_us", "radar.measure_p50_us", "a-b", "9x",
                     "x" * 64):
            self.assertTrue(run.valid_metric_name(good), good)
        for bad in ("", ".x", "_x", "-x", "a b", "a/b", "µs", "x" * 65):
            self.assertFalse(run.valid_metric_name(bad), bad)

    def test_benchmark_json_names_and_units(self):
        bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in bench[key]] + [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for name in names:
            self.assertTrue(run.valid_metric_name(name), name)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(run.valid_unit(m["unit"]), m)
        self.assertIn("setup_s", [m["name"] for m in bench["end_to_end"]])

    def test_metric_set_check(self):
        expected = {"setup_s": "s", "latency_p50_us": "us"}
        ok = {"metrics": {"setup_s": {"value": 1.0, "unit": "s"},
                          "latency_p50_us": {"value": 2.0, "unit": "us"}}}
        self.assertEqual(run.check_metrics(ok, expected), [])
        bad = {"metrics": {"setup_s": {"value": 1.0, "unit": "ms"},
                           "bad name": {"value": 2.0, "unit": "us"}}}
        problems = run.check_metrics(bad, expected)
        self.assertTrue(any("missing" in p for p in problems))
        self.assertTrue(any("invalid metric name" in p for p in problems))
        self.assertTrue(any("unit" in p for p in problems))


class CppSelfTest(unittest.TestCase):
    def test_selftest_binary(self):
        binary = (BENCH_DIR.parent / ".bench_build" / "perfbench" /
                  "perfbench_selftest")
        if not binary.is_file():
            self.skipTest("perfbench_selftest not built (run perfbench/run.py "
                          "once, or build the target)")
        proc = subprocess.run([str(binary)], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
