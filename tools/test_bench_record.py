#!/usr/bin/env python3
"""Unit tests for bench_record.py's parsing and summary code.

Run directly (`python3 tools/test_bench_record.py`) or through ctest
(registered as `bench_record_py_test`). Canned run.py output goes
through the script's parsing, quartile and pairing code; nothing is
built and no benchmark runs.
"""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

BETTER = {"maccess_s": "higher", "job_ms_p50": "lower"}


def canned_stdout(maccess, p50, failed=0):
    fingerprint = {"cpu": "Test CPU", "nproc": 4, "build_type": "Release",
                   "source_dir": "/somewhere/checkout", "seed": 1,
                   "workload": "wire-interactive", "kernel_backend": "avx2",
                   "abenc_kernel_env": ""}
    result = {"correct": failed == 0, "attempted": 192, "failed": failed,
              "metrics": {"maccess_s": {"value": maccess, "unit": "M/s"},
                          "job_ms_p50": {"value": p50, "unit": "ms"}}}
    return ("fingerprint " + json.dumps(fingerprint) + "\n"
            "wire-interactive: 192 jobs, seed 1\n"
            f"  maccess_s    {maccess} M/s\n\n" + json.dumps(result) + "\n")


def record(side, maccess, p50, trace=0):
    fingerprint, result = bench_record.parse_run_output(
        canned_stdout(maccess, p50))
    return {"side": side, "commit": "abc", "workload": "wire-interactive",
            "seed": 1, "seconds": 20, "trace": trace,
            "fingerprint": fingerprint, "result": result}


class ParseTest(unittest.TestCase):
    def test_reads_fingerprint_and_final_line(self):
        fingerprint, result = bench_record.parse_run_output(
            canned_stdout(1.5, 0.8, failed=2))
        self.assertEqual(fingerprint["cpu"], "Test CPU")
        self.assertNotIn("source_dir", fingerprint)
        self.assertEqual(result["failed"], 2)
        self.assertEqual(result["metrics"]["job_ms_p50"]["value"], 0.8)

    def test_rejects_output_without_fingerprint_or_result(self):
        with self.assertRaises(ValueError):
            bench_record.parse_run_output('{"metrics": {}}\n')
        with self.assertRaises(ValueError):
            bench_record.parse_run_output(
                'fingerprint {"cpu": "x"}\n{"correct": true}\n')


class StealTest(unittest.TestCase):
    def test_steal_is_the_eighth_counters_share_of_the_delta(self):
        before = [100, 0, 50, 800, 0, 0, 0, 50]
        after = [130, 0, 60, 840, 0, 0, 0, 70]  # 20 of 100 ticks stolen
        self.assertAlmostEqual(bench_record.steal_pct(before, after), 20.0)

    def test_missing_reading_or_no_elapsed_time_is_none(self):
        reading = [1, 0, 1, 1, 0, 0, 0, 0]
        self.assertIsNone(bench_record.steal_pct(None, reading))
        self.assertIsNone(bench_record.steal_pct(reading, None))
        self.assertIsNone(bench_record.steal_pct(reading, reading))


class SpreadTest(unittest.TestCase):
    def test_quartiles_interpolate_between_ranks(self):
        s = bench_record.spread([4.0, 1.0, 3.0, 2.0])
        self.assertEqual(s["n"], 4)
        self.assertAlmostEqual(s["median"], 2.5)
        self.assertAlmostEqual(s["q1"], 1.75)
        self.assertAlmostEqual(s["q3"], 3.25)

    def test_single_run_is_its_own_spread(self):
        s = bench_record.spread([7.0])
        self.assertEqual((s["median"], s["q1"], s["q3"]), (7.0, 7.0, 7.0))


class SpecTest(unittest.TestCase):
    def test_reads_run_length_and_directions(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCHMARK.json"
            path.write_text(json.dumps({
                "run_seconds": 20,
                "end_to_end": [{"name": "maccess_s", "better": "higher"}],
                "per_layer": [{"name": "net.open_us_p50",
                               "better": "lower"}]}))
            seconds, better = bench_record.load_spec(path)
        self.assertEqual(seconds, 20)
        self.assertEqual(better, {"maccess_s": "higher",
                                  "net.open_us_p50": "lower"})


class SummaryTest(unittest.TestCase):
    def test_pairs_count_wins_in_each_metrics_direction(self):
        runs = [record("parent", 0.10, 20.6), record("change", 1.5, 0.9),
                record("change", 1.4, 21.0), record("parent", 0.11, 20.5),
                record("parent", 0.10, 20.7, trace=1)]
        summary = bench_record.summarize(runs, BETTER)
        self.assertEqual(summary["pairs"]["count"], 2)
        self.assertEqual(summary["pairs"]["change_won"],
                         {"maccess_s": 2, "job_ms_p50": 1})
        self.assertEqual(summary["parent"]["job_ms_p50"]["n"], 2)
        self.assertEqual(summary["parent-traced"]["job_ms_p50"]["n"], 1)
        self.assertNotIn("change-traced", summary)

    def test_ties_count_for_neither_side(self):
        runs = [record("parent", 1.0, 2.0), record("change", 1.0, 2.0)]
        summary = bench_record.summarize(runs, BETTER)
        self.assertEqual(summary["pairs"]["change_won"],
                         {"maccess_s": 0, "job_ms_p50": 0})

    def test_append_rewrites_the_summary(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_wire-interactive.json"
            bench_record.append_record(path, record("parent", 0.1, 20.0),
                                       BETTER)
            document = bench_record.append_record(
                path, record("change", 1.2, 1.0), BETTER)
            self.assertEqual(len(document["runs"]), 2)
            self.assertEqual(json.loads(path.read_text()), document)
            self.assertEqual(document["summary"]["pairs"]["count"], 1)
            other = record("parent", 0.1, 20.0)
            other["workload"] = "offline-paper"
            with self.assertRaises(ValueError):
                bench_record.append_record(path, other, BETTER)


if __name__ == "__main__":
    unittest.main()
