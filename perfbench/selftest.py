"""Self-tests of the benchmark's own code: output checks, statistics,
self-time accounting and the traced runner.

Usage (from the root of a checkout): python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import traced  # noqa: E402

COMPUTE = ["compute", "p", "--n-max", "3"]
ORACLE = ["oracle-check", "--function", "p_tt", "--t", "1", "--n-max", "2"]
VERIFY = ["verify", "all"]


def compute_lines(values):
    return [json.dumps({"function": "p", "params": {}, "n": n, "value": str(v)})
            for n, v in enumerate(values)]


def oracle_lines(pairs):
    return [json.dumps({"function": "p_tt", "n": n, "oracle": str(a), "series": str(b),
                        "equal": a == b}) for n, (a, b) in enumerate(pairs)]


def verify_lines(checked_failures):
    return [json.dumps({"suite": "s", "label": f"r{j}", "checked": c, "skipped": 0,
                        "failures": [], "failure_count": f, "passed": f == 0})
            for j, (c, f) in enumerate(checked_failures)]


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.good = run.summarize(COMPUTE, compute_lines([1, 1, 2, 3]))
        self.expected = {"exit": 0, "digest": self.good["digest"]}

    def test_correct_compute_passes(self):
        self.assertEqual(run.check_op(COMPUTE, 0, self.good, self.expected), [])

    def test_layout_change_still_passes(self):
        # integers instead of strings and reordered keys parse to the same facts
        lines = [json.dumps({"value": v, "n": n}) for n, v in enumerate([1, 1, 2, 3])]
        summary = run.summarize(COMPUTE, lines)
        self.assertEqual(run.check_op(COMPUTE, 0, summary, self.expected), [])

    def test_corrupted_value_fails(self):
        bad = run.summarize(COMPUTE, compute_lines([1, 1, 2, 4]))
        self.assertTrue(run.check_op(COMPUTE, 0, bad, self.expected))

    def test_missing_row_fails(self):
        bad = run.summarize(COMPUTE, compute_lines([1, 1, 2]))
        self.assertTrue(run.check_op(COMPUTE, 0, bad, self.expected))

    def test_wrong_exit_code_fails(self):
        self.assertTrue(run.check_op(COMPUTE, 1, self.good, self.expected))

    def test_unparseable_output_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.txt"
            path.write_text("not json\n")
            summary = run.summarize_file(COMPUTE, path)
        self.assertIsNone(summary)
        self.assertTrue(run.check_op(COMPUTE, 0, summary, self.expected))

    def test_oracle_mismatch_fails(self):
        good = run.summarize(ORACLE, oracle_lines([(1, 1), (1, 1), (1, 1)]))
        expected = {"exit": 0, "digest": good["digest"]}
        self.assertEqual(run.check_op(ORACLE, 0, good, expected), [])
        bad = run.summarize(ORACLE, oracle_lines([(1, 1), (1, 2), (1, 1)]))
        bad["digest"] = good["digest"]  # even with matching values recorded
        self.assertTrue(run.check_op(ORACLE, 0, bad, expected))

    def test_verify_failures_fail(self):
        summary = run.summarize(VERIFY, verify_lines([(10, 0), (5, 1)]))
        self.assertTrue(run.check_op(VERIFY, 0, summary, {"exit": 0, "checked": 15}))

    def test_verify_lower_checked_fails(self):
        summary = run.summarize(VERIFY, verify_lines([(10, 0), (4, 0)]))
        self.assertEqual(run.check_op(VERIFY, 0, summary, {"exit": 0, "checked": 14}), [])
        self.assertTrue(run.check_op(VERIFY, 0, summary, {"exit": 0, "checked": 15}))

    def test_negative_control_that_passes_fails(self):
        expected = {"exit": 1, "checked": 20}
        caught = run.summarize(run.NEGATIVE_CONTROL, verify_lines([(21, 21)]))
        self.assertEqual(run.check_op(run.NEGATIVE_CONTROL, 1, caught, expected), [])
        silent = run.summarize(run.NEGATIVE_CONTROL, verify_lines([(21, 0)]))
        self.assertTrue(run.check_op(run.NEGATIVE_CONTROL, 0, silent, expected))
        self.assertTrue(run.check_op(run.NEGATIVE_CONTROL, 1, silent, expected))


class Statistics(unittest.TestCase):
    def test_quartiles(self):
        self.assertEqual(run.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5))
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(run.describe([1.0, 3.0])["n"], 2)

    def test_self_times(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 3.0, 6.0, 0),  # overlaps a: the overlap is subtracted once
            ("leaf", 2.0, 3.0, 1),
            ("other", 20.0, 21.0, -1),
        ]
        self.assertEqual(traced.self_times(spans), [5.0, 2.0, 3.0, 1.0, 1.0])

    def test_layer_metrics(self):
        spans = [
            ("cli.command", 0.0, 10.0, -1),
            ("suites.thm1", 1.0, 9.0, 0),
            ("mex.oracle", 2.0, 5.0, 1),
            ("mex.oracle", 5.0, 8.0, 1),
        ]
        m = traced.layer_metrics(spans, {"partitions.enumerated": 7}, 65536, 3)
        self.assertEqual(m["suites.thm1_s"], 8.0)  # inclusive
        self.assertEqual(m["mex.oracle_s"], 6.0)
        self.assertEqual(m["mex.oracle_calls"], 2)
        self.assertEqual(m["cli.emit_s"], 2.0)  # self time of the command
        self.assertEqual(m["suites.final_s"], 0.0)
        self.assertEqual(m["partitions.p_table_len"], 65536)
        self.assertEqual(m["partitions.enumerated"], 7)

    def test_combine_round(self):
        base = {m: 0 for m in run.PER_LAYER}
        a = dict(base, **{"mex.oracle_s": 1.5, "partitions.p_table_len": 10,
                          "congruences.reports": 4, "congruences.vacuous_reports": 1})
        b = dict(base, **{"mex.oracle_s": 0.5, "partitions.p_table_len": 30})
        out = run.combine_round([a, b])
        self.assertEqual(out["mex.oracle_s"], 2.0)
        self.assertEqual(out["partitions.p_table_len"], 30)
        self.assertEqual(out["congruences.nonvacuous_ratio"], 0.75)
        self.assertEqual(run.combine_round([base])["congruences.nonvacuous_ratio"], 0.0)


class BenchmarkFile(unittest.TestCase):
    def test_names_match_the_code(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.GRIDS))
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.END_TO_END))
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(run.PER_LAYER))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.PER_LAYER[m["name"]][0])

    def test_every_op_has_an_expected_record(self):
        import record

        with open(run.EXPECTED) as fh:
            expected = json.load(fh)
        self.assertEqual({run.op_key(op) for op in record.all_ops()}, set(expected))


@unittest.skipUnless((run.SRC / "mexparts").is_dir(), "needs the mexparts sources")
class EndToEnd(unittest.TestCase):
    ARGV = ["compute", "p_Aa_oracle", "--A", "2", "--a", "2", "--n-max", "10"]

    def test_traced_runner(self):
        env = dict(os.environ, PYTHONPATH=str(run.SRC))
        plain = subprocess.run([sys.executable, "-m", "mexparts.cli", *self.ARGV],
                               capture_output=True, env=env, check=True)
        with tempfile.TemporaryDirectory() as tmp:
            prefix = str(Path(tmp) / "t")
            traced_run = subprocess.run(
                [sys.executable, str(run.BENCH / "traced.py"), prefix, *self.ARGV],
                capture_output=True, env=env, check=True)
            with open(prefix + ".layers.json") as fh:
                layers = json.load(fh)
            with open(prefix + ".spans.jsonl") as fh:
                names = [json.loads(line)[0] for line in fh]
        self.assertEqual(traced_run.stdout, plain.stdout)
        p = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        self.assertEqual(layers["partitions.enumerated"], sum(p))
        self.assertEqual(layers["mex.oracle_calls"], 11)
        self.assertEqual(names.count("cli.compute_rows"), 1)
        self.assertEqual(set(layers) | {"cli.stdout_bytes", "trace.overhead_s",
                                        "congruences.nonvacuous_ratio"}, set(run.PER_LAYER))

    def test_corrupted_op_makes_the_run_fail(self):
        op = ["compute", "p", "--n-max", "10"]
        with tempfile.TemporaryDirectory() as tmp:
            expected = Path(tmp) / "expected.json"
            expected.write_text(json.dumps({run.op_key(op): {"exit": 0, "digest": "0" * 64}}))
            out = io.StringIO()
            with mock.patch.object(run, "EXPECTED", expected), \
                 mock.patch.object(run, "workload_ops", lambda w, p: [op]), \
                 contextlib.redirect_stdout(out):
                code = run.main(["--workload", "p-table", "--seed", "1", "--seconds", "1"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
