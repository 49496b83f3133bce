"""Tests of the perfbench benchmark itself.

Run from the root of a checkout (builds hogperf on first use; the full file
takes a few minutes because it runs every workload):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


class Names(unittest.TestCase):
    def test_every_name_matches_the_pattern(self):
        spec = declared()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertEqual(NAME.fullmatch(name).group(), name)
        self.assertEqual(len(names), len(set(names)), "names are reused")

    def test_declared_workloads_are_the_drivers(self):
        spec = declared()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))


class Emitted(unittest.TestCase):
    """Every declared metric is printed, by name and with its unit."""

    def check(self, workload, trace, section):
        code, result = bench(workload, trace)
        self.assertEqual(code, 0, result)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared()[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_elastic_4k(self):
        self.check("elastic_4k", 0, "end_to_end")
        self.check("elastic_4k", 1, "per_layer")

    def test_facebook_1101(self):
        self.check("facebook_1101", 0, "end_to_end")
        self.check("facebook_1101", 1, "per_layer")

    def test_burst_repair(self):
        self.check("burst_repair", 0, "end_to_end")
        self.check("burst_repair", 1, "per_layer")


class Fingerprint(unittest.TestCase):
    def test_traced_equals_untraced(self):
        binary = run.build()
        trace = run.build_dir().parent / "traces" / "test-burst_repair.json"
        trace.parent.mkdir(parents=True, exist_ok=True)
        plain, _, code = run.subrun(binary, "burst_repair", 11)
        self.assertEqual(code, 0, plain["errors"])
        traced, _, code = run.subrun(binary, "burst_repair", 11, trace)
        self.assertEqual(code, 0, traced["errors"])
        self.assertEqual(traced["fingerprint"], plain["fingerprint"])
        events = json.loads(trace.read_text())["traceEvents"]
        spans = {e["name"] for e in events if e["ph"] == "X"}
        for call in ("HogCluster()", "RequestNodes+WaitForNodes",
                     "PrepareInputs", "SubmitAll+Run", "Auditor::AuditNow"):
            self.assertIn(call, spans)


if __name__ == "__main__":
    unittest.main()
