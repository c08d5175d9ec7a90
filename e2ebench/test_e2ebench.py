"""Tests of the end-to-end benchmark, in its reduced-size smoke mode.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

Run from the root of a source checkout; the first test builds the
benchmark into .bench_build/e2ebench (about a minute on 4 cores).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace=0, extra=(), cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "2014",
           "--seconds", "2", "--trace", str(trace), "--smoke"] + list(extra)
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


class SmokeTest(unittest.TestCase):
    def check_result(self, lines, names):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines[-30:]))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))
        return result["metrics"]

    def test_end_to_end_every_workload(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            code, lines = bench(w["name"])
            self.assertEqual(code, 0, "\n".join(lines[-30:]))
            metrics = self.check_result(lines, names)
            for name, m in metrics.items():
                self.assertEqual(m["unit"], names[name])
                self.assertGreater(m["value"], 0, name)

    def test_traced_every_workload(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            code, lines = bench(w["name"], trace=1)
            self.assertEqual(code, 0, "\n".join(lines[-30:]))
            metrics = self.check_result(lines, names)
            for name, m in metrics.items():
                self.assertEqual(m["unit"], names[name])
            spans = [l for l in lines if l.startswith("spans: ")]
            self.assertEqual(len(spans), 1)
            with open(spans[0][len("spans: "):]) as f:
                doc = json.load(f)
            self.assertTrue(any(e.get("ph") == "X"
                                for e in doc["traceEvents"]))
            if w["name"] == "check-memo":
                # The CLI path never memoizes from a file today; the
                # in-process BinaryStreamSource does.
                self.assertEqual(metrics["wire.memo_hit_ratio"]["value"], 0)
                self.assertEqual(
                    metrics["detect.memo_summary_hit_ratio_cli"]["value"], 0)
                self.assertGreater(
                    metrics["detect.memo_summary_hit_ratio"]["value"], 0)
            if w["name"].startswith("check-"):
                self.check_waterfall(lines)

    def check_waterfall(self, lines):
        start = [i for i, l in enumerate(lines) if l.startswith("waterfall")]
        self.assertEqual(len(start), 1)
        wall = float(re.search(r"wall ([-0-9.]+) ms", lines[start[0]])[1])
        rows = []
        for line in lines[start[0] + 1:]:
            if not line.startswith("  "):
                break
            rows.append(float(line.split()[-2]))
        self.assertEqual(len(rows), 6)
        self.assertAlmostEqual(sum(rows), wall, delta=0.01)

    def test_wrong_pinned_digest_fails(self):
        code, lines = bench("check-h2", extra=["--corrupt-pin"])
        self.assertEqual(code, 1)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_sources(self):
        build_tree = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_tree, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_tree) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("check-h2", cwd=tmp,
                                run=os.path.join(tmp, "e2ebench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
