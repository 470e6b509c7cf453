#!/usr/bin/env python3
"""Schema self-check of the whole-stack benchmark.

Run from the root of the repository:

    python3 perfbench/test_schema.py

Checks that BENCHMARK.json keeps the benchmark's declared shape, that
perfbench/layers.json describes exactly its per-layer metrics, and that
one short run of every workload, untraced and traced, prints every
declared metric with its unit and a name matching [A-Za-z0-9_.-]+.
The runs build the program first, so the first one takes a while.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    return json.loads(path.read_text())


class Declarations(unittest.TestCase):
    def setUp(self):
        self.bench = load(ROOT / "BENCHMARK.json")
        self.layers = load(ROOT / "perfbench" / "layers.json")

    def test_benchmark_json_shape(self):
        b = self.bench
        self.assertLessEqual((ROOT / "BENCHMARK.json").stat().st_size, 64 * 1024)
        self.assertEqual(
            set(b),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue((ROOT / p).is_dir())
        self.assertTrue(1 <= len(b["command"]) <= 32)
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(
            setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]), "setup_s has the largest bound"
        )
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [x["name"] for x in b["workloads"] + b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "every name is used once")
        for n in names:
            self.assertRegex(n, NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_layers_json_describes_every_per_layer_metric(self):
        per = self.layers["per_layer"]
        declared = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(set(per), set(declared))
        workloads = {w["name"] for w in self.bench["workloads"]}
        self.assertEqual(set(self.layers["workloads"]), workloads)
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        self.assertEqual(set(self.layers["end_to_end"]), e2e)
        for name, spec in per.items():
            self.assertEqual(spec["unit"], declared[name], name)
            self.assertTrue(set(spec["measured_on"]) <= workloads, name)
            self.assertTrue(set(spec.get("moves", [])) <= e2e, name)
            self.assertIn(name.split(".")[0], {*self.layers["layers"], "overhead"}, name)


class Output(unittest.TestCase):
    def run_workload(self, workload, trace):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_every_metric_is_printed_with_its_unit(self):
        bench = load(ROOT / "BENCHMARK.json")
        for w in bench["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = self.run_workload(w["name"], trace)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"], r)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    want = {m["name"]: m["unit"] for m in bench[key]}
                    self.assertEqual(set(r["metrics"]), set(want))
                    for name, m in r["metrics"].items():
                        self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)


if __name__ == "__main__":
    unittest.main()
