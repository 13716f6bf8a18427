#!/usr/bin/env python3
"""Self-tests of the benchmark: determinism of its work counts and its output contract.

    python3 perfbench/test_perfbench.py [-v]

Builds the benchmark binary the way run.py does, then for every workload
runs a fixed amount of work at self-test sizes (--small) and checks that
  * every deterministic count is identical at 1 and at one-per-core pool
    threads, and across two runs with the same seed;
  * the counts change with another seed;
  * every output check passes;
and that run.py prints a result line carrying exactly the metrics of
BENCHMARK.json, and refuses to run where the library sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

ROOT = run.ROOT
BINARY = None


def run_small(workload, seed, threads):
    """Runs the binary at self-test size; returns (exit code, counts, result)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0", "--small", "--threads", str(threads)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    tagged = {}
    for line in proc.stdout.splitlines():
        if line.startswith("@"):
            tag, _, payload = line.partition(" ")
            tagged[tag] = json.loads(payload)
    return proc.returncode, tagged.get("@counts"), tagged.get("@result")


class Determinism(unittest.TestCase):
    def check_workload(self, workload):
        cores = os.cpu_count() or 1
        code, base, result = run_small(workload, 1, cores)
        self.assertEqual(code, 0, f"{workload}: output checks failed")
        self.assertEqual(result["failed"], 0)
        self.assertTrue(base, f"{workload}: no counts")
        for threads in (1, cores):
            code, counts, _ = run_small(workload, 1, threads)
            self.assertEqual(code, 0)
            self.assertEqual(counts, base, f"{workload}: counts differ at {threads} threads")
        code, other, _ = run_small(workload, 2, cores)
        self.assertEqual(code, 0)
        self.assertEqual(set(other), set(base))
        self.assertNotEqual(other, base, f"{workload}: counts ignore the seed")

    def test_build(self):
        self.check_workload("build")

    def test_serve(self):
        self.check_workload("serve")

    def test_route(self):
        self.check_workload("route")

    def test_churn(self):
        self.check_workload("churn")


class Contract(unittest.TestCase):
    def run_py(self, cwd_root, workload, trace):
        return subprocess.run(
            [sys.executable, os.path.join(cwd_root, "perfbench", "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"],
            cwd=cwd_root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=900)

    def test_result_line_carries_the_declared_metrics(self):
        bench = run.load_schema()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = self.run_py(ROOT, "churn", trace)
            self.assertEqual(proc.returncode, 0)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]), {m["name"] for m in bench[key]})
            for m in bench[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_out")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.run_py(bare, "serve", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    BINARY = run.build_binary()
    unittest.main()
