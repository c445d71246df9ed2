#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds perfbench like run.py does, runs every workload once on tiny inputs
with every check on, and checks the output contract of a measured run.
Scratch directories go under the build directory, inside the checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def run_py(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


class SmokeTest(unittest.TestCase):
    def test_every_workload_verifies(self):
        proc = run_py("--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        for name in workloads + run.UNGATED_WORKLOADS:
            self.assertIn(f"{name} trace=0: ok", proc.stdout)
            self.assertIn(f"{name} trace=1: ok", proc.stdout)

    def test_traced_bounce_rate_spans_cover_the_job(self):
        _, r = run.run_once(run.build(), "bounce_rate", 3, 1, True,
                            smoke=True)
        m = {k: v["value"] for k, v in r["metrics"].items()}
        self.assertTrue(r["correct"])
        for name in ("core.group_s", "core.reduce_by_key_s", "core.distinct_s",
                     "core.count_s", "engine.collect_s"):
            self.assertGreater(m[name], 0, name)
        # The spans are back-to-back calls: only timer overhead is left out.
        self.assertLess(m["trace.unattributed_pct"], 5.0)
        self.assertEqual(m["engine.real_spilled_mb"], 0)
        self.assertEqual(m["engine.native_iterations"], 0)

    def test_measured_run_prints_signature_then_result(self):
        proc = run_py("--workload", "pagerank", "--seed", "5", "--seconds",
                      "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        sig = json.loads(lines[-2])["signature"]
        for key in ("hardware_concurrency", "nproc", "build_type", "compiler",
                    "pool_threads", "serving_workers", "tmpdir_fs"):
            self.assertIn(key, sig)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), run.RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_fails_without_the_repository_sources(self):
        bare = os.path.join(run.build_dir(), "test-bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "bounce_rate", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
