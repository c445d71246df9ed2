#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the paper's workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke [--workload <name>]

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. A measured run prints the
host/build signature line, then one JSON result line whose metric names are
exactly the BENCHMARK.json table for the mode (end_to_end for --trace 0,
per_layer for --trace 1). --smoke runs every workload once on tiny inputs in
both modes with all checks on and exits 0 only if every run verified.
Exits non-zero, printing no result, when the build, the run or a check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Runnable and smoke-tested, but not in BENCHMARK.json: its time is mostly
# temp-file creation on TMPDIR, which is unsteady on a disk-backed checkout
# (README.md, "Workloads").
UNGATED_WORKLOADS = ["bounce_rate_spill"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def child_env():
    env = dict(os.environ)
    # Engine knobs read from the environment would change what is measured.
    for key in list(env):
        if key.startswith("MATRYOSHKA_"):
            del env[key]
    # Spill files (created and unlinked at once) stay inside the checkout.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one benchmark process; returns (signature line, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"{workload}: expected a signature and a result line")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(want))}")
    if result["attempted"] < 1:
        fail(f"{workload}: nothing attempted")
    return lines[-2], result


def smoke(binary, workloads):
    ok = True
    for workload in workloads:
        for trace in (False, True):
            _, r = run_once(binary, workload, 1, 1, trace, smoke=True)
            good = r["correct"] and r["failed"] == 0
            ok = ok and good
            print(f"{workload} trace={int(trace)}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({r['attempted']} checked, {r['failed']} failed)")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    workloads += UNGATED_WORKLOADS
    if a.workload is not None and a.workload not in workloads:
        fail(f"unknown workload {a.workload!r}; one of {workloads}")
    if not a.smoke and a.workload is None:
        fail("--workload is required")
    binary = build()
    if a.smoke:
        sys.exit(0 if smoke(binary, [a.workload] if a.workload else workloads)
                 else 1)
    signature, result = run_once(binary, a.workload, a.seed, a.seconds,
                                 a.trace == 1)
    print(signature)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
