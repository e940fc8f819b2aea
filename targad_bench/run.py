#!/usr/bin/env python3
"""Builds the targad_bench harness from this checkout and runs one workload.

    python3 targad_bench/run.py --workload tcp_narrow --seed 1 --seconds 20 \
        --trace 0

Run it from the repository root. The harness is compiled, together with the
library in src/, into .bench_build/ (only what changed is rebuilt); scratch
files and traces go to .bench_work/. The harness's stdout is passed through,
so its last line is the result object {"correct", "attempted", "failed",
"metrics"}; progress and per-metric lines go to stderr.

    python3 targad_bench/run.py --smoke [--binary PATH]

runs every workload untraced and traced with tiny fixtures and checks each
result against BENCHMARK.json: every metric present with its unit, no
failed operation, every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "targad_bench")
WORKLOADS = ("tcp_narrow", "fleet_zipf", "bulk_wide", "train_unsw")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources at {os.path.join(ROOT, 'src')}; "
            "run from a full checkout of the repository")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "targad_bench",
                  "-j", "4"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, env=env).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_harness(binary, args, timeout_s):
    """Runs the harness; returns (exit code, stdout) or (None, stdout) on
    timeout, after the harness has been killed and reaped."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        return None, out


def check_result(spec, workload, trace, code, out):
    """Problems with one smoke result, as a list of strings."""
    lines = out.strip().splitlines()
    if code is None or not lines:
        return [f"{workload} trace={trace}: no result (exit {code})"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{workload} trace={trace}: last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{workload} trace={trace}: "
                        f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{workload}: attempted={result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{workload} trace={trace}: metric names differ from "
                        "BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"{workload}: bad entry for {m['name']}: {got}")
    if code != 0:
        problems.append(f"{workload} trace={trace}: exit code {code}")
    return problems


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_harness(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke",
                "--out-dir", os.path.join(WORK_DIR, "smoke")], RUN_TIMEOUT_S)
            problems += check_result(spec, workload, trace, code, out)
    for problem in problems:
        log(problem)
    log("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this harness build as is")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    binary = args.binary
    if binary is None:
        started = time.monotonic()
        if not build():
            return 3
        log(f"build ready in {time.monotonic() - started:.1f} s")
        binary = BINARY
    if args.smoke:
        return smoke(binary)

    code, out = run_harness(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", WORK_DIR], RUN_TIMEOUT_S)
    if code is None:
        log(f"harness did not finish within {RUN_TIMEOUT_S} s; killed")
        return 4
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
