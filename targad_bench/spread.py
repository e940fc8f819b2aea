#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 targad_bench/spread.py [--runs 10] [--sets 2] [--workloads a,b]
                                   [--seconds 20] [--out spread.json]

Runs targad_bench/run.py --runs times per workload and set, each run with
its own seed (set s, run i uses seed 1000*s + i + 1). For every end-to-end
metric of BENCHMARK.json it prints the median and quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median, beside the
metric's bound; a spread above a third of the bound is flagged. With two or
more sets it also compares each set's median with the first set's and flags
a drift worse than the bound in the metric's "worse" direction. setup_s is
exempt from the spread check, as it only has to hold its median. Standard
library only; run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "targad_bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: correctness checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", help="also write the raw values as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    raw = {}  # workload -> set -> metric -> [values]
    for workload in workloads:
        raw[workload] = []
        for s in range(args.sets):
            values = {}
            for i in range(args.runs):
                for name, value in run_once(workload, 1000 * s + i + 1,
                                            seconds).items():
                    values.setdefault(name, []).append(value)
                print(f"{workload} set {s + 1} run {i + 1}/{args.runs} done",
                      file=sys.stderr, flush=True)
            raw[workload].append(values)

    failures = 0
    print(f"{'workload':<11} {'metric':<17} {'set':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            gated = name != "setup_s"
            first = None
            for s, values in enumerate(raw[workload]):
                st = summarize(values[name])
                verdict = []
                failed = gated and st["spread"] > bound
                if failed:
                    verdict.append("SPREAD > BOUND")
                elif gated and st["spread"] > bound / 3:
                    verdict.append("spread > bound/3")
                if first is None:
                    first = st["median"]
                else:
                    drift = (st["median"] - first) / first
                    worse = drift if metric["better"] == "lower" else -drift
                    verdict.append(f"drift {drift:+.3f}")
                    if worse > bound:
                        verdict.append("MEDIAN DRIFT > BOUND")
                        failed = True
                failures += failed
                print(f"{workload:<11} {name:<17} {s + 1:>3} "
                      f"{st['median']:>14.6g} {st['q1']:>14.6g} "
                      f"{st['q3']:>14.6g} {st['spread']:>7.4f} {bound:>6.3f}"
                      f"  {', '.join(verdict) or 'ok'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
