#!/usr/bin/env python3
"""Alternating-pair A/B runs of targad_bench between two git revisions.

    python3 tools/ab.py BASE CHANGE --first-seed N [--workloads a,b]

Each revision is checked out in a detached git worktree under
.bench_work/ab/<sha> (kept, so a second invocation rebuilds nothing; remove
one with `git worktree remove`), and that checkout's own targad_bench/run.py
builds and runs the harness there. The caller's working tree is untouched.

Per workload it runs PAIRS pairs (TCP_NARROW_PAIRS on tcp_narrow) of
BENCHMARK.json's run_seconds each. Both runs of a pair share a seed, from
--first-seed upwards, and every other pair runs the change first. A run
that exits non-zero, reports correct: false or reports failed > 0 stops
the tool and prints that run's output.

It prints a table, one row per workload and end-to-end metric, with a
verdict against the metric's BENCHMARK.json bound:

  gain          the change is better in at least 9/10 of the pairs (ties
                count for neither side) and the medians differ by more
                than the parent's interquartile range;
  regression    the change's median is worse than the parent's by more
                than the bound;
  unresolved    the parent's spread, (q3 - q1) / median, is above the
                bound, unless every change run beats every parent run;
  within bound  otherwise.

The last stdout line is the JSON block a BENCH_serve_throughput.json
trajectory entry records as "targad_bench_ab". Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
TCP_NARROW_PAIRS = 20  # The noisiest workload: its open-loop tail.


def pair_count(workload):
    return TCP_NARROW_PAIRS if workload == "tcp_narrow" else PAIRS


def schedule(workloads, first_seed):
    """Every run in order: (workload, seed, side), side "parent" or
    "change". Both sides of a pair share its seed; odd pairs run the change
    first."""
    runs = []
    seed = first_seed
    for workload in workloads:
        for i in range(pair_count(workload)):
            sides = ("change", "parent") if i % 2 else ("parent", "change")
            runs += [(workload, seed, side) for side in sides]
            seed += 1
    return runs


def sig(x):
    """`x` to six significant digits, as the trajectory records it."""
    return float(f"{x:.6g}")


def compare(parent, change, better, bound):
    """Statistics and verdict for one metric over pairs (parent[i],
    change[i]); `better` is "lower" or "higher"."""
    sign = 1 if better == "higher" else -1
    p = statistics.quantiles(parent, n=4)
    c = statistics.quantiles(change, n=4)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    ratios = sorted(b / a if a else 1.0 if a == b else float("inf")
                    for a, b in zip(parent, change))
    iqr = p[2] - p[0]
    spread = iqr / p[1] if p[1] else float("inf")
    improvement = sign * (c[1] - p[1])
    worse = -improvement / abs(p[1]) if p[1] else 0.0
    if sign > 0:
        separated = min(change) > max(parent)
    else:
        separated = max(change) < min(parent)
    if 10 * wins >= 9 * len(parent) and improvement > iqr:
        verdict = "gain"
    elif worse > bound:
        verdict = "regression"
    elif spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": [sig(x) for x in p],
        "change": [sig(x) for x in c],
        "pairs": len(parent),
        "change_better": wins,
        "pair_ratio_range": [sig(ratios[0]), sig(ratios[-1])],
        "pair_ratio_median": sig(statistics.median(ratios)),
        "median_change": sig((c[1] - p[1]) / p[1] if p[1] else 0.0),
        "parent_iqr": sig(iqr),
        "verdict": verdict,
    }


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def checkout(revision):
    """The sha of `revision` and a detached worktree of it."""
    sha = git("rev-parse", "--verify", revision + "^{commit}")
    path = os.path.join(ROOT, ".bench_work", "ab", sha)
    if not os.path.isdir(path):
        git("worktree", "add", "--detach", path, sha)
    return sha, path


def run_once(tree, workload, seed, seconds):
    """One untraced run: (metric values, harness fingerprint). Exits the
    tool, printing the run's output, on any failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "targad_bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = (proc.returncode == 0 and result["correct"] is True
              and result["failed"] == 0)
    except (IndexError, ValueError, KeyError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stderr)
        sys.stdout.write(proc.stdout)
        sys.exit(f"ab.py: {workload} seed {seed} in {tree} failed "
                 f"(exit {proc.returncode})")
    fingerprint = {}
    for line in proc.stderr.splitlines():
        if line.startswith("fingerprint "):
            key, _, value = line[len("fingerprint "):].partition(": ")
            fingerprint[key] = value
    return ({name: m["value"] for name, m in result["metrics"].items()},
            fingerprint)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    shas, trees, specs = {}, {}, []
    for side, revision in (("parent", args.base), ("change", args.change)):
        shas[side], trees[side] = checkout(revision)
        with open(os.path.join(trees[side], "BENCHMARK.json")) as f:
            specs.append(json.load(f))
    spec = specs[1]
    if specs[0] != spec:
        sys.exit("ab.py: BENCHMARK.json differs between the two revisions")
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    values = {w: {"parent": [], "change": [], "seeds": []} for w in workloads}
    machine = {}
    runs = schedule(workloads, args.first_seed)
    for n, (workload, seed, side) in enumerate(runs, 1):
        metrics, fingerprint = run_once(trees[side], workload, seed,
                                        spec["run_seconds"])
        values[workload][side].append(metrics)
        values[workload]["seeds"].append(seed)
        machine = machine or fingerprint
        print(f"ab.py: run {n}/{len(runs)}: {workload} seed {seed} {side}",
              file=sys.stderr, flush=True)

    block = {}
    print(f"{'workload':<11} {'metric':<17} {'parent median':>13} "
          f"{'change median':>13} {'change':>8} {'wins':>6} "
          f"{'pair ratio min-max':>18}  verdict")
    for workload in workloads:
        block[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = compare([r[name] for r in values[workload]["parent"]],
                          [r[name] for r in values[workload]["change"]],
                          metric["better"], metric["bound"])
            block[workload][name] = row
            print(f"{workload:<11} {name:<17} {row['parent'][1]:>13.6g} "
                  f"{row['change'][1]:>13.6g} {row['median_change']:>+8.2%} "
                  f"{row['change_better']:>3}/{row['pairs']:<2} "
                  f"{row['pair_ratio_range'][0]:>8.4f}-"
                  f"{row['pair_ratio_range'][1]:<9.4f}  {row['verdict']}")
        seeds = values[workload]["seeds"]
        block[workload]["seeds"] = [min(seeds), max(seeds)]
    block["commits"] = shas
    block["run_seconds"] = spec["run_seconds"]
    block["machine"] = {key: machine.get(key) for key in
                        ("cpu_model", "nproc", "kernel_backend", "build_type",
                         "compiler")}
    print(json.dumps(block))
    return 0


if __name__ == "__main__":
    sys.exit(main())
