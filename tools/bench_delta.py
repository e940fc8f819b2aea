#!/usr/bin/env python3
"""Render per-dtype serve-throughput deltas as a markdown table.

Reads the committed bench trajectory (BENCH_serve_throughput.json) and,
optionally, a fresh serve_throughput.json produced by bench_serve_throughput
on this checkout. For every dtype it reports the best rows/sec across the
worker x batch grid and the delta against the baseline (the last trajectory
entry when a fresh run is given, otherwise the previous entry).

When trajectory entries carry a "net" object (the bench_net_loadgen
record), or a fresh net_loadgen.json is passed via --run-net, a second
table diffs the TCP front-end's open-loop latency ladder (p50/p99/p999,
lower is better) the same way.

Likewise a "train" object (the bench_train_throughput record), or a fresh
train_throughput.json passed via --run-train, yields a training-throughput
table: rows/sec and epoch time per (kernel backend, thread count) cell, plus
the bit-exactness flag. Records written before the bench swept backends
carry no per-row "backend"; their rows are keyed by the record's
"kernel_backend".

Only the standard library is used; CI pipes the output into a PR comment.

Usage:
  bench_delta.py --trajectory BENCH_serve_throughput.json \
      [--run serve_throughput.json] [--run-net net_loadgen.json] \
      [--run-train train_throughput.json] [--output bench_delta.md]
"""

import argparse
import json
import sys

COMMENT_MARKER = "<!-- targad-bench-deltas -->"


def best_by_dtype(results):
    best = {}
    for cell in results:
        dtype = cell["dtype"]
        best[dtype] = max(best.get(dtype, 0.0), float(cell["rows_per_sec"]))
    return best


def entry_label(entry):
    pr = entry.get("pr")
    return f"PR {pr}" if pr is not None else entry.get("date", "baseline")


def format_rows(rows_per_sec):
    return f"{rows_per_sec:,.1f}"


def format_delta(base, new):
    if base <= 0.0:
        return "n/a"
    pct = (new / base - 1.0) * 100.0
    return f"{pct:+.1f}%"


def format_latency_delta(base, new):
    """Latency delta where lower is better: negative percentages are wins."""
    if base <= 0.0:
        return "n/a"
    pct = (new / base - 1.0) * 100.0
    return f"{pct:+.1f}%"


def render_net(baseline, candidate, candidate_label, run_net):
    """Markdown lines for the TCP loadgen section, or [] when absent."""
    base_net = baseline.get("net")
    cand_net = run_net if run_net is not None else candidate.get("net")
    if cand_net is None:
        return []
    lines = [
        "### TCP front-end — open-loop loadgen latency",
        "",
    ]
    if base_net is None:
        base_label = "(no baseline)"
        base_net = {}
    else:
        base_label = f"{entry_label(baseline)} (baseline)"
    lines += [
        f"| metric | {base_label} | {candidate_label} | delta |",
        "|---|---:|---:|---:|",
    ]
    for key in ("p50_us", "p99_us", "p999_us"):
        base = float(base_net.get(key, 0.0))
        cand = float(cand_net.get(key, 0.0))
        base_text = f"{base:,.0f} us" if base > 0.0 else "n/a"
        lines.append(
            f"| {key} | {base_text} | {cand:,.0f} us "
            f"| {format_latency_delta(base, cand)} |"
        )
    base_rps = float(base_net.get("rows_per_sec", 0.0))
    cand_rps = float(cand_net.get("rows_per_sec", 0.0))
    base_text = format_rows(base_rps) if base_rps > 0.0 else "n/a"
    lines.append(
        f"| rows/sec | {base_text} | {format_rows(cand_rps)} "
        f"| {format_delta(base_rps, cand_rps)} |"
    )
    lines += [
        "",
        f"_Open-loop {cand_net.get('dist', '?')} replay at "
        f"{cand_net.get('rate_target', '?')} req/s over "
        f"{cand_net.get('connections', '?')} connections; "
        f"sent={cand_net.get('sent', '?')} shed={cand_net.get('shed', '?')} "
        f"errors={cand_net.get('errors', '?')}. Latency deltas: lower is "
        "better._",
        "",
    ]
    return lines


def render_cold_start(baseline, candidate, candidate_label):
    """Markdown lines for the cold-start section, or [] when absent.

    The record rides inside serve_throughput.json (and the trajectory
    entries), so no separate --run flag is needed; entries from before the
    flat-artifact format simply skip the section.
    """
    cand_cold = candidate.get("cold_start")
    if cand_cold is None:
        return []
    base_cold = baseline.get("cold_start")
    base_label = (
        f"{entry_label(baseline)} (baseline)"
        if base_cold is not None
        else "(no baseline)"
    )
    if base_cold is None:
        base_cold = {}
    lines = [
        "### Cold start — disk to servable scorer (float32)",
        "",
        f"| metric | {base_label} | {candidate_label} | delta |",
        "|---|---:|---:|---:|",
    ]
    for key in ("text_load_us", "artifact_load_us"):
        base = float(base_cold.get(key, 0.0))
        cand = float(cand_cold.get(key, 0.0))
        base_text = f"{base:,.0f} us" if base > 0.0 else "n/a"
        lines.append(
            f"| {key} | {base_text} | {cand:,.0f} us "
            f"| {format_latency_delta(base, cand)} |"
        )
    lines += [
        "",
        f"_Median of 30 page-cache-warm loads; text = parse + freeze, "
        f"artifact = read + checksum + pointer fixup over a "
        f"{int(cand_cold.get('artifact_bytes', 0)):,}-byte `.tgz1`. "
        f"Artifact load is {float(cand_cold.get('speedup', 0.0)):.1f}x "
        "faster — the registry's cold-to-warm promotion cost. Latency "
        "deltas: lower is better._",
        "",
    ]
    return lines


def render_train(baseline, candidate, candidate_label, run_train):
    """Markdown lines for the training-throughput section, or [] if absent."""
    base_train = baseline.get("train")
    cand_train = run_train if run_train is not None else candidate.get("train")
    if cand_train is None:
        return []

    def by_cell(record):
        default_backend = record.get("kernel_backend", "?")
        return {
            (r.get("backend", default_backend), int(r["threads"])): r
            for r in record.get("results", [])
            if "threads" in r
        }

    base_rows = by_cell(base_train) if base_train is not None else {}
    cand_rows = by_cell(cand_train)
    base_label = (
        f"{entry_label(baseline)} (baseline)"
        if base_train is not None
        else "(no baseline)"
    )
    lines = [
        "### Training throughput — minibatch autoencoder epochs",
        "",
        f"| backend | threads | {base_label} rows/sec "
        f"| {candidate_label} rows/sec | delta | epoch_ms | speedup |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    for (backend, threads), cand in cand_rows.items():
        base = base_rows.get((backend, threads), {})
        base_rps = float(base.get("rows_per_sec", 0.0))
        cand_rps = float(cand.get("rows_per_sec", 0.0))
        base_text = format_rows(base_rps) if base_rps > 0.0 else "n/a"
        lines.append(
            f"| {backend} | {threads} | {base_text} | {format_rows(cand_rps)} "
            f"| {format_delta(base_rps, cand_rps)} "
            f"| {float(cand.get('epoch_ms', 0.0)):,.1f} "
            f"| {float(cand.get('speedup', 1.0)):.2f}x |"
        )
    bitexact = cand_train.get("bitexact_across_cells",
                              cand_train.get("bitexact_across_threads"))
    lines += [
        "",
        f"_Arch {cand_train.get('arch', '?')}, batch "
        f"{cand_train.get('batch_size', '?')}, "
        f"{cand_train.get('rows', '?')} rows x "
        f"{cand_train.get('epochs', '?')} epochs; final parameters "
        + (
            "bit-identical across every cell._"
            if bitexact
            else "**DRIFTED** between cells._"
        ),
        "",
    ]
    return lines


def render(trajectory, run, run_net=None, run_train=None):
    entries = trajectory["trajectory"]
    if run is not None:
        baseline, candidate = entries[-1], run
        candidate_label = "this run"
    elif len(entries) >= 2:
        baseline, candidate = entries[-2], entries[-1]
        candidate_label = entry_label(candidate)
    else:
        return f"{COMMENT_MARKER}\nNot enough bench entries to diff.\n"
    base_label = f"{entry_label(baseline)} (baseline)"

    lines = [COMMENT_MARKER]
    # An entry may carry only a net or train record (a PR that benched just
    # one subsystem); skip the serve-throughput table rather than die, so the
    # sections that do have data still render.
    base_results = baseline.get("results")
    cand_results = candidate.get("results")
    if base_results is None or cand_results is None:
        missing = entry_label(candidate if cand_results is None else baseline)
        lines += [
            f"_Serve-throughput table skipped: {missing} has no serve "
            "grid (`results`)._",
            "",
        ]
    else:
        base_best = best_by_dtype(base_results)
        cand_best = best_by_dtype(cand_results)
        lines += [
            "### Serve throughput — best rows/sec by dtype",
            "",
            f"| dtype | {base_label} | {candidate_label} | delta |",
            "|---|---:|---:|---:|",
        ]
        for dtype in sorted(set(base_best) | set(cand_best)):
            base = base_best.get(dtype, 0.0)
            cand = cand_best.get(dtype, 0.0)
            lines.append(
                f"| {dtype} | {format_rows(base)} | {format_rows(cand)} "
                f"| {format_delta(base, cand)} |"
            )
        lines.append("")

    backend = candidate.get("kernel_backend")
    tiling = candidate.get("kernel_tiling")
    if backend is not None:
        detail = f"kernel backend: `{backend}`"
        if tiling is not None:
            detail += (
                f" · tiling: threads={tiling.get('threads', '?')},"
                f" min_flops={tiling.get('min_flops', '?')},"
                f" min_rows_per_tile={tiling.get('min_rows_per_tile', '?')}"
            )
        lines.append(detail)
        lines.append("")
    lines.extend(render_cold_start(baseline, candidate, candidate_label))
    lines.extend(render_net(baseline, candidate, candidate_label, run_net))
    lines.extend(render_train(baseline, candidate, candidate_label, run_train))
    lines.append(
        f"_Grid: {candidate.get('rows_per_cell', '?')} rows/cell at "
        f"scale {candidate.get('scale', '?')}; numbers are the best cell "
        "across workers × max_batch._"
    )
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trajectory", required=True,
                        help="committed BENCH_serve_throughput.json")
    parser.add_argument("--run", default=None,
                        help="fresh serve_throughput.json from this checkout")
    parser.add_argument("--run-net", default=None,
                        help="fresh net_loadgen.json from this checkout")
    parser.add_argument("--run-train", default=None,
                        help="fresh train_throughput.json from this checkout")
    parser.add_argument("--output", default=None,
                        help="write markdown here as well as stdout")
    args = parser.parse_args()

    with open(args.trajectory) as f:
        trajectory = json.load(f)
    run = None
    if args.run is not None:
        with open(args.run) as f:
            run = json.load(f)
    run_net = None
    if args.run_net is not None:
        with open(args.run_net) as f:
            run_net = json.load(f)
    run_train = None
    if args.run_train is not None:
        with open(args.run_train) as f:
            run_train = json.load(f)

    markdown = render(trajectory, run, run_net, run_train)
    sys.stdout.write(markdown)
    if args.output is not None:
        with open(args.output, "w") as f:
            f.write(markdown)
    return 0


if __name__ == "__main__":
    sys.exit(main())
