#!/usr/bin/env python3
"""Regenerate REFERENCE.md, the benchmark's reference figures for a machine.

    python3 perfbench/reference.py                  # seeds 1..10
    python3 perfbench/reference.py --first-seed 11  # seeds 11..20

For each workload it runs ``run.py`` once per seed with tracing off, then
once traced on the first seed. It records each end-to-end metric's median
and quartile spread next to its bound from BENCHMARK.json, the operations
attempted and failed, every per-layer metric, and each layer's share of the
traced pass. For comparison it also records the spread of two figures that
are not reported: the median pass time as measured, before scaling to the
reference speed, and the median probe duration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def invoke(workload, seed, seconds, trace):
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, cwd=run.ROOT)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    args = parser.parse_args(argv)
    bounds = {}
    if BENCHMARK.is_file():
        spec = json.loads(BENCHMARK.read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    names = list(run.make_workloads())
    out = [
        "# Reference figures",
        "",
        "Generated by `python3 perfbench/reference.py"
        f" --seeds {args.seeds} --first-seed {args.first_seed} --seconds {args.seconds:g}`;"
        " do not edit by hand.",
        "",
        f"Machine: {platform.machine()}, `nproc` {os.cpu_count()}, Python {platform.python_version()}.",
        f"Seeds {seeds[0]}..{seeds[-1]}, `--seconds {args.seconds:g}`. Spread is the distance between"
        " the first and third quartile over the seeds, as a share of the median.",
        "",
    ]
    layers, shares = {}, {}
    for name in names:
        results, notes, measured = [], [], {"pass time as measured": [], "probe duration": []}
        for seed in seeds:
            result, lines = invoke(name, seed, args.seconds, 0)
            results.append(result)
            notes = notes or lines
            walls = json.loads((run.WORK / f"latencies-{name}-seed{seed}.json").read_text())
            measured["pass time as measured"].append(statistics.median(walls["pass_measured_s"]))
            measured["probe duration"].append(statistics.median(walls["probes_s"]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        traced, _ = invoke(name, seeds[0], args.seconds, 1)
        layers[name] = traced["metrics"]
        summary = json.loads((run.WORK / f"trace-{name}-seed{seeds[0]}.json").read_text())["summary"]
        shares[name] = summary["layer_share_of_pass"]
        out += [f"## {name}", ""]
        out += [f"- first seed: {line.split(': ', 1)[1]}" for line in notes if "operations; op_tail_ms" in line]
        attempted = [r["attempted"] for r in results]
        failed_shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        if len(failed_shares) == 1:
            share = failed_shares.pop()
            out.append(f"- attempted {min(attempted)} to {max(attempted)}; failed share"
                       f" {share.numerator}/{share.denominator} in every run")
        else:
            out.append("- the failed share differs between runs: " + ", ".join(map(str, sorted(failed_shares))))
        out += [f"- {line.split(': ', 1)[1]}" for line in notes if "FAILED" in line]
        out += ["", "| metric | unit | median | spread | bound |", "|---|---|---|---|---|"]
        for metric, entry in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            row = f"| `{metric}` | {entry['unit']} | {statistics.median(values):.4g} |"
            row += f" {spread(values):.3f} |" if len(values) > 1 else " — |"
            out.append(row + f" {bounds.get(metric, '—')} |")
            print(f"{name} {metric}: median {statistics.median(values):.4g}"
                  + (f" spread {spread(values):.3f}" if len(values) > 1 else ""), flush=True)
        for label, values in measured.items():
            row = f"| {label} (not reported) | s | {statistics.median(values):.4g} |"
            out.append(row + (f" {spread(values):.3f} |" if len(values) > 1 else " — |") + " — |")
        out.append("")
    out += ["## Per-layer metrics (traced run: one set-up and one pass, first seed)", ""]
    out += ["| metric | unit | " + " | ".join(names) + " |", "|---|---|" + "---|" * len(names)]
    for metric, entry in layers[names[0]].items():
        cells = [f"{layers[n][metric]['value']:.4g}" for n in names]
        out.append(f"| `{metric}` | {entry['unit']} | " + " | ".join(cells) + " |")
    out += ["", "## Share of the traced pass's operation time, by layer self time", ""]
    out += ["| layer | " + " | ".join(names) + " |", "|---|" + "---|" * len(names)]
    for layer in shares[names[0]]:
        out.append(f"| {layer} | " + " | ".join(f"{shares[n][layer]:.1%}" for n in names) + " |")
    (run.HERE / "REFERENCE.md").write_text("\n".join(out) + "\n")
    print("wrote perfbench/REFERENCE.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
