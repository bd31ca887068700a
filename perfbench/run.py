#!/usr/bin/env python3
"""Benchmark of gitloci, stdlib only, single process and single thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each run makes whole passes over the workload's operations for --seconds
seconds, with groups of fresh set-ups of gitloci (a fresh import each time)
spread over the run. A fixed probe runs between operations (`pace`), and
every reported time is scaled to the reference speed by it. The outputs are
checked against the reference computations in `oracles`. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. With ``--trace 1`` it reports the per-layer metrics of one extra
traced set-up and pass instead of the end-to-end ones, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.json``. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import REFERENCE_PROBE_S, Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-ups come in groups spread over the run: one group before the first
# pass and one before the first pass that starts after each further
# 1/SETUP_GROUPS of the run. The last set-up serves the passes after it.
SETUP_GROUPS = 3
SETUPS_PER_GROUP = 3
# So that every operation has a latency from more than one pass.
MIN_PASSES = 2
# Below this many operations no percentile with ten operations beyond it is
# a tail, and op_tail_ms reports the median instead.
TAIL_MIN_SAMPLES = 40
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20

UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def make_workloads():
    import workloads as w

    report = str(WORK / "report.json")
    return {
        "planar": w.SolveWorkload(w.PLANAR, report),
        "midrank": w.SolveWorkload(w.MIDRANK, report),
        "minuscule": w.SolveWorkload(w.MINUSCULE, report),
        "classify": w.ClassifyWorkload(),
    }


def import_gitloci():
    """Import gitloci afresh from this checkout's sources."""
    for name in [n for n in sys.modules if n == "gitloci" or n.startswith("gitloci.")]:
        del sys.modules[name]
    gl = importlib.import_module("gitloci")
    importlib.import_module("gitloci.cli")
    if Path(gl.__file__).resolve().parent != SRC / "gitloci":
        raise SystemExit(f"perfbench: imported gitloci from {gl.__file__}, not from {SRC}")
    return gl


def tail_ms(latencies):
    """Latency at the highest percentile with ten operations beyond it, and a
    label for it. Under TAIL_MIN_SAMPLES operations there is no tail, and
    the median stands in."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return statistics.median(ordered) * 1000, f"the median of {n} operations (no tail below {TAIL_MIN_SAMPLES})"
    return ordered[n - 11] * 1000, f"p{100.0 * (n - 10) / n:.1f} of {n} operations"


class Outputs:
    """Each operation's distinct outputs with how often each came back, so
    that repeated identical reports are neither kept nor checked twice."""

    def __init__(self):
        self.distinct = {}

    def add(self, key, output):
        seen = self.distinct.setdefault(key, [])
        for entry in seen:
            if entry[0] == output:
                entry[1] += 1
                return
        seen.append([output, 1])

    def attempted(self):
        return sum(count for seen in self.distinct.values() for _, count in seen)


def run_pass(wl, gl, state, ops, rng, outputs, pace, tracer=None):
    """One pass over the operations in a seeded order, with probes of `pace`
    between them. Returns each operation's latency as measured and the
    factor that takes it to the reference speed."""
    order = list(ops)
    rng.shuffle(order)
    latencies, probed = {}, {}
    for key in order:
        probed[key] = pace.before()
        t0 = time.perf_counter()
        result = wl.run(gl, state, key)
        latencies[key] = time.perf_counter() - t0
        output = wl.collect(key, result)
        outputs.add(key, output)
        if tracer is not None:
            tracer.counts["exactgeom.lines"] += wl.lines(key)
            if isinstance(output[1], bytes):
                tracer.counts["cli.report_bytes"] += len(output[1])
    pace.take()
    factors = {key: pace.scale(first, first + 1) for key, first in probed.items()}
    return latencies, factors


def check_outputs(wl, outputs):
    """Failed operations, whether every failure is a known fault, and the
    failed checks of each failing operation."""
    import checks

    failed, correct, failures = 0, True, {}
    for key, seen in outputs.distinct.items():
        for output, count in seen:
            failed_checks = wl.check(key, output)
            if failed_checks:
                failed += count
                correct = correct and set(failed_checks) <= checks.KNOWN_FAULTS
                failures[key] = failed_checks
    return failed, correct, failures


def timed_setup(wl, pace):
    """One set-up of gitloci, and its time at the reference speed."""
    first = pace.take()
    t0 = time.perf_counter()
    gl = import_gitloci()
    state = wl.setup(gl)
    elapsed = time.perf_counter() - t0
    return gl, state, elapsed * pace.scale(first, pace.take())


def run_workload(name, seed, seconds, trace):
    wl = make_workloads()[name]
    WORK.mkdir(exist_ok=True)
    pace = Pace()
    setup_times, measured, passes, samples, outputs = [], [], [], {}, Outputs()
    setup_at = []
    start = time.perf_counter()
    while len(measured) < MIN_PASSES or time.perf_counter() - start < seconds:
        if (time.perf_counter() - start) * SETUP_GROUPS >= len(setup_at) * seconds:
            setup_at.append(len(measured))
            for _ in range(SETUPS_PER_GROUP):
                gl, state, elapsed = timed_setup(wl, pace)
                setup_times.append(elapsed)
            ops = wl.operations(state, seed)
        rng = random.Random(f"{seed}:{name}:{len(measured)}")
        raw, factors = run_pass(wl, gl, state, ops, rng, outputs, pace)
        measured.append(sum(raw.values()))
        passes.append(sum(raw[key] * factors[key] for key in raw))
        for key, latency in raw.items():
            samples.setdefault(key, []).append(latency * factors[key])
    (WORK / f"latencies-{name}-seed{seed}.json").write_text(json.dumps(
        {"note": "times at the reference speed, except pass_measured_s and probes_s",
         "setup_s": setup_times, "pass_s": passes, "pass_measured_s": measured, "probes_s": pace.probes,
         "latencies_s": {wl.describe(key): values for key, values in samples.items()}},
        indent=1))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # One latency per operation, its median over the passes, so that each
    # percentile falls on the same operations in every run.
    latencies = [statistics.median(values) for values in samples.values()]
    tail, percentile = tail_ms(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(passes),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {key: (value, UNITS[key]) for key, value in metrics.items()}
    notes = [
        f"{name}: {len(measured)} × {len(ops)} operations; op_tail_ms is {percentile}",
        f"{name}: {len(setup_times)} set-ups, in groups of {SETUPS_PER_GROUP} before passes "
        + ", ".join(str(n + 1) for n in setup_at),
        f"{name}: pass times as measured " + ", ".join(f"{w:.3f}" for w in measured) + " s",
        f"{name}: pass times at the reference speed " + ", ".join(f"{w:.3f}" for w in passes) + " s",
        f"{name}: probe median {statistics.median(pace.probes) * 1000:.3f} ms over {len(pace.probes)} probes"
        f" (reference {REFERENCE_PROBE_S * 1000:g} ms)",
    ]
    if trace:
        report, trace_notes = traced_run(wl, name, seed, metrics["pass_s"], outputs)
        notes += trace_notes
    failed, correct, failures = check_outputs(wl, outputs)
    for key, failed_checks in failures.items():
        label = wl.describe(key)
        for check, reason in sorted(failed_checks.items()):
            notes.append(f"{name}: FAILED {label}: {check} ({reason})")
    return {"correct": correct, "attempted": outputs.attempted(), "failed": failed}, report, notes


def traced_run(wl, name, seed, untraced_pass, outputs):
    from spans import Tracer, instrument, layer_metrics, layer_shares

    gl = import_gitloci()
    tracer = Tracer()
    instrument(gl, tracer)
    setup_root = tracer.open("setup")
    state = wl.setup(gl)
    tracer.close(setup_root)
    tracer.counts["exactgeom.lines"] += wl.setup_lines()
    ops = wl.operations(state, seed)
    pace = Pace()
    pass_root = tracer.open("pass")
    raw, factors = run_pass(wl, gl, state, ops, random.Random(f"{seed}:{name}:traced"), outputs, pace, tracer)
    tracer.close(pass_root)
    wall = sum(raw.values())
    traced_pass = sum(raw[key] * factors[key] for key in raw)
    metrics = layer_metrics(tracer, [setup_root, pass_root])
    metrics["trace.overhead_s"] = (traced_pass - untraced_pass, "s")
    shares = layer_shares(tracer, pass_root, wall)
    path = WORK / f"trace-{name}-seed{seed}.json"
    tracer.dump(path, {
        "workload": name,
        "seed": seed,
        "traced_ops_s": wall,
        "traced_pass_s": traced_pass,
        "untraced_pass_s": untraced_pass,
        "layer_share_of_pass": shares,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    })
    notes = [f"{name}: spans written to {path.relative_to(ROOT)}"]
    notes += [f"{name}: share of the traced pass in {layer}: {share:.3f}" for layer, share in shares.items()]
    return metrics, notes


def result_line(summary, report):
    return json.dumps({
        **summary,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in report.items()},
    })


def run_all(args):
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0}
    report = {}
    for name in make_workloads():
        command = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            report[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(result_line(summary, report))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *make_workloads()])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gitloci" / "__init__.py").is_file():
        print(f"perfbench: no gitloci sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
        return 0
    sys.path.insert(0, str(SRC))
    summary, report, notes = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(notes))
    for metric, (value, unit) in report.items():
        print(f"{args.workload}: {metric} = {value:.6g} {unit}")
    print(f"{args.workload}: attempted {summary['attempted']}, failed {summary['failed']},"
          f" correct {summary['correct']}")
    print(result_line(summary, report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
