"""Spans and counters for the traced run, recorded from outside gitloci.

`instrument` replaces public functions on the freshly imported gitloci
modules at the names their callers look them up under, for example
``gitloci.gitsolver.zero_in_relative_interior`` (called by the polystable
locus) and ``gitloci.exactgeom.lp_feasible`` (called by the cell
enumeration). The program itself is not edited. Spans are kept in memory
as (name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# Span names whose self time or duration feeds a per-layer metric.
SUPPORT = "repsupport.weight_support"
RAYS = "exactgeom.rays"
CELLS = "exactgeom.cells"
RELINT = "exactgeom.relint"
SOLVERS = {
    "solve_non_stable": ("nonstable", "gitsolver.nonstable"),
    "solve_unstable": ("unstable", "gitsolver.unstable"),
    "solve_strictly_polystable": ("polystable", "gitsolver.polystable"),
}
CLASSIFY = "gitsolver.classify"
WEYL = "rootdata.weyl_elements"
CLI = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.weyl_orders = {}

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(index, args, result)
            return result

        return traced

    def count_within(self, counter, span_name, fn):
        def counted(*args, **kwargs):
            if self.current() == span_name:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def timed(self, counter, fn):
        """Add each call's duration to a counter, without opening a span."""

        def timing(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts[counter] += time.perf_counter() - start

        return timing

    def self_times(self, root):
        """Per span name, (total duration, total self time) over the spans
        below the span with index `root`."""
        children = {}
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        below = {root}
        totals = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent in below:
                below.add(index)
                duration = end - start
                total, own = totals.get(name, (0.0, 0.0))
                totals[name] = (total + duration, own + duration - children.get(index, 0.0))
        return totals

    def dump(self, path, summary):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"summary": summary, "spans": self.spans}, handle)


def instrument(gl, tracer):
    """Wrap the layer boundaries of one imported gitloci package."""
    cli, gitsolver, exactgeom, rootdata = gl.cli, gl.gitsolver, gl.exactgeom, gl.rootdata
    counts = tracer.counts

    def add(counter, measure=len):
        def record(_index, _args, result):
            counts[counter] += measure(result)

        return record

    cli.main = tracer.wrap(CLI, cli.main)
    cli.weight_support = tracer.wrap(SUPPORT, cli.weight_support, add("repsupport.weights"))
    cli.solve_all = tracer.wrap("gitsolver.solve_all", cli.solve_all)
    gitsolver.arrangement_rays = tracer.wrap(RAYS, gitsolver.arrangement_rays, add("exactgeom.rays"))
    def cells_result(_index, args, result):
        counts["exactgeom.cells"] += len(result)
        # Cells of rank >= 3 come from the LP enumeration, rank 2 from the sweep.
        if args[2] >= 3:
            counts["exactgeom.lp_cells"] += len(result)

    gitsolver.arrangement_cells = tracer.wrap(CELLS, gitsolver.arrangement_cells, cells_result)
    gitsolver.zero_in_relative_interior = tracer.wrap(
        RELINT, gitsolver.zero_in_relative_interior, add("exactgeom.relint_calls", lambda _: 1)
    )
    for attr in ("matrix_rank", "kernel_basis"):
        setattr(exactgeom, attr, tracer.count_within("exactgeom.rank_calls", RAYS, getattr(exactgeom, attr)))
    exactgeom.lp_feasible = tracer.timed("exactgeom.lp_s", tracer.count_within(
        "exactgeom.cell_lp_calls", CELLS, exactgeom.lp_feasible
    ))

    def solver_result(locus):
        def record(index, _args, result):
            counts[f"gitsolver.{locus}_states"] += len(result)
            parent = tracer.spans[index][3]
            if parent is not None and tracer.spans[parent][0] == CLASSIFY:
                counts["gitsolver.classify_resolves"] += 1

        return record

    # solve_all reaches the solvers through its locus table, classify_torus
    # through the module globals; both lookups are replaced.
    for attr, (locus, span) in SOLVERS.items():
        original = getattr(gitsolver, attr)
        traced = tracer.wrap(span, original, solver_result(locus))
        setattr(gitsolver, attr, traced)
        for key, fn in gitsolver._LOCI_SOLVERS.items():
            if fn is original:
                gitsolver._LOCI_SOLVERS[key] = traced

    def weyl_result(_index, args, result):
        tracer.weyl_orders[args[0].name] = len(result)

    gitsolver.weyl_elements = tracer.wrap(WEYL, gitsolver.weyl_elements, weyl_result)
    rootdata.weyl_elements = gitsolver.weyl_elements
    gitsolver.classify_torus = tracer.wrap(CLASSIFY, gitsolver.classify_torus)


def layer_metrics(tracer, roots):
    """Per-layer metrics over the spans below the given root spans."""
    durations, selfs = Counter(), Counter()
    for root in roots:
        for name, (total, own) in tracer.self_times(root).items():
            durations[name] += total
            selfs[name] += own
    counts = tracer.counts
    relint_calls = counts["exactgeom.relint_calls"]
    cell_lp_calls = counts["exactgeom.cell_lp_calls"]
    metrics = {
        "repsupport.support_s": (durations[SUPPORT], "s"),
        "repsupport.weights": (counts["repsupport.weights"], "count"),
        "exactgeom.lines": (counts["exactgeom.lines"], "count"),
        "exactgeom.rays_s": (durations[RAYS], "s"),
        "exactgeom.rank_calls": (counts["exactgeom.rank_calls"], "count"),
        "exactgeom.rays": (counts["exactgeom.rays"], "count"),
        "exactgeom.cells_s": (durations[CELLS], "s"),
        "exactgeom.cell_lp_calls": (cell_lp_calls, "count"),
        "exactgeom.cells": (counts["exactgeom.cells"], "count"),
        "exactgeom.cell_lp_yield": (
            counts["exactgeom.lp_cells"] / cell_lp_calls if cell_lp_calls else 0.0, "ratio"
        ),
        "exactgeom.lp_s": (counts["exactgeom.lp_s"], "s"),
        "exactgeom.relint_calls": (relint_calls, "count"),
        "exactgeom.relint_s": (durations[RELINT], "s"),
    }
    for locus, span in SOLVERS.values():
        metrics[f"gitsolver.{locus}_s"] = (selfs[span], "s")
    for locus, _ in SOLVERS.values():
        metrics[f"gitsolver.{locus}_states"] = (counts[f"gitsolver.{locus}_states"], "count")
    metrics.update({
        "gitsolver.polystable_yield": (
            counts["gitsolver.polystable_states"] / relint_calls if relint_calls else 0.0, "ratio"
        ),
        "gitsolver.classify_s": (selfs[CLASSIFY], "s"),
        "gitsolver.classify_resolves": (counts["gitsolver.classify_resolves"], "count"),
        "rootdata.weyl_elements_s": (durations[WEYL], "s"),
        "rootdata.weyl_order": (sum(tracer.weyl_orders.values()), "count"),
        "cli.self_s": (selfs[CLI], "s"),
        "cli.report_bytes": (counts["cli.report_bytes"], "bytes"),
    })
    return metrics


# Layers whose self time makes up a pass, for the share-of-pass table.
SHARE_LAYERS = {
    "repsupport": (SUPPORT,),
    "exactgeom.rays": (RAYS,),
    "exactgeom.cells": (CELLS,),
    "exactgeom.relint": (RELINT,),
    "gitsolver": tuple(span for _, span in SOLVERS.values()) + (CLASSIFY, "gitsolver.solve_all"),
    "rootdata.weyl_elements": (WEYL,),
    "cli": (CLI,),
}


def layer_shares(tracer, root, wall):
    """Each layer's self time below the root span as a share of `wall`, the
    time the pass spent in its operations."""
    selfs = {name: own for name, (_, own) in tracer.self_times(root).items()}
    shares = {layer: sum(selfs.get(n, 0.0) for n in names) / wall for layer, names in SHARE_LAYERS.items()}
    shares["benchmark loop"] = 1.0 - sum(shares.values())
    return shares
