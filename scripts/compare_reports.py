#!/usr/bin/env python3
"""Compare the solve reports of the working tree with those of a git revision.

    python3 scripts/compare_reports.py REV

Unpacks ``git archive REV`` into a temporary directory. From that tree and
from the working tree it writes, in process through ``gitloci.cli.main``,
the ``--format json-like`` and ``--format text`` reports of every locus of:

* the criterion-7 commands (A2 ``3,0,0`` and B2 ``d*w1`` for d = 3..8);
* every input of the benchmark's workloads (``perfbench/workloads.py`` of
  the working tree);
* the heavier inputs in `HEAVY`;

each with and without ``--weyl-opt``, and the ``--loci polystable
--format json-like`` report of each, where the polystable locus builds the
rays and cells itself. It lists every report that differs, or that one
tree wrote and the other did not (a nonzero exit is recorded with its code
and standard error in place of the report).

It then compares ``classify_torus`` verdicts and certificates on every
input of the benchmark's classify workload (``CLASSIFY_PROBLEMS``), with
and without Weyl optimisation. The queries are fixed by the working tree:
every state of the three torus loci, the support less each such state
when that is not empty, and the full support. Each tree answers them on
its own problem (an exception is recorded with its type and message), and
every query whose answer differs is listed.

Last it compares the geometry: on every input of the reports, the ray and
the cell points of ``problem.rays()`` and ``problem.cells()`` (read through
``.point`` where a tree returns face records), and lists every input whose
rays or cells differ in any point or in their order.

It exits 1 on any difference, 0 when every report is byte-identical, every
classification equal and every ray and cell point the same. Standard
library only.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CRITERION_7 = [("A2", "3,0,0")] + [("B2", f"{d}*w1") for d in range(3, 9)]
HEAVY = [
    ("A3", "3,0,0"), ("A3", "4,0,0"), ("B3", "1,0,1"), ("A4", "2,0,0,0"), ("C4", "0,0,0,1"),
    ("D5", "0,0,0,0,1"), ("E6", "1,0,0,0,0,0"), ("A7", "1,0,0,0,0,0,0"), ("A1", "3"),
    ("C2", "0,1"), ("D3", "1,0,0"), ("A5", "1,1,0,0,0"), ("A5", "2,0,0,0,0"),
    ("D5", "1,0,0,0,0"), ("B5", "1,0,0,0,0"), ("A3", "0,1,0"), ("B2", "20*w1"),
    ("E7", "0,0,0,0,0,0,1"), ("A5", "3,0,0,0,0"), ("A4", "4,0,0,0"),
]
FORMATS = {"json-like": "json", "text": "txt"}


def benchmark_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.pop(0)


def benchmark_inputs(workloads):
    return [*workloads.PLANAR, *workloads.MIDRANK, *workloads.MINUSCULE, *workloads.CLASSIFY_PROBLEMS]


def unpack(rev, target):
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)


def drop_gitloci():
    for name in [m for m in sys.modules if m == "gitloci" or m.startswith("gitloci.")]:
        del sys.modules[name]


@contextlib.contextmanager
def gitloci_from(tree):
    """Import gitloci from `tree`/src for the duration of the block."""
    drop_gitloci()
    sys.path.insert(0, str(tree / "src"))
    try:
        yield importlib.import_module("gitloci")
    finally:
        sys.path.pop(0)
        drop_gitloci()


def report_runs(inputs):
    """Each report of `inputs` as (file name, `gitloci` arguments but --out)."""
    runs = []
    for group, weight in inputs:
        stem = f"{group}_{weight.replace('*', 'x').replace(',', '-')}"
        solve = ["solve", group, "--weight", weight]
        for fmt, suffix in FORMATS.items():
            for extra in ([], ["--weyl-opt"]):
                runs.append((f"{stem}{'_weyl' if extra else ''}.{suffix}", [*solve, "--format", fmt, *extra]))
        runs.append((f"{stem}_polystable.json", [*solve, "--loci", "polystable", "--format", "json-like"]))
    return runs


def write_reports(tree, out_dir, inputs):
    """Write each report of `inputs` from the gitloci in `tree`/src."""
    out_dir.mkdir()
    with gitloci_from(tree):
        cli = importlib.import_module("gitloci.cli")
        for name, argv in report_runs(inputs):
            path = out_dir / name
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main([*argv, "--out", str(path)])
            if code != 0:
                path.write_text(f"exit {code}\n{err.getvalue()}", encoding="utf-8")


def problem(gitloci, group_name, weight, weyl_optimisation):
    group = gitloci.make_group(group_name)
    highest = gitloci.parse_highest_weight(group, weight)
    return gitloci.new_problem(group, highest, weyl_optimisation=weyl_optimisation)


def classify_queries(inputs):
    """The classify_torus queries on each input, each a sorted tuple of weight
    coefficients, from the gitloci of the working tree."""
    queries = {}
    with gitloci_from(ROOT) as gitloci:
        gitsolver = importlib.import_module("gitloci.gitsolver")
        loci = (gitsolver.solve_non_stable, gitsolver.solve_unstable, gitsolver.solve_strictly_polystable)
        for key in inputs:
            solver = problem(gitloci, *key, False)
            support = tuple(w.coeffs for w in solver.support)
            states = [tuple(sorted(w.coeffs for w in state)) for solve in loci for state in solve(solver)]
            rests = [tuple(c for c in support if c not in members) for members in map(set, states)]
            queries[key] = list(dict.fromkeys([*states, *filter(None, rests), support]))
    return queries


def classify_answers(tree, queries):
    """The verdict and certificate of `classify_torus` from the gitloci in
    `tree`/src on every query, keyed by (input, Weyl optimisation, query
    number)."""
    answers = {}
    with gitloci_from(tree) as gitloci:
        gitsolver = importlib.import_module("gitloci.gitsolver")
        for key, supports in queries.items():
            for weyl_optimisation in (False, True):
                solver = problem(gitloci, *key, weyl_optimisation)
                by_coeffs = {w.coeffs: w for w in solver.support}
                for number, support in enumerate(supports):
                    try:
                        result = gitsolver.classify_torus(solver, [by_coeffs[c] for c in support])
                        certificate = None if result.certificate is None else result.certificate.coeffs
                        answer = (result.verdict, certificate)
                    except Exception as error:
                        answer = f"{type(error).__name__}: {error}"
                    answers[(key, weyl_optimisation, number)] = answer
    return answers


def geometry(tree, inputs):
    """The ray and the cell points of each input from the gitloci in
    `tree`/src, keyed by (input, "rays" or "cells"). A face record of an
    older tree is read through its `.point`; an exception is recorded with
    its type and message."""
    faces = {}
    with gitloci_from(tree) as gitloci:
        for key in inputs:
            solver = problem(gitloci, *key, False)
            for kind in ("rays", "cells"):
                try:
                    faces[(key, kind)] = [getattr(f, "point", f) for f in getattr(solver, kind)()]
                except Exception as error:
                    faces[(key, kind)] = f"{type(error).__name__}: {error}"
    return faces


def describe(base, work, rev):
    """How the points `work` of the working tree differ from `base`."""
    if isinstance(base, str) or isinstance(work, str):
        return f"{base} -> {work}"
    only_base = [p for p in base if p not in work]
    only_work = [p for p in work if p not in base]
    if not (only_base or only_work):
        return f"the same {len(work)} points in another order"
    return f"{len(base)} -> {len(work)} points, only at {rev}: {only_base}, only in the working tree: {only_work}"


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: compare_reports.py REV", file=sys.stderr)
        return 2
    rev = args[0]
    workloads = benchmark_workloads()
    inputs = list(dict.fromkeys([*CRITERION_7, *benchmark_inputs(workloads), *HEAVY]))
    queries = classify_queries(workloads.CLASSIFY_PROBLEMS)
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as workdir:
        workdir = Path(workdir)
        unpack(rev, workdir / "tree")
        write_reports(workdir / "tree", workdir / "base", inputs)
        write_reports(ROOT, workdir / "work", inputs)
        base_answers = classify_answers(workdir / "tree", queries)
        work_answers = classify_answers(ROOT, queries)
        base_faces = geometry(workdir / "tree", inputs)
        work_faces = geometry(ROOT, inputs)
        names = sorted({p.name for p in (workdir / "base").iterdir()} | {p.name for p in (workdir / "work").iterdir()})
        differing = []
        for name in names:
            base, work = workdir / "base" / name, workdir / "work" / name
            if not (base.exists() and work.exists()) or base.read_bytes() != work.read_bytes():
                differing.append(name)
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(names)} reports compared against {rev}, {len(differing)} differ")
    changed = [key for key in work_answers if base_answers[key] != work_answers[key]]
    for key in changed:
        (group, weight), weyl_optimisation, number = key
        print(
            f"classify differs: {group} {weight}{' --weyl-opt' if weyl_optimisation else ''}"
            f" query {number} ({len(queries[(group, weight)][number])} weights):"
            f" {base_answers[key]} -> {work_answers[key]}"
        )
    print(f"{len(work_answers)} classifications compared against {rev}, {len(changed)} differ")
    moved = [key for key in work_faces if base_faces[key] != work_faces[key]]
    for key in moved:
        (group, weight), kind = key
        print(f"{kind} differ: {group} {weight}: {describe(base_faces[key], work_faces[key], rev)}")
    print(f"rays and cells of {len(inputs)} inputs compared against {rev}, {len(moved)} differ")
    return 1 if differing or changed or moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
