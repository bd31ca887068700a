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

each with and without ``--weyl-opt``. It lists every report that differs,
or that one tree wrote and the other did not (a nonzero exit is recorded
with its code and standard error in place of the report), and exits 1 on
any difference, 0 when every report is byte-identical. Standard library
only.
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
    ("C2", "0,1"), ("D3", "1,0,0"),
]
FORMATS = {"json-like": "json", "text": "txt"}


def benchmark_inputs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
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


def write_reports(tree, out_dir, inputs):
    """Write each report of `inputs` from the gitloci in `tree`/src."""
    out_dir.mkdir()
    drop_gitloci()
    sys.path.insert(0, str(tree / "src"))
    try:
        cli = importlib.import_module("gitloci.cli")
        for group, weight in inputs:
            for fmt, suffix in FORMATS.items():
                for extra in ([], ["--weyl-opt"]):
                    stem = f"{group}_{weight.replace('*', 'x').replace(',', '-')}{'_weyl' if extra else ''}"
                    path = out_dir / f"{stem}.{suffix}"
                    argv = ["solve", group, "--weight", weight, "--format", fmt, *extra, "--out", str(path)]
                    with contextlib.redirect_stderr(io.StringIO()) as err:
                        code = cli.main(argv)
                    if code != 0:
                        path.write_text(f"exit {code}\n{err.getvalue()}", encoding="utf-8")
    finally:
        sys.path.pop(0)
        drop_gitloci()


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: compare_reports.py REV", file=sys.stderr)
        return 2
    rev = args[0]
    inputs = list(dict.fromkeys([*CRITERION_7, *benchmark_inputs(), *HEAVY]))
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as workdir:
        workdir = Path(workdir)
        unpack(rev, workdir / "tree")
        write_reports(workdir / "tree", workdir / "base", inputs)
        write_reports(ROOT, workdir / "work", inputs)
        names = sorted({p.name for p in (workdir / "base").iterdir()} | {p.name for p in (workdir / "work").iterdir()})
        differing = []
        for name in names:
            base, work = workdir / "base" / name, workdir / "work" / name
            if not (base.exists() and work.exists()) or base.read_bytes() != work.read_bytes():
                differing.append(name)
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(names)} reports compared against {rev}, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
