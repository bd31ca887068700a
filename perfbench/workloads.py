"""The benchmark's workloads: their inputs, set-up and operations.

Solve workloads run ``gitloci solve G --weight W --format json-like --out F``
in process through ``gitloci.cli.main``, one call per operation, and check
each report with `checks.SolveReference`. The classify workload asks
``classify_torus`` about seeded random point supports and checks each answer
with `checks.ClassifyReference`. Every workload is a closed loop with one
caller: the next operation starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import os
import random

import checks

PLANAR = (
    [("A2", f"{d},0") for d in range(3, 13)]
    + [("B2", f"{d}*w1") for d in range(3, 13)]
    + [("G2", f"{d},0") for d in range(1, 5)]
    + [("G2", f"0,{d}") for d in range(1, 4)]
)
MIDRANK = [
    ("A3", "1,0,0"), ("A3", "2,0,0"), ("B3", "2,0,0"), ("B3", "0,1,0"), ("C3", "0,0,1"),
    ("A4", "1,0,0,0"), ("A4", "0,1,0,0"), ("B4", "0,0,0,1"), ("F4", "0,0,0,1"), ("D4", "1,0,0,0"),
]
MINUSCULE = [
    ("A5", "0,0,1,0,0"), ("A6", "1,0,0,0,0,0"), ("B6", "1,0,0,0,0,0"),
    ("C6", "1,0,0,0,0,0"), ("D6", "1,0,0,0,0,0"), ("C7", "1,0,0,0,0,0,0"),
]
CLASSIFY_PROBLEMS = [
    ("B2", "8*w1"), ("G2", "2,0"), ("A3", "2,0,0"),
    ("B3", "2,0,0"), ("C3", "0,0,1"), ("F4", "0,0,0,1"),
]
# Queries drawn per problem and verdict in the classify workload.
QUERIES_PER_VERDICT = 12
VERDICTS = ("T-unstable", "T-non-stable-semistable", "T-stable")


class SolveWorkload:
    def __init__(self, inputs, report_path):
        self.inputs = inputs
        self.report_path = report_path
        self.references = {}

    def setup(self, gl):
        """Build the groups and parse the highest weights."""
        groups = {g: gl.make_group(g) for g, _ in self.inputs}
        for g, w in self.inputs:
            gl.parse_highest_weight(groups[g], w)
        return None

    def operations(self, state, seed):
        for key in self.inputs:
            if key not in self.references:
                self.references[key] = checks.SolveReference(*key)
        return list(self.inputs)

    def run(self, gl, state, key):
        group, weight = key
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            return gl.cli.main(
                ["solve", group, "--weight", weight, "--format", "json-like", "--out", self.report_path]
            )

    def collect(self, key, result):
        with open(self.report_path, "rb") as handle:
            return result, handle.read()

    def check(self, key, output):
        code, report = output
        if code != 0:
            return {"exit_code": f"gitloci solve exited with {code}"}
        return self.references[key].check(report.decode("utf-8"))

    def lines(self, key):
        return self.references[key].lines

    def setup_lines(self):
        return 0

    def describe(self, key):
        return " ".join(key)


class ClassifyWorkload:
    def __init__(self):
        self.inputs = CLASSIFY_PROBLEMS
        self.references = {}
        self.queries = []
        self.weights = {}

    def setup(self, gl):
        """Build the problems and fill their lazy caches."""
        problems = []
        for g, w in self.inputs:
            group = gl.make_group(g)
            problem = gl.new_problem(group, gl.parse_highest_weight(group, w), weyl_optimisation=True)
            problem.rays()
            problem.cells()
            gl.rootdata.weyl_elements(group)
            problems.append(problem)
        return problems

    def operations(self, problems, seed):
        """Seeded queries: QUERIES_PER_VERDICT per problem and verdict. The
        reference draws them by rejection; the program only sees supports.
        An operation is (query number, problem index), the same in every
        pass; its weights are bound to the current set-up's problems."""
        if not self.queries:
            for index, key in enumerate(self.inputs):
                reference = checks.ClassifyReference(*key)
                self.references[key] = reference
                rng = random.Random(f"{seed}:{key[0]}:{key[1]}")
                for verdict in VERDICTS:
                    for _ in range(QUERIES_PER_VERDICT):
                        self.queries.append((index, _draw(reference, verdict, rng)))
        self.weights = {}
        for number, (index, support) in enumerate(self.queries):
            by_coeffs = {w.coeffs: w for w in problems[index].support.weights}
            self.weights[number] = tuple(by_coeffs[c] for c in support)
        return [(number, index) for number, (index, _) in enumerate(self.queries)]

    def run(self, gl, problems, key):
        number, index = key
        return gl.gitsolver.classify_torus(problems[index], self.weights[number])

    def collect(self, key, result):
        certificate = result.certificate.coeffs if result.certificate is not None else None
        return result.verdict, certificate

    def check(self, key, output):
        number, index = key
        reference = self.references[self.inputs[index]]
        support = self.queries[number][1]
        if set(support) - reference.support:
            return {"classify_support": "query weight outside the reference support"}
        return reference.check(support, *output)

    def lines(self, key):
        return 0

    def setup_lines(self):
        return sum(ref.lines for ref in self.references.values())

    def describe(self, key):
        number, index = key
        return f"{' '.join(self.inputs[index])} query {number} ({len(self.queries[number][1])} weights)"


def _draw(reference, verdict, rng, attempts=20000):
    """One point support, as sorted weight coefficients, whose hull verdict is
    `verdict`. Unstable draws take weights strictly positive on a random
    coweight; semistable ones take a balanced zero set plus positive weights;
    stable ones drop a few weights from the whole support."""
    root = reference.root
    support = sorted(reference.support)
    for _ in range(attempts):
        lam = tuple(rng.randint(-3, 3) for _ in range(root.rank))
        values = {w: sum(a * b for a, b in zip(root.pairing_vector(w), lam)) for w in support}
        positive = [w for w in support if values[w] > 0]
        zero = [w for w in support if values[w] == 0]
        if verdict == "T-unstable" and positive:
            chosen = rng.sample(positive, rng.randint(1, len(positive)))
        elif verdict == "T-non-stable-semistable" and zero and any(lam):
            chosen = zero + rng.sample(positive, rng.randint(0, len(positive)))
        elif verdict == "T-stable":
            dropped = set(rng.sample(support, rng.randint(0, len(support) // 3)))
            chosen = [w for w in support if w not in dropped]
        else:
            continue
        if reference.verdict(chosen) == verdict:
            return tuple(sorted(chosen))
    raise RuntimeError(f"no {verdict} query found for {reference.root.name}")
