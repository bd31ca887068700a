#!/usr/bin/env python3
"""Fast self-test of the benchmark's reference computations.

Checks the oracles against values derived by hand, without running gitloci:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import unittest
from fractions import Fraction
from itertools import combinations
from math import comb

import checks
import oracles


def _l_to_fundamental(triple):
    return (triple[0] - triple[1], triple[1] - triple[2])


def _plane_cubic_report():
    """The A2 plane-cubic solution, written out by hand in the json-like
    shape: weights as monomial exponents (L coordinates), witnesses as
    fundamental coweights (consecutive differences of the H form)."""

    def state(weights, coweight):
        return {"size": len(weights), "weights": [list(w) for w in weights],
                "witness": {"coweight": list(coweight)}}

    nonstable = [
        # H = (1, 1, -2): x0^a x1^b x2^c with c <= 1, i.e. a + b >= 2.
        state([(0, 3, 0), (0, 2, 1), (1, 2, 0), (1, 1, 1), (2, 1, 0), (2, 0, 1), (3, 0, 0)], (0, 3)),
        # H = (2, -1, -1): exponent of x0 at least 1.
        state([(1, 2, 0), (1, 1, 1), (1, 0, 2), (2, 1, 0), (2, 0, 1), (3, 0, 0)], (3, 0)),
    ]
    # H = (4, 1, -5): 4a + b - 5c > 0.
    unstable = [state([(0, 3, 0), (1, 2, 0), (2, 1, 0), (2, 0, 1), (3, 0, 0)], (3, 6))]
    polystable = [
        # x0 x1 x2 alone: zero set of a generic chamber coweight.
        state([(1, 1, 1)], (1, 2)),
        # x0^2 x2, x1^2 x2, x0 x1 x2: zero set of H = (1, 1, -2).
        state([(0, 2, 1), (1, 1, 1), (2, 0, 1)], (0, 1)),
    ]
    loci = {name: {"count": len(states), "states": states}
            for name, states in (("nonstable", nonstable), ("unstable", unstable),
                                 ("polystable", polystable))}
    return {"support_size": 10, "weight_coords": "L", "loci": loci}


class ReferenceTest(unittest.TestCase):
    def test_cartan_inverse_gives_the_pairing(self):
        a2 = oracles.RootData("A2")
        # <w_1, w_1^vee> = (C^-1)_11 = 2/3 for A2.
        self.assertEqual(a2.pairing((1, 0), (1, 0)), Fraction(2, 3))
        for name in ("B3", "C4", "F4", "G2", "D5"):
            root = oracles.RootData(name)
            for i in range(root.rank):
                alpha = tuple(root.cartan[k][i] for k in range(root.rank))
                coweight = tuple(int(k == i) for k in range(root.rank))
                # Simple roots pair to the identity with fundamental coweights.
                for j in range(root.rank):
                    unit = tuple(int(k == j) for k in range(root.rank))
                    self.assertEqual(root.pairing(alpha, unit), int(i == j))
                self.assertEqual(root.pairing(root.reflect(alpha, i), coweight), -1)

    def test_b2_support_sizes(self):
        b2 = oracles.RootData("B2")
        sizes = [len(b2.support((d, 0))) for d in range(3, 9)]
        self.assertEqual(sizes, [25, 41, 61, 85, 113, 145])
        self.assertEqual(sizes, [b2.support_size_formula((d, 0)) for d in range(3, 9)])

    def test_type_a_and_minuscule_support_sizes(self):
        self.assertEqual(len(oracles.RootData("A3").support((3, 0, 0))), comb(6, 3))
        self.assertEqual(len(oracles.RootData("A5").support((0, 0, 1, 0, 0))), comb(6, 3))
        self.assertEqual(len(oracles.RootData("D5").support((0, 0, 0, 0, 1))), 16)
        self.assertEqual(len(oracles.RootData("C6").support((1, 0, 0, 0, 0, 0))), 12)

    def test_relative_interior(self):
        self.assertTrue(oracles.zero_in_relative_interior([(1, 0), (-1, 0)]))
        self.assertTrue(oracles.zero_in_relative_interior([(0, 0)]))
        self.assertTrue(oracles.zero_in_relative_interior([(1, 0), (0, 1), (-1, -1)]))
        self.assertFalse(oracles.zero_in_relative_interior([(1, 0), (0, 1), (-1, 0)]))
        self.assertFalse(oracles.zero_in_relative_interior([(1, 0), (2, 0)]))

    def test_torus_verdicts(self):
        verdict = oracles.torus_verdict
        self.assertEqual(verdict([(1, 0), (0, 1)], 2), "T-unstable")
        self.assertEqual(verdict([(1, 0), (-1, 0)], 2), "T-non-stable-semistable")
        self.assertEqual(verdict([(1, 0), (0, 1), (-1, 0)], 2), "T-non-stable-semistable")
        self.assertEqual(verdict([(0, 0), (1, 1)], 2), "T-non-stable-semistable")
        self.assertEqual(verdict([(1, 0), (0, 1), (-1, -1)], 2), "T-stable")
        self.assertEqual(verdict([(2, 1, 0), (0, 0, 1), (-1, 0, 0)], 3), "T-unstable")

    def test_hull_and_relint_agree_on_full_dimensional_sets(self):
        points = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 0), (-1, 0, 1)]
        for size in range(4, len(points) + 1):
            for chosen in combinations(points, size):
                stable = oracles.torus_verdict(list(chosen), 3) == "T-stable"
                full = len(oracles.pivot_columns(list(chosen))) == 3
                self.assertEqual(stable, full and oracles.zero_in_relative_interior(chosen))

    def test_plane_cubic_solution_passes_every_check(self):
        reference = checks.SolveReference("A2", "3,0")
        report = _plane_cubic_report()
        self.assertEqual(reference.check(json.dumps(report)), {})
        self.assertEqual([report["loci"][k]["count"] for k in ("nonstable", "unstable", "polystable")],
                         [2, 1, 2])

    def test_plane_cubic_mutations_are_caught(self):
        reference = checks.SolveReference("A2", "3,0")
        cases = {
            "nonstable_cover": lambda r: r["loci"]["nonstable"]["states"].pop(),
            "polystable_complete": lambda r: r["loci"]["polystable"]["states"].pop(),
            "state_sign_set": lambda r: r["loci"]["unstable"]["states"][0]["weights"].pop(),
            "witness_in_chamber": lambda r: r["loci"]["unstable"]["states"][0]["witness"].update(
                coweight=[-1, 5]),
            "support_size": lambda r: r.update(support_size=9),
        }
        for name, mutate in cases.items():
            report = _plane_cubic_report()
            mutate(report)
            for locus in report["loci"].values():
                locus["count"] = len(locus["states"])
            self.assertIn(name, reference.check(json.dumps(report)), name)

    def test_classify_reference(self):
        reference = checks.ClassifyReference("A2", "3,0")
        cubes = [_l_to_fundamental(t) for t in ((3, 0, 0), (0, 3, 0), (0, 0, 3))]
        self.assertEqual(reference.verdict(cubes), "T-stable")
        self.assertEqual(reference.verdict(cubes[:2]), "T-unstable")
        self.assertEqual(reference.verdict([(0, 0)]), "T-non-stable-semistable")
        self.assertEqual(reference.check(cubes[:2], "T-unstable", (1, 2)), {})
        self.assertIn("classify_certificate", reference.check(cubes[:2], "T-unstable", (1, 0)))
        self.assertIn("classify_verdict", reference.check(cubes, "T-unstable", (1, 2)))


if __name__ == "__main__":
    unittest.main()
