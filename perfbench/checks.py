"""Checks of gitloci outputs against the reference computations in oracles.

A solve check reads the json-like report of ``gitloci solve`` and returns
the names of the checks it fails, each with a short reason. The reference
side of a check (support, dense chamber sample, Weyl closures) is computed
once per input and reused for every operation on that input.
"""

from __future__ import annotations

import json
from itertools import product

import oracles

# The polystable locus is built only from rays and cells, so in rank >= 3 it
# misses zero sets realised on 2-dimensional faces. Operations failing only
# this check count as failed; any other failing check makes a run incorrect.
KNOWN_FAULTS = frozenset({"polystable_complete"})

_MODES = {
    "nonstable": lambda v: v >= 0,
    "unstable": lambda v: v > 0,
    "polystable": lambda v: v == 0,
}


def sample_box(rank):
    """Coordinates 0..4 per fundamental coweight up to rank 5, 0..2 above."""
    return 4 if rank <= 5 else 2


def _incomparable(sets):
    return all(not (a <= b) for i, a in enumerate(sets) for j, b in enumerate(sets) if i != j)


class SolveReference:
    """Reference data for one (group, highest weight) input."""

    def __init__(self, group_name, weight_text):
        self.root = oracles.RootData(group_name)
        self.highest = oracles.parse_highest_weight(self.root.rank, weight_text)
        self.support = self.root.support(self.highest)
        expected = self.root.support_size_formula(self.highest)
        if expected is not None and expected != len(self.support):
            raise RuntimeError(
                f"reference support of {group_name} {weight_text} has {len(self.support)}"
                f" weights; the closed formula gives {expected}"
            )
        self.lines = self.root.lines(self.support)
        self._vectors = [(w, self.root.pairing_vector(w)) for w in sorted(self.support)]
        self._samples = None

    def state_of(self, coweight, mode):
        keep = _MODES[mode]
        return frozenset(
            w for w, u in self._vectors if keep(sum(a * b for a, b in zip(u, coweight)))
        )

    def samples(self):
        """Distinct >=0, >0 and relint =0 sets over the dense chamber box,
        each with one coweight that realises it."""
        if self._samples is None:
            geq, gt, zero = {}, {}, {}
            box = range(sample_box(self.root.rank) + 1)
            for lam in product(box, repeat=self.root.rank):
                if not any(lam):
                    continue
                geq.setdefault(self.state_of(lam, "nonstable"), lam)
                gt.setdefault(self.state_of(lam, "unstable"), lam)
                zero.setdefault(self.state_of(lam, "polystable"), lam)
            balanced = {
                s: lam for s, lam in zero.items() if s and oracles.zero_in_relative_interior(s)
            }
            self._samples = (geq, gt, balanced)
        return self._samples

    def check(self, text):
        """Failed check names, each mapped to a reason, for one report."""
        doc = json.loads(text)
        failed = {}
        if doc["support_size"] != len(self.support):
            failed["support_size"] = f"{doc['support_size']} weights, expected {len(self.support)}"
        lists = {}
        for locus in ("nonstable", "unstable", "polystable"):
            states = []
            for state in doc["loci"][locus]["states"]:
                weights = frozenset(self._from_display(doc, w) for w in state["weights"])
                coweight = tuple(state["witness"]["coweight"])
                if min(coweight) < 0 or not any(coweight):
                    failed["witness_in_chamber"] = f"{locus} witness {coweight}"
                if weights != self.state_of(coweight, locus) or state["size"] != len(weights):
                    failed["state_sign_set"] = f"{locus} state of witness {coweight}"
                states.append(weights)
            if doc["loci"][locus]["count"] != len(states):
                failed["state_count"] = f"{locus} count differs from its state list"
            lists[locus] = states
        for locus in ("nonstable", "unstable"):
            if not _incomparable(lists[locus]):
                failed[f"{locus}_incomparable"] = "a listed state contains another"
        geq, gt, balanced = self.samples()
        for name, sampled, listed in (
            ("nonstable_cover", geq, lists["nonstable"]),
            ("unstable_cover", gt, lists["unstable"]),
        ):
            missed = [lam for s, lam in sampled.items() if s and not any(s <= t for t in listed)]
            if missed:
                failed[name] = f"{len(missed)} sampled sets uncovered, e.g. lambda={missed[0]}"
        for state in lists["polystable"]:
            if not oracles.zero_in_relative_interior(state):
                failed["polystable_relint"] = f"0 not in the relative interior of {sorted(state)}"
        found = set()
        for state in lists["polystable"]:
            found |= self.root.set_orbit(state)
        missed_classes = []
        for s, lam in sorted(balanced.items(), key=lambda item: item[1]):
            if s not in found:
                missed_classes.append(lam)
                found |= self.root.set_orbit(s)
        if missed_classes:
            failed["polystable_complete"] = (
                f"{len(missed_classes)} Weyl classes missed, e.g. lambda={missed_classes[0]}"
            )
        return failed

    def _from_display(self, doc, weight):
        if doc["weight_coords"] == "L":
            return tuple(weight[i] - weight[i + 1] for i in range(self.root.rank))
        return tuple(weight)


class ClassifyReference:
    """Reference verdicts for torus classification queries on one problem."""

    def __init__(self, group_name, weight_text):
        self.root = oracles.RootData(group_name)
        self.support = self.root.support(
            oracles.parse_highest_weight(self.root.rank, weight_text)
        )
        self.lines = self.root.lines(self.support)
        self._verdicts = {}

    def verdict(self, weights):
        key = frozenset(weights)
        if key not in self._verdicts:
            self._verdicts[key] = oracles.torus_verdict(sorted(key), self.root.rank)
        return self._verdicts[key]

    def check(self, weights, verdict, certificate):
        """Failed check names for one classify_torus answer."""
        failed = {}
        expected = self.verdict(weights)
        if verdict != expected:
            failed["classify_verdict"] = f"{verdict}, hull oracle says {expected}"
        if verdict == "T-stable":
            if certificate is not None:
                failed["classify_certificate"] = "stable verdict carries a certificate"
            return failed
        if certificate is None:
            failed["classify_certificate"] = "missing certificate"
            return failed
        values = [self.root.pairing(w, certificate) for w in weights]
        ok = all(v > 0 for v in values) if verdict == "T-unstable" else all(v >= 0 for v in values)
        if not ok:
            failed["classify_certificate"] = f"certificate {certificate} does not pair as claimed"
        return failed
