"""Dense sampling of the fundamental chamber in rank 3-7.

Every fundamental-coweight vector with coordinates in 0..4 in rank 3-4, and
in 0..2 in rank 5-7 (the zero vector left out), is a sampled one-parameter
subgroup lam. Its >= 0, > 0 and = 0 sets are computed from the oracles of
`_oracles`: the support by the saturation test, the pairings from the
Cartan matrix alone, balance by subset enumeration and Weyl images by
closing under the simple reflections.
The inputs are the benchmark's `midrank` and `minuscule` workloads.
"""

from itertools import product

import pytest

from gitloci.gitsolver import new_problem, solve_all
from gitloci.repsupport import parse_highest_weight
from gitloci.rootdata import make_group
from _oracles import (
    pairing_functionals,
    saturated_support_oracle,
    weyl_set_orbit_oracle,
    zero_in_relative_interior_oracle,
)

MIDRANK = [
    ("A3", "1,0,0"), ("A3", "2,0,0"), ("B3", "2,0,0"), ("B3", "0,1,0"), ("C3", "0,0,1"),
    ("A4", "1,0,0,0"), ("A4", "0,1,0,0"), ("B4", "0,0,0,1"), ("F4", "0,0,0,1"), ("D4", "1,0,0,0"),
]
MINUSCULE = [
    ("A5", "0,0,1,0,0"), ("A6", "1,0,0,0,0,0"), ("B6", "1,0,0,0,0,0"),
    ("C6", "1,0,0,0,0,0"), ("D6", "1,0,0,0,0,0"), ("C7", "1,0,0,0,0,0,0"),
]
# The inputs on which the solver misses strictly polystable Weyl classes:
# it reads = 0 states only off rays and cell witnesses (ROADMAP item 1).
POLYSTABLE_INCOMPLETE = {
    ("A3", "2,0,0"), ("B3", "2,0,0"), ("B3", "0,1,0"),
    ("C3", "0,0,1"), ("B4", "0,0,0,1"), ("F4", "0,0,0,1"), ("A5", "0,0,1,0,0"),
}
MISSES_POLYSTABLE = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")


def coweight_range(rank):
    """The sampled coordinates: 0..4 up to rank 4, 0..2 above it."""
    return range(5) if rank <= 4 else range(3)


def sampled_sets(group, spec):
    """The solution, and for each sampled lam its (>= 0, > 0, = 0) sets of
    fundamental-coefficient tuples, all from the oracles."""
    hw = tuple(int(c) for c in spec.split(","))
    support = sorted(saturated_support_oracle(group.cartan, hw))
    functionals = pairing_functionals(group.cartan, support)
    for lam in product(coweight_range(group.rank), repeat=group.rank):
        if not any(lam):
            continue
        values = [sum(a * b for a, b in zip(u, lam)) for u in functionals]
        yield (
            frozenset(w for w, v in zip(support, values) if v >= 0),
            frozenset(w for w, v in zip(support, values) if v > 0),
            frozenset(w for w, v in zip(support, values) if v == 0),
        )


def solved(name, spec):
    group = make_group(name)
    return group, solve_all(new_problem(group, parse_highest_weight(group, spec)))


@pytest.mark.parametrize("name, spec", MIDRANK + MINUSCULE)
def test_sampled_nonstable_and_unstable_sets_are_covered(name, spec):
    group, solution = solved(name, spec)
    nonstable = [s.coeff_set() for s in solution.nonstable]
    unstable = [s.coeff_set() for s in solution.unstable]
    for at_least, strictly, _ in sampled_sets(group, spec):
        assert any(at_least <= s for s in nonstable), sorted(at_least)
        assert any(strictly <= s for s in unstable), sorted(strictly)


@pytest.mark.parametrize(
    "name, spec",
    [
        pytest.param(*case, marks=MISSES_POLYSTABLE) if case in POLYSTABLE_INCOMPLETE else case
        for case in MIDRANK + MINUSCULE
    ],
)
def test_sampled_balanced_zero_sets_are_listed_polystable_states(name, spec):
    group, solution = solved(name, spec)
    listed = set()
    for state in solution.strictly_polystable:
        listed |= weyl_set_orbit_oracle(group.cartan, state.coeff_set())
    balanced = {}
    for _, _, zero in sampled_sets(group, spec):
        if zero not in balanced:
            balanced[zero] = bool(zero) and zero_in_relative_interior_oracle(sorted(zero))
        if balanced[zero]:
            assert zero in listed, sorted(zero)
