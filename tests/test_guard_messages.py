"""Each work guard names its stage and how far the stage got when it trips."""

import pytest

from gitloci.errors import ResourceGuardError
from gitloci.gitsolver import new_problem, solve_non_stable, solve_strictly_polystable
from gitloci.repsupport import parse_highest_weight, weight_support
from gitloci.rootdata import make_group, weight, weyl_elements, weyl_orbit

A2 = make_group("A2")


def test_weyl_orbit_guard_names_its_round():
    with pytest.raises(
        ResourceGuardError,
        match=r"^Weyl orbit exceeded the guard of 4 elements, with 5 elements reached in round 2$",
    ):
        weyl_orbit(A2, weight(A2, (1, 1)), guard=4)


def test_weyl_enumeration_guard_names_its_round():
    with pytest.raises(
        ResourceGuardError,
        match=r"^Weyl enumeration exceeded the guard of 10 elements,"
        r" with 11 elements reached in round 2$",
    ):
        weyl_elements(make_group("D4"), guard=10)


# Both callers of the Weyl deduplication: the non-stable locus deduplicates
# only under the optimisation, the strictly polystable locus always.
@pytest.mark.parametrize(
    "solver, weyl_optimisation, set_size",
    [(solve_non_stable, True, 7), (solve_strictly_polystable, False, 3)],
    ids=["nonstable", "polystable"],
)
def test_weyl_set_closure_guard_names_its_round_and_set_size(
    solver, weyl_optimisation, set_size
):
    problem = new_problem(
        A2, parse_highest_weight(A2, "3,0"), weyl_optimisation=weyl_optimisation, weyl_guard=2
    )
    with pytest.raises(
        ResourceGuardError,
        match=r"^Weyl set closure exceeded the guard of 2,"
        rf" with 3 sets of {set_size} weights reached in round 2$",
    ):
        solver(problem)


def test_weight_support_guard_names_its_round():
    with pytest.raises(
        ResourceGuardError,
        match=r"^weight support exceeded the guard of 5 weights,"
        r" with 6 weights reached in round 2 of simple-root descent$",
    ):
        weight_support(A2, weight(A2, (6, 6)), guard=5)
