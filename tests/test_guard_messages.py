"""Each work guard names its stage and how far the stage got when it trips."""

import pytest

from gitloci.errors import ResourceGuardError
from gitloci.gitsolver import (
    _drop_weyl_duplicates,
    _sorted_maximal,
    new_problem,
    solve_non_stable,
    solve_strictly_polystable,
)
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


def _nonstable_state_and_its_image(problem):
    # The 7-weight maximal non-stable state, which the first simple
    # reflection fixes, and its image under the second share a Weyl bucket,
    # so the first one's class is closed. In the locus itself it is alone in its bucket and closes
    # nothing.
    (indices, point), = [entry for entry in _sorted_maximal(problem, ">=0") if len(entry[0]) == 7]
    image = tuple(sorted(map(problem.reflections[1].__getitem__, indices)))
    assert image != indices
    return _drop_weyl_duplicates(problem, [(indices, point), (image, point)])


# The strictly polystable locus always deduplicates, and its two 3-weight
# states share a bucket; the non-stable case drives the deduplication
# directly.
@pytest.mark.parametrize(
    "solver, weyl_optimisation, set_size",
    [(_nonstable_state_and_its_image, True, 7), (solve_strictly_polystable, False, 3)],
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


def test_states_alone_in_their_weyl_bucket_close_no_class_under_the_guard():
    # The two maximal non-stable states (7 and 6 weights) share no bucket,
    # so a guard of 2 is never reached.
    problem = new_problem(A2, parse_highest_weight(A2, "3,0"), weyl_optimisation=True, weyl_guard=2)
    states = solve_non_stable(problem)
    assert [s.size for s in states] == [7, 6]
    assert states == solve_non_stable(
        new_problem(A2, parse_highest_weight(A2, "3,0"), weyl_optimisation=True)
    )


def test_weight_support_guard_names_its_round():
    with pytest.raises(
        ResourceGuardError,
        match=r"^weight support exceeded the guard of 5 weights,"
        r" with 6 weights reached in round 2 of simple-root descent$",
    ):
        weight_support(A2, weight(A2, (6, 6)), guard=5)
