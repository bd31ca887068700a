"""Unit tests for the stability solver pipelines.

The A2 case with highest weight three times the first fundamental weight is
small enough to solve by hand, and the expected rays, cells, states, and
destabilizing witnesses below were derived that way before being frozen here.
"""

from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gitloci import gitsolver, rootdata
from gitloci.errors import GitLociError, ParseError, RankMismatchError
from gitloci.exactgeom import dot, zero_in_relative_interior
from gitloci.gitsolver import (
    GITProblem,
    classify_torus,
    hm_mu,
    new_problem,
    parse_loci,
    problem_from_weights,
    solve_all,
    solve_non_stable,
    solve_strictly_polystable,
    solve_unstable,
    state_of,
)
from gitloci.repsupport import RepresentationSupport, parse_highest_weight, weight_support
from gitloci.rootdata import (
    OneParameterSubgroup,
    make_group,
    one_param_subgroup,
    pairing,
    pairing_vector,
    weight,
    weyl_elements,
)
from _oracles import closing_drop_weyl_duplicates, pairing_row_select, per_vector_dedupe_lines

A2 = make_group("A2")
B2 = make_group("B2")
G2 = make_group("G2")

NS7 = frozenset({(-3, 3), (-2, 1), (-1, 2), (0, 0), (1, 1), (2, -1), (3, 0)})
NS6 = frozenset({(-1, 2), (0, 0), (1, -2), (1, 1), (2, -1), (3, 0)})
US5 = frozenset({(-3, 3), (-1, 2), (1, 1), (2, -1), (3, 0)})
PS1 = frozenset({(0, 0)})
PS3 = frozenset({(-2, 1), (0, 0), (2, -1)})

relaxed = settings(max_examples=50, deadline=None, derandomize=True)


def a2_cubic_problem(**kwargs):
    return new_problem(A2, parse_highest_weight(A2, "3,0,0"), **kwargs)


def test_pairing_vector_golden_values():
    assert pairing_vector(A2, (-3, 3)) == (-3, 3)
    assert pairing_vector(A2, (1, 1)) == (3, 3)
    assert pairing_vector(A2, (0, 0)) == (0, 0)
    assert pairing_vector(B2, (1, 0)) == (2, 2)


@relaxed
@given(
    st.sampled_from(["A2", "B2", "G2"]),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2).map(tuple),
    st.lists(st.integers(-4, 4), min_size=2, max_size=2).map(tuple),
)
def test_pairing_vector_computes_det_scaled_pairing(name, coeffs, m):
    group = make_group(name)
    if all(v == 0 for v in m):
        return
    u = pairing_vector(group, coeffs)
    lam = OneParameterSubgroup(group, m)
    assert dot(u, m) == group.cartan_det * pairing(weight(group, coeffs), lam)


def test_a2_cubic_rays_and_cells():
    problem = a2_cubic_problem()
    assert list(problem.rays()) == [(0, 1), (1, 0), (1, 1)]
    assert list(problem.cells()) == [(1, 2), (2, 1)]


def test_a2_cubic_maximal_nonstable_states():
    states = solve_non_stable(a2_cubic_problem())
    assert [s.kind for s in states] == ["nonstable", "nonstable"]
    assert [s.size for s in states] == [7, 6]
    assert states[0].coeff_set() == NS7
    assert states[0].witness.coeffs == (0, 1)
    assert states[1].coeff_set() == NS6
    assert states[1].witness.coeffs == (1, 0)


def test_a2_cubic_maximal_unstable_states():
    states = solve_unstable(a2_cubic_problem())
    assert len(states) == 1
    assert states[0].kind == "unstable"
    assert states[0].coeff_set() == US5
    assert states[0].witness.coeffs == (1, 2)


def test_a2_cubic_strictly_polystable_states():
    states = solve_strictly_polystable(a2_cubic_problem())
    assert [s.kind for s in states] == ["strictly_polystable", "strictly_polystable"]
    assert [s.size for s in states] == [1, 3]
    assert states[0].coeff_set() == PS1
    assert states[1].coeff_set() == PS3
    assert states[1].witness.coeffs == (0, 1)


def test_every_emitted_state_is_realized_by_its_own_witness():
    problem = a2_cubic_problem()
    solution = solve_all(problem)
    for state, mode in (
        [(s, ">=0") for s in solution.nonstable]
        + [(s, ">0") for s in solution.unstable]
        + [(s, "=0") for s in solution.strictly_polystable]
    ):
        realized = state_of(problem, state.witness, mode)
        assert frozenset(w.coeffs for w in realized) == state.coeff_set()


def test_state_of_golden_slices():
    problem = a2_cubic_problem()
    lam = OneParameterSubgroup(A2, (0, 1))
    at_least = frozenset(w.coeffs for w in state_of(problem, lam, ">=0"))
    strictly = frozenset(w.coeffs for w in state_of(problem, lam, ">0"))
    vanishing = frozenset(w.coeffs for w in state_of(problem, lam, "=0"))
    assert at_least == NS7
    assert vanishing == PS3
    assert strictly == NS7 - PS3
    with pytest.raises(ValueError):
        state_of(problem, lam, ">=1")
    with pytest.raises(RankMismatchError):
        state_of(problem, OneParameterSubgroup(B2, (1, 0)), ">=0")


def test_hilbert_mumford_values_against_hand_computation():
    problem = a2_cubic_problem()
    lam = one_param_subgroup(A2, (0, 1), "fundamental-coweight")
    assert hm_mu(problem, list(problem.support), lam) == -2
    assert hm_mu(problem, list(problem.support), one_param_subgroup(A2, (1, 1), "fundamental-coweight")) == -3
    seven = [w for w in problem.support if w.coeffs in NS7]
    assert hm_mu(problem, seven, lam) == 0
    with pytest.raises(ValueError):
        hm_mu(problem, [], lam)
    with pytest.raises(ValueError):
        hm_mu(problem, [weight(A2, (9, 9))], lam)


def test_unstable_states_nest_inside_nonstable_states():
    for group, spec in ((A2, "3,0"), (B2, "2,0"), (B2, "3,0"), (G2, "1,0")):
        problem = new_problem(group, parse_highest_weight(group, spec))
        solution = solve_all(problem)
        for unstable in solution.unstable:
            assert any(
                unstable.coeff_set() <= nonstable.coeff_set()
                for nonstable in solution.nonstable
            )


def test_nonstable_listing_is_sorted_largest_first():
    for group, spec in ((B2, "3,0"), (B2, "4,0")):
        states = solve_non_stable(new_problem(group, parse_highest_weight(group, spec)))
        sizes = [s.size for s in states]
        assert sizes == sorted(sizes, reverse=True)
        assert len({s.coeff_set() for s in states}) == len(states)


def test_no_emitted_state_contains_another_of_its_kind():
    for solver in (solve_non_stable, solve_unstable):
        states = solver(new_problem(B2, parse_highest_weight(B2, "3,0")))
        for a in states:
            for b in states:
                if a is not b:
                    assert not a.coeff_set() <= b.coeff_set()


def _weyl_set_images(group, coeff_set):
    return {
        frozenset(element.apply_to_weight_coeffs(c) for c in coeff_set)
        for element in weyl_elements(group)
    }


RANK_3_4_WEYL_INPUTS = (
    (make_group("A3"), "2,0,0"), (make_group("B3"), "0,1,0"),
    (make_group("C3"), "0,0,1"), (make_group("D4"), "1,0,0,0"),
)


def test_weyl_optimisation_keeps_one_state_per_orbit():
    for group, spec in ((A2, "3,0"), (B2, "3,0"), (G2, "1,0"), *RANK_3_4_WEYL_INPUTS):
        plain = new_problem(group, parse_highest_weight(group, spec))
        reduced = new_problem(group, parse_highest_weight(group, spec), weyl_optimisation=True)
        for solve in (solve_non_stable, solve_unstable):
            full_list = solve(plain)
            kept = []
            for state in full_list:
                images = _weyl_set_images(group, state.coeff_set())
                if not any(prior.coeff_set() in images for prior in kept):
                    kept.append(state)
            assert [s.coeff_set() for s in solve(reduced)] == [s.coeff_set() for s in kept]


def test_strictly_polystable_states_are_pairwise_weyl_inequivalent():
    for group, spec in ((A2, "3,0"), (B2, "3,0"), *RANK_3_4_WEYL_INPUTS):
        states = solve_strictly_polystable(new_problem(group, parse_highest_weight(group, spec)))
        for i, a in enumerate(states):
            images = _weyl_set_images(group, a.coeff_set())
            for b in states[i + 1:]:
                assert b.coeff_set() not in images


def test_weyl_deduplicated_loci_do_not_depend_on_the_order_they_are_solved_in():
    for group, spec in RANK_3_4_WEYL_INPUTS:
        forward, backward = (
            solve_all(
                new_problem(group, parse_highest_weight(group, spec), weyl_optimisation=True),
                loci,
            )
            for loci in ("nonstable,unstable,polystable", "polystable,unstable,nonstable")
        )
        assert forward == backward


def test_trivial_representation_degenerates():
    problem = new_problem(A2, parse_highest_weight(A2, "0,0"))
    solution = solve_all(problem)
    assert [s.coeff_set() for s in solution.nonstable] == [frozenset({(0, 0)})]
    assert solution.unstable == ()
    assert [s.coeff_set() for s in solution.strictly_polystable] == [frozenset({(0, 0)})]


def test_problem_from_weights_runs_the_same_pipelines():
    rows = [(1, 0), (-1, 1), (0, -1), (0, 0)]
    problem = problem_from_weights(A2, rows)
    solution = solve_all(problem)
    assert solution.nonstable
    for state in solution.nonstable:
        assert state.coeff_set() <= set(rows)


def test_problem_rejects_mismatched_group_and_support():
    support = weight_support(B2, weight(B2, (1, 0)))
    with pytest.raises(RankMismatchError):
        GITProblem(A2, support)


def test_problem_rejects_an_unsorted_or_unclosed_hand_built_support():
    weights = weight_support(A2, weight(A2, (1, 0))).weights
    assert [w.coeffs for w in weights] == [(-1, 1), (0, -1), (1, 0)]
    swapped = RepresentationSupport(A2, None, (weights[1], weights[0], weights[2]))
    with pytest.raises(
        ValueError, match=r"^support is not strictly sorted: weight \(-1, 1\) follows \(0, -1\)$"
    ):
        GITProblem(A2, swapped)
    repeated = RepresentationSupport(A2, None, (weights[0], weights[0], weights[1], weights[2]))
    with pytest.raises(ValueError, match=r"^support is not strictly sorted"):
        GITProblem(A2, repeated)
    unclosed = RepresentationSupport(A2, None, weights[1:])
    with pytest.raises(
        ValueError,
        match=r"^support is not closed under the Weyl group: reflection 2"
        r" maps \(0, -1\) to \(-1, 1\), which is missing$",
    ):
        GITProblem(A2, unclosed)


def test_solve_all_locus_selection():
    problem = a2_cubic_problem()
    solution = solve_all(problem, loci="unstable")
    assert solution.nonstable is None
    assert solution.strictly_polystable is None
    assert len(solution.unstable) == 1
    assert set(solution.timings) == {"unstable"}
    both = solve_all(problem, loci="nonstable, polystable")
    assert both.unstable is None
    assert both.nonstable is not None and both.strictly_polystable is not None
    with pytest.raises(ParseError):
        solve_all(problem, loci="nonstable,bogus")
    with pytest.raises(ParseError):
        solve_all(problem, loci="")


def test_solve_all_skips_empty_locus_parts_and_takes_iterables():
    problem = a2_cubic_problem()
    assert parse_loci("nonstable,,unstable") == ["nonstable", "unstable"]
    two = solve_all(problem, "nonstable,,unstable")
    assert list(two.timings) == ["nonstable", "unstable"]
    assert two.strictly_polystable is None
    listed = solve_all(problem, [" Unstable", "polystable ", "unstable"])
    assert list(listed.timings) == ["unstable", "polystable"]
    assert listed.nonstable is None
    assert listed.unstable == two.unstable
    for empty in (",", " , ", [], ["", " "]):
        with pytest.raises(ParseError, match="no loci requested"):
            parse_loci(empty)


# B2 = C2 and D3 = A3 with their diagrams' nodes swapped: the B2 bond
# arrow points the other way in C2, and the D3 fork sits on A3's middle
# node. Isomorphic representations have equal supports and loci.
EXCEPTIONAL_ISOMORPHISMS = [
    (("B2", "0,1"), ("C2", "1,0")),
    (("B2", "1,0"), ("C2", "0,1")),
    (("B2", "2,1"), ("C2", "1,2")),
    (("D3", "1,0,0"), ("A3", "0,1,0")),
    (("D3", "0,1,0"), ("A3", "1,0,0")),
    (("D3", "0,1,1"), ("A3", "1,0,1")),
]


def _locus_shape(name, spec, weyl):
    group = make_group(name)
    solution = solve_all(new_problem(group, parse_highest_weight(group, spec), weyl))
    loci = (solution.nonstable, solution.unstable, solution.strictly_polystable)
    return len(solution.support.weights), [sorted(map(len, states)) for states in loci]


@pytest.mark.parametrize("weyl", [False, True])
@pytest.mark.parametrize("left, right", EXCEPTIONAL_ISOMORPHISMS)
def test_exceptional_isomorphisms_give_the_same_loci(left, right, weyl):
    assert _locus_shape(*left, weyl) == _locus_shape(*right, weyl)


def test_classification_of_the_generic_point_is_stable():
    problem = a2_cubic_problem()
    result = classify_torus(problem, list(problem.support))
    assert result.verdict == "T-stable"
    assert result.certificate is None


def test_classification_of_an_unstable_support():
    problem = a2_cubic_problem()
    points = [w for w in problem.support if w.coeffs in US5]
    result = classify_torus(problem, points)
    assert result.verdict == "T-unstable"
    assert hm_mu(problem, points, result.certificate) > 0


def test_classification_of_a_weyl_translate_is_unchanged():
    problem = a2_cubic_problem()
    element = weyl_elements(A2)[3]
    moved_coeffs = {element.apply_to_weight_coeffs(c) for c in US5}
    points = [w for w in problem.support if w.coeffs in moved_coeffs]
    assert len(points) == 5
    result = classify_torus(problem, points)
    assert result.verdict == "T-unstable"
    assert hm_mu(problem, points, result.certificate) > 0


def test_classification_of_the_origin_is_semistable_but_not_stable():
    problem = a2_cubic_problem()
    points = [w for w in problem.support if w.is_zero]
    result = classify_torus(problem, points)
    assert result.verdict == "T-non-stable-semistable"
    assert hm_mu(problem, points, result.certificate) == 0


def test_classification_of_a_regular_orbit_is_stable():
    problem = a2_cubic_problem()
    points = [w for w in problem.support if w.coeffs in {(1, 1), (-1, 2), (2, -1), (-2, 1), (1, -2), (-1, -1)}]
    assert len(points) == 6
    assert classify_torus(problem, points).verdict == "T-stable"


def test_classification_certificates_are_primitive():
    problem = a2_cubic_problem()
    points = [w for w in problem.support if w.coeffs in US5]
    certificate = classify_torus(problem, points).certificate
    assert certificate.coeffs == certificate.primitive().coeffs


# The benchmark's `planar`, `midrank` and `minuscule` inputs.
PLANAR_SOLVES = [
    *[("A2", f"{d},0") for d in range(3, 13)],
    *[("B2", f"{d}*w1") for d in range(3, 13)],
    *[("G2", f"{d},0") for d in range(1, 5)],
    *[("G2", f"0,{d}") for d in range(1, 4)],
]
MIDRANK_SOLVES = [
    ("A3", "1,0,0"), ("A3", "2,0,0"), ("B3", "2,0,0"), ("B3", "0,1,0"), ("C3", "0,0,1"),
    ("A4", "1,0,0,0"), ("A4", "0,1,0,0"), ("B4", "0,0,0,1"), ("F4", "0,0,0,1"), ("D4", "1,0,0,0"),
]
MINUSCULE_SOLVES = [
    ("A5", "0,0,1,0,0"), ("A6", "1,0,0,0,0,0"), ("B6", "1,0,0,0,0,0"),
    ("C6", "1,0,0,0,0,0"), ("D6", "1,0,0,0,0,0"), ("C7", "1,0,0,0,0,0,0"),
]
BENCHMARK_SOLVES = [*PLANAR_SOLVES, *MIDRANK_SOLVES, *MINUSCULE_SOLVES]
# The `HEAVY` inputs of scripts/compare_reports.py.
HEAVY_SOLVES = [
    ("A3", "3,0,0"), ("A3", "4,0,0"), ("B3", "1,0,1"), ("A4", "2,0,0,0"), ("C4", "0,0,0,1"),
    ("D5", "0,0,0,0,1"), ("E6", "1,0,0,0,0,0"), ("A7", "1,0,0,0,0,0,0"), ("A1", "3"),
    ("C2", "0,1"), ("D3", "1,0,0"), ("A5", "1,1,0,0,0"), ("A5", "2,0,0,0,0"),
    ("D5", "1,0,0,0,0"), ("B5", "1,0,0,0,0"), ("A3", "0,1,0"), ("B2", "20*w1"),
    ("E7", "0,0,0,0,0,0,1"), ("A5", "3,0,0,0,0"), ("A4", "4,0,0,0"),
]
MODES = (">=0", ">0", "=0")
# The problems of the benchmark's classify workload.
CLASSIFY_SOLVES = [
    ("B2", "8*w1"), ("G2", "2,0"), ("A3", "2,0,0"),
    ("B3", "2,0,0"), ("C3", "0,0,1"), ("F4", "0,0,0,1"),
]


@pytest.mark.parametrize("weyl", [False, True], ids=["plain", "weyl-opt"])
@pytest.mark.parametrize("name, spec", BENCHMARK_SOLVES + HEAVY_SOLVES)
def test_witnesses_and_certificates_are_primitive(name, spec, weyl):
    # Reports and classify_torus write witnesses as they are, because each
    # is a ray or cell point, which the geometry returns primitive, and
    # simple reflections are unimodular. On a classify problem the queries
    # are every state, the support less each state, and the full support.
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec), weyl_optimisation=weyl)
    solution = solve_all(problem)
    states = [*solution.nonstable, *solution.unstable, *solution.strictly_polystable]
    assert states and all(gcd(*state.witness.coeffs) == 1 for state in states)
    if (name, spec) in CLASSIFY_SOLVES:
        support = problem.support.weights
        queries = [
            *(state.weights for state in states),
            *([w for w in support if w not in state.weights] for state in states),
            support,
        ]
        certificates = [classify_torus(problem, query).certificate for query in filter(None, queries)]
        assert any(certificates)
        assert all(gcd(*c.coeffs) == 1 for c in certificates if c is not None)


@pytest.mark.parametrize("name, spec", BENCHMARK_SOLVES + HEAVY_SOLVES)
def test_sign_masks_select_what_the_pairing_row_selects(name, spec, monkeypatch):
    # Every call the loci make, at the width each call chooses: the rays,
    # the cells, and the polystable witnesses, in all three modes.
    kernel = gitsolver._sign_masks
    seen = set()

    def checked(problem, points):
        masks, width = kernel(problem, points)
        assert len(masks) == len(points)
        for point, (ge, gt) in zip(points, masks):
            for mode in MODES:
                mask = gitsolver._MODES[mode][1](ge, gt)
                assert gitsolver._indices(problem, mask, width) == pairing_row_select(problem, point, mode)
        seen.update(points)
        return masks, width

    monkeypatch.setattr(gitsolver, "_sign_masks", checked)
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    solve_all(problem)
    assert seen == {*problem.rays(), *problem.cells()}


def test_polystable_certificates_agree_with_the_simplex():
    # Every distinct = 0 candidate of the inputs, from the pairing rows. A
    # witness q with every member >= 0 and one > 0 says no; a zero sum of
    # the members' pairing vectors says yes. Each certificate that applies
    # agrees with the relative-interior simplex, and the locus keeps the
    # candidates the simplex keeps. The first 601 candidates (215 no and
    # 386 yes) are those of the inputs before A5 3,0,0,0,0 and A4 4,0,0,0.
    totals = Counter()
    for name, spec in BENCHMARK_SOLVES + HEAVY_SOLVES:
        group = make_group(name)
        problem = new_problem(group, parse_highest_weight(group, spec))
        witnesses = list(problem.rays())
        if (0,) * group.rank in problem.index:
            witnesses += problem.cells()[:1]
        signs = [
            (set(pairing_row_select(problem, q, ">=0")), set(pairing_row_select(problem, q, ">0")))
            for q in witnesses
        ]
        candidates = {}
        for q in witnesses:
            zero = pairing_row_select(problem, q, "=0")
            if zero:
                candidates.setdefault(zero, q)
        kept = []
        for zero, q in candidates.items():
            members = [problem._pairing_vectors[i] for i in zero]
            answer = zero_in_relative_interior(members)
            witnessed = any(ge >= set(zero) and gt & set(zero) for ge, gt in signs)
            summed = not any(map(sum, zip(*members)))
            assert not (witnessed and answer) and not (summed and not answer)
            totals.update(candidates=1, no=not answer, witnessed=witnessed, yes=answer, summed=summed)
            if answer:
                kept.append((zero, q))
        kept.sort(key=lambda e: (len(e[0]), e[0]))
        expected = [
            (frozenset(problem.support.weights[i].coeffs for i in zero), q)
            for zero, q in gitsolver._drop_weyl_duplicates(problem, kept)
        ]
        states = solve_strictly_polystable(problem)
        assert [(s.coeff_set(), s.witness.coeffs) for s in states] == expected
    assert totals == Counter(candidates=892, no=482, witnessed=482, yes=410, summed=353)


def test_polystable_locus_runs_the_simplex_only_without_a_certificate(monkeypatch):
    runs = []
    monkeypatch.setattr(
        gitsolver,
        "zero_in_relative_interior",
        lambda points: runs.append(points) or zero_in_relative_interior(points),
    )
    counts = []
    for inputs in (PLANAR_SOLVES, MIDRANK_SOLVES, MINUSCULE_SOLVES):
        runs.clear()
        for name, spec in inputs:
            group = make_group(name)
            solve_strictly_polystable(new_problem(group, parse_highest_weight(group, spec)))
        counts.append(len(runs))
    assert counts == [19, 2, 0]


def b2_quintic_problem():
    return new_problem(B2, parse_highest_weight(B2, "5*w1"))


def g2_problem():
    return new_problem(G2, parse_highest_weight(G2, "0,2"))


def assert_state_of_matches_the_pairing_row(problem, coeffs):
    lam = OneParameterSubgroup(problem.group, coeffs)
    weights = problem.support.weights
    for mode in MODES:
        expected = tuple(weights[i] for i in pairing_row_select(problem, coeffs, mode))
        assert state_of(problem, lam, mode).weights == expected


@relaxed
@given(st.lists(st.integers(-(10**40), 10**40), min_size=2, max_size=2))
def test_state_of_matches_the_pairing_row_for_any_integer_lambda(coeffs):
    if any(coeffs):
        for problem in (b2_quintic_problem(), g2_problem()):
            assert_state_of_matches_the_pairing_row(problem, tuple(coeffs))


@pytest.mark.parametrize("coeffs", [(-2, 5), (3, -7), (-1, -1), (0, -4)])
def test_state_of_a_lambda_with_negative_entries(coeffs):
    assert_state_of_matches_the_pairing_row(b2_quintic_problem(), coeffs)


def test_state_of_a_lambda_whose_pairings_need_fields_wider_than_64_bits():
    problem = b2_quintic_problem()
    for coeffs in [(10**30, 3 * 10**30 + 1), (-(10**30), 10**30), (10**31, 0)]:
        assert gitsolver._sign_masks(problem, [coeffs])[1] > 8
        assert_state_of_matches_the_pairing_row(problem, coeffs)


def test_field_width_covers_the_column_entries_that_a_lambda_does_not_reach():
    # The Weyl orbit of the G2 weight (0, 64): the pairing columns reach 64
    # and 128. lam = (1, 0) is 0 on the column of 128, so its pairings fit
    # one byte, but packing that column needs two.
    orbit = {(0, 64)}
    frontier = list(orbit)
    while frontier:
        image = [rootdata.reflect_weight_coeffs(G2.cartan, c, i) for c in frontier for i in (0, 1)]
        frontier = [c for c in image if c not in orbit]
        orbit.update(frontier)
    problem = problem_from_weights(G2, sorted(orbit))
    assert [max(map(abs, column)) for column in problem._pairing_columns] == [64, 128]
    for coeffs in [(1, 0), (-1, 0)]:
        assert gitsolver._sign_masks(problem, [coeffs])[1] == 2
        assert_state_of_matches_the_pairing_row(problem, coeffs)


def test_masks_read_off_a_widened_pack_match_the_pairing_rows():
    # The loci pack A2 2,0 at one byte; lam = (10^30, -10^29) needs wider
    # fields, and the rays and cells are then read off that wider pack.
    problem = new_problem(A2, parse_highest_weight(A2, "2,0"))
    solve_all(problem)
    narrow = problem._packed[0]
    assert_state_of_matches_the_pairing_row(problem, (10**30, -(10**29)))
    wide = problem._packed[0]
    assert wide > narrow
    for points in (problem.rays(), problem.cells()):
        masks, width = gitsolver._sign_masks(problem, points)
        assert width == wide
        for point, (ge, gt) in zip(points, masks):
            for mode in MODES:
                mask = gitsolver._MODES[mode][1](ge, gt)
                assert gitsolver._indices(problem, mask, width) == pairing_row_select(problem, point, mode)


def field_width(problem, points):
    """The fewest bytes per field that hold, strictly inside the bias,
    every pairing column entry and the bound sum_j |p_j| max|column j| on
    every pairing of the points."""
    bounds = [max(map(abs, column)) for column in problem._pairing_columns]
    bound = max([*bounds, *(sum(abs(c) * b for c, b in zip(p, bounds)) for p in points)])
    return next(width for width in range(1, 64) if bound < 1 << (8 * width - 1))


@pytest.mark.parametrize("name, spec", BENCHMARK_SOLVES)
def test_solve_all_packs_each_problems_columns_once_per_width(name, spec, monkeypatch):
    # The rays need the width of the first pack; the cells repack only when
    # they need wider fields, and the polystable locus never repacks.
    kernel = gitsolver._sign_masks
    packs = []

    def counted(problem, points):
        before = problem._packed
        masks, width = kernel(problem, points)
        if problem._packed is not before:
            packs.append(width)
        return masks, width

    monkeypatch.setattr(gitsolver, "_sign_masks", counted)
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    solve_all(problem)
    first, cells = field_width(problem, problem.rays()), field_width(problem, problem.cells())
    assert packs == ([first, cells] if cells > first else [first])
    if name in ("B6", "C6", "C7"):
        assert packs == [1]


# Wider Weyl groups for the deduplication: the E7 adjoint, F4 and E6.
WEYL_DEDUP_SOLVES = [("E7", "1,0,0,0,0,0,0"), ("F4", "1,0,0,0"), ("E6", "0,1,0,0,0,0")]


@pytest.mark.parametrize("weyl", [False, True], ids=["plain", "weyl-opt"])
@pytest.mark.parametrize("name, spec", BENCHMARK_SOLVES + WEYL_DEDUP_SOLVES)
def test_bucketed_weyl_deduplication_keeps_what_closing_every_class_keeps(
    name, spec, weyl, monkeypatch
):
    # Every entry list the solve deduplicates, checked against the
    # deduplication that closes the class of every state it keeps.
    bucketed = gitsolver._drop_weyl_duplicates
    calls = []

    def both(problem, entries):
        kept = bucketed(problem, entries)
        assert kept == closing_drop_weyl_duplicates(problem, entries)
        calls.append(len(entries))
        return kept

    monkeypatch.setattr(gitsolver, "_drop_weyl_duplicates", both)
    group = make_group(name)
    solve_all(new_problem(group, parse_highest_weight(group, spec), weyl_optimisation=weyl))
    assert len(calls) == (3 if weyl else 1)


def test_non_conjugate_states_may_share_a_weyl_bucket():
    # F4 0,0,0,1: two 7-weight strictly polystable states share every
    # invariant of the bucket but lie in different Weyl classes, so their
    # conjugacy is decided by the closure, and both are kept.
    group = make_group("F4")
    problem = new_problem(group, parse_highest_weight(group, "0,0,0,1"))
    first, second = [s for s in solve_strictly_polystable(problem) if s.size == 7]
    buckets = [
        gitsolver._weyl_bucket(problem, tuple(sorted(problem.index[w.coeffs] for w in s)))
        for s in (first, second)
    ]
    assert buckets[0] == buckets[1]
    assert second.coeff_set() not in _weyl_set_images(group, first.coeff_set())


def test_rank_7_states_alone_in_their_buckets_close_no_class(monkeypatch):
    # E7 0,0,0,0,0,0,1: the 3 non-stable and 8 unstable states kept under
    # the optimisation each have a bucket of their own.
    closures = []
    monkeypatch.setattr(
        gitsolver, "_closure", lambda *args: closures.append(args) or rootdata._closure(*args)
    )
    group = make_group("E7")
    problem = new_problem(group, parse_highest_weight(group, "0,0,0,0,0,0,1"), weyl_optimisation=True)
    solution = solve_all(problem, "nonstable,unstable")
    assert (len(solution.nonstable), len(solution.unstable)) == (3, 8)
    assert closures == []


@pytest.mark.parametrize("name, spec", BENCHMARK_SOLVES)
def test_only_the_zero_weight_vanishes_on_a_cell_witness(name, spec):
    # The polystable locus reads one cell witness because every cell's = 0
    # state is this one: the zero weight's, or empty without it.
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    coeffs = [w.coeffs for w in problem.support]
    expected = tuple(i for i, c in enumerate(coeffs) if not any(c))
    for point in problem.cells():
        vanishing = tuple(i for i, c in enumerate(coeffs) if dot(pairing_vector(group, c), point) == 0)
        assert vanishing == expected


@pytest.mark.parametrize(
    "name, spec, witnesses",
    [
        ("E6", "1,0,0,0,0,0", [(0, 0, 1, 0, 1, 0), (0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0)]),
        ("A5", "0,0,1,0,0", [(2, 0, 0, 1, 0), (1, 0, 1, 0, 0), (1, 0, 0, 0, 1), (0, 1, 0, 0, 0)]),
    ],
)
def test_polystable_locus_without_the_zero_weight_reads_no_cell(name, spec, witnesses):
    # Neither support holds the zero weight, so no cell witness has a
    # non-empty = 0 state. The witnesses are those read off the rays and
    # the first cell before the cells were left out, all of them rays; each
    # state is the set of weights vanishing at its witness.
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    states = solve_strictly_polystable(problem)
    assert {s.witness.coeffs for s in states} <= set(problem.rays())
    assert [s.witness.coeffs for s in states] == witnesses
    for state in states:
        assert state.coeff_set() == {
            w.coeffs for w in problem.support if pairing(w, state.witness) == 0
        }


@pytest.mark.parametrize("name, spec", BENCHMARK_SOLVES)
def test_pairing_tables_match_the_pairing_vector_per_weight(name, spec):
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    vectors = tuple(pairing_vector(group, w.coeffs) for w in problem.support)
    assert problem._pairing_vectors == vectors
    assert problem._pairing_columns == tuple(zip(*vectors))
    assert list(problem._normals) == per_vector_dedupe_lines(vectors)


def test_user_input_errors_are_parse_errors():
    problem = a2_cubic_problem()
    lam = OneParameterSubgroup(A2, (0, 1))
    missing = [weight(A2, (9, 9))]
    cases = [
        (lambda: state_of(problem, lam, ">=1"), "unknown mode '>=1'; expected one of ['=0', '>0', '>=0']"),
        (lambda: classify_torus(problem, missing), "weight (9, 9) is not in the problem's support"),
        (lambda: hm_mu(problem, missing, lam), "weight (9, 9) is not in the problem's support"),
        (lambda: classify_torus(problem, []), "classify_torus needs a non-empty support"),
        (lambda: hm_mu(problem, [], lam), "hm_mu needs a non-empty support"),
    ]
    for call, message in cases:
        with pytest.raises(ParseError) as err:
            call()
        assert isinstance(err.value, GitLociError) and isinstance(err.value, ValueError)
        assert str(err.value) == message
