"""Torus classification of points against independent hull verdicts.

The verdicts come from `_oracles.torus_verdict_oracle`, which decides the
torus Hilbert-Mumford criterion from the convex hull of the pairing
functionals with its own Fraction arithmetic. Certificates are checked with
`_oracles.pairing_oracle`. The problems are those of the benchmark's
classify workload. `_oracles.instability_first_classify_torus` keeps the
order of LPs that posed the strict system first, and the classifications
must not depend on that order.
"""

import random
import time
from dataclasses import replace
from math import gcd

import pytest

from gitloci import gitsolver
from gitloci.errors import ParseError, RankMismatchError
from gitloci.gitsolver import classify_torus, hm_mu, new_problem
from gitloci.repsupport import parse_highest_weight
from gitloci.rootdata import OneParameterSubgroup, Weight, make_group

from _oracles import (
    instability_first_classify_torus,
    pairing_functionals,
    pairing_oracle,
    torus_verdict_oracle,
)

CLASSIFY_PROBLEMS = [
    ("B2", "8*w1"), ("G2", "2,0"), ("A3", "2,0,0"),
    ("B3", "2,0,0"), ("C3", "0,0,1"), ("F4", "0,0,0,1"),
]
QUERIES_PER_KIND = 5


def _queries(cartan, support, rng):
    """Seeded point supports: weights positive on a random coweight, its
    zero set with some positive weights, and the support less a few."""
    functionals = dict(zip(support, pairing_functionals(cartan, support)))
    rank = len(cartan)
    queries = []
    while len(queries) < 3 * QUERIES_PER_KIND:
        lam = tuple(rng.randint(-3, 3) for _ in range(rank))
        if not any(lam):
            continue
        values = {c: sum(a * b for a, b in zip(u, lam)) for c, u in functionals.items()}
        positive = [c for c in support if values[c] > 0]
        zero = [c for c in support if values[c] == 0]
        kind = len(queries) % 3
        if kind == 0:
            chosen = rng.sample(positive, rng.randint(1, len(positive)))
        elif kind == 1 and zero:
            chosen = zero + rng.sample(positive, rng.randint(0, len(positive)))
        elif kind == 2:
            dropped = set(rng.sample(support, rng.randint(0, len(support) // 3)))
            chosen = [c for c in support if c not in dropped]
        else:
            continue
        queries.append(sorted(chosen))
    return queries


@pytest.mark.parametrize("name,spec", CLASSIFY_PROBLEMS)
def test_classify_torus_matches_the_hull_oracle(name, spec):
    group = make_group(name)
    cartan = group.cartan
    highest = parse_highest_weight(group, spec)
    support = sorted(w.coeffs for w in new_problem(group, highest).support)
    queries = _queries(cartan, support, random.Random(f"classify:{name}:{spec}"))
    expected = [torus_verdict_oracle(cartan, query) for query in queries]
    assert set(expected) == {"T-unstable", "T-non-stable-semistable", "T-stable"}
    for weyl_optimisation in (False, True):
        problem = new_problem(group, highest, weyl_optimisation=weyl_optimisation)
        for query, verdict in zip(queries, expected):
            result = classify_torus(problem, [Weight(group, c) for c in query])
            assert result.verdict == verdict, query
            if verdict == "T-stable":
                assert result.certificate is None
                continue
            coeffs = result.certificate.coeffs
            assert gcd(*coeffs) == 1
            values = [pairing_oracle(cartan, c, coeffs) for c in query]
            if verdict == "T-unstable":
                assert all(v > 0 for v in values), (query, coeffs)
            else:
                assert all(v >= 0 for v in values), (query, coeffs)


# Lower-rank supports of sum 0, certified from the kernel: the zero weight
# alone, a balanced pair {chi, -chi} and a rank-2 support in rank 3.
KERNEL_QUERIES = [
    ("A2", "3,0", [(0, 0)]),
    ("A2", "3,0", [(1, 1), (-1, -1)]),
    ("A3", "2,0,0", [(0, 1, 0), (0, -1, 0), (1, -1, 1), (-1, 1, -1)]),
]


@pytest.mark.parametrize("name,spec", CLASSIFY_PROBLEMS)
def test_classify_torus_equals_the_instability_first_order(name, spec):
    group = make_group(name)
    highest = parse_highest_weight(group, spec)
    support = sorted(w.coeffs for w in new_problem(group, highest).support)
    queries = _queries(group.cartan, support, random.Random(f"classify:{name}:{spec}"))
    for weyl_optimisation in (False, True):
        problem = new_problem(group, highest, weyl_optimisation=weyl_optimisation)
        for query in [*queries, support]:  # the last is the full support
            points = [Weight(group, c) for c in query]
            expected = instability_first_classify_torus(problem, points)
            assert classify_torus(problem, points) == expected, query


@pytest.mark.parametrize("name,spec,query", KERNEL_QUERIES)
def test_classify_torus_equals_the_instability_first_order_on_kernel_supports(
    name, spec, query
):
    group = make_group(name)
    assert not any(map(sum, zip(*pairing_functionals(group.cartan, query))))
    points = [Weight(group, c) for c in query]
    for weyl_optimisation in (False, True):
        problem = new_problem(
            group, parse_highest_weight(group, spec), weyl_optimisation=weyl_optimisation
        )
        expected = instability_first_classify_torus(problem, points)
        assert expected.verdict == "T-non-stable-semistable"
        assert classify_torus(problem, points) == expected


def test_a_t_stable_or_balanced_query_poses_one_lp_and_any_other_two(monkeypatch):
    group = make_group("A2")
    problem = new_problem(group, parse_highest_weight(group, "3,0"))
    support = {w.coeffs: w for w in problem.support}
    lam = OneParameterSubgroup(group, (1, 0))
    calls = []
    lp_feasible = gitsolver.lp_feasible

    def counted(*args):
        calls.append(args)
        return lp_feasible(*args)

    monkeypatch.setattr(gitsolver, "lp_feasible", counted)
    for points, verdict, lps in (
        (list(problem.support), "T-stable", 1),
        ([support[(1, 1)], support[(-1, -1)]], "T-non-stable-semistable", 1),
        ([w for w in problem.support if hm_mu(problem, [w], lam) > 0], "T-unstable", 2),
        ([w for w in problem.support if hm_mu(problem, [w], lam) >= 0], "T-non-stable-semistable", 2),
    ):
        calls.clear()
        assert classify_torus(problem, points).verdict == verdict
        assert len(calls) == lps, verdict


def test_classify_torus_does_not_enumerate_the_weyl_group():
    group = make_group("A2")
    for weyl_optimisation in (False, True):
        problem = new_problem(
            group, parse_highest_weight(group, "3,0,0"),
            weyl_optimisation=weyl_optimisation, weyl_guard=1,
        )
        support = {w.coeffs: w for w in problem.support}
        for coeffs, verdict in (
            ([(-3, 3), (-1, 2), (1, 1), (2, -1), (3, 0)], "T-unstable"),
            ([(0, 0)], "T-non-stable-semistable"),
            (list(support), "T-stable"),
        ):
            assert classify_torus(problem, [support[c] for c in coeffs]).verdict == verdict


def test_b2_twentieth_power_classifies_over_a_wide_dual():
    # 841 weights: the transposition dual of the full support has 841
    # columns over 3 rows, wider than any other classify input here. The
    # certificate is frozen from the full-tableau simplex.
    group = make_group("B2")
    problem = new_problem(group, parse_highest_weight(group, "20*w1"))
    assert len(problem.support) == 841
    whole = classify_torus(problem, list(problem.support))
    assert (whole.verdict, whole.certificate) == ("T-stable", None)
    lam = OneParameterSubgroup(group, (1, 2))
    half = [w for w in problem.support if hm_mu(problem, [w], lam) > 0]
    result = classify_torus(problem, half)
    assert result.verdict == "T-unstable"
    assert result.certificate == OneParameterSubgroup(group, (4, 9))
    assert hm_mu(problem, half, result.certificate) > 0


def test_e6_query_takes_about_a_second():
    group = make_group("E6")
    started = time.perf_counter()
    problem = new_problem(group, parse_highest_weight(group, "1,0,0,0,0,0"))
    lam = OneParameterSubgroup(group, (1, -1, 0, 2, -1, 0))
    points = [w for w in problem.support if hm_mu(problem, [w], lam) > 0]
    result = classify_torus(problem, points)
    elapsed = time.perf_counter() - started
    assert result.verdict == "T-unstable"
    assert hm_mu(problem, points, result.certificate) > 0
    assert classify_torus(problem, list(problem.support)).verdict == "T-stable"
    assert elapsed < 10.0


def test_weights_of_another_group_are_refused():
    g2 = make_group("G2")
    problem = new_problem(g2, parse_highest_weight(g2, "1,0"))
    foreign = [Weight(make_group("A2"), (1, 0))]
    with pytest.raises(RankMismatchError):
        classify_torus(problem, foreign)
    with pytest.raises(RankMismatchError):
        hm_mu(problem, foreign, OneParameterSubgroup(g2, (1, 0)))


@pytest.mark.parametrize("caller", ["classify_torus", "hm_mu"])
def test_support_members_that_are_not_weights_are_parse_errors(caller):
    a2 = make_group("A2")
    problem = new_problem(a2, parse_highest_weight(a2, "2,0"))
    ask = {
        "classify_torus": lambda points: classify_torus(problem, points),
        "hm_mu": lambda points: hm_mu(problem, points, OneParameterSubgroup(a2, (1, 0))),
    }[caller]
    with pytest.raises(ParseError, match=rf"^{caller} needs Weight members, got \(2, 0\)$"):
        ask([(2, 0)])
    with pytest.raises(ParseError, match=rf"^{caller} needs Weight members, got '2,0'$"):
        ask([Weight(a2, (2, 0)), "2,0"])


@pytest.mark.parametrize("caller", ["classify_torus", "hm_mu"])
def test_query_supports_are_refused_in_order(caller):
    b2 = make_group("B2")
    problem = new_problem(b2, parse_highest_weight(b2, "1,0"))
    lam = OneParameterSubgroup(b2, (1, 2))
    ask = {
        "classify_torus": lambda points: classify_torus(problem, points),
        "hm_mu": lambda points: hm_mu(problem, points, lam),
    }[caller]
    inside = list(problem.support)
    missing = Weight(b2, (5, 5))
    foreign = Weight(make_group("A2"), (1, 0))
    with pytest.raises(ValueError, match=r"^weight \(5, 5\) is not in the problem's support$"):
        ask([*inside, missing])
    with pytest.raises(ValueError, match=rf"^{caller} needs a non-empty support$"):
        ask([])
    with pytest.raises(RankMismatchError, match=r"^weight \(1, 0\) belongs to A2, not B2$"):
        ask([inside[0], foreign, missing])
    with pytest.raises(ValueError, match=r"^weight \(5, 5\) is not in the problem's support$"):
        ask([missing, foreign])
    twin = replace(b2)
    assert twin == b2 and twin is not b2
    for points in (inside, [w for w in inside if hm_mu(problem, [w], lam) > 0]):
        assert ask([Weight(twin, w.coeffs) for w in points]) == ask(points)
