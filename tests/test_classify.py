"""Torus classification of points against independent hull verdicts.

The verdicts come from `_oracles.torus_verdict_oracle`, which decides the
torus Hilbert-Mumford criterion from the convex hull of the pairing
functionals with its own Fraction arithmetic. Certificates are checked with
`_oracles.pairing_oracle`. The problems are those of the benchmark's
classify workload. `_oracles.instability_first_classify_torus` keeps the
order of LPs that posed the strict system first on every query; the
classifications must not depend on the order.
"""

import random
import time
from dataclasses import replace
from math import gcd

import pytest

from gitloci import gitsolver
from gitloci.errors import ParseError, RankMismatchError
from gitloci.exactgeom import kernel_basis
from gitloci.gitsolver import classify_torus, hm_mu, new_problem
from gitloci.repsupport import parse_highest_weight
from gitloci.rootdata import OneParameterSubgroup, Weight, make_group

from _oracles import (
    _rank_exact,
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


# Supports with no weight whose negative is in the support, and no zero
# weight: every query of theirs poses the strict system first.
UNOPPOSED_PROBLEMS = [("A2", "1,0"), ("A2", "4,0"), ("A3", "1,0,0"), ("E6", "1,0,0,0,0,0")]
RANDOM_SUBSETS = 40


@pytest.mark.parametrize("name,spec", UNOPPOSED_PROBLEMS)
def test_classify_torus_equals_the_instability_first_order_without_opposed_weights(name, spec):
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    support = sorted(w.coeffs for w in problem.support)
    assert not {tuple(-c for c in w) for w in support} & set(support)
    queries = _queries(group.cartan, support, random.Random(f"unopposed:{name}:{spec}"))
    for query in [*queries, support]:
        points = [Weight(group, c) for c in query]
        expected = instability_first_classify_torus(problem, points)
        assert classify_torus(problem, points) == expected, query


@pytest.mark.parametrize("name,spec", [*CLASSIFY_PROBLEMS, *UNOPPOSED_PROBLEMS])
def test_classify_torus_equals_the_instability_first_order_on_random_subsets(name, spec):
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    support = list(problem.support)
    rng = random.Random(f"subsets:{name}:{spec}")
    verdicts = set()
    for _ in range(RANDOM_SUBSETS):
        # Sizes skewed small, so that unstable subsets are drawn too.
        points = rng.sample(support, rng.randint(1, rng.randint(1, len(support))))
        expected = instability_first_classify_torus(problem, points)
        assert classify_torus(problem, points) == expected, [w.coeffs for w in points]
        verdicts.add(expected.verdict)
    assert "T-unstable" in verdicts and "T-stable" in verdicts


def _opposed_kernel_dimension(rank, query):
    """The dimension of the kernel K of the query's opposed pairs (a weight
    whose negative is in the query, the zero weight included), or None when
    it holds none. The pairing map is linear and injective, so the rank of
    the coefficient vectors is that of their pairing functionals."""
    present = set(query)
    opposed = [c for c in query if tuple(-x for x in c) in present]
    return rank - _rank_exact(opposed) if opposed else None


def _counted_lp_calls(monkeypatch):
    """The argument tuples of every `gitsolver.lp_feasible` call from now on."""
    calls = []
    lp_feasible = gitsolver.lp_feasible

    def counted(*args):
        calls.append(args)
        return lp_feasible(*args)

    monkeypatch.setattr(gitsolver, "lp_feasible", counted)
    return calls


@pytest.mark.parametrize("name,spec", CLASSIFY_PROBLEMS)
def test_the_lp_budget_of_the_seeded_queries(name, spec, monkeypatch):
    """No LP when the opposed pairs leave a kernel K of dimension 0 or 1,
    the balanced LP alone when they leave more, and the strict LP first,
    then the balanced one unless the point is T-unstable, when there is no
    opposed pair."""
    calls = _counted_lp_calls(monkeypatch)
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    support = sorted(w.coeffs for w in problem.support)
    queries = _queries(group.cartan, support, random.Random(f"classify:{name}:{spec}"))
    spared = 0
    for query in [*queries, support]:
        points = [Weight(group, c) for c in query]
        expected = instability_first_classify_torus(problem, points)
        calls.clear()
        assert classify_torus(problem, points) == expected, query
        dimension = _opposed_kernel_dimension(group.rank, query)
        if dimension is None:
            lps = 1 if expected.verdict == "T-unstable" else 2
        else:
            lps = int(dimension > 1)
        assert len(calls) == lps, (query, dimension)
        spared += not calls
    assert spared


SYMMETRISED_SUBSETS = 30


@pytest.mark.parametrize("name,spec", CLASSIFY_PROBLEMS)
def test_symmetrised_random_subsets_match_both_oracles(name, spec):
    """S together with every negative of S in the support: never
    T-unstable, and its opposed pairs leave kernels of every dimension."""
    group = make_group(name)
    cartan = group.cartan
    problem = new_problem(group, parse_highest_weight(group, spec))
    support = sorted(w.coeffs for w in problem.support)
    inside = set(support)
    rng = random.Random(f"symmetrised:{name}:{spec}")
    dimensions = set()
    for _ in range(SYMMETRISED_SUBSETS):
        drawn = set(rng.sample(support, rng.randint(1, rng.randint(1, len(support) // 2))))
        query = sorted(drawn | {tuple(-x for x in c) for c in drawn} & inside)
        points = [Weight(group, c) for c in query]
        result = classify_torus(problem, points)
        assert result.verdict == torus_verdict_oracle(cartan, query), query
        assert result == instability_first_classify_torus(problem, points), query
        dimension = _opposed_kernel_dimension(group.rank, query)
        dimensions.add(dimension if dimension is None else min(dimension, 2))
    # In rank 2 a kernel of dimension 2 needs S = {0}, which no draw hits.
    assert ({0, 1} if group.rank == 2 else {0, 1, 2}) <= dimensions, dimensions


def test_the_lp_order_follows_the_opposed_weights_of_the_query(monkeypatch):
    """A query that holds an opposed pair poses no LP when the kernel K of
    its opposed pairs is 0 or a line, and the balanced LP alone otherwise;
    any other poses the strict LP first and the balanced one only when that
    fails, whether or not its support holds opposed pairs."""
    calls = _counted_lp_calls(monkeypatch)

    def problem_of(name, spec):
        group = make_group(name)
        problem = new_problem(group, parse_highest_weight(group, spec))
        return problem, {w.coeffs: w for w in problem.support}

    a2 = make_group("A2")
    lam = OneParameterSubgroup(a2, (1, 0))
    cubics, cubic = problem_of("A2", "3,0")
    adjoint, root = problem_of("A2", "1,1")
    lines, line = problem_of("A2", "1,0")
    octics, octic = problem_of("B2", "8*w1")
    quadrics, quadric = problem_of("A3", "2,0,0")
    pair = [cubic[(1, 1)], cubic[(-1, -1)]]
    # K of the pair is the line through k; (-1, 2) lies on the side of k
    # and (2, -1) on the side of -k.
    (k,) = kernel_basis([cubics._pairing_vectors[cubics.index[w.coeffs]] for w in pair], 2)
    k = OneParameterSubgroup(a2, k)
    assert hm_mu(cubics, [cubic[(2, -1)]], k) < 0 < hm_mu(cubics, [cubic[(-1, 2)]], k)
    for problem, points, verdict, lps in (
        # The opposed pairs span the space: no LP.
        (cubics, list(cubics.support), "T-stable", 0),
        # They leave a line: lam = k, lam = -k, the kernel step on an S
        # inside k^perp, with or without a weight outside the pairs, and the
        # kernel step on an S with a weight on either side of k^perp.
        (cubics, [*pair, cubic[(-1, 2)]], "T-non-stable-semistable", 0),
        (cubics, [*pair, cubic[(2, -1)]], "T-non-stable-semistable", 0),
        (cubics, [w for w in cubics.support if hm_mu(cubics, [w], lam) >= 0], "T-non-stable-semistable", 0),
        (cubics, pair, "T-non-stable-semistable", 0),
        (cubics, [*pair, cubic[(0, 0)]], "T-non-stable-semistable", 0),
        (octics, [octic[(1, 0)], octic[(-1, 0)], octic[(2, 0)]], "T-non-stable-semistable", 0),
        (cubics, [*pair, cubic[(-1, 2)], cubic[(2, -1)]], "T-stable", 0),
        # They leave the plane, or a plane in rank 3: the balanced LP alone.
        (cubics, [cubic[(0, 0)]], "T-non-stable-semistable", 1),
        (quadrics, [quadric[(0, 1, 0)], quadric[(0, -1, 0)], quadric[(2, 0, 0)]], "T-non-stable-semistable", 1),
        # No opposed pair in S: the strict LP first.
        (cubics, [w for w in cubics.support if hm_mu(cubics, [w], lam) > 0], "T-unstable", 1),
        (adjoint, [root[(2, -1)], root[(-1, 2)], root[(-1, -1)]], "T-stable", 2),
        (lines, list(lines.support), "T-stable", 2),
        (lines, [line[(1, 0)]], "T-unstable", 1),
        (lines, [line[(1, 0)], line[(-1, 1)]], "T-unstable", 1),
    ):
        calls.clear()
        result = classify_torus(problem, points)
        assert result.verdict == verdict, [w.coeffs for w in points]
        assert len(calls) == lps, ([w.coeffs for w in points], verdict)
        if result.certificate is not None:
            assert hm_mu(problem, points, result.certificate) >= 0
        assert result == instability_first_classify_torus(problem, points)


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
