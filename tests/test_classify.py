"""Torus classification of points against independent hull verdicts.

The verdicts come from `_oracles.torus_verdict_oracle`, which decides the
torus Hilbert-Mumford criterion from the convex hull of the pairing
functionals with its own Fraction arithmetic. Certificates are checked with
`_oracles.pairing_oracle`. The problems are those of the benchmark's
classify workload.
"""

import random
import time
from math import gcd

import pytest

from gitloci.errors import RankMismatchError
from gitloci.gitsolver import classify_torus, hm_mu, new_problem
from gitloci.repsupport import parse_highest_weight
from gitloci.rootdata import OneParameterSubgroup, Weight, make_group

from _oracles import pairing_functionals, pairing_oracle, torus_verdict_oracle

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
