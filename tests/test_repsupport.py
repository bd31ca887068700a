"""Unit tests for highest-weight parsing and weight support enumeration."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gitloci.errors import NonDominantError, ParseError, RankMismatchError, ResourceGuardError
from gitloci.repsupport import (
    _reflection_table,
    parse_highest_weight,
    support_from_weights,
    weight_support,
)
from gitloci.rootdata import Weight, dominant_representative, make_group, weight, weyl_orbit
from _oracles import (
    b2_ball_support,
    per_pair_reflection_table,
    saturated_support_oracle,
    tuple_weight_support,
    type_a_monomial_support,
)

A2 = make_group("A2")
B2 = make_group("B2")
G2 = make_group("G2")

relaxed = settings(max_examples=50, deadline=None, derandomize=True)


def test_parse_fundamental_coefficients():
    assert parse_highest_weight(A2, "3,0").coeffs == (3, 0)
    assert parse_highest_weight(A2, "3 0").coeffs == (3, 0)
    assert parse_highest_weight(A2, "0,0").coeffs == (0, 0)
    assert parse_highest_weight(B2, "1, 2").coeffs == (1, 2)


def test_parse_fundamental_multiple_shorthand():
    assert parse_highest_weight(A2, "3*w1").coeffs == (3, 0)
    assert parse_highest_weight(B2, "2*w2").coeffs == (0, 2)
    assert parse_highest_weight(make_group("C3"), "4*w3").coeffs == (0, 0, 4)


def test_parse_l_coordinates_for_type_a():
    assert parse_highest_weight(A2, "3,0,0").coeffs == (3, 0)
    assert parse_highest_weight(A2, "2,1,0").coeffs == (1, 1)
    assert parse_highest_weight(make_group("A1"), "5,0").coeffs == (5,)


def test_parse_rejects_non_dominant_input():
    with pytest.raises(NonDominantError):
        parse_highest_weight(A2, "0,0,3")
    with pytest.raises(NonDominantError):
        parse_highest_weight(A2, "-1,2")
    with pytest.raises(NonDominantError):
        parse_highest_weight(A2, "2 0 1")


def test_parse_rejects_malformed_input():
    for bad in ("", "x,y", "1,2,3,4", "3*w5", "3*w0", "1*w1+2*w2"):
        with pytest.raises(ParseError):
            parse_highest_weight(A2, bad)


# `int` alone reads each of these as some other weight: (10, 0), (3, 0),
# (3, 0), (1, 0), (3, 0), 3*w1 and (1, 0).
@pytest.mark.parametrize("bad", ["1_0,0", "３,0", "٣,0", "1,,0", "3,0,", "３*w1", "1 ,, 0"])
def test_parse_reads_only_ascii_integers_separated_once(bad):
    with pytest.raises(ParseError, match=r"^cannot parse weight specification "):
        parse_highest_weight(A2, bad)


def test_parse_accepts_signs_and_blanks_around_one_comma():
    assert parse_highest_weight(A2, " +3 ,\t0 ").coeffs == (3, 0)
    assert parse_highest_weight(A2, "2  1 0").coeffs == (1, 1)
    assert parse_highest_weight(A2, "3 * w1").coeffs == (3, 0)


def test_support_refusals_name_their_input():
    with pytest.raises(ParseError, match=r"^weight list is empty$"):
        support_from_weights(A2, [])
    with pytest.raises(NonDominantError, match=r"^highest weight \(-1, 0\) is not dominant$"):
        weight_support(A2, Weight(A2, (-1, 0)))


def test_support_matches_monomial_enumeration_for_type_a():
    for rank in (1, 2, 3):
        group = make_group(f"A{rank}")
        for degree in (1, 2, 3):
            support = weight_support(group, weight(group, (degree,) + (0,) * (rank - 1)))
            assert support.coeff_set() == type_a_monomial_support(rank, degree)
            assert len(support) == comb(degree + rank, rank)


def test_support_matches_ball_enumeration_for_b2():
    for degree in (1, 2, 3, 4):
        support = weight_support(B2, weight(B2, (degree, 0)))
        assert support.coeff_set() == b2_ball_support(degree)
        assert len(support) == 2 * degree * degree + 2 * degree + 1


def test_adjoint_support_of_g2_is_roots_plus_origin():
    support = weight_support(G2, weight(G2, (1, 0)))
    assert len(support) == 13
    assert (0, 0) in support.coeff_set()
    nonzero = [w for w in support if not w.is_zero]
    assert len(nonzero) == 12


def test_trivial_representation_support():
    support = weight_support(A2, parse_highest_weight(A2, "0,0"))
    assert support.coeff_set() == {(0, 0)}


def test_support_container_protocol():
    support = weight_support(A2, weight(A2, (3, 0)))
    assert len(support) == 10
    assert support.highest == weight(A2, (3, 0))
    assert weight(A2, (3, 0)) in support
    assert weight(A2, (-3, 3)) in support
    assert weight(A2, (4, 0)) not in support
    assert len(list(iter(support))) == 10


def test_support_membership_is_by_weight_and_group():
    support = weight_support(B2, weight(B2, (2, 0)))
    assert all(w in support for w in support.weights)
    assert weight(B2, (0, 2)) in support
    assert weight(B2, (2, 2)) not in support
    # The same coefficients in another group are another weight.
    assert weight(A2, (0, 2)) not in support
    assert (0, 2) not in support


def test_support_is_sorted_and_duplicate_free():
    support = weight_support(B2, weight(B2, (2, 0)))
    rows = [w.coeffs for w in support]
    assert rows == sorted(rows)
    assert len(rows) == len(set(rows))


@relaxed
@given(st.sampled_from(["A2", "B2", "G2"]), st.integers(0, 2), st.integers(0, 2))
def test_support_is_weyl_closed_and_respects_dominance(name, c1, c2):
    group = make_group(name)
    support = weight_support(group, weight(group, (c1, c2)))
    coeffs = support.coeff_set()
    for member in support:
        assert dominant_representative(group, member).coeffs in coeffs
        for image in weyl_orbit(group, member):
            assert image.coeffs in coeffs


# Coefficient bound per rank for the small highest weights; F4 keeps only
# the trivial and fundamental ones.
SMALL_COEFF_BOUND = {1: 4, 2: 3, 3: 3, 4: 2}
ORACLE_HIGHEST_WEIGHTS = [
    (name, coeffs)
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D2", "D3", "D4", "G2", "F4")
    for coeffs in product(range(SMALL_COEFF_BOUND[int(name[1])]), repeat=int(name[1]))
    if name != "F4" or sum(coeffs) <= 1
] + [("E6", tuple(int(i == j) for j in range(6))) for i in range(6)] + [
    ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ("E7", (1, 0, 0, 0, 0, 0, 0)),
]


@pytest.mark.parametrize(
    "name,coeffs",
    ORACLE_HIGHEST_WEIGHTS,
    ids=[f"{name}-{','.join(map(str, coeffs))}" for name, coeffs in ORACLE_HIGHEST_WEIGHTS],
)
def test_support_matches_the_saturation_oracle(name, coeffs):
    group = make_group(name)
    support = weight_support(group, weight(group, coeffs))
    assert support.coeff_set() == saturated_support_oracle(group.cartan, coeffs)


def test_support_rejects_wrong_group():
    chi = weight(B2, (1, 0))
    with pytest.raises(RankMismatchError):
        weight_support(make_group("B3"), chi)


def test_support_guard_trips():
    with pytest.raises(ResourceGuardError):
        weight_support(A2, weight(A2, (6, 6)), guard=5)


def test_support_from_weights_accepts_a_closed_set():
    rows = [(1, 0), (-1, 1), (0, -1), (0, 0), (0, 0)]
    support = support_from_weights(A2, rows)
    assert support.highest is None
    assert support.coeff_set() == {(1, 0), (-1, 1), (0, -1), (0, 0)}


def test_support_from_weights_rejects_non_closed_sets():
    with pytest.raises(ParseError) as err:
        support_from_weights(A2, [(1, 0)])
    assert "not closed" in str(err.value)


def test_support_from_weights_rejects_non_integral_coefficients():
    # The halves of the A2 weights (1, 0), (-1, 1) and (0, -1) used to be
    # truncated to the one weight (0, 0), and (1.7, 0) to (1, 0).
    halves = [(Fraction(1, 2), 0), (Fraction(-1, 2), Fraction(1, 2)), (0, Fraction(-1, 2))]
    with pytest.raises(ParseError, match=r"weight \(Fraction\(1, 2\), 0\)"):
        support_from_weights(A2, halves)
    with pytest.raises(ParseError, match=r"weight \(1\.7, 0\)"):
        support_from_weights(A2, [(1.7, 0), (-1, 1), (0, -1)])
    # A Fraction equal to an integer is that integer.
    rows = [(Fraction(1), 0), (-1, Fraction(2, 2)), (0, -1)]
    assert support_from_weights(A2, rows).coeff_set() == {(1, 0), (-1, 1), (0, -1)}


def test_support_from_weights_rejects_wrong_length_rows():
    with pytest.raises(RankMismatchError):
        support_from_weights(A2, [(1, 0, 0)])


# The benchmark's inputs, the heavier inputs of scripts/compare_reports.py,
# the widest coefficient range there (B2 20*w1, +-40) and two adjoints.
TABLE_INPUTS = [
    *[("A2", f"{d},0") for d in range(3, 13)],
    *[("B2", f"{d}*w1") for d in range(3, 13)],
    *[("G2", f"{d},0") for d in range(1, 5)],
    *[("G2", f"0,{d}") for d in range(1, 4)],
    ("A3", "1,0,0"), ("A3", "2,0,0"), ("B3", "2,0,0"), ("B3", "0,1,0"), ("C3", "0,0,1"),
    ("A4", "1,0,0,0"), ("A4", "0,1,0,0"), ("B4", "0,0,0,1"), ("F4", "0,0,0,1"), ("D4", "1,0,0,0"),
    ("A5", "0,0,1,0,0"), ("A6", "1,0,0,0,0,0"), ("B6", "1,0,0,0,0,0"),
    ("C6", "1,0,0,0,0,0"), ("D6", "1,0,0,0,0,0"), ("C7", "1,0,0,0,0,0,0"),
    ("A3", "3,0,0"), ("A3", "4,0,0"), ("B3", "1,0,1"), ("A4", "2,0,0,0"), ("C4", "0,0,0,1"),
    ("D5", "0,0,0,0,1"), ("E6", "1,0,0,0,0,0"), ("A7", "1,0,0,0,0,0,0"), ("A1", "3"),
    ("C2", "0,1"), ("D3", "1,0,0"), ("A5", "1,1,0,0,0"), ("A5", "2,0,0,0,0"),
    ("D5", "1,0,0,0,0"), ("B5", "1,0,0,0,0"), ("A3", "0,1,0"),
    ("B2", "20*w1"), ("E7", "0,0,0,0,0,0,1"), ("E8", "0,0,0,0,0,0,0,1"),
]
TRIVIAL_GROUPS = [
    *[f"A{r}" for r in range(1, 9)], *[f"B{r}" for r in range(2, 9)],
    *[f"C{r}" for r in range(2, 9)], *[f"D{r}" for r in range(4, 9)],
    "E6", "E7", "E8", "F4", "G2",
]


def positions(weights):
    return {w.coeffs: i for i, w in enumerate(weights)}


@pytest.mark.parametrize("name, spec", TABLE_INPUTS)
def test_reflection_table_matches_the_per_pair_reference(name, spec):
    group = make_group(name)
    weights = weight_support(group, parse_highest_weight(group, spec)).weights
    index = positions(weights)
    assert _reflection_table(group, weights, index) == per_pair_reflection_table(group, weights, index)


@pytest.mark.parametrize("name", TRIVIAL_GROUPS)
def test_reflection_table_of_the_trivial_representation(name):
    # The support {0} packs with base 8 * 0 + 1 = 1.
    group = make_group(name)
    weights = weight_support(group, weight(group, (0,) * group.rank)).weights
    table = _reflection_table(group, weights, positions(weights))
    assert table == ((0,),) * group.rank == per_pair_reflection_table(group, weights, positions(weights))


def test_reflection_table_of_an_empty_hand_built_support():
    for name in ("A1", "G2", "C3", "E8"):
        group = make_group(name)
        assert _reflection_table(group, (), {}) == ((),) * group.rank
        assert per_pair_reflection_table(group, (), {}) == ((),) * group.rank


def test_reflection_table_names_the_first_missing_image_without_aliasing():
    # Packed in base 2M + 1 = 5 instead of 8M + 1, the missing image
    # (2, -3, -1) would read as the key of (2, 2, -2), a support weight.
    group = make_group("C3")
    weights = tuple(Weight(group, row) for row in [(-2, -1, -1), (1, 2, 2), (2, 2, -2)])
    message = (
        "support is not closed under the Weyl group: reflection 1 maps (-2, -1, -1)"
        " to (2, -3, -1), which is missing"
    )
    with pytest.raises(ParseError) as err:
        _reflection_table(group, weights, positions(weights))
    assert str(err.value) == message


@st.composite
def hand_built_weights(draw):
    """A group with Cartan entries down to -3, and a weight list: a few
    weights with coefficients up to +-6, or the union of their Weyl orbits,
    some of its weights dropped, sorted or reversed."""
    group = draw(st.sampled_from([A2, B2, G2, make_group("C3")]))
    coefficient = st.integers(-6, 6)
    seeds = draw(st.lists(st.tuples(*[coefficient] * group.rank), min_size=1, max_size=4))
    if draw(st.booleans()):
        seeds = {w.coeffs for seed in seeds for w in weyl_orbit(group, Weight(group, seed))}
    rows = sorted(set(seeds))
    dropped = draw(st.sets(st.integers(0, len(rows) - 1), max_size=3))
    rows = [row for i, row in enumerate(rows) if i not in dropped]
    if draw(st.booleans()):
        rows.reverse()
    return group, tuple(Weight(group, row) for row in rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hand_built_weights())
def test_reflection_table_matches_the_reference_on_hand_built_supports(case):
    group, weights = case
    index = positions(weights)
    try:
        expected = per_pair_reflection_table(group, weights, index)
    except ParseError as refused:
        with pytest.raises(ParseError) as err:
            _reflection_table(group, weights, index)
        assert str(err.value) == str(refused)
    else:
        assert _reflection_table(group, weights, index) == expected


# The inputs above, G2 6,6 (901 weights; Cartan entries down to -3), the E7
# weight 0,0,0,0,0,1,0 (883 weights) and the trivial representations of A1,
# G2 and E8.
DESCENT_INPUTS = [
    *TABLE_INPUTS, ("G2", "6,6"), ("E7", "0,0,0,0,0,1,0"),
    ("A1", "0"), ("G2", "0,0"), ("E8", "0,0,0,0,0,0,0,0"),
]


@pytest.mark.parametrize("name, spec", DESCENT_INPUTS)
def test_packed_descent_finds_what_the_tuple_descent_finds(name, spec):
    group = make_group(name)
    highest = parse_highest_weight(group, spec)
    rows = [w.coeffs for w in weight_support(group, highest).weights]
    assert rows == tuple_weight_support(group, highest)
    # The docstring's bound: every coefficient of the support within
    # M = 6 sum(hw), and every candidate and alpha-string probe within 4M + 3.
    bound = 6 * sum(highest.coeffs)
    assert max(map(abs, (c for row in rows for c in row))) <= bound
    for row in rows:
        for c, alpha in zip(row, group.simple_roots_fundamental):
            reached = [[m - a for m, a in zip(row, alpha)]]
            if c <= 0:
                reached.append([m + (1 - c) * a for m, a in zip(row, alpha)])
            assert all(abs(x) <= 4 * bound + 3 for vector in reached for x in vector)
