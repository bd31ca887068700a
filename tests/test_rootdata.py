"""Unit tests for group construction, pairings, reflections, and conversions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gitloci.errors import ConversionError, InvalidRankError, ParseError, RankMismatchError, ResourceGuardError
from gitloci.rootdata import (
    OneParameterSubgroup,
    Weight,
    convert_coordinates,
    dominant_representative,
    fundamental_chamber_generators,
    make_group,
    one_param_subgroup,
    pairing,
    reflect_coweight_coeffs,
    reflect_weight_coeffs,
    weight,
    weyl_elements,
    weyl_group_order,
    weyl_orbit,
)
from _oracles import cartan_oracle, matmul, pairing_oracle, weyl_elements_by_matmul

A2 = make_group("A2")
B2 = make_group("B2")
G2 = make_group("G2")

relaxed = settings(max_examples=50, deadline=None, derandomize=True)

small_coeffs = st.lists(st.integers(-4, 4), min_size=2, max_size=2).map(tuple)


def test_cartan_matrices_of_rank_two_groups():
    assert A2.cartan == ((2, -1), (-1, 2))
    assert B2.cartan == ((2, -1), (-2, 2))
    assert make_group("C2").cartan == ((2, -2), (-1, 2))
    assert G2.cartan == ((2, -1), (-3, 2))


def test_cartan_matrices_of_selected_higher_ranks():
    assert make_group("A1").cartan == ((2,),)
    assert make_group("C3").cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert make_group("B3").cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert make_group("F4").cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )


def test_cartan_determinants():
    expected = {"A3": 4, "A4": 5, "B4": 2, "C3": 2, "D4": 4, "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1}
    for name, det in expected.items():
        assert make_group(name).cartan_det == det


EVERY_TYPE_THROUGH_RANK_8 = (
    *(f"A{r}" for r in range(1, 9)),
    *(f"B{r}" for r in range(2, 9)),
    *(f"C{r}" for r in range(2, 9)),
    "D2",
    "D3",
    *(f"D{r}" for r in range(4, 9)),
    "E6", "E7", "E8", "F4", "G2",
)


def test_cartan_matrices_match_an_independent_construction():
    for name in EVERY_TYPE_THROUGH_RANK_8:
        group = make_group(name)
        assert group.cartan == cartan_oracle(group.dynkin.letter, group.rank), name


def test_cartan_adjugate_times_matrix_is_det_times_identity():
    for name in EVERY_TYPE_THROUGH_RANK_8:
        group = make_group(name)
        n = group.rank
        det = group.cartan_det
        for i in range(n):
            for j in range(n):
                entry = sum(group.cartan_adjugate[i][k] * group.cartan[k][j] for k in range(n))
                assert entry == (det if i == j else 0)
                assert group.cartan_inverse[i][j] == Fraction(group.cartan_adjugate[i][j], det)


def test_rank_bounds_are_enforced():
    for bad in ("A0", "B1", "C1", "D1", "E5", "E9", "F3", "F5", "G1", "G3", "Z2"):
        with pytest.raises(InvalidRankError):
            make_group(bad)
    for bad in ("A", "2", "", "B 2 extra"):
        with pytest.raises(ParseError):
            make_group(bad)


def test_make_group_accepts_split_arguments_and_lowercase():
    assert make_group("B", 2) is B2
    assert make_group("b2") is B2
    assert make_group("a 2") is A2
    assert make_group("A", "2") is A2


@pytest.mark.parametrize(
    "args, message",
    [
        (("A٣",), "cannot parse group name 'A٣'; expected forms like 'B2'"),
        (("A３",), "cannot parse group name 'A３'; expected forms like 'B2'"),
        (("A", 2.5), "group rank must be an integer, got 2.5"),
        (("A", True), "group rank must be an integer, got True"),
        (("A", "2.0"), "group rank must be an integer, got '2.0'"),
        (("A", "٣"), "group rank must be an integer, got '٣'"),
    ],
)
def test_make_group_takes_only_int_or_ascii_digit_ranks(args, message):
    with pytest.raises(ParseError) as raised:
        make_group(*args)
    assert str(raised.value) == message


def test_group_accessors():
    assert B2.group_type() == "B"
    assert B2.rnk() == 2
    assert B2.rank == 2
    assert B2.name == "B2"
    assert A2 == make_group("A2")
    assert A2 != make_group("A3")


def test_d2_carries_a_product_warning():
    warnings = make_group("D2").warnings
    assert len(warnings) == 1
    assert "A1 x A1" in warnings[0]


def test_chamber_generators_in_coroot_coordinates():
    assert make_group("A1").chamber_generators == ((1,),)
    assert A2.chamber_generators == ((2, 1), (1, 2))
    assert B2.chamber_generators == ((2, 1), (1, 1))
    assert fundamental_chamber_generators(A2) == A2.chamber_generators


def test_pairing_golden_values():
    chi = weight(A2, (0, 3, 0), "L")
    lam = one_param_subgroup(A2, (2, -1, -1), "H")
    assert pairing(chi, lam) == -3
    assert pairing(weight(A2, (3, 0, 0), "L"), lam) == 6
    assert pairing(weight(A2, (1, 1, 1), "L"), lam) == 0


def test_pairing_of_fundamental_weights_with_chamber_generators():
    # The inverse Cartan matrix of a connected diagram is entrywise positive,
    # so every fundamental weight pairs strictly positively with every
    # chamber generator.
    for group in (A2, B2, G2, make_group("C3")):
        gens = [one_param_subgroup(group, row, "coroot") for row in group.chamber_generators]
        for i in range(group.rank):
            fundamental = weight(group, tuple(1 if j == i else 0 for j in range(group.rank)), "fundamental-weight")
            assert all(pairing(fundamental, lam) > 0 for lam in gens)


@relaxed
@given(small_coeffs, small_coeffs, small_coeffs)
def test_pairing_is_additive_in_the_weight(c1, c2, m):
    if all(v == 0 for v in m):
        return
    lam = OneParameterSubgroup(A2, m)
    total = weight(A2, tuple(a + b for a, b in zip(c1, c2)), "fundamental-weight")
    assert pairing(total, lam) == pairing(weight(A2, c1), lam) + pairing(weight(A2, c2), lam)


def test_one_parameter_subgroup_keeps_raw_coefficients():
    lam = OneParameterSubgroup(A2, (2, 4))
    assert lam.coeffs == (2, 4)
    assert lam.primitive().coeffs == (1, 2)
    with pytest.raises(ValueError):
        OneParameterSubgroup(A2, (0, 0))


def test_one_parameter_subgroup_factory_clears_denominators_minimally():
    lam = one_param_subgroup(A2, (1, Fraction(1, 4), Fraction(-5, 4)), "H")
    assert lam.coeffs == (3, 6)
    assert lam.primitive().coeffs == (1, 2)


def test_weight_and_subgroup_refuse_non_integer_coefficients():
    with pytest.raises(ConversionError, match=r"Weight coefficients must be integers.*1\.5"):
        Weight(A2, (Fraction(1, 2), 1.5))
    with pytest.raises(ConversionError, match=r"OneParameterSubgroup coefficients .*Fraction\(1, 2\)"):
        OneParameterSubgroup(A2, (Fraction(1, 2), 1))
    with pytest.raises(ConversionError):
        OneParameterSubgroup(A2, (2.0, 1))
    with pytest.raises(ConversionError, match=r"Weight coefficients must be a tuple, got \[1, 0\]"):
        Weight(A2, [1, 0])
    with pytest.raises(ConversionError, match=r"OneParameterSubgroup coefficients must be a tuple"):
        OneParameterSubgroup(A2, [1, 0])
    assert OneParameterSubgroup(A2, (2, 4)).primitive().coeffs == (1, 2)


def test_chamber_membership():
    assert OneParameterSubgroup(A2, (1, 0)).in_fundamental_chamber
    assert OneParameterSubgroup(A2, (0, 3)).in_fundamental_chamber
    assert not OneParameterSubgroup(A2, (-1, 2)).in_fundamental_chamber


def test_weight_validation():
    with pytest.raises(RankMismatchError):
        Weight(A2, (1, 0, 0))
    with pytest.raises(ConversionError):
        weight(A2, (Fraction(1, 2), 0), "fundamental-weight")
    assert weight(A2, (1, 0)).is_dominant
    assert not weight(A2, (-1, 2)).is_dominant
    assert weight(A2, (0, 0)).is_zero


def test_reflection_sends_its_simple_root_to_its_negative():
    for group in (A2, B2, G2, make_group("F4")):
        n = group.rank
        for i in range(n):
            root = tuple(group.cartan[j][i] for j in range(n))
            assert reflect_weight_coeffs(group.cartan, root, i) == tuple(-v for v in root)
            coroot = group.cartan[i]
            assert reflect_coweight_coeffs(group.cartan, coroot, i) == tuple(-v for v in coroot)


@relaxed
@given(st.sampled_from(["A2", "B2", "G2", "C3"]), st.data())
def test_reflections_are_involutions(name, data):
    group = make_group(name)
    coeffs = tuple(data.draw(st.integers(-5, 5)) for _ in range(group.rank))
    for i in range(group.rank):
        assert reflect_weight_coeffs(group.cartan, reflect_weight_coeffs(group.cartan, coeffs, i), i) == coeffs
        assert reflect_coweight_coeffs(group.cartan, reflect_coweight_coeffs(group.cartan, coeffs, i), i) == coeffs


def test_braid_relations_hold_for_generator_matrices():
    # Each generator matrix is built here, with the images of the unit
    # vectors under a reflection formula as its columns, on the weight and
    # on the coweight side; s_i s_j has order exactly m_ij.
    orders = {0: 2, 1: 3, 2: 4, 3: 6}
    for name in ("A2", "B2", "G2", "A3", "B3", "C3"):
        group = make_group(name)
        n = group.rank
        identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        for reflect in (reflect_weight_coeffs, reflect_coweight_coeffs):
            generators = [
                tuple(zip(*(reflect(group.cartan, unit, i) for unit in identity))) for i in range(n)
            ]
            for i in range(n):
                assert matmul(generators[i], generators[i]) == identity
                for j in range(i + 1, n):
                    m = orders[group.cartan[i][j] * group.cartan[j][i]]
                    power = identity
                    for k in range(m):
                        assert k == 0 or power != identity
                        power = matmul(matmul(power, generators[i]), generators[j])
                    assert power == identity


def test_weyl_group_orders():
    expected = {
        "A1": 2, "A2": 6, "A3": 24, "A4": 120,
        "B2": 8, "B3": 48, "B4": 384, "C3": 48,
        "D3": 24, "D4": 192, "F4": 1152, "G2": 12,
        "E6": 51840, "E7": 2903040, "E8": 696729600,
    }
    for name, order in expected.items():
        assert weyl_group_order(make_group(name)) == order


def test_weyl_elements_enumeration_matches_order_for_small_groups():
    for name in ("A1", "A2", "B2", "G2"):
        group = make_group(name)
        assert len(weyl_elements(group)) == weyl_group_order(group)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "D5", "F4", "G2"],
)
def test_weyl_elements_match_the_matrix_product_enumeration_in_order(name):
    group = make_group(name)
    expected = weyl_elements_by_matmul(cartan_oracle(group.dynkin.letter, group.rank))
    assert len(expected) == weyl_group_order(group)
    assert tuple((e.weight_matrix, e.coweight_matrix) for e in weyl_elements(group)) == expected


def test_weyl_elements_guard_trips():
    with pytest.raises(ResourceGuardError):
        weyl_elements(make_group("D4"), guard=10)


def test_weyl_elements_act_transitively_on_an_orbit():
    chi = weight(A2, (1, 0))
    images = {element.apply_to_weight_coeffs(chi.coeffs) for element in weyl_elements(A2)}
    assert images == {w.coeffs for w in weyl_orbit(A2, chi)}


@relaxed
@given(st.sampled_from(["A2", "B2", "G2"]), st.data())
def test_weyl_elements_preserve_the_pairing(name, data):
    group = make_group(name)
    coeffs = tuple(data.draw(st.integers(-3, 3)) for _ in range(group.rank))
    m = tuple(data.draw(st.integers(-3, 3)) for _ in range(group.rank))
    if all(v == 0 for v in m):
        return
    elements = weyl_elements(group)
    element = elements[data.draw(st.integers(0, len(elements) - 1))]
    before = pairing(weight(group, coeffs), OneParameterSubgroup(group, m))
    after = pairing(
        weight(group, element.apply_to_weight_coeffs(coeffs)),
        OneParameterSubgroup(group, element.apply_to_coweight_coeffs(m)),
    )
    assert before == after


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "F4", "G2", "E6"]
)
@relaxed
@given(st.data())
def test_pairing_matches_the_cartan_solve_oracle(name, data):
    group = make_group(name)
    coeffs = tuple(data.draw(st.integers(-4, 4)) for _ in range(group.rank))
    m = tuple(data.draw(st.integers(-4, 4)) for _ in range(group.rank))
    if all(v == 0 for v in m):
        return
    value = pairing(weight(group, coeffs), OneParameterSubgroup(group, m))
    assert isinstance(value, Fraction)
    assert value == pairing_oracle(group.cartan, coeffs, m)


def test_orbit_sizes_follow_stabilizer_parabolic():
    # A dominant weight is stabilized exactly by the reflections of its
    # vanishing coefficients, so (3, 0) in A2 has orbit 6 / 2 = 3.
    assert len(weyl_orbit(A2, weight(A2, (3, 0)))) == 3
    assert len(weyl_orbit(A2, weight(A2, (1, 1)))) == 6
    assert len(weyl_orbit(A2, weight(A2, (0, 0)))) == 1
    assert len(weyl_orbit(B2, weight(B2, (1, 0)))) == 4
    assert len(weyl_orbit(B2, weight(B2, (1, 1)))) == 8
    assert len(weyl_orbit(G2, weight(G2, (1, 0)))) == 6


@relaxed
@given(st.sampled_from(["A2", "B2", "G2"]), st.data())
def test_orbit_sums_vanish_and_sizes_divide_group_order(name, data):
    group = make_group(name)
    coeffs = tuple(data.draw(st.integers(-3, 3)) for _ in range(group.rank))
    orbit = weyl_orbit(group, weight(group, coeffs))
    total = [0] * group.rank
    for member in orbit:
        for i, v in enumerate(member.coeffs):
            total[i] += v
    if any(c != 0 for c in coeffs):
        assert all(v == 0 for v in total)
    assert weyl_group_order(group) % len(orbit) == 0


@relaxed
@given(st.sampled_from(["A2", "B2", "G2", "C3"]), st.data())
def test_dominant_representative_properties(name, data):
    group = make_group(name)
    coeffs = tuple(data.draw(st.integers(-4, 4)) for _ in range(group.rank))
    chi = weight(group, coeffs)
    rep = dominant_representative(group, chi)
    assert rep.is_dominant
    assert dominant_representative(group, rep) == rep
    assert rep in weyl_orbit(group, chi)


def test_coordinate_conversion_golden_chain():
    assert convert_coordinates(A2, (2, -1, -1), "H", "coroot") == (2, 1)
    assert convert_coordinates(A2, (2, 1), "coroot", "fundamental-coweight") == (3, 0)
    assert convert_coordinates(A2, (3, 0), "fundamental-coweight", "H") == (2, -1, -1)
    assert convert_coordinates(A2, (3, 0), "T", "coroot") == (2, 1)
    assert convert_coordinates(A2, (2, -1, -1), "H", "T") == (3, 0)
    assert convert_coordinates(A2, (0, 3, 0), "L", "fundamental-weight") == (-3, 3)
    assert convert_coordinates(A2, (-3, 3), "fundamental-weight", "L", trace=3) == (0, 3, 0)


def test_coordinate_conversion_produces_fractions_when_needed():
    assert convert_coordinates(A2, (1, 0), "fundamental-coweight", "coroot") == (Fraction(2, 3), Fraction(1, 3))


@relaxed
@given(st.sampled_from(["coroot", "fundamental-coweight"]), small_coeffs)
def test_coweight_round_trips(system, coords):
    there = convert_coordinates(A2, coords, system, "H")
    back = convert_coordinates(A2, there, "H", system)
    assert back == coords


@relaxed
@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(tuple))
def test_l_round_trip_preserves_trace(coords):
    trace = sum(coords)
    fundamental = convert_coordinates(A2, coords, "L", "fundamental-weight")
    assert convert_coordinates(A2, coords, "L", "L", trace=trace) == coords
    assert convert_coordinates(A2, fundamental, "fundamental-weight", "L", trace=trace) == coords


def test_coordinate_conversion_rejects_floats():
    # 0.1 and 0.2 used to become their binary expansions, so the subgroup
    # was (3602879701896397, 7205759403792794), not (1, 2).
    with pytest.raises(ConversionError, match="float"):
        one_param_subgroup(A2, (0.1, 0.2))
    with pytest.raises(ConversionError, match="float"):
        weight(A2, (1.0, 0))
    with pytest.raises(ConversionError, match="float"):
        convert_coordinates(A2, (0.5, -0.25, -0.25), "H", "coroot")
    with pytest.raises(ConversionError, match="float"):
        convert_coordinates(A2, (1, 0), "fundamental-weight", "L", trace=0.1)
    assert one_param_subgroup(A2, (Fraction(1, 10), "1/5")).coeffs == (1, 2)
    assert convert_coordinates(A2, ("1/2", "-1/4", "-1/4"), "H", "T") == (Fraction(3, 4), 0)


@pytest.mark.parametrize(
    "build, coords",
    [(weight, ("x", 0)), (weight, (None, 0)), (weight, ("1/0", 0)), (one_param_subgroup, (0, 0))],
)
def test_malformed_coordinates_raise_conversion_errors(build, coords):
    with pytest.raises(ConversionError):
        build(A2, coords)


def test_coordinate_conversion_errors():
    with pytest.raises(ConversionError):
        convert_coordinates(A2, (1, 0), "fundamental-weight", "coroot")
    with pytest.raises(ConversionError):
        convert_coordinates(A2, (1, 0), "bogus", "coroot")
    with pytest.raises(ConversionError):
        convert_coordinates(A2, (1, 0, 1), "H", "coroot")
    with pytest.raises(ConversionError):
        convert_coordinates(B2, (1, 0, 0), "L", "fundamental-weight")
    with pytest.raises(ConversionError):
        convert_coordinates(A2, (1, 0), "fundamental-weight", "fundamental-weight", trace=5)
    with pytest.raises(RankMismatchError):
        convert_coordinates(A2, (1, 0, 0), "coroot", "H")
