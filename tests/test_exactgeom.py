"""Unit tests for the exact rational geometry kernel."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gitloci import exactgeom
from gitloci.errors import ResourceGuardError
from gitloci.exactgeom import (
    arrangement_cells,
    arrangement_rays,
    dot,
    dot_rows,
    kernel_basis,
    lp_feasible,
    matrix_rank,
    primitive_vector,
    rays_and_cells,
    zero_in_relative_interior,
    _cone_complex,
    _dedupe_lines,
    _eliminate,
    _phase_one,
)
from gitloci.gitsolver import new_problem
from gitloci.repsupport import parse_highest_weight
from gitloci.rootdata import make_group, pairing_vector
from _oracles import (
    _bland_phase_one,
    _eliminated_pairings,
    _flat_walk,
    _planar_cell_witnesses,
    _primitive_oracle,
    _rank_exact,
    _wall_sign,
    cleared_denominators,
    lp_relint_reference,
    per_vector_dedupe_lines,
    primal_lp_reference,
    rank_test_cone_complex,
    sign_vector,
    subset_rref_rays,
    tableau_phase_one,
    unpruned_cell_witnesses_by_lp,
    unpruned_cells_localised_at_rays,
    unsplit_arrangement_rays,
    zero_in_relative_interior_oracle,
    zero_set,
)

QUADRANT = ((1, 0), (0, 1))


def orthant_cells(normals, dim, **options):
    """`arrangement_cells` with the arrangement's rays."""
    return arrangement_cells(normals, arrangement_rays(normals, dim), dim, **options)

relaxed = settings(max_examples=60, deadline=None, derandomize=True)


def test_primitive_vector_reduces_integers():
    assert primitive_vector((2, 4)) == (1, 2)
    assert primitive_vector((-3, 6, -9)) == (-1, 2, -3)
    assert primitive_vector((5,)) == (1,)


def test_primitive_vector_rejects_zero():
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


@relaxed
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(1, 7))
def test_primitive_vector_is_scale_invariant(coords, scale):
    if all(c == 0 for c in coords):
        return
    assert primitive_vector(coords) == primitive_vector([scale * c for c in coords])


def test_lp_feasible_no_strict_constraints_is_trivially_feasible():
    point = lp_feasible([(1, 1)], [], 2)
    assert point == (0, 0)


def test_lp_feasible_single_strict_inequality():
    point = lp_feasible([], [(1,)], 1)
    assert point is not None and point[0] > 0


def test_lp_feasible_zero_strict_row_is_infeasible():
    assert lp_feasible([], [(0, 0)], 2) is None


def test_lp_feasible_contradictory_system():
    assert lp_feasible([], [(1, 0), (-1, 0)], 2) is None
    # x = 0, as the two weak forms x >= 0 and -x >= 0, against x > 0.
    assert lp_feasible([(1,), (-1,)], [(1,)], 1) is None
    assert lp_feasible([(-1, -1)], [(1, 0), (0, 1)], 2) is None


def test_lp_feasible_open_quadrant_sector():
    point = lp_feasible([], [(1, 0), (0, 1), (1, -1)], 2)
    assert point is not None
    assert point[0] > 0 and point[1] > 0 and point[0] > point[1]


constraint_row = st.lists(st.integers(-4, 4), min_size=2, max_size=2).map(tuple)


def with_equalities(weak, eqs):
    """The weak forms, and each equality e.x = 0 as the two weak forms e
    and -e."""
    return [*weak, *eqs, *(tuple(-c for c in e) for e in eqs)]


@relaxed
@given(
    st.lists(constraint_row, max_size=3),
    st.lists(constraint_row, max_size=3),
    st.lists(constraint_row, min_size=1, max_size=3),
)
def test_lp_feasible_witness_satisfies_every_constraint(eqs, weak, strict):
    point = lp_feasible(with_equalities(weak, eqs), strict, 2)
    if point is None:
        return
    assert all(dot(row, point) == 0 for row in eqs)
    assert all(dot(row, point) >= 0 for row in weak)
    assert all(dot(row, point) > 0 for row in strict)


def satisfies(point, eqs, weak, strict):
    return (
        all(dot(row, point) == 0 for row in eqs)
        and all(dot(row, point) >= 0 for row in weak)
        and all(dot(row, point) > 0 for row in strict)
    )


rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def lp_systems(draw):
    """Homogeneous systems in dimensions 1-6: equalities, weak and strict
    forms with integer and `Fraction` entries, mixing fresh rows with zero
    rows, repeats and antipodes of rows already drawn."""
    dim = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-4, 4), rational)
    drawn = []

    def rows(min_size, max_size):
        out = []
        for _ in range(draw(st.integers(min_size, max_size))):
            kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "antipode")))
            if kind == "zero":
                row = (0,) * dim
            elif kind != "fresh" and drawn:
                row = draw(st.sampled_from(drawn))
                row = row if kind == "repeat" else tuple(-c for c in row)
            else:
                row = tuple(draw(st.lists(entry, min_size=dim, max_size=dim)))
            drawn.append(row)
            out.append(row)
        return out

    return rows(0, 2), rows(0, 3), rows(1, 5), dim


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lp_systems())
def test_lp_feasible_matches_primal_reference(system):
    # Each form is scaled to integers, a positive scale that keeps the
    # system's answer; the reference and the checks read the drawn forms.
    eqs, weak, strict, dim = system
    int_eqs, int_weak, int_strict = (
        [cleared_denominators(row) for row in forms] for forms in (eqs, weak, strict)
    )
    point = lp_feasible(with_equalities(int_weak, int_eqs), int_strict, dim)
    reference = primal_lp_reference(eqs, weak, strict, dim)
    assert (point is None) == (reference is None)
    if point is not None:
        assert satisfies(point, eqs, weak, strict)
        assert satisfies(reference, eqs, weak, strict)



@settings(max_examples=200, deadline=None, derandomize=True)
@given(lp_systems())
def test_kernel_basis_and_matrix_rank_match_exact_elimination(system):
    # The rows of a drawn system: integer and `Fraction` entries, zero rows,
    # repeats and antipodes, in dimensions 1-6. Each row is scaled to
    # integers for the kernel, which keeps its kernel and rank; the checks
    # read the drawn rows.
    *forms, dim = system
    rows = [row for group in forms for row in group]
    integer_rows = [cleared_denominators(row) for row in rows]
    kernel = kernel_basis(integer_rows, dim)
    rank = _rank_exact(rows)
    assert all(type(x) is int for vector in kernel for x in vector)
    assert all(dot(row, vector) == 0 for row in rows for vector in kernel)
    assert len(kernel) == dim - rank
    assert _rank_exact(kernel) == len(kernel)
    assert matrix_rank(integer_rows) == rank


def test_kernel_basis_of_no_rows_is_the_unit_basis():
    assert kernel_basis((), 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert matrix_rank(()) == 0
    with pytest.raises(ValueError):
        kernel_basis([(1, 0)], 3)

def check_phase_one(rows, rhs):
    """Run `_phase_one` and check what it returns: None when the textbook
    simplex of `_bland_phase_one` finds some z >= 0 with A z = b, or a
    certificate y with y . A_j >= 0 on every column and y . b < 0."""
    y = _phase_one(rows, rhs)
    if y is None:
        assert _bland_phase_one(rows, rhs) is not None
    else:
        assert len(y) == len(rows)
        assert all(dot(y, column) >= 0 for column in zip(*rows))
        assert dot(y, rhs) < 0
    return y


def test_phase_one_certificates_of_infeasible_systems():
    infeasible = [
        ([[-1, -1]], [1]),
        ([[1, 0], [1, 0]], [1, 2]),
        ([[0, 0]], [3]),
        ([[1, 2, 3], [2, 4, 6]], [1, 3]),
        ([[1, 1], [0, 0], [1, 1]], [1, 0, 2]),
        ([[1, -1, 0], [0, 1, -1], [1, 0, -1]], [1, 1, 1]),
        # z_0 / 2 + z_1 = 1 against z_0 + 2 z_1 = 3, its first row doubled.
        ([[1, 2], [1, 2]], [2, 3]),
    ]
    for rows, rhs in infeasible:
        assert check_phase_one(rows, rhs) is not None
    # An all-zero row says nothing and gets no weight in the certificate.
    assert check_phase_one([[1, 1], [0, 0], [1, 1]], [1, 0, 2])[1] == 0


@st.composite
def phase_one_systems(draw):
    """Systems A z = b for `_phase_one`, narrow and wide: up to 9 rows over
    0 to 150 columns, with all-zero rows (some with a positive
    right-hand side), rows repeated with their right-hand side or scaled
    by 2, which ties the ratio test, and zero right-hand sides, which
    make pivots degenerate. The entries come from a hypothesis-seeded
    Random, so wide systems cost one draw."""
    rng = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(0, 9))
    n = draw(st.one_of(st.integers(0, 6), st.integers(7, 150)))
    spread = draw(st.sampled_from((1, 2, 5)))
    rows, rhs = [], []
    for _ in range(m):
        kind = rng.choice(("fresh", "fresh", "fresh", "zero", "repeat"))
        if kind == "zero":
            rows.append([0] * n)
            rhs.append(rng.choice((0, 0, 1)))
        elif kind == "repeat" and rows:
            k, scale = rng.randrange(len(rows)), rng.randint(1, 2)
            rows.append([scale * x for x in rows[k]])
            rhs.append(scale * rhs[k])
        else:
            rows.append([rng.randint(-spread, spread) for _ in range(n)])
            rhs.append(rng.choice((0, 0, 1, 2, spread)))
    return rows, rhs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(phase_one_systems())
def test_phase_one_equals_the_full_tableau_simplex(system):
    # The revised simplex makes the full tableau's pivots on the same
    # integers, so it returns the very same certificate, or None.
    rows, rhs = system
    assert _phase_one(rows, rhs) == tableau_phase_one(rows, rhs)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, 2.0, "1"])
def test_integer_guard_accepts_bools_and_refuses_other_types(bad):
    assert lp_feasible([], [(True, False)], 2) == lp_feasible([], [(1, 0)], 2) == (1, 0)
    assert lp_feasible([(False, True)], [(True, True)], 2) == lp_feasible([(0, 1)], [(1, 1)], 2)
    assert zero_in_relative_interior([(True, False), (-1, False)]) is True
    assert kernel_basis([(True, False)], 2) == kernel_basis([(1, 0)], 2)
    refused = {
        "lp_feasible": [lambda: lp_feasible([], [(1, bad)], 2), lambda: lp_feasible([(bad, 0)], [(1, 0)], 2)],
        "zero_in_relative_interior": [lambda: zero_in_relative_interior([(1, 0), (0, bad)])],
        "kernel_basis": [lambda: kernel_basis([(1, 0), (0, bad)], 2)],
    }
    for caller, calls in refused.items():
        for call in calls:
            with pytest.raises(ValueError, match=f"^{caller} needs integer entries$"):
                call()


def test_zero_in_relative_interior_known_cases():
    assert zero_in_relative_interior([(-1, 1, 0), (1, -1, 0), (0, 0, 0)]) is True
    assert zero_in_relative_interior([(0, 0)]) is True
    assert zero_in_relative_interior([(1, 0)]) is False
    assert zero_in_relative_interior([(1, 0), (-1, 0), (0, 1)]) is False
    assert zero_in_relative_interior([(1, 1), (-1, 1), (0, -1)]) is True


def test_zero_in_relative_interior_further_known_cases():
    assert zero_in_relative_interior([(0, 0, 0), (0, 0, 0)]) is True
    assert zero_in_relative_interior([(1, 0), (0, 1), (0, 0)]) is False
    assert zero_in_relative_interior([(1, 2, 0), (0, 0, 0)]) is False
    # The points (1/2, -1/3), (-1/2, 1/3), (1/2, 1/3), (-1/3, 0) and
    # (0, -1/2), each scaled by 6 (or 3, or 2) to integers: a positive scale
    # per point keeps the answer.
    assert zero_in_relative_interior([(3, -2), (-3, 2)]) is True
    assert zero_in_relative_interior([(3, 2), (-1, 0), (0, -1)]) is True
    assert zero_in_relative_interior([(3, 2), (-1, 0)]) is False


def test_zero_in_relative_interior_rejects_empty_input():
    with pytest.raises(ValueError):
        zero_in_relative_interior([])


def test_zero_in_relative_interior_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        zero_in_relative_interior([(1, 0), (-1,)])


def test_phase_one_rejects_negative_right_hand_side():
    with pytest.raises(ValueError):
        _phase_one([[1, 0], [0, 1]], [1, -1])
    assert _phase_one([[1, 1]], [2]) is None
    assert _phase_one([], []) is None


@st.composite
def point_sets(draw, dims, sizes, coordinates=rational):
    """Point sets of one dimension mixing fresh points with zero points,
    repeats and antipodes of points already drawn."""
    d = draw(dims)
    points = []
    for _ in range(draw(sizes)):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "antipode")))
        if kind == "zero":
            points.append((0,) * d)
        elif kind != "fresh" and points:
            p = draw(st.sampled_from(points))
            points.append(p if kind == "repeat" else tuple(-c for c in p))
        else:
            points.append(tuple(draw(st.lists(coordinates, min_size=d, max_size=d))))
    return points


@relaxed
@given(point_sets(st.integers(1, 5), st.integers(1, 8)))
def test_zero_in_relative_interior_matches_brute_force(points):
    # Each drawn rational point is scaled to integers for the kernel; the
    # oracle reads the drawn points.
    integer_points = [cleared_denominators(p) for p in points]
    assert zero_in_relative_interior(integer_points) == zero_in_relative_interior_oracle(points)


@relaxed
@given(point_sets(st.integers(2, 4), st.integers(10, 30), st.integers(-3, 3)))
def test_zero_in_relative_interior_matches_lp_on_large_sets(points):
    assert zero_in_relative_interior(points) == lp_relint_reference(points)


def test_arrangement_rays_single_diagonal_line_in_quadrant():
    rays = arrangement_rays(((1, 1),), 2)
    assert rays == [(0, 1), (1, 0)]


def test_arrangement_rays_interior_line_contributes_its_ray():
    rays = arrangement_rays(((1, -1),), 2)
    assert rays == [(0, 1), (1, 0), (1, 1)]
    by_point = {r: zero_set(((1, -1),), r) for r in rays}
    assert by_point[(1, 1)] == frozenset({0})
    assert by_point[(1, 0)] == frozenset()


@pytest.mark.parametrize(
    "normals",
    [
        ((1, -1), (1, -2), (3, -1)),
        ((1, -1, 0), (0, 1, -1), (1, 0, -1), (2, 1, -2)),
        ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (1, 0, 0, -1)),
    ],
)
def test_rays_and_cells_are_sorted_primitive_integer_points(normals):
    dim = len(normals[0])
    rays = arrangement_rays(normals, dim)
    cells = arrangement_cells(normals, rays, dim)
    for points in (rays, cells):
        assert points == sorted(set(points))
        for point in points:
            assert type(point) is tuple and len(point) == dim
            assert all(type(x) is int for x in point)
            assert primitive_vector(point) == point


def test_arrangement_rays_zero_sets_are_recomputable():
    normals = ((1, -1), (2, -1), (1, 1))
    for ray in arrangement_rays(normals, 2):
        expected = frozenset(i for i, n in enumerate(normals) if dot(n, ray) == 0)
        assert zero_set(normals, ray) == expected


def test_arrangement_cells_empty_arrangement_is_single_chamber_cell():
    cells = orthant_cells((), 2)
    assert cells == [(1, 1)]


def test_arrangement_cells_one_interior_line_gives_two_cells():
    cells = orthant_cells(((1, -1),), 2)
    assert cells == [(1, 2), (2, 1)]


def test_arrangement_cells_line_outside_chamber_cuts_nothing():
    cells = orthant_cells(((1, 1),), 2)
    assert len(cells) == 1


def test_arrangement_dimension_one():
    assert arrangement_rays((), 1) == [(1,)]
    assert orthant_cells((), 1) == [(1,)]


def test_arrangement_cells_guard_trips():
    with pytest.raises(ResourceGuardError):
        orthant_cells(((1, -1),), 2, guard=1)
    with pytest.raises(ResourceGuardError):
        orthant_cells(((1, -1, 0), (0, 1, -1)), 3, guard=1)


def test_cell_guard_messages_name_the_stage_and_its_progress():
    search = r"^ray and cell search exceeded the guard of "
    chain = ((1, -1, 0), (0, 1, -1))
    with pytest.raises(ResourceGuardError, match=search + r"1 cells, with 2 cells at line 1 of 2$"):
        orthant_cells(chain, 3, guard=1)
    cycle = ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (1, 0, 0, -1))
    with pytest.raises(ResourceGuardError, match=search + r"4 cells, with 8 cells at line 3 of 4$"):
        orthant_cells(cycle, 4, guard=4)
    lines = ((1, -1), (1, -2))
    with pytest.raises(ResourceGuardError, match=search + r"2 cells, with 3 cells at line 2 of 2$"):
        orthant_cells(lines, 2, guard=2)
    # Two coordinate blocks of two cells each make four cells in one search.
    blocks = ((1, -1, 0, 0), (0, 0, 1, -1))
    with pytest.raises(ResourceGuardError, match=search + r"3 cells, with 4 cells at line 2 of 2$"):
        orthant_cells(blocks, 4, guard=3)
    assert len(orthant_cells(blocks, 4, guard=4)) == 4
    # The starting orthant is one cell, so guard 0 trips with no cutting line.
    for normals, dim in [((), 3), (((1, 1, 0),), 3), ((), 1)]:
        with pytest.raises(ResourceGuardError, match=search + r"0 cells, with 1 cells at line 0 of 0$"):
            rays_and_cells(normals, dim, guard=0)
    # A rays-only call runs the same search under the default guard.
    with pytest.raises(ResourceGuardError, match=search):
        rays_and_cells(chain, 3, guard=1)


interior_line = st.tuples(st.integers(1, 7), st.integers(-7, -1)).map(primitive_vector)


@relaxed
@given(st.sets(interior_line, min_size=1, max_size=6))
def test_generic_interior_lines_cut_quadrant_into_one_more_cell(lines):
    # Every normal (a, b) with a > 0 > b vanishes on a line through the open
    # quadrant, and distinct primitives are distinct lines, so k lines make
    # k + 1 sectors.
    cells = orthant_cells(tuple(lines), 2)
    assert len(cells) == len(lines) + 1


normal_2d = st.lists(st.integers(-5, 5), min_size=2, max_size=2).map(tuple)


@relaxed
@given(st.lists(normal_2d, max_size=5))
def test_planar_cells_are_the_sweeps_and_agree_with_lp_enumeration(normals):
    # In dimension 2 a cell's two rays are its boundary directions, so
    # their primitive sum is the planar sweep's witness, point for point.
    nonzero = [n for n in normals if n != (0, 0)]
    cells = orthant_cells(normals, 2)
    assert cells == sorted(_planar_cell_witnesses(nonzero, QUADRANT))
    by_lp = unpruned_cell_witnesses_by_lp(nonzero, QUADRANT, 2, 10**6)
    key = lambda pts: {sign_vector(p, nonzero) for p in pts}
    assert key(cells) == key(by_lp)
    assert len(cells) == len(by_lp)


def test_cell_witnesses_avoid_every_boundary():
    normals = ((1, -1), (3, -1), (1, -3))
    for cell in orthant_cells(normals, 2):
        assert all(dot(n, cell) != 0 for n in normals)
        assert all(dot(wall, cell) > 0 for wall in QUADRANT)


def test_three_dimensional_cells_have_unique_sign_vectors():
    normals = ((1, -1, 0), (0, 1, -1), (1, 0, -1))
    cells = orthant_cells(normals, 3)
    signatures = {sign_vector(c, normals) for c in cells}
    assert len(signatures) == len(cells)
    # The three planes x=y, y=z, x=z slice the open octant into the 3! = 6
    # orderings of the coordinates.
    assert len(cells) == 6


def test_three_dimensional_rays_lie_on_plane_intersections():
    normals = ((1, -1, 0), (0, 1, -1))
    chamber = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rays = arrangement_rays(normals, 3)
    assert (1, 1, 1) in rays
    for ray in rays:
        assert all(dot(wall, ray) >= 0 for wall in chamber)
        assert any(x != 0 for x in ray)
        expected = frozenset(i for i, n in enumerate(normals) if dot(n, ray) == 0)
        assert zero_set(normals, ray) == expected


def orthant(dim):
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


@st.composite
def orthant_arrangements(draw, dims):
    """Integer normals in the orthant of a drawn dimension, with repeated,
    parallel (rescaled, either sign) and wall-equal normals mixed in."""
    dim = draw(st.sampled_from(dims))
    vector = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    normals = draw(st.lists(vector, max_size=5))
    if normals:
        for base in draw(st.lists(st.sampled_from(normals), max_size=2)):
            scale = draw(st.sampled_from((1, -1, 2, -3)))
            normals.append(tuple(scale * x for x in base))
    for axis in draw(st.lists(st.integers(0, dim - 1), max_size=2)):
        scale = draw(st.sampled_from((1, -1, 2)))
        normals.append(tuple(scale if j == axis else 0 for j in range(dim)))
    return dim, tuple(draw(st.permutations(normals)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(orthant_arrangements(dims=(2, 3, 4, 5)))
def test_rays_match_subset_rref_enumeration(arrangement):
    dim, normals = arrangement
    rays = arrangement_rays(normals, dim)
    assert [(r, zero_set(normals, r)) for r in rays] == subset_rref_rays(normals, orthant(dim), dim)


@st.composite
def half_definite_arrangements(draw):
    """Integer normals in dimension 3-6, about half of them sign-definite
    (every entry >= 0, or every entry <= 0; scaled unit vectors among
    them), the rest of mixed sign, with rescaled duplicates mixed in."""
    dim = draw(st.integers(3, 6))
    mixed = st.tuples(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        st.permutations(range(dim)),
        st.integers(1, 3),
        st.integers(1, 3),
    ).map(lambda t: tuple(t[2] if j == t[1][0] else -t[3] if j == t[1][1] else x for j, x in enumerate(t[0])))
    definite = st.tuples(
        st.lists(st.integers(0, 3), min_size=dim, max_size=dim).filter(any),
        st.sampled_from((1, -1)),
    ).map(lambda pair: tuple(pair[1] * x for x in pair[0]))
    unit = st.tuples(st.integers(0, dim - 1), st.sampled_from((1, -1, 2))).map(
        lambda pair: tuple(pair[1] if j == pair[0] else 0 for j in range(dim))
    )
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=7))
    normals = [draw(st.one_of(definite, unit) if kind else mixed) for kind in kinds]
    if normals:
        for base in draw(st.lists(st.sampled_from(normals), max_size=2)):
            scale = draw(st.sampled_from((1, -1, 2)))
            normals.append(tuple(scale * x for x in base))
    return dim, tuple(draw(st.permutations(normals)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(half_definite_arrangements())
def test_rays_without_sign_definite_normals_match_subset_rref_enumeration(arrangement):
    dim, normals = arrangement
    rays = arrangement_rays(normals, dim)
    assert [(r, zero_set(normals, r)) for r in rays] == subset_rref_rays(normals, orthant(dim), dim)


def test_wall_sign_on_full_and_partial_orthants():
    assert _wall_sign((1, 0, 2), range(3)) == 1
    assert _wall_sign((0, -3, -1), range(3)) == -1
    assert _wall_sign((1, -1, 0), range(3)) == 0
    assert _wall_sign((1, 0, 2), {0}) == 0
    assert _wall_sign((-2, 0, 0), {0}) == -1
    assert _wall_sign((0, 1), set()) == 0


@pytest.mark.parametrize("name, spec", [("E7", "1,0,0,0,0,0,0"), ("E8", "0,0,0,0,0,0,0,1")])
def test_adjoint_rays_are_the_unit_axes(name, spec):
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    normals = [pairing_vector(group, w.coeffs) for w in problem.support]
    normals = [n for n in normals if any(n)]
    rays = arrangement_rays(normals, group.rank)
    assert rays == sorted(orthant(group.rank))
    for ray in rays:
        assert zero_set(normals, ray) == {i for i, n in enumerate(normals) if dot(n, ray) == 0}


def test_rays_of_repeated_and_wall_equal_normals():
    normals = ((1, -1, 0), (2, -2, 0), (-1, 1, 0), (0, 0, 3), (0, 0, 0))
    rays = arrangement_rays(normals, 3)
    assert [(r, zero_set(normals, r)) for r in rays] == [
        ((0, 0, 1), frozenset({0, 1, 2})),
        ((0, 1, 0), frozenset({3})),
        ((1, 0, 0), frozenset({3})),
        ((1, 1, 0), frozenset({0, 1, 2, 3})),
    ]


def cell_signatures(points, normals):
    nonzero = [n for n in normals if any(n)]
    return {sign_vector(p, nonzero) for p in points}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(orthant_arrangements(dims=(3, 4)))
def test_cells_match_global_lp(arrangement):
    dim, normals = arrangement
    nonzero = [n for n in normals if any(n)]
    cells = orthant_cells(normals, dim)
    by_lp = unpruned_cell_witnesses_by_lp(nonzero, orthant(dim), dim, 10**6)
    assert cell_signatures(cells, normals) == cell_signatures(by_lp, normals)
    assert len(cells) == len(by_lp)


# The benchmark's solve inputs, and the `HEAVY` inputs of
# scripts/compare_reports.py.
PLANAR = [
    *[("A2", f"{d},0") for d in range(3, 13)],
    *[("B2", f"{d}*w1") for d in range(3, 13)],
    *[("G2", f"{d},0") for d in range(1, 5)],
    *[("G2", f"0,{d}") for d in range(1, 4)],
]
MIDRANK = [
    ("A3", "1,0,0"), ("A3", "2,0,0"), ("B3", "2,0,0"), ("B3", "0,1,0"), ("C3", "0,0,1"),
    ("A4", "1,0,0,0"), ("A4", "0,1,0,0"), ("B4", "0,0,0,1"), ("F4", "0,0,0,1"), ("D4", "1,0,0,0"),
]
MINUSCULE = [
    ("A5", "0,0,1,0,0"), ("A6", "1,0,0,0,0,0"), ("B6", "1,0,0,0,0,0"),
    ("C6", "1,0,0,0,0,0"), ("D6", "1,0,0,0,0,0"), ("C7", "1,0,0,0,0,0,0"),
]
HEAVY = [
    ("A3", "3,0,0"), ("A3", "4,0,0"), ("B3", "1,0,1"), ("A4", "2,0,0,0"), ("C4", "0,0,0,1"),
    ("D5", "0,0,0,0,1"), ("E6", "1,0,0,0,0,0"), ("A7", "1,0,0,0,0,0,0"), ("A1", "3"),
    ("C2", "0,1"), ("D3", "1,0,0"), ("A5", "1,1,0,0,0"), ("A5", "2,0,0,0,0"),
    ("D5", "1,0,0,0,0"), ("B5", "1,0,0,0,0"), ("A3", "0,1,0"), ("B2", "20*w1"),
    ("E7", "0,0,0,0,0,0,1"), ("A5", "3,0,0,0,0"), ("A4", "4,0,0,0"),
]
BENCHMARK_INPUTS = [*PLANAR, *MIDRANK, *MINUSCULE]
# Every `midrank` and `minuscule` input, seven rank >= 4 `HEAVY` inputs, and
# C5 0,0,0,0,1 (99 cells).
BLOCK_INPUTS = [
    *MIDRANK, *MINUSCULE,
    ("A4", "2,0,0,0"), ("C4", "0,0,0,1"), ("D5", "0,0,0,0,1"), ("E6", "1,0,0,0,0,0"),
    ("A7", "1,0,0,0,0,0,0"), ("A5", "1,1,0,0,0"), ("A5", "2,0,0,0,0"), ("C5", "0,0,0,0,1"),
]


def problem_arrangement(name, spec):
    """The problem of one input, with the normals and dimension its search
    reads."""
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, spec))
    return problem, list(problem._normals), group.rank


def reference_cells(normals, dim, rays):
    """The cells of the arrangement by the removed methods, kept as
    oracles: the planar sweep in dimension 2, and above it the cells
    localised at every ray, each local system split by unpruned cell LPs."""
    nonzero = [n for n in normals if any(n)]
    if dim == 1:
        return [(1,)]
    if dim == 2:
        return _planar_cell_witnesses(nonzero, QUADRANT)
    return unpruned_cells_localised_at_rays(nonzero, dim, 10**6, rays)


def assert_witnesses_are_the_sums_of_their_rays(normals, dim, rays, cells):
    """Each witness is the primitive sum of exactly the rays whose signs
    conform to its own, none of them opposite, and those rays span R^dim.
    Read off the public rays and cells alone: every ray lies in the closed
    orthant and every witness in the open one, so the walls always agree."""
    nonzero = [n for n in normals if any(n)]
    for witness in cells:
        signs = sign_vector(witness, nonzero)
        conforming = [
            ray for ray in rays
            if all(s * sum(a * b for a, b in zip(n, ray)) >= 0 for s, n in zip(signs, nonzero))
        ]
        assert _primitive_oracle(tuple(map(sum, zip(*conforming)))) == witness
        assert _rank_exact(conforming) == dim


# Every input of scripts/compare_reports.py: the criterion-7 commands, the
# benchmark's solve and classify inputs and `HEAVY`.
REPORT_INPUTS = [("A2", "3,0,0"), *dict.fromkeys([*BENCHMARK_INPUTS, *HEAVY])]


# The report inputs and A5 4,0,0,0,0 (1389 rays and 4544 cells).
@pytest.mark.parametrize("name, spec", [*REPORT_INPUTS, ("A5", "4,0,0,0,0")])
def test_search_matches_the_flat_walk_and_the_localised_cells(name, spec):
    problem, normals, dim = problem_arrangement(name, spec)
    rays, cells = rays_and_cells(normals, dim)
    assert (rays, cells) == (list(problem.rays()), list(problem.cells()))
    assert rays == unsplit_arrangement_rays(normals, dim)
    reference = reference_cells(normals, dim, rays)
    assert cell_signatures(cells, normals) == cell_signatures(reference, normals)
    assert len(cells) == len(reference)
    if dim == 2:
        assert cells == sorted(reference)


def cutting_lines(normals):
    """The distinct lines of the normals that cut the open orthant: what
    the search is given."""
    return _dedupe_lines([n for n in normals if min(n) < 0 < max(n)])


@pytest.mark.parametrize("name, spec", REPORT_INPUTS)
def test_search_matches_the_rank_test_search_on_the_report_inputs(name, spec):
    _, normals, dim = problem_arrangement(name, spec)
    lines = cutting_lines(normals)
    assert _cone_complex(lines, dim, 10**6) == rank_test_cone_complex(lines, dim, 10**6)


@st.composite
def repeated_and_block_lines(draw):
    """Normals in dimension 2-6 with repeated and parallel (scaled or
    negated) copies among them, and on some draws from dimension 3 each
    normal kept inside one of two blocks of the coordinates."""
    dim = draw(st.integers(2, 6))
    entry = st.sampled_from((-2, -1, 0, 0, 1, 1, 2))
    vectors = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=8))
    if dim >= 3 and draw(st.booleans()):
        block = set(draw(st.permutations(range(dim)))[: draw(st.integers(1, dim - 1))])
        vectors = [[x if (i in block) == (j % 2 == 0) else 0 for i, x in enumerate(v)] for j, v in enumerate(vectors)]
    copies = draw(st.lists(st.tuples(st.integers(0, 7), st.sampled_from((1, -1, 2, -3))), max_size=4))
    vectors += [[c * x for x in vectors[k]] for k, c in copies if k < len(vectors)]
    return dim, draw(st.permutations(vectors))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(repeated_and_block_lines())
def test_search_matches_the_rank_test_search_on_arrangements(arrangement):
    dim, normals = arrangement
    lines = cutting_lines(normals)
    assert _cone_complex(lines, dim, 10**6) == rank_test_cone_complex(lines, dim, 10**6)


@pytest.mark.parametrize("name, spec", BENCHMARK_INPUTS)
def test_cell_witnesses_are_the_sums_of_their_rays(name, spec):
    problem, normals, dim = problem_arrangement(name, spec)
    assert_witnesses_are_the_sums_of_their_rays(normals, dim, problem.rays(), problem.cells())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(orthant_arrangements(dims=(2, 3, 4, 5)))
def test_search_matches_the_oracles_on_arrangements(arrangement):
    dim, normals = arrangement
    rays = arrangement_rays(normals, dim)
    cells = arrangement_cells(normals, rays, dim)
    assert [(r, zero_set(normals, r)) for r in rays] == subset_rref_rays(normals, orthant(dim), dim)
    assert rays == unsplit_arrangement_rays(normals, dim)
    reference = reference_cells(normals, dim, rays)
    assert cell_signatures(cells, normals) == cell_signatures(reference, normals)
    assert len(cells) == len(reference)
    assert_witnesses_are_the_sums_of_their_rays(normals, dim, rays, cells)


@pytest.mark.parametrize(
    "extra, message",
    [
        (lambda cells: [(2,)], "cell witness landed on a boundary"),
        (lambda cells: cells[:1], "two witnesses describe the same cell"),
    ],
    ids=["boundary", "duplicate"],
)
def test_witnesses_on_a_line_or_sharing_signs_are_bugs(monkeypatch, extra, message):
    # The search's rays of the diagonal are (1, 0), (0, 1) and (1, 1), and
    # its cells (0, 2) and (1, 2). A cell of the diagonal ray alone has its
    # witness on the line, and a cell listed twice repeats a sign vector.
    search = exactgeom._cone_complex

    def broken(lines, dim, guard):
        points, cells = search(lines, dim, guard)
        assert (points, cells) == ([(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
        return points, [*cells, *extra(cells)]

    monkeypatch.setattr(exactgeom, "_cone_complex", broken)
    with pytest.raises(RuntimeError, match=f"^{message}; this is a bug$"):
        arrangement_cells(((1, -1),), [(0, 1), (1, 0), (1, 1)], 2)


@pytest.mark.parametrize("name, spec", [("A2", "3,0"), *MIDRANK, *MINUSCULE, ("C5", "0,0,0,0,1")])
def test_rays_and_cells_pose_no_lp(monkeypatch, name, spec):
    def refused(*args):
        raise AssertionError("the ray and cell search posed an LP")

    monkeypatch.setattr(exactgeom, "lp_feasible", refused)
    problem, _, _ = problem_arrangement(name, spec)
    assert problem.rays() and problem.cells()


@pytest.mark.parametrize(
    "name, spec",
    [
        *BLOCK_INPUTS,
        ("E7", "1,0,0,0,0,0,0"),
        ("E8", "0,0,0,0,0,0,0,1"),
        ("A4", "3,0,0,0"),
        ("A4", "4,0,0,0"),
        ("A5", "3,0,0,0,0"),
    ],
)
def test_block_rays_match_the_unsplit_walk(name, spec):
    group = make_group(name)
    normals = list(new_problem(group, parse_highest_weight(group, spec))._normals)
    assert arrangement_rays(normals, group.rank) == unsplit_arrangement_rays(normals, group.rank)


@st.composite
def block_arrangements(draw):
    """Integer normals in dimension 3-7 whose mixed-sign normals each lie in
    one of 2-3 blocks of a drawn partition of the coordinates, with
    sign-definite normals, which may cross the blocks, mixed in."""
    dim = draw(st.integers(3, 7))
    coords = draw(st.permutations(range(dim)))
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), min_size=1, max_size=2)))
    normals = []
    for block in (coords[a:b] for a, b in zip((0, *cuts), (*cuts, dim))):
        if len(block) < 2:
            continue
        for _ in range(draw(st.integers(1, 3))):
            entries = dict(zip(block, draw(st.lists(st.integers(-3, 3), min_size=len(block), max_size=len(block)))))
            plus, minus = draw(st.permutations(block))[:2]
            entries[plus], entries[minus] = draw(st.integers(1, 3)), -draw(st.integers(1, 3))
            normals.append(tuple(entries.get(i, 0) for i in range(dim)))
    definite = st.tuples(
        st.lists(st.integers(0, 3), min_size=dim, max_size=dim).filter(any),
        st.sampled_from((1, -1)),
    ).map(lambda pair: tuple(pair[1] * x for x in pair[0]))
    normals += draw(st.lists(definite, max_size=3))
    return dim, tuple(draw(st.permutations(normals)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(block_arrangements())
def test_block_rays_and_cells_match_the_oracles_on_block_arrangements(arrangement):
    dim, normals = arrangement
    rays, cells = rays_and_cells(normals, dim)
    assert rays == unsplit_arrangement_rays(normals, dim)
    reference = reference_cells(normals, dim, rays)
    assert cell_signatures(cells, normals) == cell_signatures(reference, normals)
    assert len(cells) == len(reference)
    assert_witnesses_are_the_sums_of_their_rays(normals, dim, rays, cells)


@st.composite
def cutting_arrangements(draw):
    """Distinct mixed-sign lines in dimension 3-6, with parallel and
    coordinate-sparse lines likely: the input of one block's ray search."""
    dim = draw(st.integers(3, 6))
    entry = st.sampled_from((-2, -1, 0, 0, 0, 1, 1, 2))
    vectors = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=9))
    return dim, _dedupe_lines([v for v in vectors if min(v) < 0 < max(v)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cutting_arrangements())
def test_double_description_matches_the_flat_walk(arrangement):
    dim, lines = arrangement
    rays, cells = _cone_complex(lines, dim, 10**6)
    assert len(set(rays)) == len(rays)
    assert sorted(rays) == sorted(_flat_walk(lines, dim))
    assert all(len(set(cell)) == len(cell) for cell in cells)


# Sign vectors of the cells of eight representations, frozen: one string
# per cell, one sign per nonzero pairing normal in support order. The first
# five come from a global cell LP, which took 2-20 s each on them; D5, A7
# and E6 come from cells localised at the rays, each local system split by
# cell LPs (E6 took 7-8 s that way).
LP_CELLS = {
    ("A3", "3,0,0"): (
        "------+----++++-++++", "------+----+++++++++", "+-----+----++---++++",
        "+-----+----+++--++++", "++----+----++---++++", "++----+----+++--++++",
        "++-+--+----+++--++++", "++-+--++---+-+--++-+", "++-+--++---+-+--++++",
        "+++---+----++---++++", "+++---+----+++--++++", "++++--+----+++--++++",
    ),
    ("A3", "4,0,0"): (
        "------+----++----+--+----+++++++++", "------+----++----+--++---+++++++++",
        "+-----+----++----+--+----+++++++++", "+-----+----++----+--++---+++++++++",
        "++----+----++----+--+----+++++++++", "++----+----++----+--++---+++++++++",
        "++-+--+----++----+--++---++++-++++", "++-+--++---++----+--++---++++-++++",
        "++-+--++---+++---+--++---++++-++++", "+++---+----++----+--+----+++++++++",
        "++++--+----++----+--+----++++-++++", "++++--+----++----+--++---++++-++++",
        "++++--++---++----+--++---++++-++++", "++++--++---+++---+--++---++++-++++",
    ),
    ("B3", "1,0,1"): (
        "---------+-+--+-+-++-+-+++++++++", "--+------+-+--+-+-++-+-++++++-++",
        "--+--+---+-+--+-+-++-+-+++-++-++", "--++-----+-+--+-+-++-+-+++++--++",
        "--++-+---+-+--+-+-++-+-+++-+--++", "--++-+-+-+-+--+-+-++-+-+-+-+--++",
        "--++-+-+-+-++-+-+-+--+-+-+-+--++",
    ),
    ("A4", "2,0,0,0"): (
        "----------+++++", "+---------+++++", "++--------+++++", "++--+-----++--+",
        "++--+-----+++-+", "++--+-----+++++", "+++-------+++-+", "+++-------+++++",
        "+++-+-----+++-+", "+++-++----+++-+", "+++-++-+--+++-+", "++++------+++++",
    ),
    ("C4", "0,0,0,1"): (
        "--------+-+++---++--++--+++---+-++++++++",
        "+-------+-+++---++--++--+++---+-+++++++-",
        "++------+-+++---++--++--+++---+-++++++--",
    ),
    ("D5", "0,0,0,0,1"): (
        "+++-+---+++++++-", "+++-----+++++++-", "++------+++++++-",
        "++------++++++--", "+-------++++++++", "+-------+++++++-",
        "+-------++++++--", "+-------+++++---", "+-------+++-+---",
        "--------++++++++", "--------+++++++-",
    ),
    ("A7", "1,0,0,0,0,0,0"): (
        "++++++-+", "+++++--+", "++++---+", "+++----+", "++-----+",
        "+------+", "-------+",
    ),
    ("E6", "1,0,0,0,0,0"): (
        "-++-+--++++---++--+++-++-+-", "-+--+--++++---+++-+++-+--+-",
        "-+--+--++++---++--+++-++-+-", "-+--+--++++---++--+++-+--+-",
        "-+--+--++++---+---+++-+--+-", "-+--+--++-+---+---+++-+--+-",
        "-+--+--++-+---+---++--+--+-", "----+--++++---+++-+++++++++",
        "----+--++++---+++-+++-+++++", "----+--++++---+++-+++-++++-",
        "----+--++++---+++-+++-++-+-", "----+--++++---+++-+++-+--+-",
        "----+--++++---+++-+++----+-", "----+--++++---++--+++-++-+-",
    ),
}


@pytest.mark.parametrize("name, highest", sorted(LP_CELLS))
def test_cells_match_frozen_lp_cells(name, highest):
    group = make_group(name)
    problem = new_problem(group, parse_highest_weight(group, highest))
    normals = [pairing_vector(group, w.coeffs) for w in problem.support]
    normals = [n for n in normals if any(n)]
    cells = orthant_cells(normals, group.rank)
    signatures = {
        "".join("+" if s > 0 else "-" for s in sign_vector(c, normals)) for c in cells
    }
    assert signatures == set(LP_CELLS[(name, highest)])
    assert len(cells) == len(LP_CELLS[(name, highest)])


def test_cells_need_rays_in_every_dimension():
    for normals, dim in [((), 1), (((1, -1),), 2), (((1, -1, 0),), 3)]:
        with pytest.raises(ValueError, match="axis"):
            arrangement_cells(normals, (), dim)
    with pytest.raises(ValueError, match="orthant"):
        arrangement_cells(((1, -1),), [(1, 0), (0, 1), (1, -1)], 2)
    assert arrangement_cells((), arrangement_rays((), 1), 1) == [(1,)]
    assert arrangement_cells(((1, -1),), arrangement_rays(((1, -1),), 2), 2) == [(1, 2), (2, 1)]


def test_cells_reject_rays_missing_an_axis_or_outside_the_orthant():
    normals = ((1, -1, 0), (0, 1, -1), (1, 0, -1))
    assert len(orthant_cells(normals, 3)) == 6
    # Only the axis (0, 0, 1): two axes are missing, which used to give 2
    # of the 6 cells without an error.
    only_axis = [r for r in arrangement_rays(normals, 3) if r == (0, 0, 1)]
    with pytest.raises(ValueError, match="axis"):
        arrangement_cells(normals, only_axis, 3)
    outside = (1, -1, 0)
    with pytest.raises(ValueError, match="orthant"):
        arrangement_cells(normals, [*arrangement_rays(normals, 3), outside], 3)
    with pytest.raises(ValueError, match="orthant"):
        arrangement_cells(normals, [*arrangement_rays(normals, 3), (1, 1)], 3)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_arrangements_need_integer_normals(dim):
    normal = (Fraction(1, 2), *(-1,) * (dim - 1))
    with pytest.raises(ValueError, match="arrangement_rays needs integer normals"):
        arrangement_rays([normal], dim)
    rays = arrangement_rays([(1, *(-1,) * (dim - 1))], dim)
    with pytest.raises(ValueError, match="arrangement_cells needs integer normals"):
        arrangement_cells([normal], rays, dim)
    # A Fraction equal to an integer is not an integer either.
    with pytest.raises(ValueError, match="integer normals"):
        arrangement_rays([(Fraction(2), *(0,) * (dim - 1))], dim)
    # The exact kernels under the arrangement take integers only too.
    with pytest.raises(ValueError, match="lp_feasible needs integer"):
        lp_feasible([], [normal], dim)
    with pytest.raises(ValueError, match="lp_feasible needs integer"):
        lp_feasible([normal], [(1, *(0,) * (dim - 1))], dim)
    with pytest.raises(ValueError, match="zero_in_relative_interior needs integer"):
        zero_in_relative_interior([normal])
    with pytest.raises(ValueError, match="kernel_basis needs integer"):
        kernel_basis([normal], dim)
    with pytest.raises(ValueError, match="matrix_rank needs integer"):
        matrix_rank([normal])


@pytest.mark.parametrize("dim", [2, 3])
def test_arrangements_need_normals_of_length_dim(dim):
    good = (1, -1, *(0,) * (dim - 2))
    rays = arrangement_rays([good], dim)
    for normal in [(1, -1, 2, 5)[: dim - 1], (1, -1, 2, 5)[: dim + 1]]:
        with pytest.raises(ValueError, match=f"arrangement_rays needs vectors of length {dim}"):
            arrangement_rays([good, normal], dim)
        with pytest.raises(ValueError, match=f"arrangement_cells needs vectors of length {dim}"):
            arrangement_cells([good, normal], rays, dim)
        with pytest.raises(ValueError, match=f"arrangement_cells needs vectors of length {dim}"):
            arrangement_cells([normal], [], dim)
        # The kernels under the arrangement check lengths the same way.
        with pytest.raises(ValueError, match=f"lp_feasible needs vectors of length {dim}"):
            lp_feasible([good], [normal], dim)
        with pytest.raises(ValueError, match=f"kernel_basis needs vectors of length {dim}"):
            kernel_basis([good, normal], dim)


def test_a_dimension_that_is_not_an_int_is_refused():
    calls = [
        ("rays_and_cells", lambda: rays_and_cells([(1, -1)], 2.0)),
        ("kernel_basis", lambda: kernel_basis([(1, -1)], 2.0)),
        ("lp_feasible", lambda: lp_feasible([], [(1, -1)], 2.0)),
        ("arrangement_rays", lambda: arrangement_rays([(1, -1)], "2")),
        ("arrangement_cells", lambda: arrangement_cells([(1, -1)], [], None)),
    ]
    for caller, call in calls:
        with pytest.raises(ValueError, match=f"^{caller} needs an integer dimension, got "):
            call()


def test_dimension_zero_and_below():
    # Normals of the wrong length are refused before dimension 0 returns.
    with pytest.raises(ValueError, match="^arrangement_rays needs vectors of length 0$"):
        arrangement_rays([(1,)], 0)
    with pytest.raises(ValueError, match="^arrangement_cells needs vectors of length 0$"):
        arrangement_cells([(1,)], [], 0)
    for dim in (-1, -3):
        message = f"needs a non-negative dimension, got {dim}$"
        with pytest.raises(ValueError, match=f"^arrangement_rays {message}"):
            arrangement_rays([], dim)
        with pytest.raises(ValueError, match=f"^arrangement_cells {message}"):
            arrangement_cells([], [], dim)
    assert arrangement_rays([], 0) == arrangement_cells([], [], 0) == []


@relaxed
@given(orthant_arrangements(dims=(2, 3, 4, 5)))
def test_eliminated_pairings_equal_the_pairings_with_the_new_basis(arrangement):
    # Cut the unit basis down by each normal in turn, as the ray walk does
    # along one branch, and check every normal's updated pairings each time.
    dim, normals = arrangement
    basis = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    for line in normals:
        values = [dot(line, z) for z in basis]
        if not any(values):
            continue
        new_basis, step = _eliminate(basis, values)
        for other in normals:
            before = [dot(other, z) for z in basis]
            assert _eliminated_pairings(before, step) == [dot(other, z) for z in new_basis]
        basis = new_basis


@relaxed
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), max_size=6),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_dot_rows_is_one_dot_per_row(rows, point):
    columns = tuple(zip(*rows))
    assert dot_rows(columns, point) == [dot(row, point) for row in rows]


# The 18 rays of E6 `1,0,0,0,0,0` as the walk returned them before it kept a
# pairing table: point and zero set (indices into the nonzero pairing
# normals in support order), in order.
E6_RAYS = [
    ((0, 0, 0, 0, 0, 1), []),
    ((0, 0, 0, 0, 1, 0), []),
    ((0, 0, 0, 0, 1, 1), [2, 9, 15, 20, 23]),
    ((0, 0, 0, 1, 0, 0), [1, 2, 3, 14, 15, 16, 22, 23, 24]),
    ((0, 0, 0, 1, 0, 3), [9, 20]),
    ((0, 0, 1, 0, 0, 0), []),
    ((0, 0, 1, 0, 0, 2), [9, 15, 16, 20]),
    ((0, 0, 1, 0, 1, 0), [1, 2, 16, 22, 23]),
    ((0, 0, 2, 0, 0, 1), [1, 22]),
    ((0, 1, 0, 0, 0, 0), [1, 2, 3, 5, 7, 8, 9, 14, 15, 16, 17, 22, 23, 24, 26]),
    ((0, 1, 0, 0, 0, 3), [20]),
    ((1, 0, 0, 0, 0, 0), []),
    ((1, 0, 0, 0, 0, 1), [1, 9, 15, 16, 20, 21, 23, 24, 26]),
    ((1, 0, 0, 0, 2, 0), [1, 2]),
    ((1, 0, 1, 0, 0, 0), [21, 22, 23, 24, 26]),
    ((2, 0, 0, 0, 1, 0), [16, 21, 24, 26]),
    ((3, 0, 0, 1, 0, 0), [21, 26]),
    ((3, 1, 0, 0, 0, 0), [21]),
]


def test_e6_rays_match_frozen_table():
    group = make_group("E6")
    problem = new_problem(group, parse_highest_weight(group, "1,0,0,0,0,0"))
    normals = [pairing_vector(group, w.coeffs) for w in problem.support]
    normals = [n for n in normals if any(n)]
    rays = arrangement_rays(normals, group.rank)
    assert [(r, sorted(zero_set(normals, r))) for r in rays] == E6_RAYS
    for ray in rays:
        assert zero_set(normals, ray) == {i for i, n in enumerate(normals) if dot(n, ray) == 0}


@st.composite
def line_lists(draw):
    """Integer vectors of one dimension 1-8: a few base vectors (small or
    very large entries, zero vectors included), each listed with negated
    and scaled copies, shuffled."""
    dim = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
    bases = draw(st.lists(st.tuples(*[entry] * dim), min_size=0, max_size=6))
    vectors = []
    for base in bases:
        vectors.append(base)
        for scale in draw(st.lists(st.sampled_from([-1, 2, -3, 7, -(10**12)]), max_size=3)):
            vectors.append(tuple(scale * x for x in base))
        if draw(st.booleans()):
            vectors.append((0,) * dim)
    return draw(st.permutations(vectors))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(line_lists())
def test_dedupe_lines_matches_the_per_vector_reference(vectors):
    expected = per_vector_dedupe_lines(vectors)
    assert _dedupe_lines(vectors) == expected
    assert _dedupe_lines(iter(vectors)) == expected
    assert _dedupe_lines(tuple(vectors)) == expected


def test_dedupe_lines_keeps_first_seen_order_and_drops_zero_vectors():
    vectors = [(0, 0, 0), (0, -2, 4), (3, 0, 0), (0, 1, -2), (-6, 0, 0), (0, 0, 0), (0, 0, -5)]
    assert _dedupe_lines(vectors) == [(0, 1, -2), (1, 0, 0), (0, 0, 1)]
    assert _dedupe_lines([(0, 0)] * 3) == []
    assert _dedupe_lines([]) == []
    assert _dedupe_lines(v for v in [(-4,), (2,)]) == [(1,)]
