"""Exact linear algebra and central hyperplane-arrangement enumeration.

There is no floating point anywhere in this module. One search,
`rays_and_cells`, enumerates the rays (1-dimensional faces) and one
witness per full-dimensional open cell of a central arrangement of
hyperplanes ``{x : n . x = 0}`` restricted to the non-negative orthant
``{x : x_i >= 0 for every i}``, which is the fundamental chamber in
fundamental-coweight coordinates; its coordinate walls are built here.
`arrangement_rays` and `arrangement_cells` are its two halves. It takes a
non-negative dim and integer normals of length dim only (a `ValueError`
says so otherwise): every line is canonicalised with `gcd` alone, and
rays and witnesses come back as sorted lists of primitive integer points.

A normal whose nonzero entries all share one sign does not cut the open
orthant: on the closed one it vanishes exactly where the walls of its
support do, so it adds no face there. In fundamental-coweight coordinates
that is every weight in plus or minus the positive root cone, since a
weight's pairing vector is its simple-root expansion; for an adjoint
representation it is every weight. The search leaves such normals out, so
rays, cells and their witnesses are the same as with them.

All elimination is fraction-free on integers: one step, `_eliminate`,
cuts a kernel basis down by one line, and `kernel_basis` and `matrix_rank`
are that step applied row by row. The cutting normals split the
coordinates into blocks that none of them joins, and the orthant with the
arrangement is the product of the blocks' orthants, so the rays are each
block's rays padded with zeros and the cells are the products of the
blocks' cells (Orlik-Terao): a block of one coordinate gives its axis and
one cell, and each larger block is searched in its own dimension by double
description over the cone complex (`_cone_complex`). The search adds one
line at a time and keeps every cell as the set of its rays, the extreme
rays of its closure; a line splits only the cells it crosses, and the rays
it adds come from pairs of rays of one such cell that span a 2-face, which
`matrix_rank` of their common zeros decides. A cell's witness is the
primitive sum of its rays, so no LP finds a cell.

There is one simplex, `_phase_one`, a revised simplex that pivots
fraction-free on integers.
It keeps det·B^-1 and the phase-one duals, O(m^2) integers for m rows,
and prices a column of A (O(m) work) only when Bland's rule reaches it,
so a pivot does not rewrite every column of a wide system;
`classify_torus` poses up to hundreds of columns over a few rows. Both of
its callers hand it a system with one row per ambient coordinate (plus one):
`lp_feasible`, which `classify_torus` calls, poses the transposition dual
of its system (Gordan, Motzkin) and reads its witness off the Farkas
certificate that an infeasible phase one returns, and the
relative-interior test, after lam = 1 + mu, has one column per point.
These two and `kernel_basis` (so `matrix_rank` too) take integer entries
only, like the arrangement operations; a `ValueError` naming the function
says so otherwise.

Every system `lp_feasible` decides is homogeneous (linear forms with no
right-hand side), which is what the transposition theorem needs; the
dual's normalisation sum(y) = 1 plays the part of rescaling ``f > 0`` to
``f >= 1``.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from math import gcd
from operator import mul

from .errors import ResourceGuardError

DEFAULT_CELL_GUARD = 10**6


def dot(a, b):
    """Exact dot product of two equal-length vectors."""
    if len(a) != len(b):
        raise ValueError(f"dot of vectors with lengths {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def dot_rows(columns, point):
    """The dot product of `point` with every row of a matrix, given the
    matrix as its columns (``tuple(zip(*rows))``): one pass per nonzero
    coordinate of the point instead of one `dot` per row."""
    row = [0] * (len(columns[0]) if columns else 0)
    for c, column in zip(point, columns):
        if c:
            row = [x + c * u for x, u in zip(row, column)]
    return row


def primitive_vector(v):
    """The nonzero integer vector v divided by the gcd of its entries: the
    primitive integer vector with the same direction."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("the zero vector has no primitive form")
    return tuple(x // g for x in v)


def _require_integers(rows, caller, what="entries", dim=None):
    """Raise a ValueError naming `caller` unless every entry of every row is
    an int (bool included), and, when `dim` is given, dim is non-negative
    and every row has length dim; the type check looks at each distinct
    entry type once."""
    if dim is not None and dim < 0:
        raise ValueError(f"{caller} needs a non-negative dimension, got {dim}")
    if not all(map(issubclass, set(map(type, chain.from_iterable(rows))), repeat(int))):
        raise ValueError(f"{caller} needs integer {what}")
    if dim is not None and any(len(row) != dim for row in rows):
        raise ValueError(f"{caller} needs vectors of length {dim}")


def _phase_one(rows, rhs):
    """Decide whether A z = b (b >= 0) has a solution z >= 0 by a phase-one
    simplex, on integer rows of A and integer b.

    Returns None when there is one, and otherwise a Farkas certificate: an
    integer tuple y with ``y . A_j >= 0`` for every column A_j and
    ``y . b < 0``, read off the phase-one duals. Rows of ``[A | b]`` that
    are all zero say nothing and are dropped; their certificate entry is 0.
    A negative entry of b would leave the artificial basis infeasible, so it
    is rejected.

    The simplex is revised and fraction-free. With B the current basis and
    det the last pivot (det(B) up to sign), the full tableau would be
    ``det B^-1 [A | I | b]`` under the reduced-cost row
    ``det c + mu [A | I | b]``, c being 1 on the artificials. Only what the
    pivot rule reads is kept: ``inverse = det B^-1``, the tableau's
    artificial block; ``values = det B^-1 b``; ``mu``, the cost row's
    artificial block less det; and ``total = mu . b``, the cost row's
    right-hand side. The tableau's column of A_j is then ``inverse A_j``
    and its reduced cost ``mu . A_j``, so a column is priced only when the
    pivot rule reaches it. A pivot on p updates every kept entry as
    ``(p a - f b) // d``, d the previous pivot, and the division is exact
    (Bareiss); the ratio test cross-multiplies. The update is linear in the
    rows of ``[A | I | b]`` and every division is exact, so a priced entry
    is the very integer the full tableau would hold there, and the pivots
    are the full tableau's. Bland's rule on both the entering choice (the
    first column of A with a negative reduced cost) and the leaving choice
    guarantees termination without any degeneracy handling; only columns
    of A enter.

    When no column of A has a negative reduced cost, ``mu . A_j >= 0`` for
    every column, and ``total = mu . b`` is -det times the artificials'
    total. If that is nonzero, mu is the certificate.
    """
    if any(b < 0 for b in rhs):
        raise ValueError("phase-one simplex needs a non-negative right-hand side")
    n = len(rows[0]) if rows else 0
    kept = [i for i, (row, b) in enumerate(zip(rows, rhs)) if b or any(row)]
    m = len(kept)
    columns = list(zip(*(rows[i] for i in kept)))
    inverse = [[1 if k == j else 0 for j in range(m)] for k in range(m)]
    values = [rhs[i] for i in kept]
    mu = [-1] * m
    total = -sum(values)
    basis = list(range(n, n + m))
    det = 1
    while True:
        for entering, column in enumerate(columns):
            f = sum(map(mul, mu, column))
            if f < 0:
                break
        else:
            break
        entries = [sum(map(mul, row, column)) for row in inverse]
        leaving = None
        for i, a in enumerate(entries):
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = values[i] * entries[leaving]
                best = values[leaving] * a
                if lhs < best or (lhs == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise RuntimeError("phase-one simplex unbounded; this is a bug")
        p = entries[leaving]
        pivot_row, pivot_value = inverse[leaving], values[leaving]
        for i, g in enumerate(entries):
            if i != leaving:
                inverse[i] = [(p * a - g * b) // det for a, b in zip(inverse[i], pivot_row)]
                values[i] = (p * values[i] - g * pivot_value) // det
        mu = [(p * a - f * b) // det for a, b in zip(mu, pivot_row)]
        total = (p * total - f * pivot_value) // det
        det = p
        basis[leaving] = entering
    if not total:
        return None
    y = [0] * len(rows)
    for k, i in enumerate(kept):
        y[i] = mu[k]
    return tuple(y)


def lp_feasible(weak, strict, dim):
    """Search for x with w.x >= 0 and s.x > 0 for the given integer forms.

    Returns an exact integer witness tuple, or None when infeasible. The
    system is decided through its transposition dual (Gordan, Motzkin): such
    an x exists exactly when no v >= 0, y >= 0 with sum(y) = 1 solve
    ``W^T v + S^T y = 0``. That dual has dim + 1 rows, the transpose of
    the forms (one row per coordinate) and one row for sum(y) = 1, and
    right-hand side (0, ..., 0, 1), and `_phase_one` decides it. A feasible
    dual means None. An infeasible one comes with a Farkas certificate
    (x, t) that pairs non-negatively with every dual column, so
    ``w.x >= 0`` and ``s.x + t >= 0``, and has ``t < 0``. Its x is the
    witness, since then ``s.x >= -t > 0``; a coordinate that no form
    touches gives an all-zero dual row, which `_phase_one` drops, and is 0
    in the witness. The coordinate rows are the forms' columns, so one
    `dot_rows` over them re-substitutes the witness into every form.
    """
    weak = [tuple(row) for row in weak]
    strict = [tuple(row) for row in strict]
    _require_integers((*weak, *strict), "lp_feasible", dim=dim)
    if not strict:
        return (0,) * dim
    rows = [*zip(*weak, *strict), (0,) * len(weak) + (1,) * len(strict)]
    certificate = _phase_one(rows, (0,) * dim + (1,))
    if certificate is None:
        return None
    x = certificate[:dim]
    values = dot_rows(rows[:dim], x)
    split = len(weak)
    if any(v < 0 for v in values[:split]) or any(v <= 0 for v in values[split:]):
        raise RuntimeError("simplex witness fails re-substitution; this is a bug")
    return x


def zero_in_relative_interior(points):
    """Whether the origin lies in the relative interior of the convex hull
    of the integer points.

    For a finite point set this is equivalent to the origin being a strictly
    positive combination of ALL the points: some lam_i > 0 with
    sum lam_i p_i = 0. The system is homogeneous, so lam_i > 0 may be
    rescaled to lam_i >= 1; writing lam = 1 + mu with mu >= 0 turns it into
    sum mu_i p_i = -sum p_i, one equation per ambient coordinate over one
    column per point. Rows with a negative right-hand side are negated, and
    the phase-one simplex decides feasibility; it drops all-zero rows, so
    when the points are all zero nothing is left and the answer is yes.
    """
    pts = [tuple(p) for p in points]
    _require_integers(pts, "zero_in_relative_interior")
    if not pts:
        raise ValueError("zero_in_relative_interior needs at least one point")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("zero_in_relative_interior needs points of one dimension")
    rows = [row if sum(row) <= 0 else tuple(-c for c in row) for row in zip(*pts)]
    rhs = [-sum(row) for row in rows]
    return _phase_one(rows, rhs) is None


def _dedupe_lines(vectors):
    """The distinct lines through the nonzero integer vectors, each as the
    primitive integer vector on it whose first nonzero entry is positive,
    in first-seen order.

    Built from whole columns: each vector's gcd is one `gcd` over its
    entries (1 for a zero vector), the sign of its first nonzero entry is
    carried into that divisor by one pass per column from the last column
    to the first, and the columns are divided exactly. The zero row, if any
    vector was zero, is dropped from the first-seen rows."""
    columns = list(zip(*vectors))
    if not columns:
        return []
    gcds = [g or 1 for g in map(gcd, *columns)]
    divisors = gcds
    for column in reversed(columns):
        divisors = [d if not x else g if x > 0 else -g for x, g, d in zip(column, gcds, divisors)]
    lines = dict.fromkeys(zip(*[[x // d for x, d in zip(column, divisors)] for column in columns]))
    lines.pop((0,) * len(columns), None)
    return list(lines)


def _eliminate(basis, values):
    """Integer basis of {z in span(basis) : line . z = 0}, given the
    pairings `values` of the line with the basis vectors (one of them
    nonzero).

    One fraction-free elimination step: the first basis vector that pairs
    nonzero with the line is the pivot, every other vector z becomes
    ``(line . pivot) z - (line . z) pivot``, reduced by its gcd, and the
    pivot is dropped. Returns the new basis and the step itself as
    (pivot, p, kept): p is the pivot's pairing and kept lists (k, v, g) for
    each surviving basis vector z_k, which became
    ``(p z_k - v z_pivot) // g`` when v != 0 and stayed as it was when
    v == 0."""
    pivot = next(k for k, v in enumerate(values) if v != 0)
    p, zp = values[pivot], basis[pivot]
    out, kept = [], []
    for k, (v, z) in enumerate(zip(values, basis)):
        if k == pivot:
            continue
        g = 1
        if v != 0:
            z = [p * a - v * b for a, b in zip(z, zp)]
            g = gcd(*z)
            z = tuple(a // g for a in z)
        out.append(z)
        kept.append((k, v, g))
    return out, (pivot, p, kept)


def _unit_vectors(dim):
    """The walls of the non-negative orthant, in coordinate order."""
    return [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]


def kernel_basis(rows, dim):
    """Integer basis of the right kernel {x in Q^dim : row . x = 0 for all rows}.

    `_eliminate` is applied row by row to the unit basis; a row in the
    span of the earlier ones pairs to zero with the whole basis and leaves
    it as it is. The rows must be integer vectors."""
    rows = list(rows)
    _require_integers(rows, "kernel_basis", dim=dim)
    basis = _unit_vectors(dim)
    for row in rows:
        if not basis:
            break
        values = [sum(map(mul, row, z)) for z in basis]
        if any(values):
            basis = _eliminate(basis, values)[0]
    return basis


def matrix_rank(rows):
    """The rank of a list of integer rows."""
    rows = list(rows)
    _require_integers(rows, "matrix_rank")
    dim = len(rows[0]) if rows else 0
    return dim - len(kernel_basis(rows, dim))


def _coordinate_blocks(lines, dim):
    """The coordinate blocks of `lines`: the connected components of
    range(dim) when a line joins every two coordinates of its support. Each
    block is returned as its coordinates, in increasing order, and the
    lines supported on it, restricted to those coordinates; a line's
    support lies in one block. Once every coordinate is joined, the one
    block is the whole range with the lines as they are, and the lines left
    are not read."""
    parent = list(range(dim))
    count = dim

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for line in lines:
        if count == 1:
            break
        first, *rest = [i for i, x in enumerate(line) if x]
        first = root(first)
        for i in rest:
            i = root(i)
            if i != first:
                parent[i] = first
                count -= 1
    if count == 1:
        return [(range(dim), lines)]
    blocks = {}
    for i in range(dim):
        blocks.setdefault(root(i), ([], []))[0].append(i)
    for line in lines:
        coords, members = blocks[root(next(i for i, x in enumerate(line) if x))]
        members.append(tuple([line[i] for i in coords]))
    return list(blocks.values())


def _cone_complex(cutting, dim, guard):
    """The rays and cells of the distinct cutting lines `cutting` and the
    walls of the non-negative orthant, in dimension dim >= 2, built one line
    at a time over the cone complex (the double description method:
    Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda and Prodon, 1996).
    Returns the rays' primitive points and the cells, each the tuple of the
    indices of its rays: the extreme rays of its closure.

    The complex starts as the orthant, its axes and one cell that holds all
    of them. Adding a line H keeps every ray, since a ray's flat is still
    cut out, and leaves every cell whose rays lie on one closed side of H.
    A cell C with rays strictly on both sides becomes two cells: its rays
    with ``H >= 0`` and its rays with ``H <= 0``, each with the new rays N
    of C. The closure of C is a pointed cone, and the extreme rays of its
    half ``H >= 0`` are its own extreme rays there and one point of H on
    each 2-face of it that H crosses. Such a face has two extreme rays r and
    s with ``H . r > 0 > H . s``, and H meets it at
    ``(H . r) s - (H . s) r``, made primitive. Two rays of C's closure span
    a 2-face of it exactly when the walls and lines added so far that vanish
    on both have rank dim - 2: those constraints cut out the smallest face
    holding both. In dimension 3 that is one shared constraint, and in
    dimension 2 every pair of a cell's two rays spans it. The rank test is
    `matrix_rank`, after a popcount, kept per common-zero mask for the whole
    call. Each ray keeps the bitmask of its zeros over the constraints (the
    walls, then the lines) added so far. A 2-face holds one ray on H, and
    every cell whose closure holds the face holds that ray, so each pair
    builds its ray once per line and the cells sharing the face share it.

    `guard` bounds the cells: a line that leaves more raises a
    `ResourceGuardError` that names the line and the cells so far.
    """
    points = _unit_vectors(dim)
    constraints = [*points, *cutting]
    zeros = [((1 << dim) - 1) ^ (1 << i) for i in range(dim)]
    cells = [tuple(range(dim))]
    target = dim - 2
    spans_face = {}

    def spans(common):
        if dim <= 3:
            return dim == 2 or common != 0
        if common not in spans_face:
            rows, mask = [], common
            while mask:
                low = mask & -mask
                rows.append(constraints[low.bit_length() - 1])
                mask ^= low
            spans_face[common] = len(rows) >= target and matrix_rank(rows) == target
        return spans_face[common]

    for index, line in enumerate(cutting):
        on = 1 << (dim + index)
        values = [sum(map(mul, line, p)) for p in points]
        above = {k for k, v in enumerate(values) if v > 0}
        below = {k for k, v in enumerate(values) if v < 0}
        made = {}
        for i in range(len(cells)):
            cell = cells[i]
            if above.isdisjoint(cell) or below.isdisjoint(cell):
                continue
            new = []
            for r in cell:
                if r not in above:
                    continue
                vr, pr, zr = values[r], points[r], zeros[r]
                for s in cell:
                    if s not in below:
                        continue
                    k = made.get((r, s))
                    if k is None:
                        common = zr & zeros[s]
                        k = -1
                        if spans(common):
                            vs = values[s]
                            point = [vr * b - vs * a for a, b in zip(pr, points[s])]
                            g = gcd(*point)
                            k = len(points)
                            points.append(tuple([x // g for x in point]))
                            zeros.append(common | on)
                        made[r, s] = k
                    if k >= 0:
                        new.append(k)
            cells[i] = (*[r for r in cell if r not in below], *new)
            cells.append((*[s for s in cell if s not in above], *new))
        if len(cells) > guard:
            raise ResourceGuardError(
                f"ray and cell search exceeded the guard of {guard} cells,"
                f" with {len(cells)} cells at line {index + 1} of {len(cutting)}"
            )
        for k, v in enumerate(values):
            if not v:
                zeros[k] |= on
    return points, cells


def rays_and_cells(normals, dim, guard=DEFAULT_CELL_GUARD):
    """The rays and the cells of the arrangement in the non-negative
    orthant, from one search: `arrangement_rays(normals, dim)` and
    `arrangement_cells(normals, rays, dim, guard)` as a pair."""
    return _rays_and_cells(normals, dim, guard, "rays_and_cells")


def _rays_and_cells(normals, dim, guard, caller):
    """`rays_and_cells`, with `caller` named in its input errors.

    The normals with entries of both signs cut the open orthant; they are
    made distinct lines and split into coordinate blocks, and each block of
    dimension >= 2 is searched by `_cone_complex`. A cell of the whole
    orthant picks one cell of each block, its rays are theirs, and its
    witness is the primitive sum of its rays. Every witness is checked to
    pair strictly nonzero with every nonzero normal and to have every
    coordinate positive, and no two to share a sign vector."""
    normals = [tuple(n) for n in normals]
    _require_integers(normals, caller, "normals", dim)
    if dim == 0:
        return [], []
    cutting = _dedupe_lines([n for n in normals if min(n) < 0 < max(n)])
    rays, factors = [], []
    for coords, lines in _coordinate_blocks(cutting, dim):
        points, cells = _cone_complex(lines, len(coords), guard) if lines else ([(1,)], [(0,)])
        padded = []
        for point in points:
            full = [0] * dim
            for i, x in zip(coords, point):
                full[i] = x
            padded.append(tuple(full))
        rays += padded
        factors.append([[padded[k] for k in cell] for cell in cells])
    count = 1
    for cells in factors:
        count *= len(cells)
    if count > guard:
        raise ResourceGuardError(
            f"ray and cell search exceeded the guard of {guard} cells,"
            f" with {count} cells in the product of its blocks"
        )
    witnesses = sorted(
        primitive_vector(tuple(map(sum, zip(*chain.from_iterable(choice))))) for choice in product(*factors)
    )
    # The witnesses' pairings with the cutting lines, read as in
    # `gitsolver._sign_masks`: one biased field per line, wide enough that
    # none carries, in one sum of packed columns per witness. A field's top
    # bit is set when the pairing is >= 0, and still set after 1 is taken
    # from every field when it is > 0. A sign-definite normal is nonzero on
    # the open orthant and takes one sign on every cell there.
    bound = max(map(max, witnesses)) * max((sum(map(abs, line)) for line in cutting), default=0)
    width = bound.bit_length() + 2
    ones = sum(1 << (width * k) for k in range(len(cutting)))
    packed = [sum(x << (width * k) for k, x in enumerate(column)) for column in zip(*cutting)]
    seen_sign_vectors = set()
    for point in witnesses:
        total = (ones << (width - 1)) + sum(map(mul, point, packed))
        signature = (total - ones) >> (width - 1) & ones
        if min(point) <= 0 or total >> (width - 1) & ones != signature:
            raise RuntimeError("cell witness landed on a boundary; this is a bug")
        if signature in seen_sign_vectors:
            raise RuntimeError("two witnesses describe the same cell; this is a bug")
        seen_sign_vectors.add(signature)
    return sorted(rays), witnesses


def arrangement_rays(normals, dim):
    """Rays (1-dimensional intersection faces) of the arrangement in the
    non-negative orthant, as the sorted list of their primitive integer
    points: the rays of `rays_and_cells`, under the default cell guard. The
    normals must be integer vectors of length dim.

    A ray is the kernel line of a rank-(dim-1) flat spanned by constraints
    drawn from the normals and the coordinate walls together, oriented into
    the orthant. Only the normals that cut the open orthant (entries of
    both signs) count. A sign-definite normal n leaves the faces in the
    closed orthant as they are: there n . x = 0 exactly when x vanishes on
    the support of n, which the walls already say, so every sign class,
    and hence every ray, is the same set with or without n.

    The cutting normals split the coordinates into blocks
    (`_coordinate_blocks`): two coordinates share a block when a chain of
    cutting normals links their supports. Every cutting normal lies in one
    block and every wall is one coordinate, so the closed orthant with the
    arrangement is the product of the blocks' orthants with their normals,
    and the rays of a product of pointed cones are the rays of each factor,
    padded with zeros (Orlik-Terao, *Arrangements of Hyperplanes*, 1992).
    A block of one coordinate has no cutting normal, and its axis is its
    one ray. Each larger block is searched in its own dimension by double
    description (`_cone_complex`), which builds the cells with the rays: it
    pairs only rays of one cell, where a rays-only search must find the
    conformal pairs among all the rays on the two sides of each line (E6
    ``2,0,0,0,0,0``: 0.7-1.2 s for its rays and cells, against 1.4 s for
    its rays alone that way; single runs on a 2-vCPU host).

    A caller that needs the normals vanishing at a ray pairs them with its
    point.
    """
    return _rays_and_cells(normals, dim, DEFAULT_CELL_GUARD, "arrangement_rays")[0]


def arrangement_cells(normals, rays, dim, guard=DEFAULT_CELL_GUARD):
    """One interior witness per full-dimensional cell of the arrangement
    restricted to the open non-negative orthant, as a sorted list of
    primitive integer points: the cells of `rays_and_cells`. Every witness
    pairs strictly nonzero with every nonzero normal and has every
    coordinate positive, and it is the primitive sum of the extreme rays of
    its cell's closure, the rays whose signs agree with it. The normals
    must be integer vectors of length dim.

    The search builds its own rays, so `rays` is only checked: from
    dimension 3 it must be `arrangement_rays(normals, dim)`, and a point
    outside the orthant or a missing axis is a `ValueError`. `guard`
    bounds the cells the search holds after each line, and the cells of
    the product of the blocks."""
    normals = [tuple(n) for n in normals]
    _require_integers(normals, "arrangement_cells", "normals", dim)
    if dim >= 3:
        points = set(rays)
        if any(len(point) != dim or min(point) < 0 for point in points):
            raise ValueError("cells got a ray outside the non-negative orthant")
        if not points.issuperset(_unit_vectors(dim)):
            raise ValueError(
                "cells in dimension >= 3 need the arrangement's rays, every coordinate axis among them"
            )
    return _rays_and_cells(normals, dim, guard, "arrangement_cells")[1]
