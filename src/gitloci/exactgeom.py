"""Exact linear algebra and central hyperplane-arrangement enumeration.

There is no floating point anywhere in this module. The two arrangement
operations enumerate the rays (1-dimensional faces) and one witness per
full-dimensional open cell of a central arrangement of hyperplanes
``{x : n . x = 0}`` restricted to the non-negative orthant
``{x : x_i >= 0 for every i}``, which is the fundamental chamber in
fundamental-coweight coordinates; its coordinate walls are built here.
Both take a non-negative dim and integer normals of length dim only (a
`ValueError` says so otherwise): every line is canonicalised with `gcd`
alone, and both return sorted lists of primitive integer points.

A normal whose nonzero entries all sit on wall coordinates and share one
sign (`_wall_sign`) does not cut the open (partial) orthant: on the closed
one it vanishes exactly where the walls of its support do, so it adds no
face there. In fundamental-coweight coordinates that is every weight in
plus or minus the positive root cone, since a weight's pairing vector is
its simple-root expansion; for an adjoint representation it is every
weight. The ray walk and the planar sweep leave such normals out. The cell
splitter keeps them among its forms but never probes one: each region's
witness lies strictly on its sign side, and the far side holds only the
rays on its hyperplane, which do not span the local space. So rays, cells
and their witnesses are the same as with them.

All elimination is fraction-free on integers: one step, `_eliminate`,
cuts a kernel basis down by one line, and `kernel_basis` and `matrix_rank`
are that step applied row by row. The cutting normals split the
coordinates into blocks that none of them joins, and the orthant with the
arrangement is the product of the blocks' orthants, so the rays are each
block's rays padded with zeros (Orlik-Terao): a block of one coordinate
gives its axis, and each larger block is searched in its own dimension. In
dimension 2 and 3 that is a walk over flats with the same step; the walk
carries each open line's pairings with the current kernel basis and
updates them by the step's own integer combination, so it evaluates no dot
product. From dimension 4 the flats far outnumber the rays (A6
``1,0,0,0,0,0`` has 271 flats for 21 rays), and the rays are built by
double description instead: one line at a time over the cone complex,
building only rays, each new one from a pair of rays on the two sides of
the line that spans a 2-face, which a sign mask and `matrix_rank` decide.
Below dimension 4 the flats are few and the walk is the faster of the two.
Cells come from an exact angular sweep in dimension 2; in higher dimension
they are localised at the rays, where the local walls form a partial
orthant. A cell is found at the first ray of its closure, so in every
dimension >= 3 a ray is skipped when an earlier ray that agrees with it in
sign lies on every local normal that cuts, and so in the closure of every
local cell; three bitmasks over the rays per normal (its positive side,
its negative side, on it) decide this by one OR and one AND-NOT. The
dimension picks only the local solver: the planar sweep in dimension 2,
and above it the splitter, whose probes are the cell LP `lp_feasible`. It
drops, unprobed, each local region whose cells all hold one earlier ray
in their closure, and probes a region only when the rays in its closure,
projected into the local system, span it: a non-empty region holds a
local cell, and the extreme rays of that cell's closure span the local
space. So every cell LP finds a point. There is one simplex, `_phase_one`,
a revised simplex that pivots fraction-free on integers.
It keeps det·B^-1 and the phase-one duals, O(m^2) integers for m rows,
and prices a column of A (O(m) work) only when Bland's rule reaches it,
so a pivot does not rewrite every column of a wide system;
`classify_torus` poses up to hundreds of columns over a few rows. Both of
its callers hand it a system with one row per ambient coordinate (plus one):
`lp_feasible` poses the transposition dual of its system (Gordan, Motzkin)
and reads its witness off the Farkas certificate that an infeasible phase
one returns, and the relative-interior test, after lam = 1 + mu, has one
column per point. These two and `kernel_basis` (so `matrix_rank` too)
take integer entries only, like the arrangement operations; a
`ValueError` naming the function says so otherwise.

Every system `lp_feasible` decides is homogeneous (linear forms with no
right-hand side), which is what the transposition theorem needs; the
dual's normalisation sum(y) = 1 plays the part of rescaling ``f > 0`` to
``f >= 1``.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import chain, compress, repeat
from math import gcd
from operator import mul, not_

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


def _wall_sign(line, walled):
    """The sign of the nonzero integer `line` on the open partial orthant
    {x : x_i > 0 for every i in `walled`}, other coordinates free.

    That is 1 or -1 when every nonzero entry of `line` sits on a `walled`
    coordinate and all of them share that sign, and 0 otherwise. A line
    with sign 0 cuts the open partial orthant: a free coordinate in its
    support, or two entries of opposite signs, can be traded against the
    rest. A line with a sign does not, and on the closed partial orthant it
    vanishes exactly where every coordinate of its support does, so its
    hyperplane adds no face that the walls do not already cut out there.
    """
    if min(line) >= 0:
        sign = 1
    elif max(line) <= 0:
        sign = -1
    else:
        return 0
    return sign if all(i in walled for i, x in enumerate(line) if x) else 0


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


def arrangement_rays(normals, dim):
    """Rays (1-dimensional intersection faces) of the arrangement in the
    non-negative orthant, as the sorted list of their primitive integer
    points. The normals must be integer vectors of length dim.

    A ray is the kernel line of a rank-(dim-1) flat spanned by constraints
    drawn from the normals and the coordinate walls together, oriented into
    the orthant. Only the normals that cut the open orthant (`_wall_sign`
    0: entries of both signs) count. A sign-definite normal n leaves the
    faces in the closed orthant as they are: there n . x = 0 exactly when x
    vanishes on the support of n, which the walls already say, so every
    sign class, and hence every ray, is the same set with or without n. In
    fundamental-coweight coordinates a weight's pairing vector is its
    simple-root expansion, so the weights in plus or minus the positive
    root cone are sign-definite, and an adjoint arrangement keeps no normal
    at all.

    The cutting normals split the coordinates into blocks
    (`_coordinate_blocks`): two coordinates share a block when a chain of
    cutting normals links their supports. Every cutting normal lies in one
    block and every wall is one coordinate, so the closed orthant with the
    arrangement is the product of the blocks' orthants with their normals,
    and the rays of a product of pointed cones are the rays of each factor,
    padded with zeros (Orlik-Terao, *Arrangements of Hyperplanes*, 1992).
    A block of one coordinate has no cutting normal, and its axis is its
    one ray. Each larger block is searched in its own dimension with its
    coordinates of its normals, by one of two methods that return the same
    rays, and the block dimension picks between them:

    * dimension 2 and 3: the walk over every flat (`_flat_walk`). There the
      flats are few, and it beats the pair tests of the double description
      (A3 ``10,0,0``: 13 ms against 168 ms; B2 ``12*w1``: 0.05 against 0.4
      ms);
    * dimension 4 and up: double description over the cone complex
      (`_double_description`), which builds only rays: each line pairs the
      rays on its two sides, and a new ray comes only from a pair that
      spans a 2-face. The flats far outnumber the rays there: A6
      ``1,0,0,0,0,0`` has 271 flats for 21 rays, and A6 ``3,0,0,0,0,0``
      148,711 for 918, whose rays take about 16 s walked and 0.17 s by
      double description.

    (Times are single runs on one thread of a 2-vCPU host.)

    A caller that needs the normals vanishing at a ray pairs them with its
    point.
    """
    normals = [tuple(n) for n in normals]
    _require_integers(normals, "arrangement_rays", "normals", dim)
    if dim == 0:
        return []
    walled = range(dim)
    cutting = _dedupe_lines([n for n in normals if any(n) and not _wall_sign(n, walled)])
    found = []
    for coords, lines in _coordinate_blocks(cutting, dim):
        if not lines:
            block_rays = [(1,)]
        elif len(coords) <= 3:
            block_rays = _flat_walk(lines, len(coords))
        else:
            block_rays = _double_description(lines, len(coords))
        for ray in block_rays:
            point = [0] * dim
            for i, x in zip(coords, ray):
                point[i] = x
            found.append(tuple(point))
    return sorted(found)


def _flat_walk(cutting, dim):
    """The rays of the distinct cutting lines `cutting` and the walls of
    the non-negative orthant, in dimension dim >= 2, in the order the walk
    finds them.

    The flats are walked depth first over index-increasing subsets of the
    constraint lines (the cutting lines, then the walls), keeping a
    gcd-reduced integer basis of the prefix's kernel (`_eliminate`); at
    depth dim-1 that basis is the ray. Two cuts keep the walk to one visit
    per flat:

    * a line in the span of the prefix (it pairs to zero with the whole
      kernel basis) is never appended, since every subset through it is
      dependent; such lines leave the table;
    * the other lines fall into the flats one rank up, two lines sharing a
      flat exactly when their pairings with the kernel basis are parallel.
      Each such flat is entered once, through its smallest line, and only
      when that line comes after the prefix's last one. So every prefix is
      the greedy basis of its span; every flat has exactly one greedy basis
      and each prefix of it is the greedy basis of its own span, so every
      flat is still reached.

    The pairings of the open lines with the kernel basis are kept in a
    table, not recomputed: at the root they are the lines themselves, and
    when a child's basis vector becomes ``(p z_k - v_k z_pivot) // g_k`` a
    line's pairing with it becomes ``(p P_k - v_k P_pivot) // g_k`` by the
    same integers, an exact division since g_k divides every entry of the
    vector it reduced, so the walk evaluates no dot product. The table is a
    list of (line, row) pairs, and each row is made canonical (gcd, then the
    sign of its first nonzero entry) to group the flats. A prefix whose
    kernel basis has two vectors z0, z1 builds the rays of its flats itself,
    with no child table: a line with canonical row (u0, u1) cuts out the
    line through ``u0 z1 - u1 z0``.
    """
    identity = _unit_vectors(dim)
    found = []

    def leaves(kernel, table, last):
        z0, z1 = kernel
        flats = {}
        for m, (v0, v1) in table:
            g = gcd(v0, v1)
            if v0 < 0 or (v0 == 0 and v1 < 0):
                g = -g
            key = (v0 // g, v1 // g)
            if key not in flats:
                flats[key] = m
        for (u0, u1), first in flats.items():
            if first <= last:
                continue
            if u0 == 0:
                direction = z0
            elif u1 == 0:
                direction = z1
            else:
                direction = [u0 * b - u1 * a for a, b in zip(z0, z1)]
                g = gcd(*direction)
                direction = tuple([x // g for x in direction])
            if min(direction) < 0:
                if max(direction) > 0:
                    continue
                direction = tuple([-x for x in direction])
            found.append(direction)

    def walk(kernel, table, last):
        flats = {}
        for m, row in table:
            g = gcd(*row)
            for x in row:
                if x:
                    break
            if x < 0:
                g = -g
            key = tuple([x // g for x in row])
            flat = flats.get(key)
            if flat is None:
                flats[key] = (row, [m])
            else:
                flat[1].append(m)
        for row, members in flats.values():
            j = members[0]
            if j <= last:
                continue
            closed = set(members)
            child, (pivot, p, kept) = _eliminate(kernel, row)
            child_table = []
            for m, r in table:
                if m not in closed:
                    rp = r[pivot]
                    child_table.append(
                        (m, [(p * r[k] - v * rp) // g if v else r[k] for k, v, g in kept])
                    )
            (leaves if len(child) == 2 else walk)(child, child_table, j)

    (leaves if dim == 2 else walk)(identity, list(enumerate([*cutting, *identity])), -1)
    return found


def _double_description(cutting, dim):
    """The rays of the distinct cutting lines `cutting` and the walls of
    the non-negative orthant, in dimension dim >= 3, built one line at a
    time over the cone complex (the double description method: Motzkin,
    Raiffa, Thompson and Thrall, 1953; Fukuda and Prodon, 1996).

    The complex starts as the orthant, whose rays are its axes. Adding a
    line H keeps every ray, since a ray's flat is still cut out, and adds
    one ray in each 2-face that H crosses: for the face's two rays r and s
    with ``H . r > 0 > H . s`` that is the point ``(H . r) s - (H . s) r``,
    made primitive. Distinct 2-faces have disjoint relative interiors, so
    no ray is found twice. Two rays span a 2-face exactly when

    * they are conformal: no line added so far is positive on one and
      negative on the other, so r + s has the signs of both; and
    * the walls and lines added so far that vanish on both have rank
      dim - 2, so the face with those signs is 2-dimensional.

    Such a face is a pointed 2-dimensional cone whose closure holds r and
    s, so they are its two extreme rays. A third ray strictly between them
    in their 2-flat would lie on a line that separates them, which the
    conformality test rules out. Each ray carries two bitmasks: its signs,
    with bit k set when line k is positive on it and bit count + k when it
    is negative, and its zeros over the constraints (the walls, then the
    lines), set for those added so far that vanish on it. Swapping the two
    halves of r's signs gives the signs opposite to r's, so conformality
    is one AND, run over all of the negative side at once. The rank test
    is `matrix_rank` of the common zeros, counted first and kept per mask
    for the whole call.
    """
    points = _unit_vectors(dim)
    constraints = [*points, *cutting]
    count = len(cutting)
    positive_half = (1 << count) - 1
    signs = [0] * dim
    zeros = [((1 << dim) - 1) ^ (1 << i) for i in range(dim)]
    target = dim - 2
    spans_face = {}

    def spans(common):
        if common not in spans_face:
            rows, mask = [], common
            while mask:
                low = mask & -mask
                rows.append(constraints[low.bit_length() - 1])
                mask ^= low
            spans_face[common] = matrix_rank(rows) == target
        return spans_face[common]

    for index, line in enumerate(cutting):
        above, below, on = 1 << index, 1 << (count + index), 1 << (dim + index)
        values = [sum(map(mul, line, p)) for p in points]
        plus = [k for k, v in enumerate(values) if v > 0]
        minus = [k for k, v in enumerate(values) if v < 0]
        minus_signs = [signs[s] for s in minus]
        for r in plus:
            vr, pr, sr, zr = values[r], points[r], signs[r], zeros[r]
            opposite = sr >> count | (sr & positive_half) << count
            for s in compress(minus, map(not_, map(opposite.__and__, minus_signs))):
                common = zr & zeros[s]
                if common.bit_count() < target or not spans(common):
                    continue
                vs = values[s]
                point = [vr * b - vs * a for a, b in zip(pr, points[s])]
                g = gcd(*point)
                points.append(tuple([x // g for x in point]))
                signs.append(sr | signs[s])
                zeros.append(common | on)
        for k, v in enumerate(values):
            if v > 0:
                signs[k] |= above
            elif v < 0:
                signs[k] |= below
            else:
                zeros[k] |= on
    return points


def _rot90(v):
    return (-v[1], v[0])


def _angular_half(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angular_cmp(a, b):
    ha, hb = _angular_half(a), _angular_half(b)
    if ha != hb:
        return ha - hb
    cross = a[0] * b[1] - a[1] * b[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _planar_cell_witnesses(normals, walls):
    """Cell witnesses in dimension 2 by an exact angular sweep, strictly
    inside `walls` (the quadrant's, or a local system's partial orthant).

    The normals that do not cut the open region inside the walls
    (`_wall_sign` nonzero) are dropped first: both directions along such a
    line lie outside the closed region, so no arc inside it ends there. The
    boundary directions of the plane sectors cut out by the remaining
    constraint lines (normals and walls alike) are sorted by angle; each
    line is primitive, so both directions along it are too. Each
    consecutive open arc yields one interior witness, and the sector
    survives iff it is strictly inside the walls: both callers' walls are
    unit vectors, so iff its walled coordinates are positive. It needs no
    LP in the dimension that dominates the supported workloads.

    The system must be essential (rank 2), as both callers' are: the
    quadrant's two walls, or a rank-3 local system of full rank 2. A
    dropped normal lies in the span of the walls, so the walls and the
    normals kept still have rank 2. Then there are at least two lines,
    so at least four directions, and every open arc between neighbours is
    shorter than pi.
    """
    walled = {i for wall in walls for i, x in enumerate(wall) if x}
    lines = _dedupe_lines([*(n for n in normals if not _wall_sign(n, walled)), *walls])
    directions = set()
    for line in lines:
        along = _rot90(line)
        directions.add(along)
        directions.add((-along[0], -along[1]))
    ordered = sorted(directions, key=cmp_to_key(_angular_cmp))
    candidates = []
    count = len(ordered)
    for i in range(count):
        a, b = ordered[i], ordered[(i + 1) % count]
        if a[0] * b[1] - a[1] * b[0] <= 0:
            raise RuntimeError("angular sort produced an arc of at least pi; this is a bug")
        candidates.append(primitive_vector((a[0] + b[0], a[1] + b[1])))
    return [w for w in candidates if all(w[i] > 0 for i in walled)]


def _cell_witnesses_by_lp(normals, walls, dim, guard, points, covered):
    """Cell witnesses strictly inside `walls` by incremental sign splitting
    with feasibility probes, posed only where the `points` in the probed
    side's closure span it, and leaving out the cells whose closure holds
    one of the first `covered` points.

    Regions of the arrangement of the first k lines are refined one line at a
    time. A region carries its witness, its signed forms (each line so far
    times its sign there) and the bitmask of the points on its side of each
    line so far or on the line, the points its closure holds as far as
    those lines tell. The walls must be distinct unit vectors, so the seed
    region, the whole partial orthant, is witnessed by their sum (the
    indicator of the wall coordinates; the zero vector when there are none)
    with no LP. Each line splits each region by one rule per side, the side
    holding the witness first (the positive side first when the witness
    lies on the line):

    * Covered points. A side is dropped when its mask holds a covered point
      that further lies on every later line that cuts: it is in the closure
      of every cell inside the side, which the caller has found already.
      The regions that stay pose the systems they pose with no point
      covered, so every cell whose closure holds no covered point is found
      with the same witness, in the same order. The caller builds no
      system whose seed region holds one on every line that cuts.
    * Witness. A side holding the witness strictly keeps it, with no probe.
    * Spans. Otherwise the side costs one feasibility check, of the
      region's forms, that side of the line and the walls, posed only when
      the points of the side's mask have rank dim: the popcount is checked
      first, and the rank is kept per mask. Such points make the closed
      side full-dimensional, so its open interior is non-empty and the LP
      finds a point; a spanned probe that finds none raises a RuntimeError.
      The converse is the caller's promise: every non-empty region holds
      points of rank dim in its closure, so each probe skipped is one that
      finds no point.

    The points must be non-negative on the wall coordinates. A line that
    does not cut the open partial orthant (`_wall_sign` nonzero) then needs
    no rule of its own, and is paired with no point. Every point lies on
    its closed sign side, whose mask is all the points. The witness is
    strictly inside the walls, so strictly on that side, which keeps it.
    The far side holds only the points on the line, which lie in a
    hyperplane and never span, so its mask is left empty and it is never
    probed. The line still joins the forms of later probes, so they are the
    systems, and give the witnesses, that a failed probe of it would have
    left. It unsettles no covered point: every point and every cell lie on
    its closed sign side, so a covered point off the line is still in the
    closure of every cell that the lines that cut leave; unsettling it
    would keep every cell but pose more probes.
    """
    lines = _dedupe_lines(normals)
    walled = {i for wall in walls for i, x in enumerate(wall) if x}
    # agree[k][s]: the points on side s of line k or on it, none on the far
    # side of a line that does not cut; keeps[k]: the points line k leaves
    # settled; settled[k]: the covered ones kept by every line after k.
    point_columns = tuple(zip(*points))
    everything = (1 << len(points)) - 1
    agree, keeps, settled = [], [], [(1 << covered) - 1]
    for line in lines:
        sign = _wall_sign(line, walled)
        if sign:
            agree.append({sign: everything, -sign: 0})
            keeps.append(-1)
            continue
        positive = negative = 0
        for bit, value in enumerate(dot_rows(point_columns, line)):
            if value >= 0:
                positive |= 1 << bit
            if value <= 0:
                negative |= 1 << bit
        agree.append({1: positive, -1: negative})
        keeps.append(positive & negative)
    for keep in reversed(keeps[1:]):
        settled.append(settled[-1] & keep)
    settled.reverse()
    ranks = {}

    def spans(mask):
        if mask not in ranks:
            ranks[mask] = mask.bit_count() >= dim and matrix_rank(
                [point for bit, point in enumerate(points) if mask >> bit & 1]
            ) == dim
        return ranks[mask]

    regions = [((), tuple(map(sum, zip(*walls))) if walls else (0,) * dim, everything)]
    for index, (line, on_side, rest) in enumerate(zip(lines, agree, settled), 1):
        sides = {1: line, -1: tuple(-c for c in line)}
        refined = []
        for forms, witness, mask in regions:
            value = dot(line, witness)
            for sign in (-1, 1) if value < 0 else (1, -1):
                child = mask & on_side[sign]
                holds = sign * value > 0
                if child & rest or not (holds or spans(child)):
                    continue
                point = witness if holds else lp_feasible((), (*forms, sides[sign], *walls), dim)
                if point is None:
                    raise RuntimeError(
                        f"spanned probe at line {index} of {len(lines)} found no point; this is a bug"
                    )
                refined.append(((*forms, sides[sign]), point, child))
            if len(refined) > guard:
                raise ResourceGuardError(
                    f"cell enumeration by sign splitting exceeded the guard of {guard}"
                    f" regions at line {index} of {len(lines)}"
                )
        regions = refined
    return [primitive_vector(witness) for _, witness, _ in regions]


def _cells_localised_at_rays(normals, dim, guard, rays):
    """Cell witnesses in dimension >= 3, one local problem per ray. The
    `rays` must be exactly `arrangement_rays(normals, dim)`: the LP
    splitter reads which local regions are empty off them, so a missing ray
    can hide a cell.

    At a ray r keep the normals that vanish at r, and the coordinate walls
    x_i >= 0 with r_i = 0. They are forms on the quotient by r, which is the
    coordinate hyperplane ``x_j = 0`` for any j with r_j != 0, so dropping
    coordinate j gives the local system in dimension dim-1, a partial
    orthant. Being a ray, r is cut out by dim-1 independent constraints, so
    the local system has full rank dim-1 and is already essential. Its cells
    come from the planar sweep in local dimension 2 and from
    `_cell_witnesses_by_lp` above that. A local witness y (with 0 put back
    at coordinate j) lifts to ``K r + y``: a form f with f . r != 0 keeps
    the sign of f . r there once K |f . r| > |f . y|, which
    ``K = 1 + max(|f . y| // |f . r|)`` guarantees, and a form vanishing at
    r takes the sign f . y it has in the local cell. A wall x_i pairs to
    r_i and y_i, and every ray is paired with the normals once, by one
    `dot_rows`, and each local witness y once; K and the lift's signs
    ``K n . r + n . y > 0`` are read off those two rows. Lifts are
    deduplicated by that sign vector, and only a new one is made primitive,
    which keeps its signs.

    A cell takes its witness from the first ray of its closure, so in
    every dimension r is skipped, and builds no local system, when an
    earlier ray q that agrees in sign with r off r's zero set,
    ``(n . q)(n . r) >= 0`` for every normal n, vanishes on every local
    normal that cuts the partial orthant (`_wall_sign` 0). That q lies in
    the closure of every local cell at r, so every cell whose closure holds
    r holds an earlier ray; and the first ray of a cell's closure is never
    skipped, as its q would be an earlier ray of that closure. A local
    normal cuts exactly when n vanishes at r and has entries of both signs:
    a sign-definite n vanishing at r >= 0 has its support in r's zero set,
    so off coordinate j, on the local walls; and a mixed n whose local form
    is sign-definite has n_j of the other sign, so n . r = 0 puts a
    coordinate of its support off the walls. Both tests read three bitmasks
    over the rays per normal n, built once per call from the rows of
    pairings: the rays with n . q > 0, with n . q < 0 and with n . q = 0.
    The rays that disagree with r are one OR, over the normals with
    n . r != 0, of the mask of the side that r is not on, and the rays that
    agree are the rest, less r itself (one AND-NOT).

    The LP splitter gets, as its points, every agreeing ray q projected to
    ``r_j q - q_j r`` with coordinate j dropped, in `rays` order. That
    point pairs with each local normal n as ``r_j (n . q)`` does, r_j > 0,
    and its wall coordinates ``r_j q_i`` are non-negative, so it lies in
    the closure of a local region exactly when q's signs agree with the
    region's.

    * Spans. A non-empty local region holds a local cell, the local picture
      of a cell C whose closure holds r. The extreme rays of C's closure
      are arrangement rays that span R^dim (`arrangement_cells`), and each
      agrees in sign with r; their points lie in the closed local cell, so
      in the region's closure, and span the local space. So a region whose
      points do not span it is empty, and the splitter poses no LP for it.
    * Covered points. The earlier rays among them are covered. A local cell
      whose closure holds one lifts to a cell whose closure holds an
      earlier ray, which was found already. The regions left pose the same
      systems, so `by_signs` gets the same entries, witnesses and order.
    """
    columns = tuple(zip(*normals))
    rows = [dot_rows(columns, r) for r in rays]
    local_units = _unit_vectors(dim - 1)
    # above[k], below[k], on[k]: the rays on the positive side of normal k,
    # on its negative side, and on it; mixed[k]: whether k has entries of
    # both signs.
    above, below, on = ([0] * len(normals) for _ in range(3))
    for bit, row in enumerate(rows):
        for k, v in enumerate(row):
            if v > 0:
                above[k] |= 1 << bit
            elif v < 0:
                below[k] |= 1 << bit
            else:
                on[k] |= 1 << bit
    mixed = [min(n) < 0 < max(n) for n in normals]
    everything = (1 << len(rays)) - 1
    by_signs = {}
    for index, (r, at_r) in enumerate(zip(rays, rows)):
        disagree, cut_on = 1 << index, everything
        for k, v in enumerate(at_r):
            if v > 0:
                disagree |= below[k]
            elif v < 0:
                disagree |= above[k]
            elif mixed[k]:
                cut_on &= on[k]
        agree = everything & ~disagree
        earlier = agree & ((1 << index) - 1)
        if earlier & cut_on:
            continue
        stage = f"at ray {index + 1} of {len(rays)}"
        j = next(i for i, x in enumerate(r) if x != 0)
        local_normals = [n[:j] + n[j + 1:] for n, v in zip(normals, at_r) if v == 0]
        local_walls = [w for w, x in zip(local_units, r[:j] + r[j + 1:]) if x == 0]
        if dim == 3:
            local = _planar_cell_witnesses(local_normals, local_walls)
        else:
            points = []
            for bit, q in enumerate(rays):
                if agree >> bit & 1:
                    p = [r[j] * a - q[j] * b for a, b in zip(q, r)]
                    points.append((*p[:j], *p[j + 1:]))
            try:
                local = _cell_witnesses_by_lp(
                    local_normals, local_walls, dim - 1, guard, points, earlier.bit_count()
                )
            except ResourceGuardError as exc:
                raise ResourceGuardError(f"{exc}, in the local system {stage}") from exc
        for y in local:
            y = (*y[:j], 0, *y[j:])
            at_y = dot_rows(columns, y)
            k = 1 + max(abs(u) // abs(v) for u, v in zip((*at_y, *y), (*at_r, *r)) if v)
            signs = tuple(k * v + u > 0 for v, u in zip(at_r, at_y))
            if signs not in by_signs:
                by_signs[signs] = primitive_vector(tuple(k * a + b for a, b in zip(r, y)))
                if len(by_signs) > guard:
                    raise ResourceGuardError(
                        f"cell enumeration localised at rays exceeded the guard of {guard} cells {stage}"
                    )
    return list(by_signs.values())


def arrangement_cells(normals, rays, dim, guard=DEFAULT_CELL_GUARD):
    """One interior witness per full-dimensional cell of the arrangement
    restricted to the open non-negative orthant, as a sorted list of
    primitive integer points; every witness pairs strictly nonzero with
    every nonzero normal and has every coordinate positive. The normals
    must be integer vectors of length dim.

    Dimension 1 is the single cell (1,), and dimension 2 uses the exact
    angular sweep; neither reads `rays`. In dimension >= 3 the closure of
    every cell is a pointed cone whose extreme rays are arrangement rays, so
    every cell is found by localising at `rays`, which must be
    `arrangement_rays(normals, dim)` (`_cells_localised_at_rays`). The
    orthant's axes are always among them and no ray leaves the closed
    orthant, so `rays` missing an axis or holding a point outside it is an
    error; other subsets of the true rays are not detected, and a missing
    ray can hide a cell, since the LP splitter reads off the rays which
    local regions are empty."""
    normals = [tuple(n) for n in normals]
    _require_integers(normals, "arrangement_cells", "normals", dim)
    if dim == 0:
        return []
    nonzero = [n for n in normals if any(n)]
    if dim == 1:
        witnesses = [(1,)]
    elif dim == 2:
        witnesses = _planar_cell_witnesses(nonzero, _unit_vectors(2))
    else:
        points = set(rays)
        if any(len(point) != dim or min(point) < 0 for point in points):
            raise ValueError("cells got a ray outside the non-negative orthant")
        if not points.issuperset(_unit_vectors(dim)):
            raise ValueError(
                "cells in dimension >= 3 need the arrangement's rays, every coordinate axis among them"
            )
        witnesses = _cells_localised_at_rays(nonzero, dim, guard, rays)
    if len(witnesses) > guard:
        raise ResourceGuardError(
            f"cell enumeration exceeded the guard of {guard} cells with {len(witnesses)} found"
        )
    witnesses = sorted(witnesses)
    seen_sign_vectors = set()
    columns = tuple(zip(*nonzero))
    for point in witnesses:
        values = dot_rows(columns, point)
        if 0 in values or min(point) <= 0:
            raise RuntimeError("cell witness landed on a boundary; this is a bug")
        signature = tuple(v > 0 for v in values)
        if signature in seen_sign_vectors:
            raise RuntimeError("two witnesses describe the same cell; this is a bug")
        seen_sign_vectors.add(signature)
    return witnesses
