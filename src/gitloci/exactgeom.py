"""Exact linear algebra and central hyperplane-arrangement enumeration.

There is no floating point anywhere in this module. One search,
`rays_and_cells`, enumerates the rays (1-dimensional faces) and one
witness per full-dimensional open cell of a central arrangement of
hyperplanes ``{x : n . x = 0}`` restricted to the non-negative orthant
``{x : x_i >= 0 for every i}``, which is the fundamental chamber in
fundamental-coweight coordinates; its coordinate walls are built here.
`arrangement_rays` and `arrangement_cells` are its two halves. It takes a
non-negative int dim and integer normals of length dim only (a `ValueError`
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
are that step applied row by row. The search is double description over
the cone complex of the whole orthant (`_cone_complex`), in every
dimension and whether or not the cutting lines split the coordinates into
blocks. It starts from the orthant's axes and one cell, adds one line at a
time and keeps every cell as the set of its rays, the extreme rays of its
closure; a line splits only the cells it crosses, and the rays it adds
come from pairs of rays of one such cell that span a 2-face. A pair spans
one exactly when no other ray of the cell vanishes on every wall and line
that vanishes on both, read off the zero bitmasks the search keeps per
ray; that holds because every wall and line added so far is sign-definite
on the closure of each cell, whose rays are exactly its closure's extreme
rays. No rank is computed. A cell's witness is the primitive sum of its
rays, so no LP finds a cell.

The signs of many points against the rows of one matrix are read off
packed integers, and the packed format stays in this module: `_pack_columns`
packs each column into one integer with a biased field per row, at the
least field width that holds every entry and pairing of its points, and
the pack carries that width; `_sign_fields` gives each point's pairings
with every row at once by one multiply-add per nonzero coordinate, the
top bits of the fields marking the rows that pair >= 0 and, less one from
every field, > 0; and `_mask_rows` decodes such a mask into the rows it
selects. The search checks its witnesses this way against the cutting
lines, and `gitsolver` reads its states this way against the support.

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

from itertools import chain, compress, count, repeat
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


def _require_integers(rows, caller, dim, what="entries"):
    """Raise a ValueError naming `caller` unless dim is a non-negative int
    and every row is a vector of dim ints (bool included); the type check
    looks at each distinct entry type once."""
    if not isinstance(dim, int):
        raise ValueError(f"{caller} needs an integer dimension, got {dim!r}")
    if dim < 0:
        raise ValueError(f"{caller} needs a non-negative dimension, got {dim}")
    if not all(map(issubclass, set(map(type, chain.from_iterable(rows))), repeat(int))):
        raise ValueError(f"{caller} needs integer {what}")
    if any(len(row) != dim for row in rows):
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
    _require_integers((*weak, *strict), "lp_feasible", dim)
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
    if not pts:
        raise ValueError("zero_in_relative_interior needs at least one point")
    _require_integers(pts, "zero_in_relative_interior", len(pts[0]))
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


def _pack_columns(columns, points):
    """The columns of a matrix packed for `_sign_fields` over the points, at
    the fewest bytes per field, width, that hold strictly inside the bias
    2^(8 width - 1) every column entry and the bound
    sum_j |p_j| max|column j| on every pairing of a point p. Returns width,
    the bias in every field (top), 1 in every field (ones) and one integer
    per column, a field per entry in row order. `_sign_fields` reads the
    pack only for the points it was sized for."""
    length = len(columns[0]) if columns else 0
    bounds = [max(map(abs, column)) for column in columns]
    bound = max([*bounds, *(sum(abs(c) * b for c, b in zip(p, bounds)) for p in points)])
    width = bound.bit_length() // 8 + 1
    bias = 1 << (8 * width - 1)
    top = int.from_bytes(bias.to_bytes(width, "little") * length, "little")
    ones = int.from_bytes((1).to_bytes(width, "little") * length, "little")
    packed = [
        int.from_bytes(b"".join([(u + bias).to_bytes(width, "little") for u in column]), "little") - top
        for column in columns
    ]
    return width, top, ones, packed


def _sign_fields(pack, points):
    """For each point in turn, the masks (ge, gt) of the rows of a packed
    matrix that pair >= 0 and > 0 with it, as the top bits of their fields.

    The point's pairings with every row are one multiply-add per nonzero
    coordinate on the bias in every field. When every pairing lies in
    (-bias, bias), each biased field lies in [0, 2 bias) and no field
    carries into the next: its top bit is set exactly when its pairing is
    >= 0, and, less one, exactly when it is > 0. The masks are yielded one
    point at a time, so a caller holds no more of them than it keeps."""
    _, top, ones, packed = pack
    for point in points:
        fields = top
        for c, column in zip(point, packed):
            if c:
                fields += c * column
        yield fields & top, (fields - ones) & top


def _mask_rows(pack, mask):
    """The ascending rows that a `_sign_fields` mask of the pack selects:
    the fields whose top bit is set, read as the last byte of each field."""
    width, top = pack[:2]
    return tuple(compress(count(), mask.to_bytes(top.bit_length() // 8, "little")[width - 1 :: width]))


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
    _require_integers(rows, "kernel_basis", dim)
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
    dim = len(rows[0]) if rows else 0
    _require_integers(rows, "matrix_rank", dim)
    return dim - len(kernel_basis(rows, dim))


def _cone_complex(cutting, dim, guard):
    """The rays and cells of the distinct cutting lines `cutting` and the
    walls of the non-negative orthant, in dimension dim >= 1, built one line
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
    ``(H . r) s - (H . s) r``, made primitive.

    Which pairs span a 2-face is read off the cell alone (the combinatorial
    adjacency test of Fukuda and Prodon). Each ray keeps the bitmask of its
    zeros over the constraints (the walls, then the lines) added so far, and
    every one of them is sign-definite on C's closure, since no constraint
    added so far crosses C. So the smallest face of the closure holding r
    and s is where the constraints of ``common = zeros[r] & zeros[s]``
    vanish, and its extreme rays are the rays t of C with ``zeros[t]``
    holding all of common; that needs C's tuple to be exactly its closure's
    extreme rays. The face is 2-dimensional exactly when those are r and s
    alone, so the pair spans a 2-face unless some other ray of C has every
    zero of common. Whether it does agrees with whether the constraints of
    common have rank dim - 2, which does not depend on the cell. A 2-face
    holds one ray on H, and every cell whose closure holds the face holds
    that ray, so each pair builds its ray once per line and the cells
    sharing the face share it.

    With no cutting line that is all there is, whatever the dimension, and
    a split arrangement needs no more than this: the cells of a product of
    orthants are the products of their cells, and a line of one factor
    splits each cell of the product along that factor alone.

    `guard` bounds the cells: the starting cell, or a line that leaves
    more, raises a `ResourceGuardError` that names the line (0 for the
    starting complex) and the cells so far.
    """
    points = _unit_vectors(dim)
    zeros = [((1 << dim) - 1) ^ (1 << i) for i in range(dim)]
    cells = [tuple(range(dim))]

    def check_guard(done):
        if len(cells) > guard:
            raise ResourceGuardError(
                f"ray and cell search exceeded the guard of {guard} cells,"
                f" with {len(cells)} cells at line {done} of {len(cutting)}"
            )

    check_guard(0)
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
                        if not any(zeros[t] & common == common for t in cell if t != r and t != s):
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
        check_guard(index + 1)
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
    made distinct lines and searched by `_cone_complex` in the whole
    orthant, and each cell's witness is the primitive sum of its rays.
    Every witness is checked to pair strictly nonzero with every nonzero
    normal and to have every coordinate positive, and no two to share a
    sign vector; the check reads one witness's signs on the cutting lines
    at a time (`_sign_fields`)."""
    normals = [tuple(n) for n in normals]
    _require_integers(normals, caller, dim, "normals")
    if dim == 0:
        return [], []
    cutting = _dedupe_lines([n for n in normals if min(n) < 0 < max(n)])
    points, cells = _cone_complex(cutting, dim, guard)
    witnesses = sorted(primitive_vector(tuple(map(sum, zip(*map(points.__getitem__, cell))))) for cell in cells)
    del cells  # freed before the check, which keeps one mask per witness
    # A witness is off every cutting line when its >= 0 and > 0 masks agree,
    # and then two witnesses share a sign vector when they share a > 0 mask.
    # A sign-definite normal is nonzero on the open orthant and takes one
    # sign on every cell there.
    pack = _pack_columns(list(zip(*cutting)), witnesses)
    seen_sign_vectors = set()
    for point, (ge, gt) in zip(witnesses, _sign_fields(pack, witnesses)):
        if min(point) <= 0 or ge != gt:
            raise RuntimeError("cell witness landed on a boundary; this is a bug")
        if gt in seen_sign_vectors:
            raise RuntimeError("two witnesses describe the same cell; this is a bug")
        seen_sign_vectors.add(gt)
    return sorted(points), witnesses


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

    The rays come from one double description search over the whole
    orthant (`_cone_complex`), which builds the cells with the rays: it
    pairs only rays of one cell, where a rays-only search must find the
    conformal pairs among all the rays on the two sides of each line (E6
    ``2,0,0,0,0,0``: about 0.24 s for its rays and cells, against 1.4 s for
    its rays alone that way; on a 2-vCPU host). The search
    starts from the axes, so an orthant that no normal cuts has its axes
    as its rays.

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

    The search builds its own rays, so `rays` is only checked: it must be
    `arrangement_rays(normals, dim)`, and in every dimension a point
    outside the orthant or a missing axis is a `ValueError`. `guard`
    bounds the cells the search holds at its start and after each line.
    """
    normals = [tuple(n) for n in normals]
    _require_integers(normals, "arrangement_cells", dim, "normals")
    points = set(rays)
    if any(len(point) != dim or min(point, default=0) < 0 for point in points):
        raise ValueError("cells got a ray outside the non-negative orthant")
    if not points.issuperset(_unit_vectors(dim)):
        raise ValueError("cells need the arrangement's rays, every coordinate axis among them")
    return _rays_and_cells(normals, dim, guard, "arrangement_cells")[1]
