"""Independent reference computations used to check the package.

Everything here is deliberately written from first principles with its own
arithmetic (plain Gaussian elimination over Fraction, subset enumeration)
rather than calling into the package, so that a bug in the library cannot
hide behind the same bug in the test.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, compress, product, repeat
from math import gcd, lcm


def type_a_monomial_support(rank, degree):
    """Weights of degree-`degree` monomials in rank+1 variables, as
    fundamental-weight coefficient tuples.

    A monomial x_0^{e_0} * ... * x_r^{e_r} with e summing to `degree` has
    weight (e_0 - e_1, e_1 - e_2, ..., e_{r-1} - e_r) in the fundamental
    basis.  The set of these exponent vectors is exactly the weight support
    of the degree-`degree` symmetric power of the defining representation.
    """
    n = rank + 1
    out = set()

    def fill(prefix, remaining):
        if len(prefix) == n - 1:
            exps = prefix + (remaining,)
            out.add(tuple(exps[i] - exps[i + 1] for i in range(rank)))
            return
        for e in range(remaining + 1):
            fill(prefix + (e,), remaining - e)

    fill((), degree)
    return out


def b2_ball_support(degree):
    """Weight support of the B2 representation with highest weight
    `degree` times the first fundamental weight, as fundamental coefficients.

    In Euclidean coordinates the first fundamental weight is (1, 0), the
    root lattice is all of Z^2, and a dominant weight (m1, m2) lies under
    (degree, 0) exactly when m1 + m2 <= degree.  Taking Weyl images (signed
    coordinate swaps) the support is the integer L1 ball of radius `degree`.
    The Euclidean-to-fundamental change of basis is (x1, x2) ->
    (x1 - x2, 2 * x2).
    """
    out = set()
    for x1 in range(-degree, degree + 1):
        budget = degree - abs(x1)
        for x2 in range(-budget, budget + 1):
            out.add((x1 - x2, 2 * x2))
    return out


def _solve_exact(rows, rhs):
    """Solve rows * x = rhs over Fraction.  Returns one solution or None.

    Plain Gauss-Jordan; free variables are set to zero.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scale = aug[r][c]
        aug[r] = [v / scale for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_index, c in enumerate(pivots):
        x[c] = aug[row_index][n]
    return x


def saturated_support_oracle(cartan, hw_coeffs):
    """The weight support of the irreducible module with dominant highest
    weight `hw_coeffs`, as a set of fundamental-coefficient tuples, by the
    saturation test alone.

    A weight mu belongs to the support exactly when its dominant
    representative delta satisfies hw - delta = sum k_j alpha_j with every
    k_j a non-negative integer. The support is connected through
    simple-root subtractions from hw, so a breadth-first descent that keeps
    the candidates passing the test finds all of it. Column j of the Cartan
    matrix is alpha_j in fundamental-weight coordinates, so the k_j solve
    ``cartan k = hw - delta``; dominant representatives come from
    reflecting any negative coordinate, ``s_i(c)[j] = c[j] - c[i] *
    cartan[j][i]``, until none is left.
    """
    n = len(cartan)
    verdicts = {}

    def dominant(coeffs):
        current = list(coeffs)
        while True:
            i = next((k for k, c in enumerate(current) if c < 0), None)
            if i is None:
                return tuple(current)
            ci = current[i]
            current = [current[j] - ci * cartan[j][i] for j in range(n)]

    def member(coeffs):
        delta = dominant(coeffs)
        if delta not in verdicts:
            k = _solve_exact(cartan, [h - d for h, d in zip(hw_coeffs, delta)])
            verdicts[delta] = k is not None and all(x >= 0 and x.denominator == 1 for x in k)
        return verdicts[delta]

    roots = [tuple(cartan[i][j] for i in range(n)) for j in range(n)]
    seen = {tuple(hw_coeffs)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for coeffs in frontier:
            for alpha in roots:
                cand = tuple(c - a for c, a in zip(coeffs, alpha))
                if cand not in seen and member(cand):
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def _euclidean_simple_roots(letter, rank):
    """Simple roots of types A-D and F4 in the classical Euclidean
    coordinates of Bourbaki's plates."""
    if letter == "F":
        half = Fraction(1, 2)
        return [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (half, -half, -half, -half)]
    n = rank + 1 if letter == "A" else rank
    roots = []
    for i in range(rank if letter == "A" else rank - 1):
        row = [0] * n
        row[i], row[i + 1] = 1, -1
        roots.append(row)
    if letter != "A":
        last = [0] * n
        if letter == "B":
            last[-1] = 1
        elif letter == "C":
            last[-1] = 2
        else:
            last[-2], last[-1] = 1, 1
        roots.append(last)
    return roots


# Bourbaki's E diagrams: the chain 1-3-4-...-r with node 2 joined to node 4.
_E_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def cartan_oracle(letter, rank):
    """The Cartan matrix 2 (a_i, a_j) / (a_i, a_i): from Euclidean simple
    roots for A-D and F4, from the E edges, and by hand for G2 (long root
    first)."""
    if letter == "G":
        return ((2, -1), (-3, 2))
    if letter == "E":
        edges = {frozenset(e) for e in _E_EDGES if max(e) <= rank}
        return tuple(
            tuple(2 if i == j else -int(frozenset((i + 1, j + 1)) in edges) for j in range(rank))
            for i in range(rank)
        )
    roots = _euclidean_simple_roots(letter, rank)
    out = []
    for a in roots:
        norm = sum(Fraction(x) ** 2 for x in a)
        row = [2 * sum(Fraction(x) * y for x, y in zip(a, b)) / norm for b in roots]
        assert all(v.denominator == 1 for v in row)
        out.append(tuple(int(v) for v in row))
    return tuple(out)


def matmul(a, b):
    """The integer matrix product a b."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def weyl_elements_by_matmul(cartan):
    """Every Weyl group element as its pair (weight matrix, coweight matrix),
    breadth first from the identity over left products with the generator
    matrices, in the order reached. Generator i sends the unit vector e_k to
    ``e_k - [k == i] * cartan[.][i]`` on the weight side and to
    ``e_k - [k == i] * cartan[i][.]`` on the coweight side."""
    rank = len(cartan)
    identity = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    generators = [
        tuple(tuple(identity[j][k] - (k == i) * cartan[j][i] for k in range(rank)) for j in range(rank))
        for i in range(rank)
    ]
    cogenerators = [
        tuple(tuple(identity[j][k] - (k == i) * cartan[i][j] for k in range(rank)) for j in range(rank))
        for i in range(rank)
    ]
    elements = {identity: (identity, identity)}
    frontier = [elements[identity]]
    while frontier:
        nxt = []
        for element in frontier:
            for s_weight, s_coweight in zip(generators, cogenerators):
                weight_matrix = matmul(s_weight, element[0])
                if weight_matrix in elements:
                    continue
                new_element = (weight_matrix, matmul(s_coweight, element[1]))
                elements[weight_matrix] = new_element
                nxt.append(new_element)
        frontier = nxt
    return tuple(elements.values())


def pairing_oracle(cartan, weight_coeffs, coweight_coeffs):
    """<chi, lam> as a Fraction, from the Cartan matrix alone.

    Row i of the Cartan matrix is the simple coroot alpha_i^vee in
    fundamental-coweight coordinates, so the simple-coroot expansion x of lam
    solves sum_i x_i * cartan[i] = lam. The fundamental weights are dual to
    the simple coroots, so <chi, lam> = sum_i chi_i * x_i.
    """
    n = len(cartan)
    columns = [[cartan[i][j] for i in range(n)] for j in range(n)]
    x = _solve_exact(columns, coweight_coeffs)
    return sum((Fraction(c) * v for c, v in zip(weight_coeffs, x)), Fraction(0))


def _rank_exact(rows):
    if not rows:
        return 0
    work = [[Fraction(v) for v in row] for row in rows]
    n = len(work[0])
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c] / work[r][c]
                work[i] = [v - factor * w for v, w in zip(work[i], work[r])]
        r += 1
    return r


def _zero_in_hull(points, dim_hull):
    """Caratheodory check: 0 is a convex combination of some affinely
    independent subset of at most dim_hull + 1 points."""
    for size in range(1, dim_hull + 2):
        for subset in combinations(points, size):
            # Solve sum t_i p_i = 0 with sum t_i = 1; uniqueness is not
            # needed, any solution with t >= 0 certifies membership.
            columns = list(zip(*subset))
            rows = [list(col) for col in columns]
            rows.append([1] * size)
            rhs = [0] * len(columns) + [1]
            t = _solve_exact(rows, rhs)
            if t is not None and all(v >= 0 for v in t):
                return True
    return False


def zero_in_relative_interior_oracle(points):
    """Whether the origin lies in the relative interior of the convex hull.

    Method: membership in the hull by Caratheodory subset enumeration,
    then rejection if the origin lies on a proper face.  A proper face
    through the origin is always contained in a facet whose span is a
    hyperplane (within the span of the points) spanned by input points,
    so it suffices to test every such hyperplane for one-sidedness.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    pts = sorted(set(pts))
    k = _rank_exact(pts)
    if k == 0:
        return True
    if not _zero_in_hull(pts, k):
        return False
    dim = len(pts[0])
    basis = _independent_rows(pts, k)
    for subset in combinations(pts, k - 1):
        if subset and _rank_exact(list(subset)) != k - 1:
            continue
        # A normal within span(pts) orthogonal to the subset: u = B^T c
        # where B rows form a basis of span(pts) and (S B^T) c = 0.
        system = [[sum(Fraction(s[j]) * b[j] for j in range(dim)) for b in basis] for s in subset]
        c = _kernel_vector(system, k)
        if c is None:
            continue
        u = [sum(c[i] * basis[i][j] for i in range(k)) for j in range(dim)]
        sides = [sum(ui * pi for ui, pi in zip(u, p)) for p in pts]
        if all(s <= 0 for s in sides) and any(s < 0 for s in sides):
            return False
        if all(s >= 0 for s in sides) and any(s > 0 for s in sides):
            return False
    return True


def pairing_functionals(cartan, weight_rows):
    """For each weight chi, the vector u with u . lam = <chi, lam> for every
    lam in fundamental-coweight coordinates: u solves cartan * u = chi, which
    is `pairing_oracle` read as a linear form in lam."""
    return [tuple(_solve_exact(cartan, chi)) for chi in weight_rows]


def weyl_set_orbit_oracle(cartan, coeff_set):
    """Every image of a set of weights (fundamental-coefficient tuples)
    under the Weyl group, as frozensets, by closing the set under the
    simple reflections ``s_i(c)[j] = c[j] - c[i] * cartan[j][i]``."""
    n = len(cartan)

    def reflect(c, i):
        return tuple(c[j] - c[i] * cartan[j][i] for j in range(n))

    start = frozenset(coeff_set)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for i in range(n):
                image = frozenset(reflect(c, i) for c in current)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


def torus_verdict_oracle(cartan, weight_rows, box=3):
    """The torus Hilbert-Mumford verdict of a point with the given weight
    support, from the hull of its pairing functionals u.

    "T-unstable" when 0 is not in the convex hull of the u (then some lam
    pairs > 0 with all of them), "T-stable" when 0 is interior to it (the u
    have full rank and 0 is in their relative interior), and
    "T-non-stable-semistable" otherwise. A lam with every pairing > 0 in the
    integer box [-box, box]^rank settles instability at once; only when
    there is none does the Caratheodory enumeration of `_zero_in_hull`
    decide it.
    """
    rank = len(cartan)
    points = sorted(set(pairing_functionals(cartan, weight_rows)))
    for lam in product(range(-box, box + 1), repeat=rank):
        if all(sum(a * b for a, b in zip(u, lam)) > 0 for u in points):
            return "T-unstable"
    k = _rank_exact(points)
    if not _zero_in_hull(points, k):
        return "T-unstable"
    if k == rank and zero_in_relative_interior_oracle(points):
        return "T-stable"
    return "T-non-stable-semistable"


def instability_first_classify_torus(problem, point_support):
    """`gitsolver.classify_torus` as it was before it posed the balanced
    system first: the strict system decides instability, then the balanced
    system (or the kernel) gives the semistable certificate. Unlike the rest
    of this module it runs on the package's own LP and loci, because what it
    pins is the order of the LPs, not their arithmetic: the classification
    must not change with that order."""
    from gitloci.exactgeom import kernel_basis, lp_feasible
    from gitloci.gitsolver import TorusClassification, _sorted_maximal, _support_indices
    from gitloci.rootdata import OneParameterSubgroup, _chamber_word, reflect_coweight_coeffs

    indices = _support_indices(problem, point_support, "classify_torus")
    group = problem.group
    rank = group.rank
    vectors = [problem._pairing_vectors[i] for i in indices]
    lam = lp_feasible((), vectors, rank)
    if lam is not None:
        verdict, mode = "T-unstable", ">0"
    else:
        verdict, mode = "T-non-stable-semistable", ">=0"
        lam = lp_feasible(vectors, [tuple(map(sum, zip(*vectors)))], rank)
        if lam is None:
            kernel = kernel_basis(vectors, rank)
            if not kernel:
                return TorusClassification(verdict="T-stable", certificate=None)
            lam = kernel[0]
    cartan = group.cartan
    word = _chamber_word(cartan, lam, reflect_coweight_coeffs)[1]
    target = set(indices)
    for i in word:
        target = set(map(problem.reflections[i].__getitem__, target))
    for state, point in _sorted_maximal(problem, mode):
        if target.issubset(state):
            for i in reversed(word):
                point = reflect_coweight_coeffs(cartan, point, i)
            certificate = OneParameterSubgroup(group, point).primitive()
            return TorusClassification(verdict=verdict, certificate=certificate)
    raise RuntimeError(
        f"no maximal {mode} chamber state contains the reflected support of a"
        f" {verdict} point; the loci are incomplete, which is a bug"
    )


def _bland_phase_one(rows, rhs):
    """Some z >= 0 with rows * z = rhs (rhs >= 0), or None, by a textbook
    phase-one simplex over Fraction: one artificial column per row, Bland's
    rule on both the entering and the leaving choice."""
    m, n = len(rows), len(rows[0])
    width = n + m
    tableau = [
        [Fraction(v) for v in rows[i]] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(rhs[i])]
        for i in range(m)
    ]
    basis = list(range(n, width))
    while True:
        entering = None
        for j in range(width):
            reduced = int(j >= n) - sum(tableau[i][j] for i in range(m) if basis[i] >= n)
            if reduced < 0:
                entering = j
                break
        if entering is None:
            break
        leaving, best = None, None
        for i in range(m):
            if tableau[i][entering] > 0:
                ratio = tableau[i][width] / tableau[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    leaving, best = i, ratio
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[leaving])]
        basis[leaving] = entering
    if any(tableau[i][width] != 0 for i in range(m) if basis[i] >= n):
        return None
    z = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = tableau[i][width]
    return z


def tableau_phase_one(rows, rhs):
    """Decide whether A z = b (b >= 0) has a solution z >= 0 by a phase-one
    simplex, on integer rows of A and integer b.

    Returns None when there is one, and otherwise a Farkas certificate: an
    integer tuple y with ``y . A_j >= 0`` for every column A_j and
    ``y . b < 0``, read off the phase-one duals. Rows of ``[A | b]`` that
    are all zero say nothing and are dropped; their certificate entry is 0.
    A negative entry of b would leave the artificial basis infeasible, so it
    is rejected.

    With B the current basis the tableau is ``det(B) B^-1 [A | I | b]``
    under a reduced-cost row ``det(B) (c - c_B B^-1 [A | I | b])``, c being
    1 on the artificials. A pivot on p then updates every other entry as
    ``(p a - f b) // d``, d the previous pivot, and the division is exact
    (Bareiss); the ratio test cross-multiplies. Bland's rule on both the
    entering and the leaving choice guarantees termination without any
    degeneracy handling; only columns of A enter.

    When no column of A has a negative reduced cost the duals
    ``pi = c_B B^-1`` pair non-positively with every column of A, and
    ``pi . b`` is the artificials' total. If that is positive,
    ``y = -det(B) pi`` is the certificate.
    """
    if any(b < 0 for b in rhs):
        raise ValueError("phase-one simplex needs a non-negative right-hand side")
    n = len(rows[0]) if rows else 0
    kept = [i for i, (row, b) in enumerate(zip(rows, rhs)) if b or any(row)]
    m = len(kept)
    width = n + m
    tableau = [
        [*rows[i], *(1 if k == j else 0 for j in range(m)), rhs[i]] for k, i in enumerate(kept)
    ]
    cost = [-sum(row[j] for row in tableau) for j in range(width + 1)]
    cost[n:width] = [0] * m
    tableau.append(cost)
    basis = list(range(n, width))
    det = 1
    while True:
        cost = tableau[m]
        entering = next((j for j in range(n) if cost[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = tableau[i][width] * tableau[leaving][entering]
                best = tableau[leaving][width] * a
                if lhs < best or (lhs == best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise RuntimeError("phase-one simplex unbounded; this is a bug")
        pivot_row = tableau[leaving]
        p = pivot_row[entering]
        for i in range(m + 1):
            if i != leaving:
                f = tableau[i][entering]
                tableau[i] = [(p * a - f * b) // det for a, b in zip(tableau[i], pivot_row)]
        det = p
        basis[leaving] = entering
    cost = tableau[m]
    if not cost[width]:
        return None
    y = [0] * len(rows)
    for k, i in enumerate(kept):
        y[i] = cost[n + k] - det
    return tuple(y)


def primal_lp_reference(equalities, weak, strict, dim):
    """Some x with e.x = 0, w.x >= 0 and s.x > 0 for the given forms, or None.

    The primal formulation: the system is homogeneous, so s.x > 0 may be
    rescaled to s.x >= 1; x is split as x+ - x- with both halves
    non-negative, and every inequality gets its own surplus column, which
    gives one row per form over 2 dim + (weak + strict) columns for
    `_bland_phase_one`.
    """
    forms = [*equalities, *weak, *strict]
    inequalities = range(len(equalities), len(forms))
    first_strict = len(forms) - len(strict)
    rows, rhs = [], []
    for k, row in enumerate(forms):
        row = [Fraction(v) for v in row]
        rows.append(row + [-v for v in row] + [Fraction(-int(k == s)) for s in inequalities])
        rhs.append(int(k >= first_strict))
    if not rows:
        return (Fraction(0),) * dim
    z = _bland_phase_one(rows, rhs)
    if z is None:
        return None
    return tuple(z[i] - z[dim + i] for i in range(dim))


def lp_relint_reference(points):
    """Whether the origin lies in the relative interior, by the package's
    former formulation: "0 is a strictly positive combination of all the
    points" posed to `primal_lp_reference` as equalities over one variable
    per point with a strict inequality per variable. It shares no simplex
    with the package, and checks the rank-row formulation of
    `zero_in_relative_interior` on point sets too large for the subset
    oracle above.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    n = len(pts)
    equalities = [[p[k] for p in pts] for k in range(len(pts[0]))]
    stricts = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return primal_lp_reference(equalities, (), stricts, n) is not None


def _independent_rows(rows, target_rank):
    chosen = []
    for row in rows:
        if _rank_exact(chosen + [list(row)]) > len(chosen):
            chosen.append(list(row))
        if len(chosen) == target_rank:
            return chosen
    return chosen


def _kernel_vector(rows, n):
    """One nonzero solution of rows * c = 0 in n unknowns, or None."""
    if not rows:
        out = [Fraction(0)] * n
        out[0] = Fraction(1)
        return out
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        scale = work[r][c]
        work[r] = [v / scale for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [v - factor * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    out = [Fraction(0)] * n
    out[free[0]] = Fraction(1)
    for row_index, c in enumerate(pivots):
        out[c] = -work[row_index][free[0]]
    return out


def sign_vector(point, functionals):
    """Tuple of -1/0/+1 signs of the point against each functional."""
    signs = []
    for f in functionals:
        value = sum(a * b for a, b in zip(f, point))
        signs.append((value > 0) - (value < 0))
    return tuple(signs)


def zero_set(normals, point):
    """The indices of the nonzero normals that vanish at the point: the
    hyperplanes of the arrangement that contain it."""
    return frozenset(
        i
        for i, n in enumerate(normals)
        if any(v != 0 for v in n) and sum(a * b for a, b in zip(n, point)) == 0
    )


def primitive_direction(vector):
    """gcd-reduced integer direction of a rational vector, for comparing
    witnesses up to positive scale."""
    fracs = [Fraction(v) for v in vector]
    if all(v == 0 for v in fracs):
        raise ValueError("zero vector has no direction")
    scale = 1
    for v in fracs:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [int(v * scale) for v in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return tuple(v // g for v in ints)


def subset_rref_rays(normals, chamber, dim):
    """Rays of the arrangement in the chamber, by brute force over subsets.

    Every (dim-1)-subset of the distinct constraint lines (normals and
    chamber walls, each up to sign) of rank dim-1 has a kernel line; both of
    its primitive directions that lie in the chamber are rays. Returns the
    sorted list of (point, zero set) pairs, where the zero set holds the
    indices of the nonzero normals that vanish at the point.
    """
    lines = []
    for row in (*normals, *chamber):
        if any(Fraction(v) != 0 for v in row):
            direction = primitive_direction(row)
            if direction not in lines and tuple(-v for v in direction) not in lines:
                lines.append(direction)
    found = set()
    for subset in combinations(lines, dim - 1):
        if _rank_exact(list(subset)) != dim - 1:
            continue
        kernel = primitive_direction(_kernel_vector(list(subset), dim))
        for point in (kernel, tuple(-v for v in kernel)):
            if all(sum(c * p for c, p in zip(wall, point)) >= 0 for wall in chamber):
                found.add(point)
    return [
        (
            point,
            frozenset(
                i
                for i, n in enumerate(normals)
                if any(v != 0 for v in n) and sum(a * b for a, b in zip(n, point)) == 0
            ),
        )
        for point in sorted(found)
    ]


def _eliminated_pairings(row, step):
    """A line's pairings with the basis after an `exactgeom._eliminate` step,
    from its pairings `row` with the basis before it: the rule the ray walk
    applies inline to its pairing table, row by row. Each division is exact,
    since g divides every entry of the vector it reduced."""
    pivot, p, kept = step
    rp = row[pivot]
    return [(p * row[k] - v * rp) // g if v else row[k] for k, v, g in kept]


def cleared_denominators(vector):
    """The rational vector times the lcm of its entries' denominators: an
    integer vector on the same ray, so every sign it takes against a point
    is kept (the zero vector stays zero)."""
    fracs = [Fraction(x) for x in vector]
    scale = lcm(*(x.denominator for x in fracs))
    return tuple(int(x * scale) for x in fracs)


def _primitive_oracle(vector):
    """The primitive integer vector on the ray of a nonzero rational vector."""
    fracs = [Fraction(x) for x in vector]
    scale = 1
    for x in fracs:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def structured_report_reference(solution, loci, display):
    """The `--format json-like` report as the CLI used to write it: the whole
    tree of dicts, the state dicts included, through one
    ``json.dumps(indent=2, sort_keys=True)``. It checks the layout of the
    CLI's fragment emitter, so the coordinate choices come from the same
    display object (its `weight` and `witness` methods and its representation
    name); only the coweight witness is made primitive here.
    """
    fields = {"nonstable": "nonstable", "unstable": "unstable", "polystable": "strictly_polystable"}
    group = solution.group

    def state_document(state):
        witness = {"coweight": list(_primitive_oracle(state.witness.coeffs))}
        if group.dynkin.letter == "A":
            witness["H"] = list(display.witness(state.witness))
        return {
            "size": len(state.weights),
            "weights": [list(display.weight(w)) for w in state.weights],
            "witness": witness,
        }

    representation = {
        "source": "highest-weight" if display.highest is not None else "weights-file",
        "display": display.representation_name(solution.support),
        "highest_weight_fundamental": (
            list(display.highest.coeffs) if display.highest is not None else None
        ),
    }
    if display.use_l_coords:
        representation["highest_weight_L"] = list(display.highest_l)
    doc = {
        "format": "gitloci/1",
        "group": {"letter": group.dynkin.letter, "rank": group.rank, "name": group.name},
        "options": {"weyl_optimisation": solution.weyl_optimisation},
        "representation": representation,
        "support_size": len(solution.support),
        "weight_coords": display.weight_coords,
        "loci": {
            locus: {
                "count": len(getattr(solution, fields[locus])),
                "states": [state_document(s) for s in getattr(solution, fields[locus])],
            }
            for locus in loci
        },
        "warnings": list(group.warnings),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# `exactgeom`'s ray walk over every flat and its planar cell sweep, with the
# sign test they share, as they were before the double description search
# over the cone complex replaced them. They stay as independent references
# for that search's rays and cells.


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
    from gitloci.exactgeom import _eliminate, _unit_vectors

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
    from gitloci.exactgeom import _dedupe_lines, primitive_vector

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


def unpruned_cell_witnesses_by_lp(normals, walls, dim, guard):
    """`exactgeom._cell_witnesses_by_lp` as it was before it dropped the
    regions that a covered point already accounts for: every region is
    split and probed. Like `instability_first_classify_torus` it runs on the
    package's own LP, looked up when called, so a test that wraps
    `exactgeom.lp_feasible` counts its probes too.

    Cell witnesses strictly inside `walls` by incremental sign splitting
    with feasibility probes.

    Regions of the arrangement of the first k lines are refined one line at a
    time. A region carries its witness and its signed forms, each line so
    far times its sign there; the side of the new line already containing
    the witness is kept for free, and only the far side costs one
    feasibility check, of the region's forms, that side of the line and the
    walls. A line that does not cut the open partial orthant (`_wall_sign`
    nonzero) has that sign on every region, so each region takes it with no
    probe. The line still joins the forms of later probes, so they are the
    systems, and give the witnesses, that a failed probe of it would have
    left. The walls must be distinct unit vectors, so the seed region, the
    whole partial orthant, is witnessed by their sum (the indicator of the
    wall coordinates; the zero vector when there are none) with no LP.
    """
    from gitloci.errors import ResourceGuardError
    from gitloci.exactgeom import _dedupe_lines, dot, lp_feasible, primitive_vector

    lines = _dedupe_lines(normals)
    walled = {i for wall in walls for i, x in enumerate(wall) if x}
    regions = [((), tuple(map(sum, zip(*walls))) if walls else (0,) * dim)]
    for index, line in enumerate(lines, 1):
        sides = {1: line, -1: tuple(-c for c in line)}
        known = _wall_sign(line, walled)
        if known:
            regions = [((*forms, sides[known]), witness) for forms, witness in regions]
            continue
        refined = []
        for forms, witness in regions:
            value = dot(line, witness)
            probes = (1, -1)
            if value:
                kept = 1 if value > 0 else -1
                refined.append(((*forms, sides[kept]), witness))
                probes = (-kept,)
            for sign in probes:
                point = lp_feasible((), (*forms, sides[sign], *walls), dim)
                if point is not None:
                    refined.append(((*forms, sides[sign]), point))
            if len(refined) > guard:
                raise ResourceGuardError(
                    f"cell enumeration by sign splitting exceeded the guard of {guard}"
                    f" regions at line {index} of {len(lines)}"
                )
        regions = refined
    return [primitive_vector(witness) for _, witness in regions]



def unpruned_cells_localised_at_rays(normals, dim, guard, rays):
    """`exactgeom._cells_localised_at_rays` as it was before it passed the
    earlier rays to the LP splitter: each cell is found again at every ray
    in its closure and every sighting but the first is dropped as a
    duplicate sign vector. It splits with `unpruned_cell_witnesses_by_lp`.

    Cell witnesses in dimension >= 3, one local problem per ray.

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
    r_i and y_i, and r and y are each paired with the normals once, by one
    `dot_rows`; K and the lift's signs ``K n . r + n . y > 0`` are read off
    those two rows. Lifts are deduplicated by that sign vector, and only a
    new one is made primitive, which keeps its signs.
    """
    from gitloci.errors import ResourceGuardError
    from gitloci.exactgeom import _unit_vectors, dot_rows, primitive_vector

    columns = tuple(zip(*normals))
    by_signs = {}
    for index, r in enumerate(rays, 1):
        stage = f"at ray {index} of {len(rays)}"
        j = next(i for i, x in enumerate(r) if x != 0)
        at_r = dot_rows(columns, r)
        local_normals = [n[:j] + n[j + 1:] for n, v in zip(normals, at_r) if v == 0]
        local_walls = [w for w, x in zip(_unit_vectors(dim - 1), r[:j] + r[j + 1:]) if x == 0]
        if dim == 3:
            local = _planar_cell_witnesses(local_normals, local_walls)
        else:
            try:
                local = unpruned_cell_witnesses_by_lp(local_normals, local_walls, dim - 1, guard)
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


def unsplit_arrangement_rays(normals, dim):
    """`exactgeom.arrangement_rays` as it was before it split the
    coordinates into blocks: one walk over every flat of the mixed-sign
    normals and all the walls in the full dimension.

    Rays (1-dimensional intersection faces) of the arrangement in the
    non-negative orthant, as the sorted list of their primitive integer
    points. The normals must be integer vectors of length dim.

    A ray is the kernel line of a rank-(dim-1) flat spanned by constraints
    drawn from the normals and the coordinate walls together, oriented into
    the orthant. Only the normals that cut the open orthant (`_wall_sign`
    0: entries of both signs) enter the walk. A sign-definite normal n
    leaves the faces in the closed orthant as they are: there n . x = 0
    exactly when x vanishes on the support of n, which the walls already
    say, so every sign class, and hence every ray, is the same set with or
    without n. In fundamental-coweight coordinates a weight's pairing
    vector is its simple-root expansion, so the weights in plus or minus
    the positive root cone are sign-definite, and an adjoint arrangement
    keeps no normal at all. The walk is `_flat_walk` over those normals
    and the walls. A caller that needs the normals vanishing at a ray pairs
    them with its point.
    """
    from gitloci.exactgeom import _dedupe_lines, _require_integers

    if dim <= 0:
        return []
    normals = [tuple(n) for n in normals]
    _require_integers(normals, "arrangement_rays", "normals", dim)
    if dim == 1:
        return [(1,)]
    walled = range(dim)
    return sorted(_flat_walk(_dedupe_lines([n for n in normals if any(n) and not _wall_sign(n, walled)]), dim))


def per_pair_reflection_table(group, weights, index):
    """`repsupport._reflection_table` as it was written before the packed
    integer keys: one reflected tuple and one `index` lookup per (weight,
    reflection), weight-major."""
    from gitloci.errors import ParseError
    from gitloci.rootdata import reflect_weight_coeffs

    for previous, w in zip(weights, weights[1:]):
        if previous.coeffs >= w.coeffs:
            raise ParseError(
                f"support is not strictly sorted: weight {w.coeffs} follows {previous.coeffs}"
            )
    table = [[] for _ in range(group.rank)]
    for w in weights:
        for i, column in enumerate(table):
            image = reflect_weight_coeffs(group.cartan, w.coeffs, i)
            if image not in index:
                raise ParseError(
                    f"support is not closed under the Weyl group: reflection {i + 1}"
                    f" maps {w.coeffs} to {image}, which is missing"
                )
            column.append(index[image])
    return tuple(map(tuple, table))


def _integer_direction(v):
    """The primitive integer vector spanning the same line as the nonzero
    integer vector v, with its first nonzero entry positive."""
    g = gcd(*v)
    if next(x for x in v if x != 0) < 0:
        g = -g
    return tuple(x // g for x in v)


def per_vector_dedupe_lines(vectors):
    """`exactgeom._dedupe_lines` as it was written before the column passes:
    one `_integer_direction` per nonzero vector, in first-seen order."""
    return list(dict.fromkeys(_integer_direction(v) for v in vectors if any(v)))


def closing_drop_weyl_duplicates(problem, entries):
    """`gitsolver._drop_weyl_duplicates` without the invariant buckets:
    every kept set closes its Weyl class when a later entry has its size,
    whatever its other invariants. Simple reflections permute the support,
    so no set of another size is in the class; skipping those closures
    keeps what is kept, and spares the class of more than a million sets
    of the E7 adjoint's lone 63-weight unstable state. Like
    `instability_first_classify_torus` it runs on the package's own
    closure, because what it pins is which entries are kept, not how a
    class is closed."""
    from gitloci.rootdata import _closure

    reflections, guard = problem.reflections, problem.weyl_guard
    later = Counter(len(indices) for indices, _ in entries)
    kept = []
    seen = set()
    for indices, point in entries:
        later[len(indices)] -= 1
        if indices in seen:
            continue
        kept.append((indices, point))
        if later[len(indices)]:
            members = _closure(
                indices,
                lambda current: [tuple(sorted(map(p.__getitem__, current))) for p in reflections],
                guard,
                lambda reached, rounds: f"Weyl set closure exceeded the guard of {guard},"
                f" with {len(reached)} sets of {len(indices)} weights reached in round {rounds}",
            )
            seen.update(members)
    return kept


def pairing_row_select(problem, point, mode):
    """The support positions whose pairing with the point the mode keeps,
    as `gitsolver` selected them before its sign masks: one `dot_rows`
    pairing row, each entry compared against 0."""
    from gitloci.exactgeom import dot_rows

    keep = {">=0": operator.ge, ">0": operator.gt, "=0": operator.eq}[mode]
    row = dot_rows(problem._pairing_columns, point)
    return tuple(compress(range(len(row)), map(keep, row, repeat(0))))


def tuple_weight_support(group, highest):
    """The coefficient tuples of `repsupport.weight_support`, sorted, as it
    found them before it descended on packed keys: one coefficient tuple
    per candidate mu - alpha_i and per alpha-string probe
    mu + (1 - c) alpha_i, each looked up in a set of tuples."""
    simple_root_columns = group.simple_roots_fundamental
    start = highest.coeffs
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for coeffs in frontier:
            for c, alpha in zip(coeffs, simple_root_columns):
                cand = tuple([m - a for m, a in zip(coeffs, alpha)])
                if cand in seen:
                    continue
                if c > 0 or tuple([m + (1 - c) * a for m, a in zip(coeffs, alpha)]) in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen)
