"""Reference computations the benchmark checks gitloci against.

Nothing here imports gitloci. Root data is rebuilt from the Dynkin diagrams,
the pairing comes from the Fraction inverse of the Cartan matrix, supports
come from dominant weights below the highest weight and their Weyl orbits,
and the convex-hull questions are answered by subset enumeration over exact
integers and fractions. No linear program is solved anywhere.

Conventions match the package's documented ones: weights are
fundamental-weight coefficients, one-parameter subgroups are
fundamental-coweight coefficients (so the fundamental chamber is the
non-negative orthant), and ``cartan[i][j] = 2 (a_i, a_j) / (a_i, a_i)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, product
from math import comb, floor, gcd, lcm


def _euclidean_roots(letter, rank):
    """Simple roots of types A-D and F4 in the usual Euclidean coordinates,
    numbered as in Bourbaki."""
    if letter == "A":
        return [tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(rank + 1))
                for i in range(rank)]
    if letter in "BCD":
        roots = [tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(rank))
                 for i in range(rank - 1)]
        last = [0] * rank
        if letter == "B":
            last[-1] = 1
        elif letter == "C":
            last[-1] = 2
        else:
            last[-2] = last[-1] = 1
        return roots + [tuple(last)]
    if letter == "F" and rank == 4:
        h = Fraction(1, 2)
        return [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h)]
    raise ValueError(f"no reference root data for {letter}{rank}")


def cartan_matrix(letter, rank):
    if (letter, rank) == ("G", 2):
        # a_1 long, a_2 short: <a_2, a_1^vee> = -1 and <a_1, a_2^vee> = -3.
        return ((2, -1), (-3, 2))
    roots = _euclidean_roots(letter, rank)

    def inner(a, b):
        return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))

    return tuple(
        tuple(int(2 * inner(a, b) / inner(a, a)) for b in roots) for a in roots
    )


def invert(matrix):
    """Inverse of a square rational matrix by Gauss-Jordan over Fraction."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def pivot_columns(rows):
    """Pivot columns of the row echelon form of integer rows. Projecting the
    span of the rows onto these coordinates is a linear isomorphism."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots


def determinant(matrix):
    """Integer determinant by Bareiss fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _cofactor_normal(rows, dim):
    """Integer vector orthogonal to dim-1 integer rows; zero when the rows
    are dependent (the generalized cross product)."""
    return tuple(
        (-1) ** k * determinant([row[:k] + row[k + 1:] for row in rows]) for k in range(dim)
    )


def _reduced(points):
    points = [tuple(p) for p in points]
    pivots = pivot_columns(points)
    return [tuple(p[c] for c in pivots) for p in points], len(pivots)


def zero_in_relative_interior(points):
    """Whether 0 lies in the relative interior of conv(points).

    That holds exactly when cone(points) is a linear space, i.e. when -p lies
    in the cone for every point p. By Caratheodory, -p is in the cone exactly
    when it is a non-negative combination of some basis of the span chosen
    among the points, so the bases are enumerated until every -p is covered.
    """
    pts = sorted({tuple(p) for p in points if any(p)})
    if not pts:
        return True
    reduced, r = _reduced(pts)
    pending = set(range(len(reduced)))
    for basis in combinations(range(len(reduced)), r):
        columns = [reduced[i] for i in basis]
        if determinant(columns) == 0:
            continue
        inverse = invert([[columns[j][i] for j in range(r)] for i in range(r)])
        for s in list(pending):
            target = [-x for x in reduced[s]]
            if all(sum(row[k] * target[k] for k in range(r)) >= 0 for row in inverse):
                pending.discard(s)
        if not pending:
            return True
    return False


def torus_verdict(points, dim):
    """Hilbert-Mumford verdict of a torus point from the hull of its weights.

    Unstable exactly when 0 is not in conv(points); stable exactly when the
    points span the whole space and 0 is interior to their hull; non-stable
    semistable otherwise. Works in the span of the points: every extreme ray
    of the dual cone {l : l.p >= 0} there is orthogonal to rank-1 independent
    points, so the supporting normals are found among cofactor vectors of
    (rank-1)-subsets. 0 is interior iff there are none, and some l is
    strictly positive on every point iff the sum of all of them is.
    """
    reduced, r = _reduced(points)
    lines = sorted({p for p in reduced if any(p)})
    normals = set()
    subsets = combinations(lines, r - 1) if r else ()
    for subset in subsets:
        n = _cofactor_normal(list(subset), r)
        if not any(n):
            continue
        values = [sum(a * b for a, b in zip(n, p)) for p in reduced]
        if all(v >= 0 for v in values):
            normals.add(n)
        elif all(v <= 0 for v in values):
            normals.add(tuple(-x for x in n))
    if normals:
        total = [sum(col) for col in zip(*normals)]
        if all(sum(a * b for a, b in zip(total, p)) > 0 for p in reduced):
            return "T-unstable"
    if r == dim and not normals:
        return "T-stable"
    return "T-non-stable-semistable"


def parse_highest_weight(rank, text):
    """``d*w<i>`` or ``rank`` comma-separated fundamental coefficients."""
    star = re.fullmatch(r"(\d+)\*w(\d+)", text)
    if star:
        coeffs = [0] * rank
        coeffs[int(star.group(2)) - 1] = int(star.group(1))
        return tuple(coeffs)
    coeffs = tuple(int(x) for x in text.split(","))
    if len(coeffs) != rank or min(coeffs) < 0:
        raise ValueError(f"{text!r} is not a dominant weight of rank {rank}")
    return coeffs


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


class RootData:
    """Cartan matrix, pairing, reflections and supports of one simple type."""

    def __init__(self, name):
        self.name = name
        self.letter, self.rank = name[0], int(name[1:])
        self.cartan = cartan_matrix(self.letter, self.rank)
        self.cartan_inverse = invert(self.cartan)
        self._scale = lcm(*(x.denominator for row in self.cartan_inverse for x in row))

    def pairing(self, weight, coweight):
        """<chi, lam> = m . (C^-1 c) for weight coefficients c and coweight
        coefficients m."""
        return sum(
            m * sum(row[k] * weight[k] for k in range(self.rank))
            for m, row in zip(coweight, self.cartan_inverse)
        )

    def pairing_vector(self, weight):
        """Integer vector u with u . m a positive multiple of <chi, lam>."""
        return tuple(
            int(self._scale * sum(row[k] * weight[k] for k in range(self.rank)))
            for row in self.cartan_inverse
        )

    def reflect(self, weight, i):
        return tuple(weight[j] - weight[i] * self.cartan[j][i] for j in range(self.rank))

    def orbit(self, items, act):
        """Closure of a set of items under the simple reflections."""
        seen = set(items)
        frontier = list(seen)
        while frontier:
            nxt = []
            for item in frontier:
                for i in range(self.rank):
                    image = act(item, i)
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        return seen

    def set_orbit(self, weights):
        """Every Weyl image of a weight set, each as a frozenset."""
        return self.orbit(
            [frozenset(weights)], lambda s, i: frozenset(self.reflect(w, i) for w in s)
        )

    def root_coordinates(self, weight):
        return tuple(sum(row[k] * weight[k] for k in range(self.rank)) for row in self.cartan_inverse)

    def support(self, highest):
        """Weights of the irreducible module with this highest weight: the
        Weyl orbits of the dominant mu with highest - mu a non-negative
        integer combination of simple roots."""
        bounds = [floor(q) for q in self.root_coordinates(highest)]
        dominant = []
        for k in product(*(range(b + 1) for b in bounds)):
            mu = tuple(
                highest[i] - sum(self.cartan[i][j] * k[j] for j in range(self.rank))
                for i in range(self.rank)
            )
            if min(mu) >= 0:
                dominant.append(mu)
        return frozenset(self.orbit(dominant, self.reflect))

    def support_size_formula(self, highest):
        """Support size from a closed formula, or None when none applies:
        degree-d monomials and exterior powers in type A, the L1 ball for
        B2 d*w1, and the single orbit of a minuscule weight."""
        nonzero = [(i, c) for i, c in enumerate(highest) if c]
        if len(nonzero) != 1:
            return None
        (i, d), n, letter = nonzero[0], self.rank, self.letter
        if letter == "A" and i == 0:
            return comb(d + n, n)
        if letter == "A" and d == 1:
            return comb(n + 1, i + 1)
        if self.name == "B2" and i == 0:
            return 2 * d * d + 2 * d + 1
        if d == 1 and letter in "CD" and i == 0:
            return 2 * n
        if d == 1 and letter == "B" and i == n - 1:
            return 2 ** n
        if d == 1 and letter == "D" and i >= n - 2:
            return 2 ** (n - 1)
        return None

    def lines(self, support):
        """Distinct constraint lines of the arrangement: the nonzero pairing
        vectors up to sign and scale, plus the chamber walls."""
        found = set()
        for w in support:
            u = self.pairing_vector(w)
            if any(u):
                p = _primitive(u)
                lead = next(x for x in p if x)
                found.add(p if lead > 0 else tuple(-x for x in p))
        for i in range(self.rank):
            found.add(tuple(int(i == j) for j in range(self.rank)))
        return len(found)
