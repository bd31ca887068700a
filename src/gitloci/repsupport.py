"""Weight supports of irreducible highest-weight representations.

Only the set of weights matters for the stability solver, so multiplicities
are never computed. The support of the irreducible module with dominant
highest weight ``hw`` is the saturated set: all weights ``mu`` whose dominant
representative ``delta`` satisfies ``hw - delta = sum k_j alpha_j`` with
every ``k_j`` a non-negative integer. It is found from ``hw`` downwards,
by the alpha-string property alone, with no dominance test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul, sub

from .errors import NonDominantError, ParseError, RankMismatchError, ResourceGuardError
from .exactgeom import dot_rows
from .rootdata import SimpleGroup, Weight, _differences, _parse_integers, reflect_weight_coeffs

DEFAULT_SUPPORT_GUARD = 10**6


@dataclass(frozen=True, slots=True)
class RepresentationSupport:
    """The weight set of a representation, canonically sorted.

    `highest` is None when the support was supplied directly as a raw weight
    list instead of being generated from a highest weight.
    """

    group: SimpleGroup
    highest: Weight | None
    weights: tuple[Weight, ...]

    def __len__(self):
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __contains__(self, w):
        return w in self.weights

    def coeff_set(self):
        return frozenset(w.coeffs for w in self.weights)


def parse_highest_weight(group, text):
    """Parse a dominant highest weight from user notation.

    Three forms are accepted: ``rank`` integers (fundamental coefficients);
    for type A, ``rank+1`` integers (L-coordinates, which must be weakly
    decreasing); and ``d*w<i>`` meaning d times the i-th fundamental weight.
    The integers are ASCII ``[+-]?[0-9]+``, each separated from the next by
    one comma and/or blanks (`_parse_integers`).
    """
    raw = str(text).strip()
    if not raw:
        raise ParseError("empty weight specification")
    star = re.fullmatch(r"([0-9]+)\s*\*\s*w([0-9]+)", raw, re.ASCII)
    if star is not None:
        multiple, index = int(star.group(1)), int(star.group(2))
        if not 1 <= index <= group.rank:
            raise ParseError(
                f"fundamental weight index {index} out of range for {group.name}"
            )
        coeffs = [0] * group.rank
        coeffs[index - 1] = multiple
        return Weight(group, tuple(coeffs))
    values = _parse_integers(raw)
    if values is None:
        raise ParseError(f"cannot parse weight specification {text!r}")
    if len(values) == group.rank:
        if any(c < 0 for c in values):
            raise NonDominantError(
                f"fundamental coefficients must be non-negative, got {tuple(values)}"
            )
        return Weight(group, tuple(values))
    if group.dynkin.letter == "A" and len(values) == group.rank + 1:
        coeffs = tuple(_differences(values))
        if any(c < 0 for c in coeffs):
            raise NonDominantError(
                f"L-coordinates must be weakly decreasing, got {tuple(values)}"
            )
        return Weight(group, coeffs)
    raise ParseError(
        f"weight specification {text!r} has length {len(values)}; expected"
        f" {group.rank} fundamental coefficients"
        + (f" or {group.rank + 1} L-coordinates" if group.dynkin.letter == "A" else "")
        + " or the form 'd*w<i>'"
    )


def weight_support(group, highest, guard=DEFAULT_SUPPORT_GUARD):
    """All weights of the irreducible representation with the given dominant
    highest weight, found by descending from it through simple-root
    subtractions. Round k finds the weights hw - (a sum of k simple roots),
    so every weight of an earlier round is known when round k+1 starts.

    Membership comes from the unbroken alpha-strings: the alpha_i-string
    through a weight mu of the support runs from mu - p alpha_i to
    mu + q alpha_i with no gaps, and p - q = <mu, alpha_i^vee> = c, the
    i-th fundamental coefficient of mu (Humphreys, *Introduction to Lie
    Algebras and Representation Theory*, 21.3). So mu - alpha_i is a weight
    exactly when p >= 1: always when c > 0, and otherwise exactly when
    mu + (1 - c) alpha_i is one, a weight 1 - c rounds before mu.

    The descent runs on packed keys: each weight is one integer
    ``sum_j mu_j B^j`` and each simple root one such key, so a candidate
    mu - alpha_i costs one subtraction and its probe mu + (1 - c) alpha_i
    one multiply-add, each with one lookup in a set of ints, and a
    coefficient tuple is built only for an accepted weight. With
    ``B = 2(4M + 3) + 1`` the keys are balanced base-B digits, so vectors
    with every coefficient in [-(4M + 3), 4M + 3] have distinct keys. Here
    M = 6 sum(hw) bounds |mu_j| on the support: |mu_j| <= <hw, theta^vee>
    for theta^vee the highest coroot, none of whose coefficients exceeds 6.
    A simple root has coefficients in [-3, 2], the entries of a Cartan
    column, and a probe is taken only when c <= 0, so 1 - c <= M + 1; so
    every candidate and probe stays within M + 3(M + 1) = 4M + 3, and a key
    in the set is always the weight it stands for."""
    if highest.group != group:
        raise RankMismatchError("highest weight belongs to a different group")
    if not highest.is_dominant:
        raise NonDominantError(f"highest weight {highest.coeffs} is not dominant")
    simple_root_columns = group.simple_roots_fundamental
    start = highest.coeffs
    base = 2 * (4 * 6 * sum(start) + 3) + 1
    powers = [base**j for j in range(group.rank)]
    steps = [sum(map(mul, alpha, powers)) for alpha in simple_root_columns]
    key = sum(map(mul, start, powers))
    seen = {key}
    found = [start]
    frontier = [(start, key)]
    rounds = 0
    while frontier:
        rounds += 1
        nxt = []
        for coeffs, key in frontier:
            for c, alpha, step in zip(coeffs, simple_root_columns, steps):
                cand = key - step
                if cand in seen:
                    continue
                if c > 0 or key + (1 - c) * step in seen:
                    seen.add(cand)
                    weight = tuple(map(sub, coeffs, alpha))
                    found.append(weight)
                    nxt.append((weight, cand))
                    if len(seen) > guard:
                        raise ResourceGuardError(
                            f"weight support exceeded the guard of {guard} weights,"
                            f" with {len(seen)} weights reached in round {rounds}"
                            " of simple-root descent"
                        )
        frontier = nxt
    weights = tuple(Weight(group, c) for c in sorted(found))
    return RepresentationSupport(group=group, highest=highest, weights=weights)


def support_from_weights(group, coeff_rows):
    """Build a support directly from fundamental-coefficient rows, after
    validating closure under the Weyl group (the solver's correctness and the
    meaning of its outputs both need a Weyl-stable weight set). Each
    coefficient must be an `int` or a `Fraction` with denominator 1."""
    support = _sorted_support(group, coeff_rows)
    _reflection_table(group, support.weights, {w.coeffs: i for i, w in enumerate(support.weights)})
    return support


def _sorted_support(group, coeff_rows):
    """`support_from_weights` less its closure check, which `GITProblem` makes."""
    coeffs = set()
    for row in coeff_rows:
        row = tuple(row)
        if not all(
            isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1) for c in row
        ):
            raise ParseError(f"weight {row} has a coefficient that is not an integer")
        coeffs.add(tuple(int(c) for c in row))
    coeffs = sorted(coeffs)
    if not coeffs:
        raise ParseError("weight list is empty")
    for row in coeffs:
        if len(row) != group.rank:
            raise RankMismatchError(
                f"weight {row} has length {len(row)}; group {group.name} has rank {group.rank}"
            )
    weights = tuple(Weight(group, c) for c in coeffs)
    return RepresentationSupport(group=group, highest=None, weights=weights)


def _reflection_table(group, weights, index):
    """For each simple reflection, the position (by `index`) of the image of
    the weight at each position; raises ParseError unless the weights are
    strictly sorted and closed under the simple reflections. A miss names
    the first weight, and for it the first reflection, whose image is not
    in the support.

    The table is built from whole coefficient columns. Each weight is
    packed into one integer key ``sum_j mu_j B^j`` with ``B = 8M + 1``,
    where M is the largest absolute coefficient in the support. A simple
    root, column i of the Cartan matrix, has entries in [-3, 2], so every
    image ``mu_j - mu_i C[j][i]`` has its coefficients in [-4M, 4M]; as
    balanced digits in base 8M + 1, distinct such vectors have distinct
    keys, and an image outside the support never aliases a support weight.
    The image key is then ``k - mu_i delta_i``, with ``delta_i`` the packed
    i-th simple root: one multiply-subtract and one dict lookup per weight
    and reflection."""
    for previous, w in zip(weights, weights[1:]):
        if previous.coeffs >= w.coeffs:
            raise ParseError(
                f"support is not strictly sorted: weight {w.coeffs} follows {previous.coeffs}"
            )
    rows = [w.coeffs for w in weights]
    columns = list(zip(*rows)) or [()] * group.rank
    base = 8 * max(map(abs, chain.from_iterable(rows)), default=0) + 1
    powers = [base**j for j in range(group.rank)]
    keys = dot_rows(columns, powers)
    position = dict(zip(keys, map(index.__getitem__, rows)))
    get = position.get
    table = [
        [get(k - m * root) for k, m in zip(keys, column)]
        for column, root in zip(columns, dot_rows(group.cartan, powers))
    ]
    missing = [(column.index(None), i) for i, column in enumerate(table) if None in column]
    if missing:
        p, i = min(missing)
        image = reflect_weight_coeffs(group.cartan, rows[p], i)
        raise ParseError(
            f"support is not closed under the Weyl group: reflection {i + 1}"
            f" maps {rows[p]} to {image}, which is missing"
        )
    return tuple(map(tuple, table))
