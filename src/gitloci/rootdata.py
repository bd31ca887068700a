"""Root systems of the simple Dynkin types, their lattices and Weyl groups.

Internal bases
--------------
Characters (weights) are integer vectors of fundamental-weight coefficients;
one-parameter subgroups are integer vectors of fundamental-coweight
coefficients. With these choices the fundamental chamber on the coweight side
is exactly the non-negative orthant, and the perfect pairing of a weight with
a coweight is the plain dot product of the weight's coefficients against the
coweight's expansion in simple coroots.

Cartan convention
-----------------
The Cartan matrices come from one integer Gram table of the simple roots
(`_gram_matrix`), as ``cartan[i][j] = 2 (alpha_i, alpha_j) / (alpha_i,
alpha_i)``, so that row i holds the simple coroot ``alpha_i^vee`` in
fundamental-coweight coordinates and column j holds the simple root
``alpha_j`` in fundamental-weight coordinates. Every reflection and
conversion formula in this module refers back to this single convention:

* reflection of a weight:    ``s_i(c)[j]   = c[j] - c[i] * cartan[j][i]``
* reflection of a coweight:  ``s_i(m)[j]   = m[j] - m[i] * cartan[i][j]``

Every Weyl closure goes through one guarded breadth-first closure
(`_closure`) of these two formulas: weight orbits, the Weyl classes that
`gitsolver`'s deduplication closes, one per kept state, and the enumeration
of the group itself, whose elements are closed as their images of the unit
vectors. Dominant weights and chamber words share one loop
(`_chamber_word`).

Type A extras
-------------
For type A (rank r) two display systems are supported beyond the canonical
ones. "L" writes a weight of SL(r+1) as r+1 monomial exponents (defined up to
adding a constant to every entry; the ``trace`` argument pins that choice).
"H" writes a one-parameter subgroup as r+1 diagonal exponents summing to
zero. "T" holds the consecutive differences of H, which coincide with the
fundamental-coweight coefficients. L and H share one pair of maps: the
consecutive differences (`_differences`) give the fundamental coefficients,
and the suffix sums followed by 0 (`_suffix_sums`) lift them back, shifted
by a constant to the requested trace; H is the lift with trace 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .errors import (
    ConversionError,
    InvalidRankError,
    ParseError,
    RankMismatchError,
    ResourceGuardError,
)
from .exactgeom import dot, primitive_vector

DEFAULT_WEYL_GUARD = 10**6

_RANK_RULES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (2, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_D2_WARNING = (
    "D2 is semisimple but not simple (it is A1 x A1); outputs describe the product action."
)


@dataclass(frozen=True, slots=True)
class DynkinType:
    letter: str
    rank: int

    def __post_init__(self):
        if self.letter not in _RANK_RULES:
            raise InvalidRankError(f"unknown Dynkin letter {self.letter!r}")
        low, high = _RANK_RULES[self.letter]
        if not isinstance(self.rank, int) or self.rank < low or (high is not None and self.rank > high):
            raise InvalidRankError(f"no simple group of type {self.letter}{self.rank}")

    @property
    def name(self):
        return f"{self.letter}{self.rank}"


def _gram_matrix(letter, rank):
    """The integer Gram matrix (alpha_i, alpha_j) of the simple roots in
    Bourbaki's numbering, but with G2's long root first. Bonded roots meet at
    120, 135 or 150 degrees, so pair to minus half the longer squared length."""
    lengths = [2] * (rank - 1) + [{"B": 1, "C": 4}.get(letter, 2)]
    lengths = {"F": [4, 4, 2, 2], "G": [6, 2]}.get(letter, lengths)
    bonds = [(i, i + 1) for i in range(rank - 1)]
    if letter == "D":
        bonds[-1:] = [(rank - 3, rank - 1)] if rank > 2 else []
    elif letter == "E":
        bonds = [(0, 2), (1, 3), *((i, i + 1) for i in range(2, rank - 1))]
    gram = [[lengths[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in bonds:
        gram[i][j] = gram[j][i] = -max(lengths[i], lengths[j]) // 2
    return gram


def _cartan_matrix(letter, rank):
    gram = _gram_matrix(letter, rank)
    return tuple(tuple(2 * gram[i][j] // gram[i][i] for j in range(rank)) for i in range(rank))


@dataclass(frozen=True, eq=False)
class SimpleGroup:
    """A simple algebraic group, carried entirely by its root-system data."""

    dynkin: DynkinType
    cartan: tuple[tuple[int, ...], ...]
    cartan_inverse: tuple[tuple[Fraction, ...], ...]
    cartan_adjugate: tuple[tuple[int, ...], ...]
    cartan_det: int
    simple_roots_fundamental: tuple[tuple[int, ...], ...]
    chamber_generators: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...]

    def __eq__(self, other):
        return self is other or (isinstance(other, SimpleGroup) and self.dynkin == other.dynkin)

    def __hash__(self):
        return hash(self.dynkin)

    def __repr__(self):
        return f"SimpleGroup({self.dynkin.name})"

    def group_type(self):
        return self.dynkin.letter

    def rnk(self):
        return self.dynkin.rank

    @property
    def rank(self):
        return self.dynkin.rank

    @property
    def name(self):
        return self.dynkin.name


@lru_cache(maxsize=None)
def _build_group(letter, rank):
    dynkin = DynkinType(letter, rank)
    cartan = _cartan_matrix(letter, rank)
    # One fraction-free Gauss-Jordan pass on [C | I] (Bareiss). Each step
    # pivots on the diagonal, where the leading principal minors appear, and
    # updates every other row as (p a - f b) // d, d the previous pivot, an
    # exact division; the pass ends as [det I | adj C].
    rows = [[*row, *(1 if i == j else 0 for j in range(rank))] for i, row in enumerate(cartan)]
    det = 1
    for k in range(rank):
        p = rows[k][k]
        if p <= 0:
            raise ValueError("Cartan matrix with a non-positive leading principal minor")
        for i in range(rank):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * a - f * b) // det for a, b in zip(rows[i], rows[k])]
        det = p
    adjugate = tuple(tuple(row[rank:]) for row in rows)
    roots_fundamental = tuple(
        tuple(cartan[i][j] for i in range(rank)) for j in range(rank)
    )
    chamber = tuple(primitive_vector(row) for row in adjugate)
    warnings = (_D2_WARNING,) if (letter, rank) == ("D", 2) else ()
    return SimpleGroup(
        dynkin=dynkin,
        cartan=cartan,
        cartan_inverse=tuple(tuple(Fraction(a, det) for a in row) for row in adjugate),
        cartan_adjugate=adjugate,
        cartan_det=det,
        simple_roots_fundamental=roots_fundamental,
        chamber_generators=chamber,
        warnings=warnings,
    )


def make_group(letter, rank=None):
    """Build the simple group of the given Dynkin type.

    Accepts either ``make_group("B", 2)`` or the combined form
    ``make_group("B2")``. A rank is an `int` that is not a `bool`, or a
    string of ASCII digits; anything else is a `ParseError`.
    """
    if rank is None:
        match = re.fullmatch(r"([A-Za-z])\s*([0-9]+)", str(letter).strip(), re.ASCII)
        if match is None:
            raise ParseError(f"cannot parse group name {letter!r}; expected forms like 'B2'")
        letter, rank = match.groups()
    if isinstance(rank, str) and rank.isascii() and rank.isdigit():
        rank = int(rank)
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ParseError(f"group rank must be an integer, got {rank!r}")
    return _build_group(str(letter).strip().upper(), rank)


def fundamental_chamber_generators(group):
    """Extreme rays of the fundamental chamber, written in simple-coroot
    coordinates with denominators cleared to primitive integer vectors."""
    return group.chamber_generators


def _require_int_coeffs(kind, coeffs):
    """Refuse coefficients that are not a tuple of `int`: a list would make
    the frozen dataclass unequal to its tuple twin and unhashable, and the
    coordinate factories `weight` and `one_param_subgroup` take other exact
    numbers and clear them to integers first."""
    if not isinstance(coeffs, tuple):
        raise ConversionError(f"{kind} coefficients must be a tuple, got {coeffs!r}")
    if any(not isinstance(c, int) for c in coeffs):
        raise ConversionError(f"{kind} coefficients must be integers, got {coeffs!r}")


@dataclass(frozen=True, slots=True)
class Weight:
    """A character of the maximal torus, in fundamental-weight coefficients."""

    group: SimpleGroup
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.group.rank:
            raise RankMismatchError(
                f"weight of length {len(self.coeffs)} for group {self.group.name}"
            )
        _require_int_coeffs("Weight", self.coeffs)

    @property
    def is_dominant(self):
        return all(c >= 0 for c in self.coeffs)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"Weight({self.group.name}, {self.coeffs})"


@dataclass(frozen=True, slots=True)
class OneParameterSubgroup:
    """A one-parameter subgroup of the maximal torus, in fundamental-coweight
    coefficients.

    The coefficients are stored exactly as given: no rescaling happens here,
    because the pairing against weights depends on the scale. `primitive()`
    returns the gcd-reduced representative of the same ray for display and
    deduplication.
    """

    group: SimpleGroup
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.group.rank:
            raise RankMismatchError(
                f"one-parameter subgroup of length {len(self.coeffs)} for group {self.group.name}"
            )
        _require_int_coeffs("OneParameterSubgroup", self.coeffs)
        if all(c == 0 for c in self.coeffs):
            raise ConversionError("a one-parameter subgroup must be nonzero")

    def primitive(self):
        return OneParameterSubgroup(self.group, primitive_vector(self.coeffs))

    @property
    def in_fundamental_chamber(self):
        return all(c >= 0 for c in self.coeffs)

    def __repr__(self):
        return f"OneParameterSubgroup({self.group.name}, {self.coeffs})"


def weight(group, coords, system="fundamental-weight"):
    """Build a Weight from coordinates in any supported weight system."""
    vec = convert_coordinates(group, coords, system, "fundamental-weight")
    if any(isinstance(x, Fraction) for x in vec):
        raise ConversionError(f"{coords!r} in system {system!r} is not an integral weight")
    return Weight(group, vec)


def one_param_subgroup(group, coords, system="fundamental-coweight"):
    """Build a OneParameterSubgroup from coordinates in any supported
    coweight system, clearing denominators minimally (the direction and the
    relative scale of the input are preserved)."""
    vec = [Fraction(x) for x in convert_coordinates(group, coords, system, "fundamental-coweight")]
    mult = lcm(*(x.denominator for x in vec))
    return OneParameterSubgroup(group, tuple(int(x * mult) for x in vec))


def _require_same_group(a, b):
    if a.group != b.group:
        raise RankMismatchError(f"operands belong to {a.group.name} and {b.group.name}")


def pairing_vector(group, weight_coeffs):
    """Integer vector u with u . m = det(cartan) * <chi, lam> for every
    coweight vector m; the adjugate of the Cartan matrix applied to chi."""
    adjugate = group.cartan_adjugate
    rank = group.rank
    return tuple(
        sum(adjugate[j][k] * weight_coeffs[k] for k in range(rank)) for j in range(rank)
    )


def pairing(chi, lam):
    """The perfect pairing <chi, lam>, as a Fraction: the det-scaled
    pairing vector of chi dotted with lam's coefficients, divided by the
    Cartan determinant."""
    _require_same_group(chi, lam)
    return Fraction(dot(pairing_vector(chi.group, chi.coeffs), lam.coeffs), chi.group.cartan_det)


def reflect_weight_coeffs(cartan, coeffs, i):
    return tuple(coeffs[j] - coeffs[i] * cartan[j][i] for j in range(len(coeffs)))


def reflect_coweight_coeffs(cartan, coeffs, i):
    return tuple(coeffs[j] - coeffs[i] * cartan[i][j] for j in range(len(coeffs)))


def _closure(start, images, guard, describe):
    """Every item reached from `start` by repeated `images(item)`, breadth
    first, in the order reached. Raises ResourceGuardError with the message
    `describe(reached, round)` as soon as more than `guard` are reached."""
    reached = {start: None}
    frontier = [start]
    rounds = 0
    while frontier:
        rounds += 1
        nxt = []
        for item in frontier:
            for image in images(item):
                if image not in reached:
                    reached[image] = None
                    nxt.append(image)
                    if len(reached) > guard:
                        raise ResourceGuardError(describe(reached, rounds))
        frontier = nxt
    return list(reached)


def weyl_orbit(group, w, guard=DEFAULT_WEYL_GUARD):
    """Full Weyl orbit of a weight, by breadth-first closure."""
    if w.group != group:
        raise RankMismatchError("weight belongs to a different group")
    cartan, rank = group.cartan, group.rank
    orbit = _closure(
        w.coeffs,
        lambda coeffs: [reflect_weight_coeffs(cartan, coeffs, i) for i in range(rank)],
        guard,
        lambda reached, rounds: f"Weyl orbit exceeded the guard of {guard} elements,"
        f" with {len(reached)} elements reached in round {rounds}",
    )
    return frozenset(Weight(group, c) for c in orbit)


def dominant_representative(group, w):
    """The unique dominant element of the Weyl orbit of w."""
    if w.group != group:
        raise RankMismatchError("weight belongs to a different group")
    return Weight(group, _chamber_word(group.cartan, w.coeffs, reflect_weight_coeffs)[0])


def _chamber_word(cartan, coeffs, reflect):
    """The image of `coeffs` in the non-negative orthant, and the word that
    takes it there: the indices of the simple reflections `reflect` applied,
    each at the first negative coordinate."""
    word = []
    while True:
        i = next((k for k, c in enumerate(coeffs) if c < 0), None)
        if i is None:
            return tuple(coeffs), word
        coeffs = reflect(cartan, coeffs, i)
        word.append(i)


def weyl_group_order(group):
    """Order of the Weyl group, by the classical product formulas."""
    letter, rank = group.dynkin.letter, group.rank
    if letter == "A":
        return factorial(rank + 1)
    if letter in ("B", "C"):
        return 2**rank * factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * factorial(rank)
    if letter == "G":
        return 12
    if letter == "F":
        return 1152
    return {6: 51840, 7: 2903040, 8: 696729600}[rank]


@dataclass(frozen=True)
class WeylElement:
    """One Weyl group element, as a pair of integer matrices: its action on
    fundamental-weight coordinates and on fundamental-coweight coordinates."""

    weight_matrix: tuple[tuple[int, ...], ...]
    coweight_matrix: tuple[tuple[int, ...], ...]

    def apply_to_weight_coeffs(self, coeffs):
        return tuple(sum(row[k] * coeffs[k] for k in range(len(coeffs))) for row in self.weight_matrix)

    def apply_to_coweight_coeffs(self, coeffs):
        return tuple(
            sum(row[k] * coeffs[k] for k in range(len(coeffs))) for row in self.coweight_matrix
        )


def weyl_elements(group, guard=DEFAULT_WEYL_GUARD):
    """All Weyl group elements, in breadth-first order from the identity.

    An element is closed as the pair of its images of the unit vectors on
    the weight and the coweight side, each image reflected by the module's
    reflection formulas, and its `WeylElement` matrices have those images as
    columns. Guarded: E7/E8-sized groups are refused by default. Nothing is
    cached, and no solve or query path calls this."""
    cartan, rank = group.cartan, group.rank
    units = tuple(tuple(int(j == k) for k in range(rank)) for j in range(rank))
    pairs = _closure(
        (units, units),
        lambda pair: [
            (
                tuple(reflect_weight_coeffs(cartan, image, i) for image in pair[0]),
                tuple(reflect_coweight_coeffs(cartan, image, i) for image in pair[1]),
            )
            for i in range(rank)
        ],
        guard,
        lambda reached, rounds: f"Weyl enumeration exceeded the guard of {guard} elements,"
        f" with {len(reached)} elements reached in round {rounds}",
    )
    return tuple(WeylElement(*(tuple(zip(*images)) for images in pair)) for pair in pairs)


_M_SYSTEMS = {"fundamental-weight", "L"}
_TYPE_A_ONLY = {"L", "H", "T"}


def _canonical_system_name(name):
    text = str(name).strip()
    low = text.lower()
    if low in ("l", "h", "t"):
        return low.upper()
    if low in ("fundamental-weight", "fundamental-coweight", "coroot"):
        return low
    raise ConversionError(f"unknown coordinate system {name!r}")


def _exact(x):
    """x as a `Fraction`. A float is refused: its exact value is its binary
    expansion, not the decimal it was written as. So is anything `Fraction`
    cannot read, such as None, 'x' or '1/0'."""
    if isinstance(x, float):
        raise ConversionError(
            f"{x!r} is a float; give an int, a Fraction or a string such as '1/4'"
        )
    try:
        return Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        raise ConversionError(
            f"{x!r} is not an exact number; give an int, a Fraction or a string such as '1/4'"
        ) from None


_INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)
_INTEGER_LIST = re.compile(r"\s*[+-]?[0-9]+(?:(?:\s*,\s*|\s+)[+-]?[0-9]+)*\s*", re.ASCII)


def _parse_integers(text):
    """The integers written in `text` as ASCII ``[+-]?[0-9]+`` tokens, each
    separated from the next by one comma and/or blanks, or None when `text`
    is not of that form. `int` alone would also read "1_0", "３" or "٣", and
    splitting on commas would let "1,,0" pass as two integers."""
    if _INTEGER_LIST.fullmatch(text) is None:
        return None
    return [int(token) for token in _INTEGER.findall(text)]


def _differences(values):
    """The consecutive differences of `values`: the fundamental coefficients
    of type A rank+1 coordinates."""
    return [a - b for a, b in zip(values, values[1:])]


def _suffix_sums(values):
    """The sums of each suffix of `values`, longest first, then 0: the type A
    lift of fundamental coefficients to rank+1 coordinates."""
    lifted = [0]
    for c in reversed(values):
        lifted.append(lifted[-1] + c)
    lifted.reverse()
    return lifted


def _intify(values):
    out = []
    for x in values:
        frac = Fraction(x)
        out.append(int(frac) if frac.denominator == 1 else frac)
    return tuple(out)


def convert_coordinates(group, v, source, target, *, trace=None):
    """Exact linear change of coordinates between the supported systems.

    Weight-side systems: "fundamental-weight" and, for type A, "L" (length
    rank+1, defined up to a constant shift; `trace` pins the shift when
    converting to L). Coweight-side systems: "fundamental-coweight",
    "coroot", and for type A "H" (length rank+1, entries summing to zero) and
    "T" (the consecutive differences of H, equal to fundamental-coweight
    coefficients). Conversions across the two sides are refused.
    """
    src = _canonical_system_name(source)
    dst = _canonical_system_name(target)
    for system in (src, dst):
        if system in _TYPE_A_ONLY and group.dynkin.letter != "A":
            raise ConversionError(f"coordinate system {system!r} needs a type A group")
    if (src in _M_SYSTEMS) != (dst in _M_SYSTEMS):
        raise ConversionError(
            f"cannot convert between weight system {src!r} and coweight system {dst!r}"
        )
    if trace is not None and dst != "L":
        raise ConversionError("the trace argument only applies when converting to L")
    values = [_exact(x) for x in v]
    rank = group.rank
    length = rank + 1 if src in ("L", "H") else rank
    if len(values) != length:
        raise RankMismatchError(
            f"system {src!r} for {group.name} expects length {length}, got {len(values)}"
        )
    if src == "H" and sum(values) != 0:
        raise ConversionError("H-coordinates must sum to zero")
    if src == dst and trace is None:
        return _intify(values)

    if src in ("L", "H"):
        canonical = _differences(values)
    elif src == "coroot":
        canonical = [dot(column, values) for column in zip(*group.cartan)]
    else:
        canonical = values
    if dst == "coroot":
        return _intify(dot(column, canonical) for column in zip(*group.cartan_inverse))
    if dst not in ("L", "H"):
        return _intify(canonical)
    lifted = _suffix_sums(canonical)
    trace = 0 if dst == "H" else trace
    if trace is not None:
        shift = (_exact(trace) - sum(lifted)) / (rank + 1)
        lifted = [x + shift for x in lifted]
    return _intify(lifted)
