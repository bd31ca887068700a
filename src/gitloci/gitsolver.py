"""The GIT stability engine.

Given the weight support of a representation, the solver reports three
families of states (subsets of the support cut out by a sign condition
against a one-parameter subgroup): maximal non-stable states (pairings all
>= 0), maximal unstable states (pairings all > 0), and strictly polystable
states (pairings all = 0 with the origin in the relative interior of the
state's hull).

Why the candidate set is complete
---------------------------------
Work in fundamental-coweight coordinates, where the fundamental chamber is
the non-negative orthant and every weight chi contributes the linear form
``lam -> <chi, lam>``. These forms cut the chamber into a central hyperplane
arrangement, and the sign vector of lam (hence its state, for every mode) is
constant on each relatively open face.

* For the >= 0 mode, signs only gain zeros when lam specializes onto more
  hyperplanes, and ``>= 0`` survives the limit: if a face F' lies in the
  closure of a face F, each weight non-negative on F is non-negative on F'.
  The chamber is a pointed cone, so iterating the specialization ends at a
  1-dimensional face. Every >= 0 state is therefore contained in the >= 0
  state of an arrangement ray, and the maximal ones are attained on rays.
* For the > 0 mode the monotonicity is reversed: if a weight pairs strictly
  positively with a point of F', continuity gives a nearby point of any
  adjacent full-dimensional cell F with the same strict sign, and signs are
  constant on F. So the > 0 state of any lam is contained in the > 0 state
  of an adjacent open cell, and the maximal ones are attained on cells.
* The = 0 states are read off the rays and the first cell witness, as no
  weight but 0 vanishes on an open cell. In rank 2 every nonzero point of
  the chamber lies on a ray or in an open cell, and the = 0 state is
  constant on faces, so these cover every zero set attained in the chamber.
  In rank >= 3 that is not proven and not true: zero sets realised only on
  faces of dimension 2 and more are missed (for instance A3 ``3,0,0`` at
  lam = (1, 1, 3)). The fix is item 1 of ROADMAP.md.

The dense-sampling tests exercise the containment claims against brute
force: the acceptance test in rank 2, and `tests/test_dense_sampling.py` in
rank 3-7 on the benchmark's `midrank` and `minuscule` inputs, where its
check of the = 0 states is marked as failing on the inputs of item 1.

States and the Weyl group
-------------------------
Inside the selection a state is a bitmask. Each pairing column is packed
into one integer with a biased field per support weight, wide enough that
no field carries, and kept on the problem until a call needs wider
fields; one multiply-add per nonzero coordinate of a witness
gives all its biased pairings at once: the weights that pair >= 0 are the
set top bits, those that pair > 0 the top bits still set after one is
taken from every field, and the = 0 state is the difference. Distinctness,
maximality and the polystable certificates are tests on these masks.
Outside the selection a state is the ascending tuple of its positions in
the sorted support, so index order is coefficient order. `GITProblem` keeps
the permutation of the support by each simple reflection, tabulated by
`repsupport`'s check that the support is Weyl-closed, and the Weyl group
acts on states through them. Weyl deduplication walks the sorted states
once: it keeps a state unless an earlier kept state's class
reached it, so the first state of each class in sort order is kept.

A kept state's class is closed, breadth first, only when a later state
shares its bucket: three invariants that conjugate sets share and that need
no element of W, the last two worked out only for sizes that recur. The
size, since W permutes the support. The sorted orbit
labels of the members, the connected components of the reflections'
permutations of the support, since w maps each weight into its own orbit.
The dominant form of the sum of the members' coefficients, since w(S) sums
to w of the sum of S and each W-orbit of weights holds one dominant weight.
A state alone in its bucket is alone in its class, and closes nothing.
Nothing of a class outlives the deduplication that closed it, and no query
enumerates W.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, starmap

from .errors import ParseError, RankMismatchError
from .exactgeom import (
    DEFAULT_CELL_GUARD,
    _dedupe_lines,
    arrangement_cells,  # unused here; the benchmark's tracer wraps it under this module
    arrangement_rays,  # unused here; the benchmark's tracer wraps it under this module
    dot_rows,
    kernel_basis,
    lp_feasible,
    rays_and_cells,
    zero_in_relative_interior,
)
from .repsupport import (
    DEFAULT_SUPPORT_GUARD,
    RepresentationSupport,
    _reflection_table,
    support_from_weights,
    weight_support,
)
from .rootdata import (
    DEFAULT_WEYL_GUARD,
    OneParameterSubgroup,
    SimpleGroup,
    Weight,
    _chamber_word,
    _closure,
    pairing,
    reflect_coweight_coeffs,
    reflect_weight_coeffs,
    weyl_elements,  # unused here; the benchmark's tracer wraps it under this module
)

# Each mode: the kind of state it selects and its mask, read off the masks
# (ge, gt) of the weights that pair >= 0 and > 0 with a point.
_MODES = {
    ">=0": ("nonstable", lambda ge, gt: ge),
    ">0": ("unstable", lambda ge, gt: gt),
    "=0": ("strictly_polystable", lambda ge, gt: ge ^ gt),
}


@dataclass(frozen=True)
class State:
    """A set of weights cut out by one sign condition, with its witness."""

    kind: str
    weights: tuple[Weight, ...]
    witness: OneParameterSubgroup | None

    @property
    def size(self):
        return len(self.weights)

    def coeff_set(self):
        return frozenset(w.coeffs for w in self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __contains__(self, chi):
        return chi in self.weights

    def __repr__(self):
        wit = self.witness.coeffs if self.witness is not None else None
        return f"State({self.kind}, {self.size} weights, witness={wit})"


class GITProblem:
    """A stability problem: a group acting on the span of a weight support.

    The support must be strictly sorted and closed under the simple
    reflections; otherwise `ParseError` is raised. `index` maps coefficients to support positions, and
    `reflections[i]` maps each position to that of its i-th reflection.
    The support-sized tables are built column-wise: the reflection table
    by `repsupport`'s packed integer keys, each pairing column by one
    `dot_rows` of a row of the Cartan adjugate with the coefficient
    columns, and the distinct lines by `exactgeom`'s column passes.

    Ray and cell candidates are computed lazily in the fundamental chamber,
    which in coweight coordinates is the non-negative orthant, by one
    search (`rays_and_cells`) the first time either is asked for, and both
    are cached; `cell_guard` bounds that search. The arrangement's normals are
    the support's distinct lines: the pairing vectors of the nonzero
    weights, each line once, in first-seen order. `rays()` and `cells()`
    are tuples of integer points. Each locus, and each `state_of` call,
    reads the sign masks of all its points in one pass over the pairing
    columns packed at a field width that holds them (`_sign_masks`); the
    problem keeps the columns' bounds and the widest pack so far, so a
    solve packs its columns once unless a later call needs wider fields,
    and no pairing of a point is kept. The sorted maximal states of each mode,
    before Weyl deduplication, are cached for the loci and
    `classify_torus`, and so are the Weyl orbit labels of the support
    positions that the deduplication buckets by.
    `weyl_guard` bounds the Weyl set closure of the deduplication, which
    runs only for a kept state whose bucket a later candidate shares.
    """

    def __init__(
        self,
        group,
        support,
        *,
        weyl_optimisation=False,
        cell_guard=DEFAULT_CELL_GUARD,
        weyl_guard=DEFAULT_WEYL_GUARD,
    ):
        if support.group != group:
            raise RankMismatchError("support belongs to a different group")
        self.group = group
        self.support = support
        self.weyl_optimisation = bool(weyl_optimisation)
        self.cell_guard = cell_guard
        self.weyl_guard = weyl_guard
        self.index = {w.coeffs: i for i, w in enumerate(support.weights)}
        self.reflections = _reflection_table(group, support.weights, self.index)
        coefficient_columns = tuple(zip(*(w.coeffs for w in support.weights)))
        self._pairing_columns = tuple(
            tuple(dot_rows(coefficient_columns, row)) for row in group.cartan_adjugate
        )
        self._pairing_vectors = tuple(zip(*self._pairing_columns))
        self._column_bounds = [max(map(abs, column)) for column in self._pairing_columns]
        self._packed = None
        self._normals = tuple(_dedupe_lines(self._pairing_vectors))
        self._rays = None
        self._cells = None
        self._maximal = {}
        self._orbit_labels = None

    def _search(self):
        if self._rays is None:
            rays, cells = rays_and_cells(self._normals, self.group.rank, guard=self.cell_guard)
            self._rays, self._cells = tuple(rays), tuple(cells)

    def rays(self):
        self._search()
        return self._rays

    def cells(self):
        self._search()
        return self._cells


def new_problem(
    group,
    highest,
    weyl_optimisation=False,
    *,
    support_guard=DEFAULT_SUPPORT_GUARD,
    cell_guard=DEFAULT_CELL_GUARD,
    weyl_guard=DEFAULT_WEYL_GUARD,
):
    """Build a problem from a dominant highest weight."""
    support = weight_support(group, highest, guard=support_guard)
    return GITProblem(
        group,
        support,
        weyl_optimisation=weyl_optimisation,
        cell_guard=cell_guard,
        weyl_guard=weyl_guard,
    )


def problem_from_weights(
    group,
    coeff_rows,
    weyl_optimisation=False,
    *,
    cell_guard=DEFAULT_CELL_GUARD,
    weyl_guard=DEFAULT_WEYL_GUARD,
):
    """Build a problem from an explicit, Weyl-closed weight list."""
    support = support_from_weights(group, coeff_rows)
    return GITProblem(
        group,
        support,
        weyl_optimisation=weyl_optimisation,
        cell_guard=cell_guard,
        weyl_guard=weyl_guard,
    )


def state_of(problem, lam, mode):
    """The state of one-parameter subgroup lam under the given mode."""
    if lam.group != problem.group:
        raise RankMismatchError("one-parameter subgroup belongs to a different group")
    if mode not in _MODES:
        raise ParseError(f"unknown mode {mode!r}; expected one of {sorted(_MODES)}")
    masks, width = _sign_masks(problem, [lam.coeffs])
    selected = _weights(problem, _indices(problem, _MODES[mode][1](*masks[0]), width))
    return State(kind=_MODES[mode][0], weights=selected, witness=lam)


def _weights(problem, indices):
    """The support weights at the indices."""
    return tuple(map(problem.support.weights.__getitem__, indices))


def _sign_masks(problem, points):
    """The masks (ge, gt) of the support weights that pair >= 0 and > 0
    with each point, and the field width in bytes that `_indices` reads
    them with.

    Each pairing column is packed into one integer with a field of `width`
    bytes per support weight, in support order, and the point's pairings
    are then one multiply-add per nonzero coordinate on the bias
    2^(8 width - 1) in every field. A width holds the points when every
    column entry and every pairing of the points lies in (-bias, bias), so
    each biased field lies in [0, 2 bias) and no field carries into the
    next: a field's top bit is set exactly when its pairing is >= 0, and,
    less one, exactly when it is > 0. The problem keeps the widest pack
    made so far and reuses it whenever its width holds the points;
    otherwise the columns are packed afresh at the least width that does,
    and that pack is kept instead."""
    bounds = problem._column_bounds
    bound = max([*bounds, *(sum(abs(c) * b for c, b in zip(p, bounds)) for p in points)])
    width = bound.bit_length() // 8 + 1
    if problem._packed is None or problem._packed[0] < width:
        n = len(problem.index)
        bias = 1 << (8 * width - 1)
        top = int.from_bytes(bias.to_bytes(width, "little") * n, "little")
        ones = int.from_bytes((1).to_bytes(width, "little") * n, "little")
        packed = [
            int.from_bytes(b"".join([(u + bias).to_bytes(width, "little") for u in column]), "little") - top
            for column in problem._pairing_columns
        ]
        problem._packed = (width, top, ones, packed)
    width, top, ones, packed = problem._packed
    masks = []
    for point in points:
        fields = top
        for c, column in zip(point, packed):
            if c:
                fields += c * column
        masks.append((fields & top, (fields - ones) & top))
    return masks, width


def _indices(problem, mask, width):
    """The ascending support positions of a `_sign_masks` mask."""
    n = len(problem.index)
    return tuple(compress(range(n), mask.to_bytes(n * width, "little")[width - 1 :: width]))


def _distinct(masks, witnesses):
    """Each distinct nonzero mask, with the first witness point that gives
    it, in the order first seen."""
    out = {}
    for mask, point in zip(masks, witnesses):
        if mask:
            out.setdefault(mask, point)
    return out


def _maximal_only(masks):
    """The masks that no other mask strictly contains, largest first: a
    mask is dropped when it lies in one already kept, and only a larger
    mask can strictly contain it."""
    kept = []
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        if not any(mask & other == mask for other in kept):
            kept.append(mask)
    return kept


def _orbit_labels(problem):
    """The Weyl orbit of each support position, labelled by its first
    position: the connected components of the simple reflections'
    permutations of the support, found once per problem."""
    labels = problem._orbit_labels
    if labels is None:
        labels = [None] * len(problem.index)
        for start, label in enumerate(labels):
            if label is None:
                labels[start] = start
                stack = [start]
                while stack:
                    i = stack.pop()
                    for permutation in problem.reflections:
                        j = permutation[i]
                        if labels[j] is None:
                            labels[j] = start
                            stack.append(j)
        problem._orbit_labels = labels
    return labels


def _weyl_bucket(problem, indices):
    """W-invariants of an index set, which conjugate sets share: its size,
    the sorted orbit labels of its members and the dominant form of the sum
    of their coefficients."""
    labels, weights = _orbit_labels(problem), problem.support.weights
    total = tuple(map(sum, zip(*(weights[i].coeffs for i in indices))))
    dominant = _chamber_word(problem.group.cartan, total, reflect_weight_coeffs)[0]
    return len(indices), tuple(sorted(map(labels.__getitem__, indices))), dominant


def _drop_weyl_duplicates(problem, entries):
    """The entries, in order, whose index set is in the Weyl class of no
    earlier entry. Conjugate sets share a `_weyl_bucket`, so a kept set
    closes its class under the simple reflections, breadth first within the
    guard, and sees every member only when a later entry shares its bucket;
    otherwise no later entry can be in its class. An entry of a size no
    other entry has is bucketed by its size alone."""
    reflections, guard = problem.reflections, problem.weyl_guard
    sizes = Counter(len(indices) for indices, _ in entries)
    buckets = [
        _weyl_bucket(problem, indices) if sizes[len(indices)] > 1 else len(indices)
        for indices, _ in entries
    ]
    later = Counter(buckets)
    kept = []
    seen = set()
    for (indices, point), bucket in zip(entries, buckets):
        later[bucket] -= 1
        if indices in seen:
            continue
        kept.append((indices, point))
        if later[bucket]:
            members = _closure(
                indices,
                lambda current: [tuple(sorted(map(p.__getitem__, current))) for p in reflections],
                guard,
                lambda reached, rounds: f"Weyl set closure exceeded the guard of {guard},"
                f" with {len(reached)} sets of {len(indices)} weights reached in round {rounds}",
            )
            seen.update(members)
    return kept


def _as_states(problem, mode, entries):
    kind = _MODES[mode][0]
    return [
        State(kind=kind, weights=_weights(problem, indices), witness=OneParameterSubgroup(problem.group, point))
        for indices, point in entries
    ]


def _sorted_maximal(problem, mode):
    """The inclusion-maximal distinct states of the mode (>=0 over the rays,
    >0 over the cells) as (indices, point), largest first, before Weyl
    deduplication; computed once per problem."""
    entries = problem._maximal.get(mode)
    if entries is None:
        witnesses = problem.rays() if mode == ">=0" else problem.cells()
        masks, width = _sign_masks(problem, witnesses)
        first = _distinct(starmap(_MODES[mode][1], masks), witnesses)
        entries = [(_indices(problem, m, width), first[m]) for m in _maximal_only(first)]
        entries.sort(key=lambda e: (-len(e[0]), e[0]))
        problem._maximal[mode] = entries
    return entries


def _maximal_states(problem, mode):
    """The inclusion-maximal distinct states of the mode, largest first,
    one per Weyl class under the problem's optimisation."""
    entries = _sorted_maximal(problem, mode)
    if problem.weyl_optimisation:
        entries = _drop_weyl_duplicates(problem, entries)
    return _as_states(problem, mode, entries)


def solve_non_stable(problem):
    """Maximal non-stable states: >= 0 states over the arrangement rays,
    filtered to inclusion-maximal ones."""
    return _maximal_states(problem, ">=0")


def solve_unstable(problem):
    """Maximal unstable states: > 0 states over the open-cell witnesses,
    filtered to inclusion-maximal ones; empty states are dropped."""
    return _maximal_states(problem, ">0")


def solve_strictly_polystable(problem):
    """Strictly polystable states: = 0 states over the rays and the first
    cell witness whose hull has the origin in its relative interior,
    deduplicated up to Weyl equivalence of the weight sets. Nested states
    are kept on purpose. No weight but 0 vanishes at a cell witness, so
    `cells()[0]` gives {0} its witness when no ray does, and a support
    without the zero weight reads the rays alone.

    The origin is in the relative interior of the hull of the members' pairing
    vectors v_i exactly when sum c_i v_i = 0 for some c > 0. Each distinct
    weight set Z is decided by the first of three steps that applies:
    * no, when a witness q of the locus pairs >= 0 with all of Z and > 0
      with one of its weights, as then sum c_i <v_i, q> > 0 for every c > 0;
    * yes, when the v_i sum to 0, as then c = 1 works;
    * otherwise by the relative-interior simplex."""
    vectors = problem._pairing_vectors
    witnesses = problem.rays()
    if (0,) * problem.group.rank in problem.index:
        witnesses = (*witnesses, *problem.cells()[:1])
    masks, width = _sign_masks(problem, witnesses)
    entries = []
    for zero, point in _distinct(starmap(_MODES["=0"][1], masks), witnesses).items():
        if any(ge & zero == zero and gt & zero for ge, gt in masks):
            continue
        indices = _indices(problem, zero, width)
        members = [vectors[i] for i in indices]
        if not any(map(sum, zip(*members))) or zero_in_relative_interior(members):
            entries.append((indices, point))
    entries.sort(key=lambda e: (len(e[0]), e[0]))
    entries = _drop_weyl_duplicates(problem, entries)
    return _as_states(problem, "=0", entries)


def _support_indices(problem, point_support, caller):
    """The support positions of the point's weights, checked to be
    `Weight`s, non-empty and inside the problem's support."""
    indices = []
    for w in point_support:
        if not isinstance(w, Weight):
            raise ParseError(f"{caller} needs Weight members, got {w!r}")
        if w.group != problem.group:
            raise RankMismatchError(
                f"weight {w.coeffs} belongs to {w.group.name}, not {problem.group.name}"
            )
        i = problem.index.get(w.coeffs)
        if i is None:
            raise ParseError(f"weight {w.coeffs} is not in the problem's support")
        indices.append(i)
    if not indices:
        raise ParseError(f"{caller} needs a non-empty support")
    return indices


def hm_mu(problem, point_support, lam):
    """Hilbert-Mumford pairing floor: min over the point's support of
    <chi, lam>. The point is non-stable for lam exactly when this is >= 0."""
    weights = _weights(problem, _support_indices(problem, point_support, "hm_mu"))
    return min(pairing(w, lam) for w in weights)


@dataclass(frozen=True)
class TorusClassification:
    verdict: str
    certificate: OneParameterSubgroup | None


def classify_torus(problem, point_support):
    """Classify a point, given by its weight support S, against the maximal
    torus by the Hilbert-Mumford criterion on the pairing vectors of S.

    "T-unstable" when some lam pairs > 0 with all of S (0 is not in the hull
    of S), "T-non-stable-semistable" when only some lam != 0 pairs >= 0 with
    all of S, and "T-stable" otherwise (0 is interior to the hull). The
    first `lp_feasible` call is the balanced system: lam >= 0 on S and
    > 0 on the sum of S. A lam that is > 0 on all of S is >= 0 on S and
    > 0 on its sum, so when the balanced system is infeasible the point is
    not T-unstable and that one LP decides it: T-stable on a full-rank S,
    and on a lower-rank S any kernel vector is a lam != 0 that is >= 0 on
    S. Only when the balanced system has a solution is the strict system
    (lam > 0 on S) posed, and its solution, if any, makes the point
    T-unstable; otherwise the balanced solution is the
    T-non-stable-semistable lam.

    The certificate comes from the cached loci, so that they stay under
    test: lam is reflected into the fundamental chamber by simple
    reflections, the same word w permutes the indices of S, and the first
    maximal chamber state of the verdict's mode (unstable, else non-stable)
    that contains w(S) gives its witness, mapped back by w^-1. The witness
    is a primitive ray or cell point and simple reflections are unimodular,
    so the certificate is primitive as it stands. Such a state exists
    because w(lam)'s state contains w(S) and the loci are complete; when
    none does, the loci are wrong and RuntimeError is raised. The Weyl
    group is never enumerated. G-stability is out of scope: only torus data
    is consulted.
    """
    indices = _support_indices(problem, point_support, "classify_torus")
    group = problem.group
    rank = group.rank
    vectors = [problem._pairing_vectors[i] for i in indices]
    verdict, mode = "T-non-stable-semistable", ">=0"
    lam = lp_feasible(vectors, [tuple(map(sum, zip(*vectors)))], rank)
    if lam is None:
        kernel = kernel_basis(vectors, rank)
        if not kernel:
            return TorusClassification(verdict="T-stable", certificate=None)
        lam = kernel[0]
    else:
        strict = lp_feasible((), vectors, rank)
        if strict is not None:
            verdict, mode, lam = "T-unstable", ">0", strict
    cartan = group.cartan
    word = _chamber_word(cartan, lam, reflect_coweight_coeffs)[1]
    target = set(indices)
    for i in word:
        target = set(map(problem.reflections[i].__getitem__, target))
    for state, point in _sorted_maximal(problem, mode):
        if target.issubset(state):
            for i in reversed(word):
                point = reflect_coweight_coeffs(cartan, point, i)
            return TorusClassification(verdict=verdict, certificate=OneParameterSubgroup(group, point))
    raise RuntimeError(
        f"no maximal {mode} chamber state contains the reflected support of a"
        f" {verdict} point; the loci are incomplete, which is a bug"
    )


@dataclass(frozen=True)
class GITSolution:
    """Solver output for the requested loci, plus run metadata. Loci that
    were not requested are None; timings are in seconds and excluded from
    equality comparisons."""

    group: SimpleGroup
    support: RepresentationSupport
    weyl_optimisation: bool
    nonstable: tuple[State, ...] | None
    unstable: tuple[State, ...] | None
    strictly_polystable: tuple[State, ...] | None
    timings: dict = field(compare=False, default_factory=dict)


_LOCI_SOLVERS = {
    "nonstable": solve_non_stable,
    "unstable": solve_unstable,
    "polystable": solve_strictly_polystable,
}


def parse_loci(loci):
    """The requested locus names, from a comma-separated string or an
    iterable of names: case and surrounding blanks are ignored, empty parts
    skipped, and repeats dropped in first-seen order."""
    if isinstance(loci, str):
        loci = loci.split(",")
    requested = []
    for name in loci:
        cleaned = str(name).strip().lower()
        if not cleaned:
            continue
        if cleaned not in _LOCI_SOLVERS:
            raise ParseError(
                f"unknown locus {cleaned!r}; expected any of {', '.join(_LOCI_SOLVERS)}"
            )
        if cleaned not in requested:
            requested.append(cleaned)
    if not requested:
        raise ParseError("no loci requested")
    return requested


def solve_all(problem, loci=("nonstable", "unstable", "polystable")):
    """Solve the requested loci (see `parse_loci`) and collect the results
    with timings."""
    results = {}
    timings = {}
    for name in parse_loci(loci):
        start = time.perf_counter()
        results[name] = tuple(_LOCI_SOLVERS[name](problem))
        timings[name] = time.perf_counter() - start
    return GITSolution(
        group=problem.group,
        support=problem.support,
        weyl_optimisation=problem.weyl_optimisation,
        nonstable=results.get("nonstable"),
        unstable=results.get("unstable"),
        strictly_polystable=results.get("polystable"),
        timings=timings,
    )
