"""Command-line interface.

Two subcommands: ``solve`` runs the requested loci of the stability problem
and prints either the banner-style text report or a deterministic
machine-readable JSON document; ``support`` only computes the weight support
of a representation.

Exit codes: 0 success, 2 parse/usage errors (including non-dominant weights
and invalid group names), 3 resource-guard overruns, 1 any other library
error. Resource guards can be tuned with the environment variables
GITLOCI_SUPPORT_GUARD, GITLOCI_CELL_GUARD and GITLOCI_WEYL_GUARD.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import (
    GitLociError,
    InvalidRankError,
    ParseError,
    ResourceGuardError,
)
from .exactgeom import DEFAULT_CELL_GUARD, primitive_vector
from .gitsolver import (
    GITProblem,
    parse_loci,
    solve_all,
)
from .repsupport import (
    DEFAULT_SUPPORT_GUARD,
    parse_highest_weight,
    support_from_weights,
    weight_support,
)
from .rootdata import DEFAULT_WEYL_GUARD, _parse_integers, _suffix_sums, make_group

_LOCI_TEXT = {
    "nonstable": (
        "SOLUTION TO GIT PROBLEM: NONSTABLE LOCI",
        "Set of maximal non-stable states:",
        "Maximal nonstable state=",
    ),
    "unstable": (
        "SOLUTION TO GIT PROBLEM: UNSTABLE LOCI",
        "Set of maximal unstable states:",
        "Maximal unstable state=",
    ),
    "polystable": (
        "SOLUTION TO GIT PROBLEM: STRICTLY POLYSTABLE LOCI",
        "Set of strictly polystable states:",
        "Strictly polystable state=",
    ),
}

_SOLUTION_FIELD = {
    "nonstable": "nonstable",
    "unstable": "unstable",
    "polystable": "strictly_polystable",
}


def _guard_from_env(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    values = _parse_integers(raw)
    if values is None or len(values) != 1:
        raise ParseError(f"environment variable {name} must be an integer, got {raw!r}")
    (value,) = values
    if value <= 0:
        raise ParseError(f"environment variable {name} must be positive, got {value}")
    return value


def _format_vector(values):
    return "(" + ", ".join(map(str, values)) + ")"


class _Display:
    """Coordinate choices for one run's report: L-forms for type A runs
    generated from a highest weight, fundamental coefficients otherwise.

    Both type A forms are computed on integers, from the suffix-sum lift
    that `rootdata.convert_coordinates` uses for L and H. A weight's L form
    is its suffix sums shifted by a constant so that their sum is that of
    the highest weight's suffix sums, its natural trace; that sum is
    ``sum((i + 1) * c_i)``, which each simple root changes by 0 or by
    rank+1, so the shift is exact on every weight of the support. A
    witness's H form is its suffix sums minus their mean, taken times
    rank+1 and made primitive. Outside type A a witness is shown as its
    coweight coefficients as they are: every witness is a ray or cell point
    of the arrangement, which is primitive already."""

    def __init__(self, group, highest):
        self.group = group
        self.highest = highest
        self.use_l_coords = group.dynkin.letter == "A" and highest is not None
        self._trace = sum(_suffix_sums(highest.coeffs)) if self.use_l_coords else None
        self.highest_l = self.weight(highest) if self.use_l_coords else None

    @property
    def weight_coords(self):
        return "L" if self.use_l_coords else "fundamental"

    def weight(self, w):
        if not self.use_l_coords:
            return w.coeffs
        lifted = _suffix_sums(w.coeffs)
        shift, remainder = divmod(self._trace - sum(lifted), self.group.rank + 1)
        if remainder:
            raise RuntimeError(
                f"weight {w.coeffs} is not in the root-lattice coset of the highest weight;"
                " this is a bug"
            )
        return tuple(x + shift for x in lifted)

    def witness(self, lam):
        if self.group.dynkin.letter == "A":
            lifted = _suffix_sums(lam.coeffs)
            total = sum(lifted)
            return primitive_vector([(self.group.rank + 1) * x - total for x in lifted])
        return lam.coeffs

    def representation_name(self, support):
        if self.highest is None:
            return f"{self.group.name}[custom support of {len(support)} weights]"
        hw = self.highest_l if self.use_l_coords else self.highest.coeffs
        return f"{self.group.name}({','.join(str(x) for x in hw)})"


def _render_text(solution, loci, display):
    """The text report; each weight of the support is formatted once per
    report."""
    lines = []
    weight_texts = {w.coeffs: _format_vector(display.weight(w)) for w in solution.support.weights}
    for locus in loci:
        title, set_header, state_label = _LOCI_TEXT[locus]
        states = getattr(solution, _SOLUTION_FIELD[locus])
        lines.append("*" * len(title))
        lines.append(title)
        lines.append("*" * len(title))
        lines.append(f"Group: {solution.group.name}")
        lines.append(f"Representation: {display.representation_name(solution.support)}")
        lines.append(set_header)
        if not states:
            lines.append("(none)")
        for index, state in enumerate(states, start=1):
            if locus == "polystable":
                lines.append(f"({index}) A state with {state.size} characters")
            else:
                witness = _format_vector(display.witness(state.witness))
                lines.append(
                    f"({index}) 1-PS = {witness} yields a state with {state.size} characters"
                )
            members = ", ".join([weight_texts[w.coeffs] for w in state.weights])
            lines.append(f"{state_label}{{{members}}}")
        lines.append("")
    return "\n".join(lines)


def _json_list(items, indent):
    """Rendered items as `json.dumps(indent=2)` writes a list whose closing
    bracket sits at `indent` spaces: one item per line, one level deeper."""
    if not items:
        return "[]"
    inner = " " * (indent + 2)
    return "[\n" + ",\n".join(inner + item for item in items) + "\n" + " " * indent + "]"


def _vector_fragment(values):
    """An integer vector as the value of a field of a state, or as a member
    of its weight list. Entries are written as json writes an int, so a
    non-integer entry fails as it would in `json.dumps`."""
    return _json_list([int.__repr__(v) for v in values], 12)


def _state_fragment(state, display, weight_fragments):
    """One state as `json.dumps(indent=2, sort_keys=True)` writes it as a
    member of a locus's "states" list. `weight_fragments` holds each weight
    of the support as a member of a state's weight list, indented; a state
    is never empty, so its list is one join of them. Its witness is a ray or
    cell point, primitive already, and is written as it is."""
    weights = ",\n".join([weight_fragments[w.coeffs] for w in state.weights])
    h_form = (
        f'            "H": {_vector_fragment(display.witness(state.witness))},\n'
        if display.group.dynkin.letter == "A"
        else ""
    )
    return (
        "{\n"
        f'          "size": {state.size},\n'
        f'          "weights": [\n{weights}\n          ],\n'
        '          "witness": {\n'
        f"{h_form}"
        f'            "coweight": {_vector_fragment(state.witness.coeffs)}\n'
        "          }\n"
        "        }"
    )


_STATES_SLOT = '"states": []'


def _render_structured(solution, loci, display):
    """The json-like report. Its bytes equal
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of the document
    tree, each state a dict of "size", "weights" (the display coordinates of
    its members) and "witness" ("coweight", and "H" in type A).

    Only the states are written here: each weight of the support is
    rendered once per report as a `_vector_fragment`, indented as a member
    of a weight list, and every state that holds it reuses that fragment.
    The rest of the tree, with every "states" list left empty, goes through
    one `json.dumps`, and each empty list is then filled in; a key of the
    tree can only appear as `"states": []` where a locus holds it, since
    quotes inside json strings are escaped. The loci come out in sorted
    order, so the lists are filled in that order."""
    group = solution.group
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
            locus: {"count": len(getattr(solution, _SOLUTION_FIELD[locus])), "states": []}
            for locus in loci
        },
        "warnings": list(group.warnings),
    }
    weight_fragments = {
        w.coeffs: " " * 12 + _vector_fragment(display.weight(w)) for w in solution.support.weights
    }
    filled = []
    for locus in sorted(loci):
        states = getattr(solution, _SOLUTION_FIELD[locus])
        fragments = [_state_fragment(state, display, weight_fragments) for state in states]
        filled.append('"states": ' + _json_list(fragments, 6))
    parts = json.dumps(doc, indent=2, sort_keys=True).split(_STATES_SLOT)
    if len(parts) != len(filled) + 1:
        raise RuntimeError("the report has a states slot per locus; this is a bug")
    return "".join(part + slot for part, slot in zip(parts, [*filled, ""])) + "\n"


def _read_weights_file(path, rank):
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read weights file {path}: {exc}") from None
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        row = _parse_integers(body)
        if row is None:
            raise ParseError(f"{path}:{line_no}: cannot parse weight line {line!r}")
        if len(row) != rank:
            raise ParseError(
                f"{path}:{line_no}: weight has {len(row)} coefficients; expected {rank}"
            )
        rows.append(row)
    if not rows:
        raise ParseError(f"weights file {path} contains no weights")
    return rows


def _emit(report, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(report)
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc}") from None
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(report)


def _warn(group):
    for message in group.warnings:
        print(f"warning: {message}", file=sys.stderr)


def _run_solve(args):
    group = make_group(args.group)
    _warn(group)
    loci = parse_loci(args.loci)
    support_guard = _guard_from_env("GITLOCI_SUPPORT_GUARD", DEFAULT_SUPPORT_GUARD)
    cell_guard = _guard_from_env("GITLOCI_CELL_GUARD", DEFAULT_CELL_GUARD)
    weyl_guard = _guard_from_env("GITLOCI_WEYL_GUARD", DEFAULT_WEYL_GUARD)
    if args.weights_file:
        rows = _read_weights_file(args.weights_file, group.rank)
        support = support_from_weights(group, rows)
        highest = None
    else:
        highest = parse_highest_weight(group, args.weight)
        support = weight_support(group, highest, guard=support_guard)
    problem = GITProblem(
        group,
        support,
        weyl_optimisation=args.weyl_opt,
        cell_guard=cell_guard,
        weyl_guard=weyl_guard,
    )
    solution = solve_all(problem, loci)
    display = _Display(group, highest)
    if args.format == "json-like":
        report = _render_structured(solution, loci, display)
    else:
        report = _render_text(solution, loci, display)
    _emit(report, args.out)
    return 0


def _run_support(args):
    group = make_group(args.group)
    _warn(group)
    support_guard = _guard_from_env("GITLOCI_SUPPORT_GUARD", DEFAULT_SUPPORT_GUARD)
    highest = parse_highest_weight(group, args.weight)
    support = weight_support(group, highest, guard=support_guard)
    display = _Display(group, highest)
    lines = [
        f"Group: {group.name}",
        f"Representation: {display.representation_name(support)}",
        f"Number of weights: {len(support)}",
    ]
    if args.list_weights:
        lines.append("Weights:")
        lines.extend(_format_vector(display.weight(w)) for w in support.weights)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def _build_parser():
    """The command's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gitloci",
        description=(
            "Solve GIT stability problems for simple groups acting on"
            " projectivized irreducible representations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute stability loci")
    solve.add_argument("group", help="Dynkin name, e.g. A2 or B3")
    source = solve.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--weight",
        help="highest weight: fundamental coefficients '3,0', L-coordinates"
        " '3,0,0' (type A), or 'd*w<i>'",
    )
    source.add_argument(
        "--weights-file",
        help="path to a file with one weight per line (fundamental"
        " coefficients); bypasses the highest-weight construction",
    )
    solve.add_argument(
        "--loci",
        default="nonstable,unstable,polystable",
        help="comma-separated subset of nonstable,unstable,polystable",
    )
    solve.add_argument(
        "--weyl-opt",
        action="store_true",
        help="deduplicate Weyl-equivalent nonstable/unstable states",
    )
    solve.add_argument("--format", choices=("text", "json-like"), default="text")
    solve.add_argument("--out", help="write the report to this path instead of stdout")
    solve.set_defaults(func=_run_solve)

    support = sub.add_parser("support", help="compute only the weight support")
    support.add_argument("group", help="Dynkin name, e.g. A2 or B3")
    support.add_argument("--weight", required=True, help="highest weight specification")
    support.add_argument(
        "--list-weights", action="store_true", help="also list the sorted weights"
    )
    support.add_argument("--out", help="write the report to this path instead of stdout")
    support.set_defaults(func=_run_support)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidRankError) as exc:
        print(f"gitloci: error: {exc}", file=sys.stderr)
        return 2
    except ResourceGuardError as exc:
        print(f"gitloci: resource guard: {exc}", file=sys.stderr)
        return 3
    except GitLociError as exc:
        print(f"gitloci: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
