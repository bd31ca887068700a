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
import stat
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
    _sorted_support,
    parse_highest_weight,
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
        self.highest_l = self.weight(highest.coeffs) if self.use_l_coords else None

    @property
    def weight_coords(self):
        return "L" if self.use_l_coords else "fundamental"

    def weight(self, coeffs):
        """The display form of the weight with these fundamental
        coefficients."""
        if not self.use_l_coords:
            return coeffs
        lifted = _suffix_sums(coeffs)
        shift, remainder = divmod(self._trace - sum(lifted), self.group.rank + 1)
        if remainder:
            raise RuntimeError(
                f"weight {coeffs} is not in the root-lattice coset of the highest weight;"
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


class _WeightForms(dict):
    """The rendered display form of each weight that a report prints, keyed
    by its fundamental coefficients and made on first use: `render` runs
    once per distinct weight, and only for weights that some state holds."""

    def __init__(self, display, render):
        super().__init__()
        self._display = display
        self._render = render

    def __missing__(self, coeffs):
        text = self[coeffs] = self._render(self._display.weight(coeffs))
        return text


def _render_text(solution, loci, display):
    """The text report; each weight that a state holds is formatted once per
    report."""
    lines = []
    weight_texts = _WeightForms(display, _format_vector)
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


def _json_block(items, indent, brackets="[]"):
    """Rendered items as `json.dumps(indent=2)` writes a list (or, with
    brackets "{}", an object of rendered ``"key": value`` members) whose
    closing bracket sits at `indent` spaces: one item per line, one level
    deeper."""
    if not items:
        return brackets
    inner = "\n" + " " * (indent + 2)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{' ' * indent}{brackets[1]}"


def _json_pieces(items, indent, brackets="[]"):
    """`_json_block` as a list of pieces, for the levels that hold the
    states: an item is a string or a list of such pieces, so that a locus's
    states are copied only by the report's one final join and not once more
    into each block around them. The small blocks (vectors, a state's
    weights, the group) stay with `_json_block`, whose one `str.join` costs
    less than a list of pieces."""
    if not items:
        return [brackets]
    inner = "\n" + " " * (indent + 2)
    pieces = []
    separator = brackets[0] + inner
    for item in items:
        pieces.append(separator)
        if isinstance(item, str):
            pieces.append(item)
        else:
            pieces += item
        separator = "," + inner
    pieces.append("\n" + " " * indent + brackets[1])
    return pieces


def _vector_fragment(values, indent=12):
    """An integer vector as a list value whose closing bracket sits at
    `indent` spaces. Entries are written as json writes an int, so a
    non-integer entry fails as it would in `json.dumps`."""
    return _json_block([*map(int.__repr__, values)], indent)


def _state_fragment(state, display, weight_members):
    """One state as `json.dumps(indent=2, sort_keys=True)` writes it as a
    member of a locus's "states" list. `weight_members` holds each weight as
    a `_vector_fragment`, a member of a state's weight list. Its witness is
    a ray or cell point, primitive already, and is written as it is."""
    weights = _json_block([weight_members[w.coeffs] for w in state.weights], 10)
    h_form = (
        f'            "H": {_vector_fragment(display.witness(state.witness))},\n'
        if display.group.dynkin.letter == "A"
        else ""
    )
    return (
        "{\n"
        f'          "size": {state.size},\n'
        f'          "weights": {weights},\n'
        '          "witness": {\n'
        f"{h_form}"
        f'            "coweight": {_vector_fragment(state.witness.coeffs)}\n'
        "          }\n"
        "        }"
    )


def _render_structured(solution, loci, display):
    """The json-like report. Its bytes equal
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of the document
    tree, each state a dict of "size", "weights" (the display coordinates of
    its members) and "witness" ("coweight", and "H" in type A).

    The document is written directly, its members in sorted key order, by
    `_json_block` at each level, or `_json_pieces` at the levels that hold
    the states, so that the report's text is copied once, by its final
    join; only the strings that come from outside the report's own names
    (the group's name and letter, the display name and the warnings) go
    through `json.dumps`, so that they are escaped as it escapes them. A
    weight's fragment is made the first time some state holds it
    (`_WeightForms`) and every later state that holds it reuses that
    fragment."""
    group = solution.group
    highest = display.highest
    weight_members = _WeightForms(display, _vector_fragment)
    loci_members = []
    for locus in sorted(loci):
        states = getattr(solution, _SOLUTION_FIELD[locus])
        fragments = [_state_fragment(state, display, weight_members) for state in states]
        loci_members.append(
            [
                f'"{locus}": {{\n      "count": {len(states)},\n      "states": ',
                *_json_pieces(fragments, 6),
                "\n    }",
            ]
        )
    representation = [f'"display": {json.dumps(display.representation_name(solution.support))}']
    if display.use_l_coords:
        representation.append(f'"highest_weight_L": {_vector_fragment(display.highest_l, 4)}')
    if highest is not None:
        representation.append(
            f'"highest_weight_fundamental": {_vector_fragment(highest.coeffs, 4)}'
        )
        representation.append('"source": "highest-weight"')
    else:
        representation.append('"highest_weight_fundamental": null')
        representation.append('"source": "weights-file"')
    group_members = [
        f'"letter": {json.dumps(group.dynkin.letter)}',
        f'"name": {json.dumps(group.name)}',
        f'"rank": {int.__repr__(group.rank)}',
    ]
    options = [f'"weyl_optimisation": {"true" if solution.weyl_optimisation else "false"}']
    document = [
        '"format": "gitloci/1"',
        f'"group": {_json_block(group_members, 2, "{}")}',
        ['"loci": ', *_json_pieces(loci_members, 2, "{}")],
        f'"options": {_json_block(options, 2, "{}")}',
        f'"representation": {_json_block(representation, 2, "{}")}',
        f'"support_size": {len(solution.support)}',
        f'"warnings": {_json_block([json.dumps(m) for m in group.warnings], 2)}',
        f'"weight_coords": "{display.weight_coords}"',
    ]
    return "".join([*_json_pieces(document, 0, "{}"), "\n"])


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
    """Write the report to stdout, or to `out_path` in place.

    The file is opened without truncation (and created if it is missing)
    and written from its start; a regular file is then cut to the report's
    length, while a device or a FIFO, such as ``/dev/stdout`` or
    ``/dev/null``, is never truncated. Cutting a file that is not empty to
    zero before the write, as ``open(path, "w")`` does, makes ext4 (with its
    default ``auto_da_alloc``) start writeback of the new data when the file
    is closed: writing the ten ``midrank`` benchmark reports over one path
    took 0.78-0.84 ms that way and 0.11-0.12 ms in place (in process,
    median of 31, ext4, 2-vCPU host).

    A target that is the file standard output is open on, such as
    ``/dev/stdout`` under ``>> file``, gets the report through standard
    output instead, with no seek and no truncation: reopened, it starts at
    offset 0 without the shell's append flag, and the report would
    overwrite what the file held. With descriptor 1 closed at start-up,
    `sys.stdout` is None and the target may have taken descriptor 1
    itself, so it is never standard output then."""
    if not out_path:
        sys.stdout.write(report)
        return
    try:
        with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
            status = os.fstat(handle.fileno())
            if sys.stdout is not None and os.path.samestat(status, os.fstat(1)):
                sys.stdout.write(report)
            else:
                handle.write(report.encode("utf-8"))
                if stat.S_ISREG(status.st_mode):
                    handle.truncate()
    except OSError as exc:
        raise ParseError(f"cannot write {out_path}: {exc}") from None
    print(f"wrote {out_path}", file=sys.stderr)


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
        support = _sorted_support(group, rows)
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
        lines.extend(_format_vector(display.weight(w.coeffs)) for w in support.weights)
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
