"""End-to-end tests for the command line interface."""

import hashlib
import json
import os
import threading

import pytest

from gitloci.cli import _Display, _render_structured, main
from gitloci.errors import ParseError
from gitloci.gitsolver import GITProblem, new_problem, parse_loci, solve_all
from gitloci.repsupport import (
    RepresentationSupport,
    parse_highest_weight,
    support_from_weights,
    weight_support,
)
from gitloci.exactgeom import primitive_vector
from gitloci.rootdata import OneParameterSubgroup, convert_coordinates, make_group, weight
from _oracles import structured_report_reference

A2_CUBIC_TEXT = """\
***************************************
SOLUTION TO GIT PROBLEM: NONSTABLE LOCI
***************************************
Group: A2
Representation: A2(3,0,0)
Set of maximal non-stable states:
(1) 1-PS = (1, 1, -2) yields a state with 7 characters
Maximal nonstable state={(0, 3, 0), (0, 2, 1), (1, 2, 0), (1, 1, 1), (2, 1, 0), (2, 0, 1), (3, 0, 0)}
(2) 1-PS = (2, -1, -1) yields a state with 6 characters
Maximal nonstable state={(1, 2, 0), (1, 1, 1), (1, 0, 2), (2, 1, 0), (2, 0, 1), (3, 0, 0)}

**************************************
SOLUTION TO GIT PROBLEM: UNSTABLE LOCI
**************************************
Group: A2
Representation: A2(3,0,0)
Set of maximal unstable states:
(1) 1-PS = (4, 1, -5) yields a state with 5 characters
Maximal unstable state={(0, 3, 0), (1, 2, 0), (2, 1, 0), (2, 0, 1), (3, 0, 0)}

*************************************************
SOLUTION TO GIT PROBLEM: STRICTLY POLYSTABLE LOCI
*************************************************
Group: A2
Representation: A2(3,0,0)
Set of strictly polystable states:
(1) A state with 1 characters
Strictly polystable state={(1, 1, 1)}
(2) A state with 3 characters
Strictly polystable state={(0, 2, 1), (1, 1, 1), (2, 0, 1)}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_a2_cubic_text_output(capsys):
    code, out, err = run(capsys, "solve", "A2", "--weight", "3,0,0")
    assert code == 0
    assert out == A2_CUBIC_TEXT
    assert err == ""


def test_each_banner_matches_its_title_width(capsys):
    _, out, _ = run(capsys, "solve", "A2", "--weight", "3,0,0")
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("SOLUTION TO GIT PROBLEM"):
            assert lines[i - 1] == "*" * len(line)
            assert lines[i + 1] == "*" * len(line)


def test_solve_b2_uses_chamber_coordinates_for_witnesses(capsys):
    code, out, _ = run(capsys, "solve", "B2", "--weight", "1,0", "--loci", "nonstable")
    assert code == 0
    assert "Representation: B2(1,0)" in out
    assert "(1) 1-PS = (1, 0) yields a state with 4 characters" in out
    assert "Maximal nonstable state={(-1, 2), (0, 0), (1, -2), (1, 0)}" in out
    assert "UNSTABLE" not in out.replace("NONSTABLE", "")


def test_loci_filter_limits_sections(capsys):
    _, out, _ = run(capsys, "solve", "A2", "--weight", "3,0,0", "--loci", "polystable")
    assert "STRICTLY POLYSTABLE" in out
    assert "NONSTABLE" not in out
    assert "(none)" not in out


def test_empty_locus_renders_a_placeholder(capsys):
    code, out, _ = run(capsys, "solve", "A2", "--weight", "0,0", "--loci", "unstable")
    assert code == 0
    assert "(none)" in out


def test_json_like_output_is_valid_json_with_expected_shape(capsys):
    code, out, _ = run(capsys, "solve", "A2", "--weight", "3,0,0", "--format", "json-like")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "gitloci/1"
    assert doc["group"] == {"letter": "A", "name": "A2", "rank": 2}
    assert doc["options"] == {"weyl_optimisation": False}
    assert doc["representation"]["source"] == "highest-weight"
    assert doc["representation"]["highest_weight_fundamental"] == [3, 0]
    assert doc["representation"]["highest_weight_L"] == [3, 0, 0]
    assert doc["support_size"] == 10
    assert doc["weight_coords"] == "L"
    assert doc["loci"]["nonstable"]["count"] == 2
    assert doc["loci"]["unstable"]["count"] == 1
    assert doc["loci"]["polystable"]["count"] == 2
    first = doc["loci"]["nonstable"]["states"][0]
    assert first["size"] == 7
    assert first["witness"]["H"] == [1, 1, -2]


def test_json_like_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "solve", "B2", "--weight", "3,0", "--format", "json-like")
    _, second, _ = run(capsys, "solve", "B2", "--weight", "3,0", "--format", "json-like")
    assert first == second


def test_weyl_opt_flag_is_recorded_and_reduces_no_worse(capsys):
    _, plain, _ = run(capsys, "solve", "B2", "--weight", "3,0", "--format", "json-like")
    _, reduced, _ = run(capsys, "solve", "B2", "--weight", "3,0", "--weyl-opt", "--format", "json-like")
    plain_doc = json.loads(plain)
    reduced_doc = json.loads(reduced)
    assert reduced_doc["options"] == {"weyl_optimisation": True}
    for locus in ("nonstable", "unstable", "polystable"):
        assert reduced_doc["loci"][locus]["count"] <= plain_doc["loci"][locus]["count"]


# The first 16 hex digits of the sha256 of each `--format json-like`
# report, without and with `--weyl-opt`, frozen from an earlier version of
# the solver, so that a refactor meant to keep every report is caught when
# it does not: the criterion-7 commands and the rank-2 benchmark inputs with
# every locus, then the rank 3-7 benchmark inputs with the non-stable and
# unstable loci (their polystable locus is known to be incomplete and is
# due to change; ROADMAP item 1).
FROZEN_REPORTS_ALL_LOCI = {
    ("A2", "3,0,0"): ("1da87abe41dd9dca", "2f0259e629f08212"),
    ("A2", "3,0"): ("1da87abe41dd9dca", "2f0259e629f08212"),
    ("A2", "4,0"): ("15c4a2c7aa798d56", "fb407cfac0b5809c"),
    ("A2", "5,0"): ("02022018a9e98a80", "5f5a9941786afd06"),
    ("A2", "6,0"): ("511831d7774e7255", "f119a31b00898772"),
    ("A2", "7,0"): ("7ef7db4acd905f35", "496f395e0c0f4556"),
    ("A2", "8,0"): ("2505eb32500549b1", "978b8872f8e1dcbd"),
    ("A2", "9,0"): ("56e58987c0cb1120", "3294801231f763a7"),
    ("A2", "10,0"): ("bf39190b48fb5796", "12660b2dae287ff1"),
    ("A2", "11,0"): ("28e1c6d3f231f070", "7b2d44ef0e3e7047"),
    ("A2", "12,0"): ("4b42a0b4b9a15070", "2c8b4b9788c860c8"),
    ("B2", "3*w1"): ("a4a27f649b96ff5d", "78e44bf2ecfb7e4b"),
    ("B2", "4*w1"): ("ecd3965020a0815c", "26d38b521393ea93"),
    ("B2", "5*w1"): ("eff26847566b7919", "360b2f7f14ba0f87"),
    ("B2", "6*w1"): ("268303ed5f4a37c2", "d4114ec4a20dd532"),
    ("B2", "7*w1"): ("e63ce4dc1098e7b2", "b432df30a47fdb35"),
    ("B2", "8*w1"): ("05fc3c74f36964f9", "12664bb63d11248a"),
    ("B2", "9*w1"): ("d6b0afe69f0b566b", "a02e3b28b3578430"),
    ("B2", "10*w1"): ("98719ceff78b147d", "6159f2abd9da4965"),
    ("B2", "11*w1"): ("36ed7b3c99f82827", "c143c4a590bb7a63"),
    ("B2", "12*w1"): ("801c19e53df0c706", "aa0fbe435d61e92b"),
    ("G2", "1,0"): ("b66f6cd76c138a3f", "612330bf1b460a5d"),
    ("G2", "2,0"): ("c3b359292473bc58", "94a60ecb64bd0249"),
    ("G2", "3,0"): ("bb7af2e6f7e5f039", "a9b286b16aef6750"),
    ("G2", "4,0"): ("409b342736171d3c", "da114061a119ef94"),
    ("G2", "0,1"): ("43919d80c44f03da", "5c4b6a7f7f0723f5"),
    ("G2", "0,2"): ("aeff10f9fb6ef941", "94ef6e7cf75d570c"),
    ("G2", "0,3"): ("b2f6e8cd006eb4eb", "92a7afe28da63693"),
}
FROZEN_REPORTS_NONSTABLE_UNSTABLE = {
    ("A3", "1,0,0"): ("23f835052951683c", "e24e76d46a61f2f1"),
    ("A3", "2,0,0"): ("e83a31facc0e8fc6", "03ae30aa77da3bce"),
    ("B3", "2,0,0"): ("d233b0646fa49b5e", "737c59f0df1d4f40"),
    ("B3", "0,1,0"): ("d324c5ef5659d7cb", "261d81c8b4f83041"),
    ("C3", "0,0,1"): ("81bc0bb37dfd8165", "32e564b275dd23ed"),
    ("A4", "1,0,0,0"): ("eaaa3c623c0301c1", "300162671f9984f0"),
    ("A4", "0,1,0,0"): ("d63e10828db05b31", "f5d6cfa28fc1e891"),
    ("B4", "0,0,0,1"): ("a7ba5e63f7723e1a", "19ed3ac32dc03f2f"),
    ("F4", "0,0,0,1"): ("567d5eddd8d2ce28", "662e18ea6fa1f4ac"),
    ("D4", "1,0,0,0"): ("6a221aa8f8f48aba", "a120bd52f539c31e"),
    ("A5", "0,0,1,0,0"): ("434df3d117f0fbc9", "cb16abf500370125"),
    ("A6", "1,0,0,0,0,0"): ("b69be4287669231d", "408d5ac5423f9ea0"),
    ("B6", "1,0,0,0,0,0"): ("e97b39fd9dfc82c1", "1240180b3c823c50"),
    ("C6", "1,0,0,0,0,0"): ("217ab120b8487b5a", "fe9463f74f1ebb79"),
    ("D6", "1,0,0,0,0,0"): ("9294b07d561d3010", "8bc330b317985651"),
    ("C7", "1,0,0,0,0,0,0"): ("6f3a352b7e638ec6", "bea47b71c6641ff6"),
}
FROZEN_REPORTS = [
    *((key, "nonstable,unstable,polystable", h) for key, h in FROZEN_REPORTS_ALL_LOCI.items()),
    *((key, "nonstable,unstable", h) for key, h in FROZEN_REPORTS_NONSTABLE_UNSTABLE.items()),
]


@pytest.mark.parametrize(
    "key, loci, hashes", FROZEN_REPORTS, ids=[" ".join(key) for key, _, _ in FROZEN_REPORTS]
)
def test_json_like_reports_match_frozen_hashes(capsys, key, loci, hashes):
    group, highest = key
    argv = ["solve", group, "--weight", highest, "--loci", loci, "--format", "json-like"]
    digests = []
    for extra in ([], ["--weyl-opt"]):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest()[:16])
    assert tuple(digests) == hashes


# The same for the text reports of the rank-2 benchmark inputs, with every
# locus, without and with `--weyl-opt`. The text path shares the display
# coordinates with the json-like one.
FROZEN_TEXT_REPORTS = {
    ("A2", "3,0"): ("b8cb9a8c0cc74263", "b8cb9a8c0cc74263"),
    ("A2", "4,0"): ("4cbf9c86f71e600c", "4cbf9c86f71e600c"),
    ("A2", "5,0"): ("4991c961b427320c", "4991c961b427320c"),
    ("A2", "6,0"): ("95ecb0e17a6de8db", "95ecb0e17a6de8db"),
    ("A2", "7,0"): ("2672bb1d7c391320", "2672bb1d7c391320"),
    ("A2", "8,0"): ("1583c30c17d0717e", "1583c30c17d0717e"),
    ("A2", "9,0"): ("ba413fd2571b98bf", "ba413fd2571b98bf"),
    ("A2", "10,0"): ("bfb6da670e318a45", "bfb6da670e318a45"),
    ("A2", "11,0"): ("e2b51163ff831bad", "e2b51163ff831bad"),
    ("A2", "12,0"): ("118ffb0ff4724093", "118ffb0ff4724093"),
    ("B2", "3*w1"): ("92a208bb3c576f03", "92a208bb3c576f03"),
    ("B2", "4*w1"): ("5a6498994f154ab9", "5a6498994f154ab9"),
    ("B2", "5*w1"): ("b988af5c523842ed", "b988af5c523842ed"),
    ("B2", "6*w1"): ("385b969c0e0cac19", "385b969c0e0cac19"),
    ("B2", "7*w1"): ("53493313558a8413", "53493313558a8413"),
    ("B2", "8*w1"): ("5edb98686f0dd1bf", "5edb98686f0dd1bf"),
    ("B2", "9*w1"): ("7d82adc14d3da0db", "7d82adc14d3da0db"),
    ("B2", "10*w1"): ("cc481d4e9d66a420", "cc481d4e9d66a420"),
    ("B2", "11*w1"): ("4b8d2e9dea5c5db4", "4b8d2e9dea5c5db4"),
    ("B2", "12*w1"): ("e39754135969d5e7", "e39754135969d5e7"),
    ("G2", "1,0"): ("563f871413bafee1", "563f871413bafee1"),
    ("G2", "2,0"): ("efeaed7cdbc2197b", "efeaed7cdbc2197b"),
    ("G2", "3,0"): ("ec3574c7692bf50c", "ec3574c7692bf50c"),
    ("G2", "4,0"): ("a658a5753037bcae", "a658a5753037bcae"),
    ("G2", "0,1"): ("661bdd36c92822fe", "661bdd36c92822fe"),
    ("G2", "0,2"): ("fcf3f4d6d4cf55d9", "fcf3f4d6d4cf55d9"),
    ("G2", "0,3"): ("2fddcef248523a9c", "2fddcef248523a9c"),
}


@pytest.mark.parametrize(
    "key, hashes", FROZEN_TEXT_REPORTS.items(), ids=[" ".join(key) for key in FROZEN_TEXT_REPORTS]
)
def test_text_reports_match_frozen_hashes(capsys, key, hashes):
    group, highest = key
    digests = []
    for extra in ([], ["--weyl-opt"]):
        code, out, _ = run(capsys, "solve", group, "--weight", highest, *extra)
        assert code == 0
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest()[:16])
    assert tuple(digests) == hashes


# The json-like emitter against `structured_report_reference`, the whole-tree
# `json.dumps` it replaced: every benchmark input with all loci, then a
# single locus, loci asked for out of order, two loci, a group with
# warnings (D2) and a locus with no states (A2 `0,0` has no unstable state).
EMITTER_CASES = [
    *((key, "nonstable,unstable,polystable") for key in FROZEN_REPORTS_ALL_LOCI),
    *((key, "nonstable,unstable,polystable") for key in FROZEN_REPORTS_NONSTABLE_UNSTABLE),
    (("A2", "3,0,0"), "unstable"),
    (("B2", "4*w1"), "polystable,nonstable"),
    (("G2", "2,0"), "unstable,nonstable"),
    (("B3", "2,0,0"), "nonstable,unstable"),
    (("D2", "1,0"), "nonstable,unstable,polystable"),
    (("A2", "0,0"), "unstable"),
]


def assert_emitter_matches_reference(group, support, highest, loci):
    display = _Display(group, highest)
    for weyl in (False, True):
        solution = solve_all(GITProblem(group, support, weyl_optimisation=weyl), loci)
        report = _render_structured(solution, loci, display)
        assert report == structured_report_reference(solution, loci, display)
    return report


@pytest.mark.parametrize(
    "key, loci", EMITTER_CASES, ids=[f"{' '.join(key)} {loci}" for key, loci in EMITTER_CASES]
)
def test_structured_emitter_matches_the_reference_renderer(key, loci):
    group = make_group(key[0])
    highest = parse_highest_weight(group, key[1])
    loci = parse_loci(loci)
    report = assert_emitter_matches_reference(group, weight_support(group, highest), highest, loci)
    if key == ("D2", "1,0"):
        assert group.warnings and json.loads(report)["warnings"] == list(group.warnings)
    if key == ("A2", "0,0"):
        assert json.loads(report)["loci"]["unstable"] == {"count": 0, "states": []}


@pytest.mark.parametrize(
    "name, rows",
    [
        ("A2", [(1, 0), (-1, 1), (0, -1), (0, 0)]),
        ("B2", [(1, 0), (-1, 2), (0, 0), (1, -2), (-1, 0)]),
    ],
)
def test_structured_emitter_matches_the_reference_on_a_weights_file_support(name, rows):
    group = make_group(name)
    support = support_from_weights(group, rows)
    assert support.highest is None
    report = assert_emitter_matches_reference(group, support, None, parse_loci("nonstable,unstable,polystable"))
    assert json.loads(report)["representation"]["source"] == "weights-file"


# Every benchmark input with every locus, a group with warnings (D2) and a
# weights-file support, without and with `--weyl-opt`: the json-like report
# is its own document written again by `json.dumps(indent=2,
# sort_keys=True)`, an oracle that needs no reference renderer.
CANONICAL_CASES = [
    *((key, ["--weight", key[1]]) for key in FROZEN_REPORTS_ALL_LOCI),
    *((key, ["--weight", key[1]]) for key in FROZEN_REPORTS_NONSTABLE_UNSTABLE),
    (("D2", "1,0"), ["--weight", "1,0"]),
    (("B2", "weights file"), None),
]


@pytest.mark.parametrize(
    "key, source", CANONICAL_CASES, ids=[" ".join(key) for key, _ in CANONICAL_CASES]
)
def test_json_like_report_is_the_canonical_dump_of_its_document(capsys, tmp_path, key, source):
    if source is None:
        rows = tmp_path / "weights.txt"
        rows.write_text("1, 0\n-1, 2\n0, 0\n1, -2\n-1, 0\n")
        source = ["--weights-file", str(rows)]
    for extra in ([], ["--weyl-opt"]):
        code, out, _ = run(capsys, "solve", key[0], *source, "--format", "json-like", *extra)
        assert code == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if key[0] == "D2":
        assert doc["warnings"]
    if source[0] == "--weights-file":
        assert doc["representation"]["highest_weight_fundamental"] is None


@pytest.mark.parametrize(
    "name, text", [("A1", "2"), ("A2", "3,0"), ("A2", "12,0"), ("A3", "2,0,0"), ("A4", "0,1,0,0")]
)
def test_display_forms_equal_the_library_conversions(name, text):
    """The report's integer L and H forms are the library's conversions: L
    at the highest weight's natural trace, H times rank+1 made primitive."""
    group = make_group(name)
    highest = parse_highest_weight(group, text)
    problem = new_problem(group, highest)
    display = _Display(group, highest)
    trace = sum((i + 1) * c for i, c in enumerate(highest.coeffs))
    for w in problem.support:
        form = display.weight(w.coeffs)
        assert form == convert_coordinates(group, w.coeffs, "fundamental-weight", "L", trace=trace)
        if w.is_dominant:
            assert parse_highest_weight(group, ",".join(map(str, form))) == weight(group, form, "L")
    for point in (*problem.rays(), *problem.cells()):
        h_form = convert_coordinates(group, point, "fundamental-coweight", "H")
        scaled = [(group.rank + 1) * x for x in h_form]
        assert all(x.denominator == 1 for x in scaled)
        expected = primitive_vector([int(x) for x in scaled])
        assert display.witness(OneParameterSubgroup(group, point)) == expected


def test_out_writes_the_report_to_a_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "solve", "A2", "--weight", "3,0,0", "--out", str(target))
    assert code == 0
    assert out == ""
    assert str(target) in err
    assert target.read_text() == A2_CUBIC_TEXT


@pytest.mark.parametrize("command", ["solve", "support"])
def test_unwritable_out_path_exits_with_two(capsys, tmp_path, command):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, command, "A2", "--weight", "3,0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"gitloci: error: cannot write {target}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


IN_PLACE_COMMANDS = [
    ["solve", "A2", "--weight", "3,0,0", "--format", "json-like"],
    ["solve", "A2", "--weight", "3,0,0", "--format", "text"],
    ["support", "A2", "--weight", "3,0", "--list-weights"],
]


@pytest.mark.parametrize("argv", IN_PLACE_COMMANDS, ids=[" ".join(a) for a in IN_PLACE_COMMANDS])
def test_out_overwrites_a_longer_file_in_place(capsys, tmp_path, argv):
    _, expected, _ = run(capsys, *argv)
    target = tmp_path / "report"
    target.write_bytes(b"#" * (3 * len(expected) + 1))
    inode = target.stat().st_ino
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out, err) == (0, "", f"wrote {target}\n")
    assert target.read_bytes() == expected.encode("utf-8")
    assert target.stat().st_ino == inode


@pytest.mark.parametrize("command", ["solve", "support"])
def test_out_to_a_device_is_written_without_truncation(capsys, command):
    code, out, err = run(capsys, command, "A2", "--weight", "3,0", "--out", os.devnull)
    assert (code, out, err) == (0, "", f"wrote {os.devnull}\n")


def test_out_to_a_fifo_writes_the_whole_report(capsys, tmp_path):
    argv = ["solve", "A2", "--weight", "3,0,0", "--format", "json-like"]
    _, expected, _ = run(capsys, *argv)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, out, err = run(capsys, *argv, "--out", str(fifo))
    reader.join(timeout=30)
    assert (code, out, err) == (0, "", f"wrote {fifo}\n")
    assert received == [expected.encode("utf-8")]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("command", IN_PLACE_COMMANDS, ids=[" ".join(a) for a in IN_PLACE_COMMANDS])
def test_out_to_own_stdout_keeps_an_append(capsys, tmp_path, command):
    # `--out /dev/stdout >> file`: reopening /dev/stdout would write from
    # the file's start, so the report goes through standard output instead.
    import subprocess
    import sys

    _, expected, _ = run(capsys, *command)
    target = tmp_path / "appended"
    target.write_text("earlier line\n")
    with open(target, "a") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "gitloci.cli", *command, "--out", "/dev/stdout"],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert (result.returncode, result.stderr) == (0, "wrote /dev/stdout\n")
    assert target.read_text() == "earlier line\n" + expected


def test_out_with_standard_output_closed_writes_the_file(capsys, tmp_path):
    # The target then takes descriptor 1, and is not standard output.
    import subprocess
    import sys

    argv = ["solve", "A2", "--weight", "3,0,0", "--format", "json-like"]
    _, expected, _ = run(capsys, *argv)
    target = tmp_path / "report.json"
    script = 'exec "$0" -m gitloci.cli "$@" >&-'
    result = subprocess.run(
        ["sh", "-c", script, sys.executable, *argv, "--out", str(target)],
        stderr=subprocess.PIPE,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, f"wrote {target}\n")
    assert target.read_text() == expected


def test_weights_file_input(capsys, tmp_path):
    source = tmp_path / "weights.txt"
    source.write_text(
        "# adjoint-free toy support\n"
        "1, 0\n"
        "-1 1\n"
        "0,-1\n"
        "0 0\n"
    )
    code, out, _ = run(capsys, "solve", "A2", "--weights-file", str(source), "--format", "json-like")
    assert code == 0
    doc = json.loads(out)
    assert doc["representation"]["source"] == "weights-file"
    assert doc["support_size"] == 4
    assert doc["weight_coords"] == "fundamental"


def test_weights_file_rejects_non_closed_sets(capsys, tmp_path):
    source = tmp_path / "weights.txt"
    source.write_text("1, 0\n")
    code, _, err = run(capsys, "solve", "A2", "--weights-file", str(source))
    assert code == 2
    assert "not closed" in err


def test_non_closed_weights_read_the_same_from_library_and_cli(capsys, tmp_path):
    group = make_group("A2")
    rows = [(0, -1), (1, 0)]
    with pytest.raises(ParseError) as from_rows:
        support_from_weights(group, rows)
    hand_built = RepresentationSupport(group, None, tuple(weight(group, row) for row in rows))
    with pytest.raises(ParseError) as from_problem:
        GITProblem(group, hand_built)
    message = (
        "support is not closed under the Weyl group: reflection 2 maps (0, -1) to (-1, 1),"
        " which is missing"
    )
    assert str(from_rows.value) == str(from_problem.value) == message
    source = tmp_path / "weights.txt"
    source.write_text("0, -1\n1, 0\n")
    code, out, err = run(capsys, "solve", "A2", "--weights-file", str(source))
    assert code == 2
    assert out == ""
    assert err == f"gitloci: error: {message}\n"


def test_weights_file_reports_offending_line(capsys, tmp_path):
    source = tmp_path / "weights.txt"
    source.write_text("1, 0\nnope\n")
    code, _, err = run(capsys, "solve", "A2", "--weights-file", str(source))
    assert code == 2
    assert "nope" in err or ":2" in err


def test_weights_file_that_is_not_utf8_exits_with_two(capsys, tmp_path):
    source = tmp_path / "weights.txt"
    source.write_bytes(b"\xff\xfe1\x000\x00\n\x00")
    code, out, err = run(capsys, "solve", "A2", "--weights-file", str(source))
    assert code == 2
    assert out == ""
    assert err.startswith(f"gitloci: error: cannot read weights file {source}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json-like"])
def test_weights_file_with_a_utf8_byte_order_mark_reads_as_without_it(capsys, tmp_path, fmt):
    body = b"1,0\n-1,1\n0,-1\n"
    reports = []
    for name, data in (("plain.txt", body), ("marked.txt", b"\xef\xbb\xbf" + body)):
        source = tmp_path / name
        source.write_bytes(data)
        code, out, err = run(capsys, "solve", "A2", "--weights-file", str(source), "--format", fmt)
        assert (code, err) == (0, "")
        reports.append(out)
    assert reports[0] == reports[1]
    assert "[custom support of 3 weights]" in reports[0]


def test_parse_failures_exit_with_two(capsys):
    for argv in (
        ["solve", "G5", "--weight", "1,0"],
        ["solve", "A2", "--weight", "x,y"],
        ["solve", "A2", "--weight", "0,0,3"],
        ["solve", "A2", "--weight", "1,0", "--loci", "bogus"],
        ["solve", "A2", "--weight", "1_0,0"],
        ["solve", "A2", "--weight", "３,0"],
        ["solve", "A2", "--weight", "٣,0"],
        ["solve", "A2", "--weight", "3,0,"],
        ["solve", "A٣", "--weight", "1,0,0"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("gitloci:")


def test_unknown_locus_reads_the_same_from_library_and_cli(capsys):
    group = make_group("A2")
    problem = new_problem(group, parse_highest_weight(group, "3,0,0"))
    with pytest.raises(ParseError) as raised:
        solve_all(problem, "nonstable, Bogus")
    code, out, err = run(capsys, "solve", "A2", "--weight", "3,0,0", "--loci", "nonstable, Bogus")
    assert code == 2
    assert out == ""
    assert err == f"gitloci: error: {raised.value}\n"


def test_empty_loci_exit_with_two(capsys):
    code, out, err = run(capsys, "solve", "A2", "--weight", "3,0,0", "--loci", ",")
    assert code == 2
    assert out == ""
    assert err == "gitloci: error: no loci requested\n"


def test_resource_guard_exits_with_three(capsys, monkeypatch):
    monkeypatch.setenv("GITLOCI_SUPPORT_GUARD", "5")
    code, _, err = run(capsys, "solve", "A2", "--weight", "3,0,0")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize("raw", ["zero", "\u0665", "1_0", "\uff13", "5,5"])
def test_bad_guard_environment_value_exits_with_two(capsys, monkeypatch, raw):
    monkeypatch.setenv("GITLOCI_SUPPORT_GUARD", raw)
    code, out, err = run(capsys, "solve", "A2", "--weight", "3,0,0")
    assert code == 2
    assert out == ""
    assert err == f"gitloci: error: environment variable GITLOCI_SUPPORT_GUARD must be an integer, got {raw!r}\n"


@pytest.mark.parametrize(
    "argv, guard, message",
    [
        (
            ["A3", "--weight", "2,0,0"],
            "1",
            "ray and cell search exceeded the guard of 1 cells, with 2 cells at line 1 of 3",
        ),
        (
            ["A2", "--weight", "3,0", "--loci", "unstable"],
            "1",
            "ray and cell search exceeded the guard of 1 cells, with 2 cells at line 1 of 1",
        ),
        # The non-stable locus reads only rays, which the same search builds
        # with the cells, so the guard bounds it too (A3 10,0,0 has 1088 cells).
        (
            ["A3", "--weight", "10,0,0", "--loci", "nonstable"],
            "100",
            "ray and cell search exceeded the guard of 100 cells, with 108 cells at line 31 of 96",
        ),
    ],
    ids=["search", "planar", "rays"],
)
def test_cell_guard_from_the_environment_exits_with_three(capsys, monkeypatch, argv, guard, message):
    monkeypatch.setenv("GITLOCI_CELL_GUARD", guard)
    code, out, err = run(capsys, "solve", *argv)
    assert (code, out, err) == (3, "", f"gitloci: resource guard: {message}\n")


def test_weyl_guard_from_the_environment_exits_with_three(capsys, monkeypatch):
    argv = ("solve", "A2", "--weight", "3,0", "--loci", "polystable")
    monkeypatch.setenv("GITLOCI_WEYL_GUARD", "2")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "gitloci: resource guard: Weyl set closure exceeded the guard of 2,"
        " with 3 sets of 3 weights reached in round 2\n"
    )
    monkeypatch.setenv("GITLOCI_WEYL_GUARD", "0")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "gitloci: error: environment variable GITLOCI_WEYL_GUARD must be positive, got 0\n"


# `int` alone would read each line that does not parse as some weight.
@pytest.mark.parametrize(
    "body, message",
    [
        ("1, 0\n1, 0, 0\n", "{source}:2: weight has 3 coefficients; expected 2"),
        ("# only comments\n\n   # and blanks\n", "weights file {source} contains no weights"),
        *(
            (f"0, 0\n{line}\n", f"{{source}}:2: cannot parse weight line {line!r}")
            for line in ("１, 0", "1_0, 0", "٣ 0", "1,,0", "3, 0,")
        ),
    ],
)
def test_weights_file_refusals_exit_with_two(capsys, tmp_path, body, message):
    source = tmp_path / "weights.txt"
    source.write_text(body)
    code, out, err = run(capsys, "solve", "A2", "--weights-file", str(source))
    assert (code, out) == (2, "")
    assert err == f"gitloci: error: {message.format(source=source)}\n"


def test_d2_warning_goes_to_stderr(capsys):
    code, out, err = run(capsys, "solve", "D2", "--weight", "1,0", "--loci", "nonstable")
    assert code == 0
    assert "A1 x A1" in err
    assert "A1 x A1" not in out


def test_support_subcommand_counts_weights(capsys):
    code, out, _ = run(capsys, "support", "A2", "--weight", "3,0,0")
    assert code == 0
    assert "Number of weights: 10" in out
    assert "(0, 3, 0)" not in out


def test_support_subcommand_lists_weights(capsys):
    code, out, _ = run(capsys, "support", "A2", "--weight", "3,0,0", "--list-weights")
    assert code == 0
    assert "Number of weights: 10" in out
    assert "(0, 3, 0)" in out and "(3, 0, 0)" in out


def test_module_entry_point_runs(capsys):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "gitloci.cli", "solve", "A2", "--weight", "3,0,0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == A2_CUBIC_TEXT
