"""End-to-end tests for the command line interface."""

import json

import pytest

from gitloci.cli import main
from gitloci.errors import ParseError
from gitloci.gitsolver import new_problem, solve_all
from gitloci.repsupport import parse_highest_weight
from gitloci.rootdata import make_group

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


def test_out_writes_the_report_to_a_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "solve", "A2", "--weight", "3,0,0", "--out", str(target))
    assert code == 0
    assert out == ""
    assert str(target) in err
    assert target.read_text() == A2_CUBIC_TEXT


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


def test_weights_file_reports_offending_line(capsys, tmp_path):
    source = tmp_path / "weights.txt"
    source.write_text("1, 0\nnope\n")
    code, _, err = run(capsys, "solve", "A2", "--weights-file", str(source))
    assert code == 2
    assert "nope" in err or ":2" in err


def test_parse_failures_exit_with_two(capsys):
    for argv in (
        ["solve", "G5", "--weight", "1,0"],
        ["solve", "A2", "--weight", "x,y"],
        ["solve", "A2", "--weight", "0,0,3"],
        ["solve", "A2", "--weight", "1,0", "--loci", "bogus"],
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


def test_bad_guard_environment_value_exits_with_two(capsys, monkeypatch):
    monkeypatch.setenv("GITLOCI_SUPPORT_GUARD", "zero")
    code, _, err = run(capsys, "solve", "A2", "--weight", "3,0,0")
    assert code == 2


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
