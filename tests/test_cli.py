"""End-to-end CLI checks: output text, JSON schema conformance, exit codes,
and byte determinism."""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import quadsing
from quadsing import cli, gw


def _run(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), stdout=out)
    return code, out.getvalue()


def _run_json(*argv):
    code, text = _run(*argv)
    return code, json.loads(text)


def _schema(name):
    ref = resources.files("quadsing.schemas").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# milnor
# ---------------------------------------------------------------------------


def test_milnor_text_output():
    code, text = _run("milnor", "--vars", "x,y", "x^2 - y^3")
    assert code == 0
    assert "Jacobian ring dimension: 2" in text
    assert "mu^q = ⟨1⟩ + ⟨-1⟩" in text


def test_milnor_ascii_fallback(monkeypatch):
    monkeypatch.setenv("QUADSING_ASCII", "1")
    code, text = _run("milnor", "--vars", "x,y", "x^2 - y^3")
    assert code == 0
    assert "mu^q = <1> + <-1>" in text
    assert "⟨" not in text


def test_milnor_json_output():
    code, doc = _run_json("milnor", "--json", "--vars", "x,y", "x^2 - y^3")
    assert code == 0
    assert doc["dimension"] == 2
    assert doc["gram"] == [[0, -6], [-6, 0]]
    jsonschema.validate(doc["form"], _schema("gw_element.schema.json"))


# ---------------------------------------------------------------------------
# conductor
# ---------------------------------------------------------------------------


def test_conductor_text_report():
    code, text = _run(
        "conductor", "--vars", "x,y", "--weights", "3,2", "--degree", "6",
        "x^2 - y^3",
    )
    assert code == 0
    assert "rank -2" in text
    assert "gw=skipped rank=true" in text


def test_conductor_json_validates():
    code, doc = _run_json(
        "conductor", "--json", "--vars", "x,y", "--degree", "2", "x^2 - y^2"
    )
    assert code == 0
    jsonschema.validate(doc, _schema("conductor_report.schema.json"))
    assert doc["verdicts"] == {"gw": True, "rank": True}


def test_conductor_json_weighted_validates():
    code, doc = _run_json(
        "conductor", "--json", "--vars", "x,y", "--weights", "3,2",
        "--degree", "6", "x^2 - y^3",
    )
    assert code == 0
    jsonschema.validate(doc, _schema("conductor_report.schema.json"))
    assert doc["verdicts"]["gw"] == "skipped"


def test_conductor_weighted_without_dividing_weights():
    """No weight needs to divide the degree: D5, E7 and x^3*y + y^5."""
    for weights, degree, src, mu in [
        ("3,2", "8", "x^2*y + y^4", 5),
        ("3,2", "9", "x^3 + x*y^3", 7),
        ("4,3", "15", "x^3*y + y^5", 11),
    ]:
        code, doc = _run_json(
            "conductor", "--json", "--vars", "x,y", "--weights", weights,
            "--degree", degree, src,
        )
        assert code == 0
        assert doc["verdicts"] == {"gw": "skipped", "rank": True}
        assert doc["rank"] == {"lhs": -mu, "rhs": -mu}


# ---------------------------------------------------------------------------
# euler / monodromy
# ---------------------------------------------------------------------------


def test_euler_hodge_report():
    code, text = _run("euler", "--degree", "4", "--ambient", "3")
    assert code == 0
    assert "1, 19, 1" in text
    assert "euler characteristic: 24" in text


def test_euler_quadric_report():
    code, text = _run("euler", "--quadric", "3")
    assert code == 0
    assert "rank: 4" in text


def test_euler_requires_ambient():
    out = io.StringIO()
    assert cli.run(["euler", "--degree", "3"], stdout=out) == 2
    code, doc = _run_json("euler", "--degree", "3", "--json")
    assert code == 2
    assert doc["error"]["code"] == "parse-error"
    assert "--ambient" in doc["error"]["message"]


def test_monodromy_even_is_zero():
    code, text = _run("monodromy", "--quadratic", "--dimension", "2")
    assert code == 0
    assert "variation: zero map" in text
    assert "Hom = 0" in text


def test_monodromy_odd_factors():
    code, text = _run("monodromy", "--quadratic", "--dimension", "3")
    assert code == 0
    assert "scalar -1" in text


def test_monodromy_json_validates():
    for dim in ("2", "3"):
        code, doc = _run_json(
            "monodromy", "--json", "--quadratic", "--dimension", dim
        )
        assert code == 0
        jsonschema.validate(doc, _schema("tate_monodromy.schema.json"))


def test_monodromy_kummer():
    code, text = _run("monodromy", "--kummer")
    assert code == 0
    assert "[0, -1]" in text
    assert "N(-1) o N = 0: true" in text


def test_monodromy_abstract():
    code, text = _run("monodromy", "--abstract", "5", "--dimension", "2")
    assert code == 0
    assert "-1/5" in text


# ---------------------------------------------------------------------------
# gw
# ---------------------------------------------------------------------------


def test_gw_invariants():
    code, text = _run("gw", "invariants", "⟨1,2⟩ - ⟨3⟩")
    assert code == 0
    assert "rank: 1" in text
    assert "discriminant: 6" in text


def test_gw_equal_and_arithmetic():
    code, text = _run("gw", "equal", "⟨1,-1⟩", "⟨2,-2⟩")
    assert code == 0 and "true" in text
    code, text = _run("gw", "mul", "<2>", "<3,5>")
    assert code == 0 and "⟨6⟩ + ⟨10⟩" in text


def test_gw_specialize_and_transfer():
    code, text = _run("gw", "specialize", "<3*t^2>")
    assert code == 0 and "⟨3⟩" in text
    code, text = _run("gw", "transfer", "--min-poly", "x^2+1", "<1>")
    assert code == 0 and "⟨1⟩ + ⟨-1⟩" in text


@pytest.mark.parametrize(
    "argv, printed",
    [
        # the product (1+t)/(1+t) is <1>
        (["gw", "mul", "--field", "Qt", "<1+t>", "<1/(1+t)>"], "⟨1⟩\n"),
        # u(0) = 2/3, whose class is 6
        (["gw", "mul", "--field", "Qt", "<(2+t)*(1+t)/((1+t)*(3-t))>", "<1>"], "⟨6⟩\n"),
        (["gw", "specialize", "<(2+t)*(1+t)/((1+t)*(3-t))>"], "⟨6⟩\n"),
        # t^3/t is an even power of t: no "*t" suffix
        (["gw", "mul", "--field", "Qt", "<t^3*(1+t)/(t*(2-t))>", "<1>"], "⟨2⟩\n"),
        # <4*t^2> and <1> are one class, so they cancel, and equality is decided
        (["gw", "add", "--field", "Qt", "<4*t^2>", "- <1>"], "0\n"),
        (["gw", "equal", "--field", "Qt", "<4*t^2>", "<1>"], "equal: true\n"),
        # both are hyperbolic planes, though their residue forms differ
        (["gw", "equal", "--field", "Qt", "<t,-t>", "<1,-1>"], "equal: true\n"),
        # 1 + t is a square in Q((t))
        (["gw", "equal", "--field", "Qt", "<1+t>", "<1>"], "equal: true\n"),
        (["gw", "equal", "--field", "Qt", "<t>", "<1>"], "equal: false\n"),
        (["gw", "equal", "--field", "Qt", "<t,t>", "<1,1>"], "equal: false\n"),
    ],
)
def test_gw_qt_classes_cancel_common_factors(argv, printed, monkeypatch):
    monkeypatch.delenv("QUADSING_ASCII", raising=False)
    assert _run(*argv) == (0, printed)


@pytest.mark.parametrize(
    "argv, printed, key, pos, neg",
    [
        (["conductor", "--vars", "x,y,z", "x^2 - y^2 + z^2"], "rhs = ⟨-1⟩  (rank 1)\n", "rhs",
         [-2, 2], [1]),
        (["gw", "add", "<2,-2>", "- <1>"], "⟨-1⟩\n", None, [-2, 2], [1]),
        (["gw", "add", "<2,-2> - <3,-3>", "<5>"], "⟨5⟩\n", None, [-2, 2, 5], [-3, 3]),
    ],
)
def test_text_prints_cancelled_sums_and_json_the_element(argv, printed, key, pos, neg,
                                                         monkeypatch):
    """A hyperbolic pair prints as <1> + <-1>, and a class it leaves on both
    sides cancels in the text; JSON keeps the element's own representatives."""
    monkeypatch.delenv("QUADSING_ASCII", raising=False)
    code, text = _run(*argv)
    assert code == 0 and printed in text
    code, doc = _run_json(*argv, "--json")
    assert code == 0 and (doc[key] if key else doc) == {"field": "Q", "pos": pos, "neg": neg}


def test_display_reads_the_field_by_value(monkeypatch):
    """An element over a context equal to RATIONALS, not the same object,
    prints its hyperbolic pairs as the equal one does."""
    monkeypatch.delenv("QUADSING_ASCII", raising=False)
    e = gw.GWElement(gw.FieldCtx("rationals"), [2, -2])
    assert e == gw.diag_form([2, -2])
    assert cli.display_form(e) == cli.display_form(gw.diag_form([2, -2])) == "⟨1⟩ + ⟨-1⟩"


def test_gw_json_validates():
    code, doc = _run_json("gw", "add", "--json", "<1,2>", "<3>")
    assert code == 0
    jsonschema.validate(doc, _schema("gw_element.schema.json"))
    assert doc["pos"] == [1, 2, 3]


@pytest.mark.parametrize(
    "matrix, message",
    [
        # once read by Fraction(str(v)) as 1000, 1/2, 1000, 2 and 1000
        ('[["1e3"]]', ": unexpected 'e3' after expression (at position 1)"),
        ('[["0.5"]]', ": unexpected character '.' (at position 1)"),
        ('[["1_000"]]', ": unexpected '_000' after expression (at position 1)"),
        ("[[0.5]]", " must be an integer or a string, not 0.5"),
        ("[[2.0]]", " must be an integer or a string, not 2.0"),
        # once a parse-error through Fraction("True") and Fraction("None")
        ("[[true]]", " must be an integer or a string, not true"),
        ("[[null]]", " must be an integer or a string, not null"),
        # once an uncaught ZeroDivisionError
        ('[["3/0"]]', ": division by zero (at position 1)"),
    ],
)
def test_matrix_entries_outside_the_grammar_are_parse_errors(matrix, message):
    code, doc = _run_json("gw", "diagonalize", matrix, "--json")
    assert code == 2
    assert doc["error"] == {
        "code": "parse-error",
        "message": f"matrix entry at row 0, column 0{message}",
    }


def test_matrix_entry_errors_name_row_and_column():
    code, doc = _run_json("gw", "diagonalize", '[[1, 2], [2, "4/x"]]', "--json")
    assert code == 2
    assert doc["error"]["message"] == (
        "matrix entry at row 1, column 1: unknown variable 'x' (at position 2)"
    )


@pytest.mark.parametrize(
    "matrix",
    # once read as [], [[5]] and [[1, 2], [2, 1]] by iterating strings and keys
    ["{}", '"5"', '["12", "21"]'],
)
def test_matrix_rows_must_be_json_arrays(matrix):
    code, doc = _run_json("gw", "diagonalize", matrix, "--json")
    assert code == 2
    assert doc["error"] == {
        "code": "parse-error",
        "message": f"matrix must be a JSON array of rows, not {matrix}",
    }


@pytest.mark.parametrize(
    "matrix, field, pos",
    [
        # once parse-errors: Fraction reads neither
        ('[["2^3"]]', "Q", [2]),
        ('[["(1+2)/3"]]', "Q", [1]),
        ('[["2^3", 1], [1, "-(1+2)/3"]]', "Fp:5", [2, 2]),
        # read as before
        ('[[" 3 ", "1/2"], ["1/2", 0]]', "Q", [-3, 3]),
    ],
)
def test_matrix_entries_read_in_the_one_grammar(matrix, field, pos):
    code, doc = _run_json("gw", "diagonalize", matrix, "--field", field, "--json")
    assert code == 0
    assert sorted(doc["pos"]) == pos and doc["neg"] == []


@pytest.mark.parametrize(
    "argv, message",
    [
        # once computed over Q(t) or Q[x]/(g), the flag ignored
        (["gw", "specialize", "--field", "Fp:7", "<t>"], "gw specialize reads Q(t), not --field"),
        (["gw", "specialize", "--field", "Qt", "<t>"], "gw specialize reads Q(t), not --field"),
        (["gw", "transfer", "--field", "Q", "--min-poly", "x^2+1", "<1>"],
         "gw transfer reads --min-poly, not --field"),
        (["gw", "add", "--min-poly", "x^2+1", "<1>", "<2>"],
         "gw add reads --field, not --min-poly"),
        (["gw", "specialize", "--min-poly", "x^2+1", "<t>"],
         "gw specialize reads Q(t), not --min-poly"),
        (["gw", "diagonalize", "[[1]]", "--min-poly", "x"],
         "gw diagonalize reads --field, not --min-poly"),
    ],
)
def test_a_flag_the_action_does_not_read_is_a_parse_error(argv, message):
    code, doc = _run_json(*argv, "--json")
    assert code == 2
    assert doc["error"] == {"code": "parse-error", "message": message}


def test_residue_field_is_built_once(monkeypatch, tmp_path):
    """gw transfer and each batch transfer point validate g once."""
    calls = []
    extension = gw.FieldCtx.extension.__func__

    def counted(cls, g):
        calls.append(g)
        return extension(cls, g)

    monkeypatch.setattr(gw.FieldCtx, "extension", classmethod(counted))
    assert _run("gw", "transfer", "--min-poly", "x^3-2", "<1, x>")[0] == 0
    assert len(calls) == 1
    points = tmp_path / "points.json"
    point = {"residue_field": "x^3-2", "milnor_form": "<1>", "degree": 2, "dimension": 1}
    points.write_text(json.dumps([point, point]))
    assert _run("batch", str(points))[0] == 0
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


def test_batch_mixed_points(tmp_path):
    f = tmp_path / "points.json"
    f.write_text(
        json.dumps(
            [
                {"vars": ["x", "y"], "poly": "x^2 - y^2", "degree": 2},
                {
                    "residue_field": "x^2+1",
                    "milnor_form": "<1>",
                    "degree": 2,
                    "dimension": 1,
                },
            ]
        )
    )
    code, doc = _run_json("batch", "--json", str(f))
    assert code == 0
    jsonschema.validate(doc, _schema("batch_report.schema.json"))
    assert len(doc["points"]) == 2
    assert doc["total"]["neg"] == [-2, -2, 1]
    assert doc["total"]["pos"] == []


def _point_contribution(tmp_path, dimension):
    f = tmp_path / "point.json"
    point = {"residue_field": "x^2+1", "milnor_form": "<1, x>", "degree": 2,
             "dimension": dimension}
    f.write_text(json.dumps([point]))
    code, doc = _run_json("batch", "--json", str(f))
    assert code == 0
    return doc["points"][0]["contribution"]


def test_batch_dimension_costs_nothing(tmp_path):
    """(-<w>)^n depends on n only through its parity, so a dimension of
    10^12 finishes at once with the contribution of dimension 2."""
    def timed_out(signum, frame):
        raise TimeoutError("a batch point of dimension 10^12 took over 5 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(5)
    try:
        huge = _point_contribution(tmp_path, 10**12)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert huge == _point_contribution(tmp_path, 2)
    assert _point_contribution(tmp_path, 10**12 + 1) == _point_contribution(tmp_path, 1)
    assert _point_contribution(tmp_path, 1) != _point_contribution(tmp_path, 2)


def test_batch_single_odp_sums_to_minus_minus_one(tmp_path):
    from quadsing import gw as gwmod

    f = tmp_path / "one.json"
    f.write_text(json.dumps([{"vars": ["x", "y"], "poly": "x^2 - y^2"}]))
    code, doc = _run_json("batch", "--json", str(f))
    assert code == 0
    assert doc["total"]["field"] == "Q"
    total = gwmod.GWElement(gwmod.RATIONALS, doc["total"]["pos"], doc["total"]["neg"])
    assert gwmod.is_equal(total, -gwmod.diag_form([-1]))


def test_batch_empty_array(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text("[]")
    code, text = _run("batch", str(f))
    assert code == 0
    assert "sum = 0" in text


def test_batch_reports_bad_entry_index(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps([{"vars": ["x", "y"], "poly": "x^2 -"}]))
    out = io.StringIO()
    assert cli.run(["batch", str(f)], stdout=out) == 2
    assert "batch entry 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        # once read as the variables 'x', ',' and 'y'
        ({"vars": "x,y", "poly": "x^2 - y^2"}, '"vars" must be a list of strings, not "x,y"'),
        # once read as the weights 3 and 2
        ({"vars": ["x", "y"], "poly": "x^2*y + y^4", "weights": "32"},
         '"weights" must be a list of integers, not "32"'),
        # once truncated to 2 and 1
        ({"vars": ["x", "y"], "poly": "x^2 - y^2", "degree": 2.7},
         '"degree" must be an integer, not 2.7'),
        ({"residue_field": "x^2+1", "milnor_form": "<1>", "degree": 2, "dimension": 1.9},
         '"dimension" must be an integer, not 1.9'),
        ({"residue_field": "x^2+1", "milnor_form": "<1>", "degree": "2", "dimension": 1},
         '"degree" must be an integer, not "2"'),
        # once an uncaught AttributeError
        ({"vars": ["x", "y"], "poly": 5}, '"poly" must be a string, not 5'),
        ({"residue_field": "x^2-2", "milnor_form": 5, "degree": 2, "dimension": 1},
         '"milnor_form" must be a string or a list of strings, not 5'),
        # once a parse error at position 6 of "<1> + 7"
        ({"residue_field": "x^2-2", "milnor_form": ["<1>", 7], "degree": 2, "dimension": 1},
         '"milnor_form" must be a string or a list of strings, not ["<1>", 7]'),
        # once "malformed ('milnor_form')"
        ({"residue_field": "x^2+1", "degree": 2, "dimension": 1}, '"milnor_form" is required'),
    ],
)
def test_batch_entry_types_are_checked(tmp_path, entry, message):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps([{"vars": ["x"], "poly": "x^2"}, entry]))
    code, doc = _run_json("batch", "--json", str(f))
    assert code == 2
    assert doc["error"] == {"code": "parse-error", "message": f"batch entry 1: {message}"}


# ---------------------------------------------------------------------------
# error handling and exit codes
# ---------------------------------------------------------------------------


def test_non_isolated_is_a_clean_mathematical_failure(capsys):
    out = io.StringIO()
    code = cli.run(["milnor", "--vars", "x,y", "x^2"], stdout=out)
    assert code == 1
    assert "not-isolated" in capsys.readouterr().err


def test_non_isolated_json_error_envelope():
    code, doc = _run_json("milnor", "--json", "--vars", "x,y", "x^2")
    assert code == 1
    assert doc["error"]["code"] == "not-isolated"


def test_parse_error_exits_two(capsys):
    out = io.StringIO()
    code = cli.run(["milnor", "--vars", "x,y", "x^2 -"], stdout=out)
    assert code == 2
    assert "parse-error" in capsys.readouterr().err


def test_unknown_variable_exits_two():
    code, doc = _run_json("milnor", "--json", "--vars", "x,y", "x^2 - z^3")
    assert code == 2
    assert doc["error"]["code"] == "unknown-variable"


def test_vars_must_be_identifiers():
    """--vars 1,y once declared an unreachable variable '1' and ended not-isolated."""
    code, doc = _run_json("milnor", "--json", "--vars", "1,y", "y^2")
    assert code == 2
    assert doc["error"]["code"] == "parse-error"
    assert "'1' at index 0 is not an identifier" in doc["error"]["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gw", "equal", "<1>", "<1>", "<2>"], "gw equal takes 2 arguments, got 3"),
        (["gw", "invariants", "<1>", "<2>"], "gw invariants takes 1 argument, got 2"),
        (["gw", "diagonalize", "[[1]]", "[[2]]"], "gw diagonalize takes 1 argument, got 2"),
        (["gw", "add", "<1>"], "gw add takes 2 arguments, got 1"),
    ],
)
def test_gw_actions_take_exactly_their_arguments(argv, message):
    code, doc = _run_json(*argv, "--json")
    assert code == 2
    assert doc["error"] == {"code": "parse-error", "message": message}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conductor", "--vars", "x,y", "--degree", "abc", "x^2", "--json"],
         "argument --degree: invalid int value: 'abc'"),
        (["gw", "frob", "<1>", "--json"], "argument action: invalid choice: 'frob'"),
        (["gw", "specialize", "--json"], "gw specialize takes 1 argument, got 0"),
        # an abbreviated --json still asks for the envelope
        (["milnor", "--js", "--vars", "x,y"], "the following arguments are required: poly"),
    ],
)
def test_usage_errors_under_json_get_the_error_envelope(argv, message, capsys):
    """These once exited 2 with empty stdout and argparse's usage on stderr."""
    code, doc = _run_json(*argv)
    assert code == 2
    assert doc["error"]["code"] == "parse-error"
    assert doc["error"]["message"].startswith(message)
    assert capsys.readouterr().err == ""


def test_gw_arguments_may_sit_on_both_sides_of_an_option(capsys):
    assert _run("gw", "equal", "<2>", "--field", "Fp:7", "<8>") == (0, "equal: true\n")
    assert _run("gw", "add", "--field", "Q", "-<1> + <2>", "<1>")[0] == 0
    code, text = _run("gw", "invariants", "--bogus", "<1>")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.endswith("quadsing: error: unrecognized arguments: --bogus\n")


def test_usage_errors_in_text_mode_print_the_usage(capsys):
    code, text = _run("conductor", "--vars", "x,y", "--degree", "abc", "x^2")
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: quadsing conductor ")
    assert err.endswith("quadsing conductor: error: argument --degree: invalid int value: 'abc'\n")


def test_help_exits_zero(capsys):
    """argparse ends --help with SystemExit(0); run turns that into 0."""
    code, text = _run("--help")
    assert (code, text) == (0, "")
    assert capsys.readouterr().out.startswith("usage: quadsing ")


def test_a_malformed_json_option_is_read_as_text_mode(capsys):
    """--json=1 is a usage error in the --json option itself, so the
    envelope cannot be asked for: the error goes to stderr, stdout stays
    empty."""
    assert cli._json_requested(["milnor", "--json=1"]) is False
    code, text = _run("milnor", "--vars", "x,y", "x^2 - y^3", "--json=1")
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: quadsing milnor ")
    assert err.endswith("quadsing milnor: error: argument --json: ignored explicit argument '1'\n")


def test_index_error_inside_the_library_is_not_a_missing_argument(monkeypatch):
    def broken(a, b):
        raise IndexError("list index out of range")

    monkeypatch.setattr("quadsing.gw.is_equal", broken)
    with pytest.raises(IndexError):
        cli.run(["gw", "equal", "<1>", "<1>"], stdout=io.StringIO())


@pytest.mark.parametrize(
    "argv, at",
    [
        (["gw", "invariants", "<0.5>"], 2),
        (["gw", "invariants", "--field", "Fp:7", "<1_000>"], 2),
        (["gw", "equal", "<1> <2>", "<1,2>"], 4),
        (["gw", "add", "<1> +", "<2>"], 5),
    ],
)
def test_form_syntax_errors_exit_two_with_a_position(argv, at):
    code, doc = _run_json(*argv, "--json")
    assert code == 2
    assert doc["error"]["code"] == "parse-error"
    assert doc["error"]["message"].endswith(f"(at position {at})")


def test_unknown_subcommand_exits_two():
    out = io.StringIO()
    assert cli.run(["frobnicate"], stdout=out) == 2


@pytest.mark.parametrize(
    "label",
    # not a field: a strong pseudoprime to bases 2..37, a composite, and 2
    ["Fp:318665857834031151167461", "Fp:15", "Fp:2"],
)
def test_field_without_odd_prime_modulus_is_a_parse_error(label):
    code, doc = _run_json("gw", "invariants", "<1,2>", "--field", label, "--json")
    assert code == 2
    assert doc["error"]["code"] == "parse-error"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gw", "equal", "<0>", "<1>"], "'0'"),
        (["gw", "invariants", "<7>", "--field", "Fp:7"], "'7'"),
        (["gw", "invariants", "<1/7>", "--field", "Fp:7"], "'1/7'"),
        (["gw", "diagonalize", "[[1,2],[3,4]]"], "symmetric"),
        (["gw", "diagonalize", "[[1,2],[2]]"], "square"),
        (["gw", "diagonalize", '[["1/7"]]', "--field", "Fp:7"], "denominator"),
        (["milnor", "--vars", "x", "x^2 + 1/0*x"], "division by zero"),
        (["milnor", "--vars", "x,x", "x^2"], "duplicate variable names"),
        # an empty name in --vars is kept and refused, not dropped
        (["milnor", "--vars", "x,,y", "x^2 - y^3"], "variable name '' at index 1 is not an identifier"),
        (["milnor", "--vars", "x,y,", "x^2 - y^3"], "variable name '' at index 2 is not an identifier"),
    ],
)
def test_malformed_input_is_a_parse_error(argv, named):
    code, doc = _run_json(*argv, "--json")
    assert code == 2
    assert doc["error"]["code"] == "parse-error"
    assert named in doc["error"]["message"]


@pytest.mark.parametrize(
    "argv, exit_code, error, message",
    [
        (["milnor", "--vars", ",", "x"], 2, "parse-error",
         "--vars must list at least one variable"),
        (["milnor", "--vars", "x,y", "--weights", "1,a", "x^2 - y^3"], 2, "parse-error",
         "--weights must be a comma-separated integer list"),
        (["monodromy", "--abstract", "3"], 2, "parse-error", "--abstract needs --dimension"),
        (["monodromy", "--quadratic"], 2, "parse-error", "--quadratic needs --dimension"),
        (["milnor", "--vars", "x", "0"], 1, "not-isolated",
         "all partial derivatives vanish identically"),
        (["milnor", "--vars", "x,y", "--weights", "1,1", "x^2 - y^3"], 1, "invalid-input",
         "f is not quasi-homogeneous for the given weights"),
        # once exit 0, the option ignored
        (["euler", "--quadric", "2", "--ambient", "5"], 2, "parse-error",
         "euler --quadric takes no --ambient"),
        (["monodromy", "--kummer", "--dimension", "3"], 2, "parse-error",
         "monodromy --kummer takes no --dimension"),
    ],
)
def test_rejected_arguments_exit_with_their_codes(argv, exit_code, error, message):
    code, doc = _run_json(*argv, "--json")
    assert code == exit_code
    assert doc["error"] == {"code": error, "message": message}


@pytest.mark.parametrize(
    "content, exit_code, error, message",
    [
        (None, 1, "invalid-input", "cannot read batch file: "),
        ("[1,", 2, "parse-error", "batch file is not valid JSON: "),
        ('{"vars": ["x"], "poly": "x^2"}', 2, "parse-error",
         "batch file must contain a JSON array"),
        ("[1]", 2, "parse-error", "batch entry 0: entry must be a JSON object"),
        # once "malformed ('poly')"
        ('[{"vars": ["x"]}]', 2, "parse-error", 'batch entry 0: "poly" is required'),
    ],
)
def test_unusable_batch_files_exit_with_their_codes(tmp_path, content, exit_code, error, message):
    f = tmp_path / "points.json"
    if content is not None:
        f.write_text(content)
    code, doc = _run_json("batch", "--json", str(f))
    assert code == exit_code
    assert doc["error"]["code"] == error
    assert doc["error"]["message"].startswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["conductor", "--vars", "x,y", "--degree", "3", "x^2 - y^2"],
        ["conductor", "--vars", "x,y", "--weights", "1,1", "--degree", "3", "x^2 - y^2"],
        ["milnor", "--vars", "x,y", "--degree", "4", "x^3 + y^3"],
    ],
)
def test_degree_contradicting_f_is_invalid_input(argv):
    code, doc = _run_json(*argv, "--json")
    assert code == 1
    assert doc["error"]["code"] == "invalid-input"


@pytest.mark.parametrize(
    "argv",
    [
        # once a traceback (ValueError: zero has no square class)
        ["conductor", "--vars", "x,y", "--degree", "0", "x^2 + y^3"],
        # once accepted, with <-3> as the conductor multiplier
        ["conductor", "--vars", "x,y", "--degree", "-3", "x^2 + y^3"],
        # once accepted
        ["milnor", "--vars", "x,y", "--degree", "0", "x^2 + y^3"],
    ],
)
def test_declared_degree_below_one_is_invalid_input(argv, capsys):
    degree = argv[argv.index("--degree") + 1]
    message = f"a declared degree must be at least 1, not {degree}"
    code, doc = _run_json(*argv, "--json")
    assert code == 1
    assert doc == {"error": {"code": "invalid-input", "message": message}}
    code, text = _run(*argv)
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == f"error (invalid-input): {message}\n"


def test_batch_degree_below_one_is_invalid_input(tmp_path):
    f = tmp_path / "bad.json"
    # once a parse-error, "malformed (zero has no square class)"
    f.write_text(json.dumps([{"vars": ["x", "y"], "poly": "x^2 + y^3", "degree": 0}]))
    code, doc = _run_json("batch", "--json", str(f))
    assert code == 1
    assert doc["error"] == {
        "code": "invalid-input",
        "message": "batch entry 0: a declared degree must be at least 1, not 0",
    }


def test_batch_negative_dimension_is_invalid_input(tmp_path):
    f = tmp_path / "bad.json"
    # once a parse-error, "malformed (only non-negative integer powers are defined)"
    entry = {"residue_field": "x^2+1", "milnor_form": "<1>", "degree": 2, "dimension": -1}
    f.write_text(json.dumps([entry]))
    code, doc = _run_json("batch", "--json", str(f))
    assert code == 1
    assert doc["error"] == {
        "code": "invalid-input",
        "message": "batch entry 0: dimension must be non-negative",
    }


@pytest.mark.parametrize("min_poly", ["x^2-1", "x^2-1/4", "x^2"])
def test_reducible_min_poly_is_invalid_extension(min_poly):
    code, doc = _run_json("gw", "transfer", "--min-poly", min_poly, "<1>", "--json")
    assert code == 1
    assert doc["error"] == {
        "code": "invalid-extension",
        "message": "minimal polynomial is reducible over Q",
    }


def test_batch_residue_field_dividing_by_zero_is_a_parse_error(tmp_path):
    f = tmp_path / "bad.json"
    entry = {"residue_field": "1/0*x^2+1", "milnor_form": "<1>", "degree": 2, "dimension": 1}
    f.write_text(json.dumps([entry]))
    code, doc = _run_json("batch", "--json", str(f))
    assert code == 2
    assert doc["error"]["code"] == "parse-error"
    assert "batch entry 0: division by zero" in doc["error"]["message"]


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------


def test_import_and_small_milnor_leave_sympy_unloaded(tmp_path):
    """sympy is imported on demand only, never by the package itself, nor
    by the milnor, euler, conductor and monodromy calls of a cold CLI, nor
    by a transfer or batch over a quadratic residue field."""
    points = tmp_path / "points.json"
    points.write_text(
        json.dumps([{"residue_field": "x^2+1", "milnor_form": "<1>", "degree": 2, "dimension": 1}])
    )
    argvs = [
        ["milnor", "--vars", "x,y", "x^2 - y^3", "--json"],
        ["euler", "--degree", "4", "--ambient", "3", "--json"],
        ["conductor", "--vars", "x,y", "--degree", "2", "x^2 - y^2", "--json"],
        ["conductor", "--vars", "x,y", "--weights", "3,2", "--degree", "8",
         "x^2*y + y^4", "--json"],
        ["monodromy", "--quadratic", "--dimension", "1", "--json"],
        ["gw", "transfer", "--min-poly", "x^2+1", "<1>", "--json"],
        ["gw", "transfer", "--min-poly", "x^2-2", "<1, x>", "--json"],
        ["batch", str(points), "--json"],
    ]
    script = (
        "import io, sys\n"
        "import quadsing, quadsing.cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert quadsing.cli.run(argv, stdout=io.StringIO()) == 0, argv\n"
        "print('sympy' in sys.modules)\n"
    )
    src = str(Path(quadsing.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


_LOADS = (
    "import io, json, sys\n"
    "before = set(sys.modules)\n"
    "import quadsing\n"
    "argv = json.loads(sys.argv[1])\n"
    "if argv:\n"
    "    import quadsing.cli\n"
    "    assert quadsing.cli.run(argv, stdout=io.StringIO()) == 0, argv\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        ([], None),
        (["monodromy", "--quadratic", "--dimension", "1", "--json"], {"gw", "poly", "ekl"}),
        (["gw", "equal", "<1,-1>", "<2,-2>", "--json"], {"ekl", "conductor", "euler", "tate"}),
        (["milnor", "--vars", "x,y", "x^2 - y^3", "--json"], {"conductor", "euler", "tate"}),
        (["euler", "--degree", "4", "--ambient", "3", "--json"],
         {"ekl", "poly", "gw", "_univar", "tate"}),
        (["conductor", "--vars", "x,y", "--degree", "2", "x^2 - y^2", "--json"], set()),
    ],
)
def test_a_call_loads_only_the_modules_it_runs(argv, unloaded):
    """In a fresh interpreter, ``import quadsing`` loads no submodule and a
    CLI call loads only the modules its subcommand runs; no call loads
    ``dataclasses``, which would pull in ``inspect`` and ``ast``."""
    src = str(Path(quadsing.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", _LOADS, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    loaded = set(json.loads(res.stdout))
    if unloaded is None:  # the bare import: no submodule at all
        assert not [m for m in loaded if m.startswith("quadsing.")]
    else:
        assert not loaded & {f"quadsing.{m}" for m in unloaded}, argv
    assert "dataclasses" not in loaded, argv


def test_module_entry_point_prints_what_run_writes():
    """``python -m quadsing.cli`` goes through ``main()`` and the
    ``__main__`` guard to the same exit code and bytes as ``cli.run``."""
    argv = ["gw", "equal", "<1,-1>", "<2,-2>", "--json"]
    src = str(Path(quadsing.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-m", "quadsing.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    code, text = _run(*argv)
    assert res.returncode == code == 0, res.stderr
    assert res.stdout == text


def test_exports_resolve_once():
    """Every exported name is the object its defining module binds, whether
    read as an attribute, listed by dir() or bound by a star import."""
    assert len(quadsing.__all__) == len(set(quadsing.__all__))
    for name in quadsing.__all__:
        value = getattr(quadsing, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(quadsing.__all__) <= set(dir(quadsing))
    namespace: dict = {}
    exec("from quadsing import *", namespace)
    assert all(namespace[name] is getattr(quadsing, name) for name in quadsing.__all__)
    with pytest.raises(AttributeError):
        quadsing.no_such_name


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_json_reports_are_byte_identical():
    probes = [
        ("conductor", "--json", "--vars", "x,y", "--degree", "3", "x^3 + y^3"),
        ("milnor", "--json", "--vars", "x,y", "x^2*y + y^4"),
        ("monodromy", "--json", "--quadratic", "--dimension", "4"),
    ]
    for argv in probes:
        _, first = _run(*argv)
        _, second = _run(*argv)
        assert first == second
