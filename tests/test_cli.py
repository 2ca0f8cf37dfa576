import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import majlat
from majlat import (
    DimensionMismatchError,
    EmptyInputError,
    bottom,
    emit_lorenz_svg,
    family_inf,
    family_sup,
    join,
    make_vector,
    meet,
    partial_sums,
    top,
)
from majlat.cli import MESSAGE_LIMIT, main

FIG_X = ["0.6", "0.16", "0.16", "0.08"]
FIG_Y = ["0.5", "0.3", "0.1", "0.1"]


def write_vectors(path, vectors, d=None):
    doc = {"vectors": vectors}
    if d is not None:
        doc["d"] = d
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    return write_vectors(tmp_path / "pair.json", [FIG_X, FIG_Y], d=4)


def run_cli(*argv):
    return main(list(argv))


def read_result(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestCommands:
    def test_meet(self, pair_file, tmp_path):
        out = tmp_path / "result.json"
        assert run_cli("meet", "-i", pair_file, "--out", str(out)) == 0
        doc = read_result(out)
        assert doc["result"]["vectors"] == [["0.5", "0.26", "0.14", "0.1"]]
        assert doc["result"]["rationals"] == [["1/2", "13/50", "7/50", "1/10"]]
        assert doc["inputs"]["vectors"][0] == ["0.6", "0.16", "0.16", "0.08"]

    def test_join(self, pair_file, tmp_path):
        out = tmp_path / "result.json"
        assert run_cli("join", "-i", pair_file, "-o", str(out)) == 0
        assert read_result(out)["result"]["vectors"] == [["0.6", "0.2", "0.12", "0.08"]]

    def test_compare_equal(self, tmp_path):
        path = write_vectors(tmp_path / "same.json", [FIG_X, FIG_X])
        out = tmp_path / "result.json"
        assert run_cli("compare", "-i", path, "-o", str(out)) == 0
        doc = read_result(out)
        assert doc["ordering"] == "equal"
        assert doc["result"] is None

    def test_compare_incomparable(self, pair_file, tmp_path):
        out = tmp_path / "result.json"
        assert run_cli("compare", "-i", pair_file, "-o", str(out)) == 0
        assert read_result(out)["ordering"] == "incomparable"

    def test_inf_sup_match_library(self, tmp_path):
        rows = [["0.5", "0.4", "0.1"], ["0.55", "0.3", "0.15"], ["0.7", "0.2", "0.1"]]
        path = write_vectors(tmp_path / "family.json", rows)
        members = tuple(make_vector(r) for r in rows)
        for command, op in [("inf", family_inf), ("sup", family_sup)]:
            out = tmp_path / f"{command}.json"
            assert run_cli(command, "-i", path, "-o", str(out)) == 0
            got = read_result(out)["result"]["rationals"][0]
            assert got == [str(e) for e in op(members).entries]

    def test_meet_join_match_library(self, pair_file, tmp_path):
        x, y = make_vector(FIG_X), make_vector(FIG_Y)
        with_bom = tmp_path / "pair-bom.json"  # a UTF-8 byte-order mark is skipped
        with_bom.write_text("\ufeff" + Path(pair_file).read_text(encoding="utf-8"), encoding="utf-8")
        for path in (pair_file, str(with_bom)):
            for command, op in [("meet", meet), ("join", join)]:
                out = tmp_path / f"{command}.json"
                assert run_cli(command, "-i", path, "-o", str(out)) == 0
                got = read_result(out)["result"]["rationals"][0]
                assert got == [str(e) for e in op(x, y).entries]

    def test_polytope(self, tmp_path):
        path = write_vectors(tmp_path / "hull.json",
                             [["0.5", "0.4", "0.1"], ["0.55", "0.3", "0.15"]])
        out = tmp_path / "result.json"
        assert run_cli("polytope", "--inf", "-i", path, "-o", str(out)) == 0
        assert read_result(out)["result"]["vectors"] == [["0.5", "0.35", "0.15"]]
        assert run_cli("polytope", "--sup", "-i", path, "-o", str(out)) == 0
        assert read_result(out)["result"]["vectors"] == [["0.55", "0.35", "0.1"]]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_polytope_bounds_match_family_bounds(self, mode, tmp_path):
        path = write_vectors(tmp_path / "hull.json", [FIG_Y, FIG_X, FIG_Y])
        for which in ("inf", "sup"):
            blocks = []
            for argv in (["polytope", f"--{which}"], [which]):
                out = tmp_path / f"{argv[0]}.json"
                assert run_cli(*argv, "--mode", mode, "-i", path, "-o", str(out)) == 0
                blocks.append(read_result(out)["result"])
            assert blocks[0] == blocks[1]

    def test_ball_sup_inline_center(self, tmp_path):
        out = tmp_path / "result.json"
        code = run_cli("ball", "--center", "0.525,0.35,0.125", "--eps", "0.15",
                       "--sup", "-o", str(out))
        assert code == 0
        assert read_result(out)["result"]["vectors"] == [["0.6", "0.35", "0.05"]]

    @pytest.mark.parametrize("eps, code", [("-5e-13", 0), ("-2e-12", 1)])
    def test_float_ball_radius_within_tol_below_zero(self, eps, code, tmp_path):
        # within the default 1e-12 below zero the ball is its center; further below is an error
        out = tmp_path / "result.json"
        argv = ("ball", "--center", "0.5,0.5", f"--eps={eps}", "--mode", "float", "--sup", "-o", str(out))
        assert run_cli(*argv) == code
        if code == 0:
            assert read_result(out)["result"]["vectors"] == [["0.5", "0.5"]]

    def test_ball_vertices_default(self, tmp_path):
        out = tmp_path / "result.json"
        code = run_cli("ball", "--center", "0.525,0.35,0.125", "--eps", "0.15",
                       "-o", str(out))
        assert code == 0
        doc = read_result(out)
        assert doc["inputs"]["eps"] == "0.15"
        assert len(doc["result"]["vectors"]) == 6

    def test_ocr(self, pair_file, tmp_path):
        out = tmp_path / "result.json"
        assert run_cli("ocr", "--theory", "coherence", "-i", pair_file, "-o", str(out)) == 0
        assert read_result(out)["result"]["vectors"] == [["0.5", "0.26", "0.14", "0.1"]]
        assert run_cli("ocr", "--theory", "purity", "-i", pair_file, "-o", str(out)) == 0
        assert read_result(out)["result"]["vectors"] == [["0.6", "0.2", "0.12", "0.08"]]

    def test_lorenz_writes_svg(self, pair_file, tmp_path):
        svg = tmp_path / "curves.svg"
        out = tmp_path / "result.json"
        assert run_cli("lorenz", "-i", pair_file, "--svg", str(svg), "-o", str(out)) == 0
        text = svg.read_text(encoding="utf-8")
        assert text.count("<polyline") == 2
        assert read_result(out)["svg"] == str(svg)

    def test_csv_input(self, tmp_path):
        for name, bom in [("pair.csv", ""), ("pair-bom.csv", "\ufeff")]:  # a UTF-8 byte-order mark is skipped
            path = tmp_path / name
            path.write_text(bom + "0.6,0.16,0.16,0.08\n0.5,0.3,0.1,0.1\n", encoding="utf-8")
            out = tmp_path / "result.json"
            assert run_cli("meet", "-i", str(path), "-o", str(out)) == 0
            assert read_result(out)["result"]["vectors"] == [["0.5", "0.26", "0.14", "0.1"]]

    def test_float_mode(self, pair_file, tmp_path):
        out = tmp_path / "result.json"
        assert run_cli("meet", "-i", pair_file, "--mode", "float", "--tol", "1e-9",
                       "-o", str(out)) == 0
        doc = read_result(out)
        assert doc["tolerance"] == "1e-09"
        got = [float(s) for s in doc["result"]["vectors"][0]]
        assert got == pytest.approx([0.5, 0.26, 0.14, 0.1])
        assert "rationals" not in doc["result"]

    def test_sort_and_normalize_flags(self, tmp_path):
        path = write_vectors(tmp_path / "raw.json", [["1", "3", "1"], ["2", "2", "1"]])
        out = tmp_path / "result.json"
        assert run_cli("meet", "-i", path, "--sort", "--normalize", "-o", str(out)) == 0
        assert read_result(out)["inputs"]["vectors"][0] == ["0.6", "0.2", "0.2"]

    def test_stdout_default(self, pair_file, capsys):
        assert run_cli("compare", "-i", pair_file) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ordering"] == "incomparable"

    def test_result_round_trips_as_input(self, pair_file, tmp_path):
        first = tmp_path / "first.json"
        assert run_cli("meet", "-i", pair_file, "-o", str(first)) == 0
        result_doc = read_result(first)["result"]
        again = write_vectors(tmp_path / "again.json",
                              result_doc["vectors"] + result_doc["vectors"],
                              d=result_doc["d"])
        second = tmp_path / "second.json"
        assert run_cli("meet", "-i", again, "-o", str(second)) == 0
        assert read_result(second)["result"]["vectors"] == result_doc["vectors"]


# (command line, input vectors given, expected count in the message):
# too few and too many for each command; the open-ended ones take any number.
_ARITY_CASES = [
    (["compare"], 1, "2"), (["compare"], 3, "2"),
    (["meet"], 1, "2"), (["meet"], 3, "2"),
    (["join"], 1, "2"), (["join"], 3, "2"),
    (["ball", "--eps", "0.1"], 0, "1"), (["ball", "--eps", "0.1"], 3, "1"),
    (["inf"], 0, "at least 1"),
    (["sup"], 0, "at least 1"),
    (["polytope", "--inf"], 0, "at least 1"),
    (["ocr", "--theory", "purity"], 0, "at least 1"),
    (["lorenz", "--svg", "curves.svg"], 0, "at least 1"),
]


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path):
        path = write_vectors(tmp_path / "bad.json", [["0.5", "0.3"], ["0.6", "0.4"]])
        assert run_cli("meet", "-i", path) == 1  # first vector not normalized

    def test_arity_error_is_one(self, tmp_path):
        path = write_vectors(tmp_path / "one.json", [FIG_X])
        assert run_cli("meet", "-i", path) == 1

    @pytest.mark.parametrize("argv, count, expected", _ARITY_CASES,
                             ids=[f"{argv[0]}-{count}" for argv, count, _ in _ARITY_CASES])
    def test_arity_message(self, argv, count, expected, tmp_path, capsys):
        inputs = ["-i", write_vectors(tmp_path / "in.json", [FIG_X] * count)] if count else []
        assert run_cli(*argv, *inputs) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"majlat: InputArityError: {argv[0]} expects {expected} vector(s), got {count}\n"

    def test_failed_render_leaves_svg_file_unchanged(self, tmp_path):
        path = write_vectors(tmp_path / "mixed.json", [FIG_X, ["0.5", "0.25", "0.25"]])
        svg = tmp_path / "plot.svg"
        svg.write_text("earlier plot", encoding="utf-8")
        assert run_cli("lorenz", "-i", path, "--svg", str(svg)) == 1  # curve dimensions differ
        assert svg.read_text(encoding="utf-8") == "earlier plot"

    def test_missing_file_is_two(self, tmp_path):
        assert run_cli("meet", "-i", str(tmp_path / "nope.json")) == 2

    def test_malformed_json_is_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_cli("meet", "-i", str(path)) == 2

    def test_wrong_schema_is_two(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"rows": []}), encoding="utf-8")
        assert run_cli("meet", "-i", str(path)) == 2

    def test_dimension_above_cap_is_three(self):
        center = ",".join(["1/11"] * 11)
        assert run_cli("ball", "--center", center, "--eps", "0.1") == 3

    @pytest.mark.parametrize("which, expected", [
        ("--sup", ["0.25"] + ["0.1"] * 7 + ["0.05", "0", "0"]),
        ("--inf", ["0.15"] + ["0.1"] * 8 + ["0.025", "0.025"]),
    ])
    def test_ball_bounds_above_cap_exit_zero(self, which, expected, tmp_path):
        # the cap limits vertex listing only; the bounds have closed forms
        out = tmp_path / "result.json"
        center = ",".join(["0.2"] + ["0.1"] * 8 + ["0", "0"])
        assert run_cli("ball", "--center", center, "--eps", "0.1", which, "-o", str(out)) == 0
        assert read_result(out)["result"]["vectors"] == [expected]

    def test_ball_sup_at_dimension_2000(self, tmp_path):
        out = tmp_path / "result.json"
        center = ",".join(["1/2000"] * 2000)
        assert run_cli("ball", "--center", center, "--eps", "0.001", "--sup", "-o", str(out)) == 0
        assert read_result(out)["result"]["vectors"] == [["0.001"] + ["0.0005"] * 1998 + ["0"]]

    def test_tol_requires_float_mode(self, pair_file):
        assert run_cli("meet", "-i", pair_file, "--tol", "1e-9") == 2

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_float_tol_must_be_finite_and_positive(self, pair_file, tol, capsys):
        assert run_cli("compare", "-i", pair_file, "--mode", "float", "--tol", tol) == 2
        err = capsys.readouterr().err
        assert "--tol must be finite and greater than 0" in err
        assert "Traceback" not in err

    def test_lorenz_requires_svg(self, pair_file):
        assert run_cli("lorenz", "-i", pair_file) == 2

    def test_float_json_numbers_rejected_in_exact_mode(self, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text(json.dumps({"vectors": [[0.6, 0.4], [0.5, 0.5]]}), encoding="utf-8")
        assert run_cli("meet", "-i", str(path)) == 1

    def test_declared_dimension_mismatch_is_two(self, tmp_path):
        path = write_vectors(tmp_path / "dim.json", [FIG_X, FIG_Y], d=3)
        assert run_cli("meet", "-i", str(path)) == 2

    @pytest.mark.parametrize("declared, vector", [
        (True, ["1"]),  # equal to 1, but a bool
        (2.0, ["0.5", "0.5"]),  # equal to 2, but a float
        ("2", ["0.5", "0.5"]),  # a string, unequal to every length
    ], ids=["bool", "float", "string"])
    def test_declared_dimension_must_be_a_positive_integer(self, tmp_path, declared, vector, capsys):
        path = write_vectors(tmp_path / "d.json", [vector], d=declared)
        assert run_cli("inf", "-i", path) == 2
        err = capsys.readouterr().err
        assert err == f'majlat: {path}: "d" must be a positive integer, got {declared!r}\n'

    def test_result_too_large_to_print_is_three(self, tmp_path, capsys):
        # the meet's second entry has a denominator of about 8000 digits
        a, b = 10**4000 + 7, 10**4000 + 9
        x = [Fraction(3, 5) + Fraction(1, a), Fraction(4, 25), Fraction(4, 25) - Fraction(1, a), Fraction(2, 25)]
        y = [Fraction(1, 2) + Fraction(1, b), Fraction(3, 10) - Fraction(1, b), Fraction(1, 10), Fraction(1, 10)]
        path = write_vectors(tmp_path / "huge.json", [[str(v) for v in x], [str(v) for v in y]])
        assert run_cli("meet", "-i", path) == 3
        err = capsys.readouterr().err
        assert err.startswith("majlat: unsupported: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("center, code", [
        ("1" * 5000 + ",0", 2),  # an entry past the int-from-text digit limit
        (f"1/3,{10**3000 + 1}/{3 * 10**3000}", 1),  # entries increase
    ], ids=["long-literal", "long-unsorted-ratios"])
    def test_error_line_is_bounded(self, center, code, capsys):
        assert run_cli("ball", "--center", center, "--eps", "0.1") == code
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1
        assert len(err) <= MESSAGE_LIMIT + 1


    @pytest.mark.parametrize("name, text, mode, message", [
        ("big.csv", "1e400,0\n0.5,0.5\n", "float", "not a"),
        ("big.json", '{"vectors": [[1e400, 0], [0.5, 0.5]]}', "float", "not a"),
        ("nan.json", '{"vectors": [[NaN, 0], [0.5, 0.5]]}', "float", "not a"),
        # a quoted cell across a newline is one entry that is no scalar, not two entries
        ("newline.csv", '"0.\n5",0.5\n0.5,0.5\n', "exact", "not an exact scalar: '0.\\n5'"),
    ], ids=["csv-overflow", "json-overflow", "json-nan", "csv-cell-with-newline"])
    def test_non_finite_float_entry_is_two(self, tmp_path, name, text, mode, message, capsys):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert run_cli("meet", "--mode", mode, "-i", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"majlat: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, text", [
        (["meet"], f"1/1{'0' * 4200}7,1/1{'0' * 4200}9\n"),  # the sum has an 8400-digit denominator
        (["meet"], "1,-1e-5000\n"),  # a negative entry with a 5001-digit denominator
        (["ball", "--sup", "--eps=-1e-5000"], "1\n"),  # with a space, -1e-5000 would read as a flag
    ], ids=["unnormalized", "negative-entry", "negative-radius"])
    def test_value_past_digit_limit_in_message_is_one(self, tmp_path, argv, text, capsys):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        assert run_cli(*argv, "-i", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("majlat: N") and err.count("\n") == 1
        assert "digits" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_huge_decimal_exponent_is_two(self, mode, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1e99999999,0\n", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "majlat", "meet", "--mode", mode, "-i", str(path)],
                              env=dict(os.environ, PYTHONPATH=str(Path(majlat.__file__).parents[1])),
                              capture_output=True, encoding="utf-8", timeout=20)
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.startswith("majlat: decimal exponent") and proc.stderr.count("\n") == 1

    def test_internal_error_is_four(self, pair_file, monkeypatch, capsys):
        def broken(vectors, args):
            raise RuntimeError("kernel fault")

        monkeypatch.setitem(majlat.cli._COMMANDS, "meet", ("", 2, 2, broken))
        assert run_cli("meet", "-i", pair_file) == 4
        out, err = capsys.readouterr()
        assert err == "majlat: internal error: RuntimeError: kernel fault\n" and not out

    @pytest.mark.parametrize("name, data, message", [
        ("latin1.json", '{"vectors": [["0.5", "0.5"], ["1", "0"]], "note": "caf\xe9"}'.encode("latin-1"),
         "not UTF-8"),
        ("latin1.csv", "0.5,0.5\n1,0\ncaf\xe9\n".encode("latin-1"), "not UTF-8"),
        ("long-int.json", ('{"vectors": [[' + "1" * 5000 + ", 0], [1, 0]]}").encode(), "invalid JSON"),
        ("deep.json", ('{"vectors": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(), "invalid JSON"),
        ("long-cell.csv", ("0." + "0" * csv.field_size_limit() + "1,1\n").encode(), "invalid CSV"),
        ("scalar.json", b'{"vectors": 5}', '"vectors" must be a list of entry lists'),
        ("flat.json", b'{"vectors": [1, 2]}', '"vectors" must be a list of entry lists'),
    ], ids=["json-not-utf8", "csv-not-utf8", "json-int-past-digit-limit", "json-nested-past-recursion-limit",
            "csv-cell-past-field-limit", "vectors-not-a-list", "vectors-not-lists"])
    def test_unreadable_file_is_two(self, tmp_path, name, data, message, capsys):
        path = tmp_path / name
        path.write_bytes(data)
        assert run_cli("meet", "-i", str(path)) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith(f"majlat: {path}: {message}") and err.count("\n") == 1


# Inputs for the failure-contract fuzz test: vectors of at most 6 entries,
# mixing well-formed rows with odd entry types, odd "d" values and
# arbitrary JSON or CSV documents; ball radii come from the same odd cells.
_VALID_ROWS = [FIG_X, FIG_Y, ["1"], ["1/2", "1/2"], ["0.5", "0.3", "0.2"], ["0.4", "0.4", "0.2"]]
_cells = st.sampled_from(["0", "1", "0.5", "1/2", "2/3", "-0.1", "1/0", "1e400", "nan", "inf", ""])
_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
_entries = _cells | st.integers(-3, 3) | st.floats() | st.booleans() | st.none() | st.lists(_cells, max_size=2)
_rows = st.lists(st.sampled_from(_VALID_ROWS) | st.lists(_entries, max_size=6), max_size=4)
_json_documents = st.fixed_dictionaries(
    {"vectors": _rows}, optional={"d": st.integers(-1, 7) | _json_scalars}
) | st.recursive(
    _json_scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_csv_cells = _cells | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_csv_texts = st.lists(st.sampled_from(_VALID_ROWS) | st.lists(_csv_cells, max_size=6), max_size=4).map(
    lambda rows: "".join(",".join(row) + "\n" for row in rows)
) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_inputs = _json_documents.map(lambda doc: ("in.json", json.dumps(doc))) | _csv_texts.map(lambda t: ("in.csv", t))
_FUZZ_COMMANDS = {
    "compare": ["compare"], "meet": ["meet"], "join": ["join"], "inf": ["inf"], "sup": ["sup"],
    "polytope": ["polytope", "--inf"], "ocr": ["ocr", "--theory", "coherence"],
    "ball-inf": ["ball", "--inf"], "ball-sup": ["ball", "--sup"], "lorenz": ["lorenz"],
}


@pytest.mark.parametrize("command", _FUZZ_COMMANDS)
@given(given_input=_inputs, eps=_cells, mode=st.sampled_from(["exact", "float"]), sort=st.booleans(),
       normalize=st.booleans())
def test_failure_contract_holds_for_any_input(command, given_input, eps, mode, sort, normalize):
    name, text = given_input
    argv = [*_FUZZ_COMMANDS[command], "--mode", mode]
    argv += ["--sort"] * sort + ["--normalize"] * normalize
    if argv[0] == "ball":
        argv += ["--eps", eps]
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        if argv[0] == "lorenz":
            argv += ["--svg", str(Path(tmp) / "curves.svg")]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["-i", str(path)])
    assert code in (0, 1, 2, 3)
    if code:
        assert stderr.getvalue().count("\n") == 1 and not stdout.getvalue()


class TestSvg:
    def test_four_curves_four_polylines(self):
        curves = [
            ("e4", partial_sums(top(4))),
            ("u4", partial_sums(bottom(4))),
            ("x", partial_sums(make_vector(FIG_X))),
            ("y", partial_sums(make_vector(FIG_Y))),
        ]
        text = emit_lorenz_svg(curves)
        assert text.count("<polyline") == 4
        assert 'width="800" height="600"' in text

    def test_single_curve_pixel_coordinates(self):
        text = emit_lorenz_svg([("e2", partial_sums(top(2)))])
        # data points (0,0), (1,1), (2,1) on the fixed 800x600 canvas
        assert 'points="70.00,550.00 350.00,30.00 630.00,30.00"' in text

    def test_byte_identical_for_identical_input(self):
        curves = [("x", partial_sums(make_vector(FIG_X)))]
        assert emit_lorenz_svg(curves) == emit_lorenz_svg(curves)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            emit_lorenz_svg([("a", partial_sums(top(2))), ("b", partial_sums(top(3)))])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            emit_lorenz_svg([])

    def test_labels_are_escaped(self):
        text = emit_lorenz_svg([("a<b&c", partial_sums(top(2)))])
        assert "a&lt;b&amp;c" in text

    @pytest.mark.parametrize("count", [31, 40, 46, 47, 60, 200])
    def test_legend_stays_on_the_canvas(self, count):
        """Legend rows are 18 px apart while 31 fit; past that they move closer, and every
        legend rect and label (its font size above its baseline at most, a quarter of it
        below) stays inside the 600 px canvas, in order, the last one where the 31st sits.
        Up to 46 rows the swatch is 14 x 10 px and the font 12 px; past that the step falls
        below 12 px and both shrink with it. No swatch reaches the next, and no label's em
        box, one font size tall, reaches the next baseline's."""
        text = emit_lorenz_svg([(f"c{i}", partial_sums(top(3))) for i in range(count)])
        rects = [tuple(map(Fraction, found)) for found in
                 re.findall(r'<rect x="644.00" y="([0-9.]+)" width="([0-9.]+)" height="([0-9.]+)"', text)]
        labels = [tuple(map(Fraction, found)) for found in
                  re.findall(r'<text x="664.00" y="([0-9.]+)" font-family="monospace" font-size="([0-9.]+)"', text)]
        assert len(rects) == len(labels) == count
        assert all(0 <= y and y + height <= 600 for y, _, height in rects)
        assert all(size <= y <= 600 - size / 4 for y, size in labels)
        assert all(a + height <= b for (a, _, height), (b, _, _) in zip(rects, rects[1:]))
        assert all(a + size <= b for (a, size), (b, _) in zip(labels, labels[1:]))
        assert labels[0][0] == 44 and labels[-1][0] == 584
        if count <= 46:
            assert {(width, height) for _, width, height in rects} == {(14, 10)}
            assert {size for _, size in labels} == {12}
        else:
            assert max(size for _, size in labels) < 12
        if count <= 31:
            assert {b - a for (a, _), (b, _) in zip(labels, labels[1:])} == {18}

    # d = 17 and 64 thin the x ticks, and 11 and 12 curves wrap the palette; out/ has neither.
    @pytest.mark.parametrize("d, count, label, digest", [
        (1, 1, "c", "441da55b140b57b5e71d383f763f35065b5875e261ec01e99f980ed2d10a0fd6"),
        (17, 2, "c", "bf047da81c77200e1538af18615644495f4ac92e6af4052d7a3aad57d94b3de1"),
        (64, 3, "c", "c75c2b1629c25103e8b81c9003c7f566c15cb3a668226ac3a4f8e8ce6b95eb61"),
        (4, 11, "c", "10624af5e322fc8729500af89f24e112f69faf0f6c97f12e9adb6e522b0c5bce"),
        (4, 12, "c", "5474098f0bbb854858dd435601ad50de71f88296b45dbbda385d8de9e6155d04"),
        (3, 2, "<&>", "5fa632070fc1eb2452890b1bdb16e9420f3d2dbe03ac6771e881f4b5073a731d"),
    ], ids=["d1", "d17", "d64", "11-curves", "12-curves", "escaped-label"])
    def test_output_digests_are_pinned(self, d, count, label, digest):
        curves = [(f"{label}{i}", partial_sums(make_vector([str(d - k + i) for k in range(d)], normalize=True)))
                  for i in range(count)]
        text = emit_lorenz_svg(curves)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# Prints, as JSON, the heavy modules that `import majlat.cli` loads and the modules it
# adds that are neither built in, nor in the standard library (whose path holds
# site-packages, so that is excluded), nor majlat's own.
# It runs in a child, and takes the module set there, since .pth files import at start-up.
IMPORT_PROBE = """
import json, os, sys, sysconfig
before = set(sys.modules)
import majlat.cli

def under(path, *keys):
    return os.path.realpath(path).startswith(tuple(os.path.realpath(sysconfig.get_path(k)) + os.sep for k in keys))

def third_party(name):
    spec = getattr(sys.modules[name], "__spec__", None)
    origin = getattr(spec, "origin", None) or ""
    return not (
        name in sys.builtin_module_names
        or origin in ("built-in", "frozen")
        or (under(origin, "stdlib", "platstdlib") and not under(origin, "purelib", "platlib"))
        or name.partition(".")[0] == "majlat"
    )

added = set(sys.modules) - before
print(json.dumps([[m for m in HEAVY if m in sys.modules], sorted(filter(third_party, added)), len(added)]))
"""


def test_import_loads_no_xml_or_network_modules():
    heavy = ("xml.sax", "http.client", "email", "dataclasses", "inspect", "ast", "dis", "tokenize")
    code = IMPORT_PROBE.replace("HEAVY", repr(heavy))
    env = dict(os.environ, PYTHONPATH=str(Path(majlat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8", check=True)
    loaded_heavy, third_party, added = json.loads(proc.stdout)
    assert loaded_heavy == []
    assert added > 0 and third_party == []  # dependency-free: built-ins, stdlib and majlat only
