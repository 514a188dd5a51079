"""Expression grammar, subcommand dispatch, exit codes, and schemas."""

import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hyperslice.cli import Request, main, run
from hyperslice.errors import ExpressionSyntaxError, UnknownBasisName
from hyperslice.parser import format_poly, parse_expression

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def invoke(**kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run(Request(**kwargs), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def check_schema(payload, name):
    with open(SCHEMA_DIR / f"{name}.json") as fh:
        jsonschema.validate(payload, json.load(fh))


def test_grammar_examples(H):
    p = parse_expression("x1^2 x2 + (1)", H)
    assert p.terms == {(2, 1): H.one(), (0, 0): H.one()}
    p = parse_expression("(0 i 1) x1", H)
    assert p.terms == {(1,): H.basis_named("i")}
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("x1 + + x2", H)
    assert (info.value.line, info.value.col) == (1, 6)


def test_parse_positions_are_deterministic(H):
    cases = {
        "x2 x1": (1, 4),
        "(1 i)": (1, 5),
        "x1 ^": (1, 5),
        "": (1, 1),
        "x1 @": (1, 4),
    }
    for src, where in cases.items():
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(src, H)
        assert (info.value.line, info.value.col) == where, src
    with pytest.raises(UnknownBasisName) as info:
        parse_expression("(0 w 1) x1", H)
    assert (info.value.line, info.value.col) == (1, 4)
    assert "i, j, k" in info.value.expected


def test_round_trip_is_identity_on_the_corpus(H, O):
    corpus = {
        H: ["x1^2 x2 + (1)", "(0 i 1) x1", "(2 j -3) x1 x2^3 + (0 k 1)",
            "x1 - (2) x2 + (0.5)", "(1e-3 i 2.25) x3", "x1 x1^2",
            "(0) x1 + x2", "(1) + (2)"],
        O: ["(0 e5 1) x1^4 + (1 e1 -0.25 e7 3) x2", "x1 x2 x3 x4"],
    }
    for algebra, sources in corpus.items():
        for src in sources:
            p = parse_expression(src, algebra)
            q = parse_expression(format_poly(p), algebra)
            assert q.terms == p.terms and q.n == p.n, src


def test_eval_subcommand_multiplies_in_order():
    code, out, err = invoke(subcommand="eval", algebra="H", poly="x1 x2",
                            point="[[0,1,i],[0,1,j]]")
    assert code == 0 and err == ""
    payload = json.loads(out)
    check_schema(payload, "eval")
    assert payload["value_str"] == "k"
    assert payload["value"] == [0.0, 0.0, 0.0, 1.0]


def test_eval_accepts_coefficient_list_units():
    code, out, _ = invoke(subcommand="eval", algebra="H", poly="x1^2",
                          point="[1, 2, [0, 0.6, 0.8, 0]]")
    assert code == 0
    payload = json.loads(out)
    # (1 + 2J)^2 = -3 + 4J for any unit J
    assert payload["value"] == pytest.approx([-3, 4 * 0.6, 4 * 0.8, 0])


def test_parse_errors_exit_3_with_positions():
    code, out, err = invoke(subcommand="eval", algebra="H",
                            poly="x1 + + x2", point="[[0,1,i]]")
    assert code == 3 and out == ""
    blob = json.loads(err)
    check_schema(blob, "error")
    assert blob["error"]["type"] == "ExpressionSyntaxError"
    assert (blob["error"]["line"], blob["error"]["col"]) == (1, 6)

    code, _, err = invoke(subcommand="eval", algebra="H",
                          poly="(0 w 1) x1", point="[[0,1,i]]")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "UnknownBasisName"


def test_malformed_points_exit_3():
    bad = ["[2, notanumber, i]", "[2, 1, true]", "[[0, 1, [1, bad]]]",
           '{"alpha": 0}', "[2, 1]"]
    for point in bad:
        code, out, err = invoke(subcommand="eval", algebra="H",
                                poly="x1", point=point)
        assert code == 3, point
        assert out == ""
        check_schema(json.loads(err), "error")

    code, _, err = invoke(subcommand="cauchy", algebra="H", poly="x1^2",
                          point="[0.2,0.3,i]", radii="1.5",
                          slice_unit="[0.5, oops]")
    assert code == 3
    check_schema(json.loads(err), "error")


def test_domain_errors_exit_2():
    code, _, err = invoke(subcommand="roots", algebra="H", poly="x1 x2")
    assert code == 2
    check_schema(json.loads(err), "error")

    code, _, err = invoke(subcommand="eval", algebra="H", poly="x1",
                          point="[[0,1,i],[0,1,j]]")
    assert code == 2

    code, _, err = invoke(subcommand="cauchy", algebra="H", poly="x1",
                          radii="1.0", point="[[5,0,i]]")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "PointOutsideE"


def test_sample_counts_below_one_exit_2():
    code, out, err = invoke(subcommand="cauchy", algebra="H", poly="x1",
                            radii="1.5", point="[[0.2,0.3,i]]", samples=0)
    assert code == 2 and out == ""
    check_schema(json.loads(err), "error")

    for count in (0, -3):
        code, out, err = invoke(subcommand="scan", algebra="H",
                                poly="x1^2 + x2^2 + (1)", count=count)
        assert code == 2 and out == "", count
        check_schema(json.loads(err), "error")


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_huge_roots_residual_stays_finite():
    code, out, _ = invoke(subcommand="roots", algebra="H",
                          poly="x1^2 + (1e300)")
    assert code == 0
    payload = _strict_json(out)
    check_schema(payload, "roots")
    assert payload["spherical"] == [pytest.approx([0.0, 1e150])]
    assert payload["residual_max"] <= 1e-12 * 1e300


def test_non_finite_results_exit_2_and_write_nothing():
    for fmt in ("json", "csv", "text"):
        code, out, err = invoke(subcommand="eval", algebra="H", poly="x1^2",
                                point="[[1e200,0,i]]", fmt=fmt)
        assert code == 2 and out == "", fmt
        check_schema(_strict_json(err), "error")


def test_non_finite_numbers_are_syntax_errors():
    code, out, err = invoke(subcommand="roots", algebra="H",
                            poly="(1e400) x1 + (1)")
    assert code == 3 and out == ""
    blob = _strict_json(err)
    check_schema(blob, "error")
    assert (blob["error"]["line"], blob["error"]["col"]) == (1, 2)
    for point in ("[[1e400,0,i]]", "[[0,1,[0,1e400,0,0]]]"):
        code, out, err = invoke(subcommand="eval", algebra="H", poly="x1",
                                point=point)
        assert code == 3 and out == "", point
        check_schema(_strict_json(err), "error")
    code, out, err = invoke(subcommand="cauchy", algebra="H", poly="x1",
                            radii="1.5", point="[[0.2,0.3,i]]",
                            slice_unit="[0, -1e400, 0, 0]")
    assert code == 3 and out == ""
    check_schema(_strict_json(err), "error")


def test_quadrature_overflow_is_one_json_error():
    # a subprocess, so that a numpy warning would reach the captured stderr
    proc = subprocess.run(
        [sys.executable, "-m", "hyperslice.cli", "cauchy", "--poly", "x1",
         "--radii", "1e200", "--point", "[[0.1,0.1,i]]", "--samples", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    check_schema(_strict_json(proc.stderr), "error")


def test_regular_subcommand(H):
    code, out, _ = invoke(subcommand="regular", algebra="H", poly="x1^2 x2")
    payload = json.loads(out)
    check_schema(payload, "regular")
    assert code == 0 and payload["regular"] is True
    assert payload["max_residual"] == 0.0


def test_diff_subcommand_round_trips(H):
    code, out, _ = invoke(subcommand="diff", algebra="H",
                          poly="x1^3 x2 + (0 i 1) x1", var=1)
    payload = json.loads(out)
    check_schema(payload, "diff")
    dp = parse_expression(payload["derivative"], H)
    assert dp.terms == {(2, 1): H.from_real(3), (0, 0): H.basis_named("i")}

    code, out, _ = invoke(subcommand="diff", algebra="H",
                          poly="x1^3 x2", var=2, conj=True)
    assert json.loads(out)["derivative"] == "(0)"

    code, _, err = invoke(subcommand="diff", algebra="H", poly="x1", var=5)
    assert code == 2


def test_product_subcommand_keeps_the_factor_order(H):
    code, out, _ = invoke(subcommand="product", algebra="H",
                          poly="(0 i 1) x1", times="(0 j 1) x1")
    payload = json.loads(out)
    check_schema(payload, "product")
    assert parse_expression(payload["product"], H).terms == \
        {(2,): H.basis_named("k")}

    _, out, _ = invoke(subcommand="product", algebra="H",
                       poly="(0 j 1) x1", times="(0 i 1) x1")
    assert parse_expression(out and json.loads(out)["product"], H).terms == \
        {(2,): -1 * H.basis_named("k")}


def test_cauchy_subcommand_reports_small_error():
    code, out, _ = invoke(subcommand="cauchy", algebra="H",
                          poly="x1^2 x2 + (0 j 2) x1", radii="1.5,1.5",
                          point="[[0.2,0.3,i],[0.1,0.4,k]]", samples=128)
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "cauchy")
    assert payload["N"] == 128
    assert payload["abs_error"] <= 1e-8
    assert payload["diagnostics"]["min_abs_delta"] >= 1e-3


def test_roots_subcommand():
    code, out, _ = invoke(subcommand="roots", algebra="H",
                          poly="x1^2 + (1.25)")
    payload = json.loads(out)
    check_schema(payload, "roots")
    assert payload["isolated"] == []
    assert payload["spherical"][0] == pytest.approx([0.0, 1.25 ** 0.5])


def test_scan_subcommand_json_and_csv():
    code, out, _ = invoke(subcommand="scan", algebra="H",
                          poly="x1^2 + x2^2 + (1)", count=6)
    payload = json.loads(out)
    check_schema(payload, "scan")
    assert payload["nonempty"] is True
    assert sum(payload["counts"].values()) == 6

    code, out, _ = invoke(subcommand="scan", algebra="H",
                          poly="x1^2 + x2^2 + (1)", count=6, fmt="csv")
    lines = out.strip().splitlines()
    assert lines[0] == "sample,kind,isolated,spherical,residual_max"
    assert len(lines) == 7


def test_algebra_dump_table(H):
    code, out, _ = invoke(subcommand="algebra-dump", algebra="H")
    payload = json.loads(out)
    check_schema(payload, "algebra-dump")
    assert payload["basis"] == ["1", "i", "j", "k"]
    names = payload["basis"]
    table = payload["table"]
    assert table[names.index("i")][names.index("j")] == "k"
    assert table[names.index("j")][names.index("i")] == "-k"
    assert payload["default_imaginary_unit"] == "i"

    _, out, _ = invoke(subcommand="algebra-dump", algebra="clifford(1,0)")
    payload = json.loads(out)
    assert payload["default_imaginary_unit"] is None

    _, out, _ = invoke(subcommand="algebra-dump", algebra="O")
    assert json.loads(out)["dim"] == 8


def test_text_format_lines():
    _, out, _ = invoke(subcommand="eval", algebra="H", poly="x1 x2",
                       point="[[0,1,i],[0,1,j]]", fmt="text")
    assert out == "value: k\n"
    _, out, _ = invoke(subcommand="roots", algebra="H", poly="x1^2 + (1)",
                       fmt="text")
    assert "sphere: center 0, radius 1" in out


def test_env_tolerance_reaches_the_library(monkeypatch):
    # A unit off the sphere by 0.19 passes only under the loose override.
    argv = ["eval", "--algebra", "H", "--poly", "x1",
            "--point", "[[0,1,[0,0.9,0,0]]]"]
    monkeypatch.setenv("HYPERSLICE_TOL", "0.5")
    assert main(argv) == 0
    monkeypatch.delenv("HYPERSLICE_TOL")
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main(argv) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperslice.cli", "eval", "--algebra", "H",
         "--poly", "(0 k 1) x1", "--point", "[[0,1,j]]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value_str"] == "i"
