"""Expression grammar, subcommand dispatch, exit codes, and schemas."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperslice.algebra import DEFAULT_TOL, algebra_from_json, make_algebra
from hyperslice.cli import Request, main, run
from hyperslice.errors import (DimensionTooLarge, ExpressionSyntaxError,
                               HypersliceError, UnknownBasisName,
                               UnsupportedKind)
from hyperslice.parser import format_poly, parse_expression, parse_point
from hyperslice.regularity import OrderedPolynomial, poly_eval

from oracles import distance_mp, poly_value_mp

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


# the grammar reads decimals as floats, so a Fraction reads back equal
# when a float holds it exactly: a dyadic one
_ROUND_TRIP_REALS = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.sampled_from([1, 2, 8, 1024])),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _round_trip_polys(draw):
    """Over H, O or Cl(0,3): n <= 3, total degree <= 3, mixed reals."""
    A = make_algebra(draw(st.sampled_from(["H", "O", "clifford(0,3)"])))
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key, budget = [], 3
        for _ in range(n):
            key.append(draw(st.integers(0, budget)))
            budget -= key[-1]
        coeffs = draw(st.lists(st.one_of(st.just(0), _ROUND_TRIP_REALS),
                               min_size=A.dim, max_size=A.dim))
        if any(coeffs):
            terms[tuple(key)] = A.element(coeffs)
    return OrderedPolynomial(n, A, terms)


@settings(deadline=None, max_examples=100, database=None)
@given(_round_trip_polys())
# an integer past 2^53 next to a float component stays exact
@example(OrderedPolynomial(1, make_algebra("O"), {(1,): make_algebra("O")
                           .element([0] * 6 + [2 ** 53 + 1, 0.5])}))
def test_parse_inverts_format_poly(p):
    assert parse_expression(format_poly(p), p.algebra, nvars=p.n) == p


def test_format_poly_refuses_a_fraction_no_float_holds(H):
    # a decimal reads back as a float, so 1/3 has no spelling that parses
    # back equal; a Fraction past the float range has none either
    for c in (Fraction(1, 3), Fraction(3 ** 700, 2)):
        p = OrderedPolynomial(1, H, {(1,): H.from_real(c)})
        with pytest.raises(HypersliceError, match="no float holds"):
            format_poly(p)
    q = OrderedPolynomial(1, H, {(1,): H.element([Fraction(-5, 4), 0, 3, 0])})
    assert format_poly(q) == "(-1.25 j 3) x1"
    assert parse_expression(format_poly(q), H, nvars=1) == q


def test_eval_subcommand_multiplies_in_order():
    code, out, err = invoke(subcommand="eval", algebra="H", poly="x1 x2",
                            point="[[0,1,i],[0,1,j]]")
    assert code == 0 and err == ""
    payload = json.loads(out)
    check_schema(payload, "eval")
    assert payload["value_str"] == "k"
    assert payload["value"] == [0.0, 0.0, 0.0, 1.0]


def test_eval_prints_coefficient_components_as_written():
    # each component keeps its own type: the integer 2 is not made a float
    # by the 0.5 next to it
    code, out, _ = invoke(subcommand="eval", algebra="H", poly="(2 i 0.5)",
                          point="[[1,0,i]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["value_str"] == "2 + 0.5i"
    assert payload["value"] == [2.0, 0.5, 0.0, 0.0]


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
                          poly="x1 +\n  x2 x1", point="[[0,1,i],[0,1,j]]")
    assert code == 3
    blob = json.loads(err)
    assert (blob["error"]["line"], blob["error"]["col"]) == (2, 6)

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
    assert "use zero_scan" in json.loads(err)["error"]["message"]

    code, _, err = invoke(subcommand="scan", algebra="H", poly="x1^2")
    assert code == 2
    assert "use roots_one_var" in json.loads(err)["error"]["message"]

    # the library checks the index, also when the answer would be zero
    code, _, err = invoke(subcommand="diff", algebra="H", poly="x1", var=3,
                          conj=True)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "IndexOutOfRange"

    for radii, centers in (("1.5,1.5", ""), ("", ""), ("1.5", "0,0"),
                           ("1.5", " , ")):
        code, out, err = invoke(subcommand="cauchy", algebra="H", poly="x1",
                                radii=radii, centers=centers,
                                point="[[0.2,0.3,i]]")
        assert code == 2 and out == "", (radii, centers)
        assert json.loads(err)["error"]["type"] == "AlgebraMismatch"

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
    cases = [dict(subcommand="eval", poly="x1^2", point="[[1e200,0,i]]"),
             dict(subcommand="diff", poly="(1e308) x1^2"),
             dict(subcommand="product", poly="(1e200) x1",
                  times="(1e200) x1"),
             # 2 * 1e308 overflows in the stem, 6 * 5e307 in its derivative
             dict(subcommand="regular", poly="(1e308) x1^2"),
             dict(subcommand="regular", poly="(5e307) x1^3")]
    for case in cases:
        for fmt in ("json", "csv", "text"):
            code, out, err = invoke(algebra="H", fmt=fmt, **case)
            assert code == 2 and out == "", (case, fmt)
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


def test_roots_keeps_real_zeros_and_spheres_of_mixed_polynomials():
    # (x - 3.25)(x^2 + x i + j) and (x^2 + 1.25)(x^2 + x i + j)
    code, out, _ = invoke(
        subcommand="roots", algebra="H",
        poly="x1^3 + (-3.25 i 1) x1^2 + (0 i -3.25 j 1) x1 + (0 j -3.25)")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "roots")
    assert payload["spherical"] == []
    assert [3.25, 0, 0, 0] in [pytest.approx(x, abs=1e-12)
                               for x in payload["isolated"]]
    code, out, _ = invoke(
        subcommand="roots", algebra="H",
        poly="x1^4 + (0 i 1) x1^3 + (1.25 j 1) x1^2 + (0 i 1.25) x1 "
             "+ (0 j 1.25)")
    assert code == 0
    payload = json.loads(out)
    assert payload["spherical"] == [pytest.approx([0.0, 1.25 ** 0.5])]
    assert len(payload["isolated"]) == 2


def test_roots_of_huge_mixed_coefficients_is_one_json_error():
    # a subprocess, so that a traceback or a numpy warning would show;
    # the root near -1e300 of the second has a stem value whose square
    # overflows
    for poly in ("x1^2 + (0 i 1e200) x1 + (0 j 1e200)",
                 "(1e-300) x1^2 + x1 + (1)"):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperslice.cli", "roots", "--poly", poly],
            capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == "", poly
        check_schema(_strict_json(proc.stderr), "error")


def test_roots_with_a_subnormal_normal_leading_coefficient_is_one_json_error():
    # stage one finds -1 and leaves the row 1 + 1e-160 x, whose normal
    # polynomial 1 + 2e-160 x + 1e-320 x^2 leads with a subnormal
    proc = subprocess.run(
        [sys.executable, "-m", "hyperslice.cli", "roots", "--poly",
         "(1e-160) x1^2 + x1 + (1)"], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    blob = _strict_json(proc.stderr)
    check_schema(blob, "error")
    assert blob["error"]["type"] == "RefinementFailed"


def test_roots_of_subnormal_coefficients_is_json_on_stdout():
    # stem values whose largest component is subnormal
    for poly in ("x1 + (0 i 1e-310)", "x1^2 + (-1 i 1e-310)"):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperslice.cli", "roots", "--poly", poly],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == "", poly
        check_schema(_strict_json(proc.stdout), "roots")


def test_roots_keeps_a_repeated_real_zero_next_to_a_mixed_factor():
    # (x - 2)^2 (x^2 + (0.5i + k) x + (-1 + j)): the real zero 2 is double
    code, out, _ = invoke(
        subcommand="roots", algebra="H",
        poly="x1^4 + (-4 i 0.5 k 1) x1^3 + (3 i -2 j 1 k -4) x1^2 "
             "+ (4 i 2 j -4 k 4) x1 + (-4 j 4)")
    assert code == 0
    payload = _strict_json(out)
    check_schema(payload, "roots")
    assert payload["spherical"] == []
    assert [2.0, 0, 0, 0] in [pytest.approx(x, abs=1e-9)
                              for x in payload["isolated"]]
    assert len(payload["isolated"]) == 3


def test_cauchy_sample_count_past_the_array_limit_is_one_json_error():
    # 2^62 nodes: numpy refuses the node array before allocating anything
    proc = subprocess.run(
        [sys.executable, "-m", "hyperslice.cli", "cauchy", "--poly", "x1",
         "--radii", "1.5", "--point", "[[0.2,0.3,i]]",
         "--samples", str(2 ** 62)],
        capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    check_schema(_strict_json(proc.stderr), "error")


_FUZZ_UNITS = {"H": ["i", "j", "k"],
               "O": [f"e{k}" for k in range(1, 8)],
               "clifford(0,3)": ["e1", "e2", "e3"]}
_SMALL = st.one_of(st.integers(-3, 3),
                   st.floats(-3, 3).map(lambda v: round(v, 3)))


@st.composite
def _fuzz_roots_argv(draw):
    """roots argv for a polynomial of degree <= 4 with small coefficients;
    Clifford ones are monic paravector polynomials."""
    algebra = draw(st.sampled_from(sorted(_FUZZ_UNITS)))
    units = _FUZZ_UNITS[algebra]
    deg = draw(st.integers(1, 4))
    terms = []
    for k in range(deg + 1):
        if k == deg and algebra.startswith("clifford"):
            coeff = "(1)"
        else:
            parts = [str(draw(_SMALL))]
            for unit in draw(st.lists(st.sampled_from(units), max_size=3,
                                      unique=True)):
                parts += [unit, str(draw(_SMALL))]
            coeff = "(" + " ".join(parts) + ")"
        terms.append(coeff + (f" x1^{k}" if k else ""))
    return ["roots", "--algebra", algebra, "--poly", " + ".join(terms)]


# any finite float, from subnormals to 1e308, next to the small ones
_WIDE = st.one_of(_SMALL, st.floats(-1e308, 1e308, allow_nan=False))
# inside every --radii disc about 0
_NEAR = st.floats(-0.45, 0.45).map(lambda v: round(v, 3))
_RADIUS = st.floats(0.5, 3).map(lambda v: round(v, 2))


def _fuzz_poly(draw, algebra, n):
    """Up to three terms in exactly n variables, each degree <= 3."""
    units = _FUZZ_UNITS[algebra]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        parts = [str(draw(_WIDE))]
        for unit in draw(st.lists(st.sampled_from(units), max_size=2,
                                  unique=True)):
            parts += [unit, str(draw(_WIDE))]
        powers = [f"x{h}^{draw(st.integers(0, 3))}" for h in range(1, n + 1)]
        terms.append("(" + " ".join(parts) + ") " + " ".join(powers))
    return " + ".join(terms)


# too many generators, a bad signature, unknown names
_FUZZ_BAD_ALGEBRAS = ["clifford(0,7)", "clifford(9,9)", "clifford(-1,2)",
                      "clifford(1,0)", "clifford(0,0)", "X", ""]


def _fuzz_point(draw, algebra, n, coordinate):
    units = _FUZZ_UNITS[algebra]
    return json.dumps([[draw(coordinate), draw(coordinate),
                        draw(st.sampled_from(units))] for _ in range(n)])


@st.composite
def _fuzz_argv(draw):
    """argv of any subcommand, roots as above, in any --format or none."""
    command = draw(st.sampled_from(
        ["roots", "eval", "diff", "regular", "product", "cauchy", "scan",
         "algebra-dump"]))
    fmt = draw(st.sampled_from([[], ["--format", "json"],
                                ["--format", "csv"], ["--format", "text"]]))
    if command == "roots":
        return draw(_fuzz_roots_argv()) + fmt
    if command == "algebra-dump":
        return [command, "--algebra", draw(st.sampled_from(
            sorted(_FUZZ_UNITS) + _FUZZ_BAD_ALGEBRAS))] + fmt
    algebra = draw(st.sampled_from(sorted(_FUZZ_UNITS)))
    n = draw(st.integers(1, 3 if command == "scan" else 2))
    argv = [command, "--algebra", algebra, "--poly",
            _fuzz_poly(draw, algebra, n)] + fmt
    if command == "scan":
        # few samples: each one is a root finding
        for option, values in (("--count", st.integers(-1, 4)),
                               ("--seed", st.integers(-2 ** 70, 2 ** 70)),
                               ("--span", st.floats())):
            if draw(st.booleans()):
                argv += [option, str(draw(values))]
    elif command == "eval":
        argv += ["--point", _fuzz_point(draw, algebra, n, _WIDE)]
    elif command == "diff":
        argv += ["--var", str(draw(st.integers(1, 3)))]
        argv += ["--conj"] * draw(st.booleans())
    elif command == "product":
        argv += ["--times", _fuzz_poly(draw, algebra, draw(st.integers(1, 2)))]
    elif command == "cauchy":
        argv += ["--radii", ",".join(str(draw(_RADIUS)) for _ in range(n)),
                 "--point", _fuzz_point(draw, algebra, n, _NEAR),
                 "--samples", str(draw(st.integers(1, 32)))]
        if draw(st.booleans()):
            centers = ",".join(str(draw(_SMALL)) for _ in range(n))
            # as two tokens, a negative first center reads as an option
            argv += draw(st.sampled_from([["--centers=" + centers],
                                          ["--centers", centers]]))
        if draw(st.booleans()):
            argv += ["--slice-unit", draw(st.sampled_from(
                _FUZZ_UNITS[algebra]))]
    return argv


def _check_cauchy_answer(argv, text):
    """|value - p(x)| <= error_bound for a cauchy run that exited 0, p(x)
    to 50 digits by tests/oracles.py; a text run prints no bound."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "text":
        return
    if fmt == "csv":
        rows = dict(csv.reader(io.StringIO(text)))
        value = json.loads(rows["value"])
        diag = json.loads(rows["diagnostics"])
    else:
        payload = _strict_json(text)
        value, diag = payload["value"], payload["diagnostics"]
    option = {key: argv[argv.index(key) + 1]
              for key in ("--algebra", "--poly", "--point")}
    algebra = make_algebra(option["--algebra"])
    p = parse_expression(option["--poly"], algebra)
    x = parse_point(option["--point"], algebra, DEFAULT_TOL, nvars=p.n)
    error = distance_mp(algebra.element(value), poly_value_mp(p, x))
    assert error <= diag["error_bound"], (argv, error, diag)


@settings(deadline=None, max_examples=40, database=None)
@given(_fuzz_argv())
def test_roots_fuzz_exits_cleanly_with_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code != 0:
        assert out.getvalue() == ""
        check_schema(_strict_json(err.getvalue()), "error")
        return
    if "--format" not in argv or "json" in argv:
        check_schema(_strict_json(out.getvalue()), argv[0])
    if argv[0] == "cauchy":
        _check_cauchy_answer(argv, out.getvalue())


@pytest.mark.parametrize("argv", [
    ["cauchy", "--poly", "x1", "--radii", "1.5", "--point", "[[0.1,0.1,i]]",
     "--centers", "-1,2"],
    ["cauchy", "--poly", "x1"],
    ["eval", "--poly", "x1", "--point", "[[0,1,i]]", "--bogus"],
    ["diff", "--poly", "x1", "--var", "two"],
    ["frob"],
    [],
], ids=lambda v: " ".join(v) or "no-arguments")
def test_usage_errors_are_one_json_error(argv):
    # a subprocess, so that argparse's usage text would show
    proc = subprocess.run([sys.executable, "-m", "hyperslice.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    blob = _strict_json(proc.stderr)
    check_schema(blob, "error")
    assert blob["error"]["type"] == "UsageError"


@pytest.mark.parametrize("argv,error", [
    (["scan", "--span", "nan"], "HypersliceError"),
    (["scan", "--span", "inf"], "HypersliceError"),
    # x2^2 overflows, so the restricted polynomial is not finite
    (["scan", "--span", "1e200"], "HypersliceError"),
    (["cauchy", "--radii", "nan"], "AlgebraMismatch"),
    (["cauchy", "--radii", "1", "--centers", "inf"], "AlgebraMismatch"),
    (["cauchy", "--radii", "abc"], "UnsupportedKind"),
    (["cauchy", "--radii", "1", "--centers", "1;2"], "UnsupportedKind"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_non_finite_options_are_one_json_error(argv, error):
    # a subprocess, so that a traceback or a numpy warning would show
    extra = {"scan": ["--poly", "x1^2 + x2^2 + (1)", "--count", "2"],
             "cauchy": ["--poly", "x1", "--point", "[[0.1,0.1,i]]"]}
    proc = subprocess.run(
        [sys.executable, "-m", "hyperslice.cli", *argv, *extra[argv[0]]],
        capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    blob = _strict_json(proc.stderr)
    check_schema(blob, "error")
    assert blob["error"]["type"] == error
    # text that is not a number is refused before any finiteness check
    expected = {"UnsupportedKind": "comma-separated numbers"}.get(error,
                                                                  "finite")
    assert expected in blob["error"]["message"]


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

    for var in (5, 0, -1):
        code, _, err = invoke(subcommand="diff", algebra="H", poly="x1",
                              var=var)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "IndexOutOfRange"


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

    # a factor in fewer variables is padded to the other's count
    _, out, _ = invoke(subcommand="product", algebra="H", poly="x1",
                       times="(0 i 1) x2")
    assert json.loads(out)["product"] == "(0 i 1) x1 x2"


def test_cauchy_subcommand_reports_small_error(H):
    code, out, _ = invoke(subcommand="cauchy", algebra="H",
                          poly="x1^2 x2 + (0 j 2) x1", radii="1.5,1.5",
                          point="[[0.2,0.3,i],[0.1,0.4,k]]", samples=128)
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "cauchy")
    assert payload["N"] == 128
    assert payload["abs_error"] <= 1e-8
    assert payload["abs_error"] == payload["diagnostics"]["disagreement"]
    assert payload["abs_error"] <= payload["diagnostics"]["error_bound"]
    assert list(payload["diagnostics"]) == [
        "N", "grid_points", "min_abs_delta", "max_inv_delta",
        "error_estimate", "disagreement", "error_bound"]
    assert payload["diagnostics"]["min_abs_delta"] >= 1e-3
    # the reference is the CLI's one direct evaluation, and only that
    reference = poly_eval(parse_expression("x1^2 x2 + (0 j 2) x1", H),
                          parse_point("[[0.2,0.3,i],[0.1,0.4,k]]", H, 1e-9))
    assert repr(payload["reference"]) == repr([float(c) for c in
                                                reference.coeffs])
    assert payload["reference_str"] == reference.format()
    assert "reference" not in payload["diagnostics"]


def test_cauchy_reports_the_trapezoid_error_estimate():
    args = dict(subcommand="cauchy", algebra="H", poly="x1^3", radii="1.5",
                point="[[0.2,0.9,i]]")
    code, out, _ = invoke(**args, samples=16)
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "cauchy")
    assert payload["abs_error"] <= payload["diagnostics"]["error_estimate"]
    # an odd sample count has no N/2 subgrid; the exit code stays 0
    code, out, _ = invoke(**args, samples=5)
    assert code == 0
    payload = json.loads(out)
    check_schema(payload, "cauchy")
    assert payload["diagnostics"]["error_estimate"] is None
    assert payload["abs_error"] <= payload["diagnostics"]["error_bound"]


def test_cauchy_prints_no_estimate_where_the_subgrid_aliases():
    # x1^5 at N = 6 and 10 once printed error_estimate 2.83 and 7.63
    # against abs_error 0.035 and 0.0051: the N/2 rule aliases degree 5
    for samples in (6, 10):
        code, out, _ = invoke(subcommand="cauchy", algebra="H", poly="x1^5",
                              radii="1.5", point="[[0.2,0.9,i]]",
                              samples=samples)
        assert code == 0
        payload = json.loads(out)
        check_schema(payload, "cauchy")
        assert payload["diagnostics"]["error_estimate"] is None
        assert payload["abs_error"] <= payload["diagnostics"]["error_bound"]


def test_cauchy_refuses_sample_counts_that_alias_the_degree():
    # both once exited 0 with answers 4.64 and 3.96 off: N <= the degree
    # aliases the trapezoid sums, and the refusal names both numbers
    for poly, samples in (("x1^5", 4), ("x1^3", 1)):
        code, out, err = invoke(subcommand="cauchy", algebra="H", poly=poly,
                                radii="1.5", point="[[0.2,0.9,i]]",
                                samples=samples)
        assert code == 2 and out == ""
        blob = _strict_json(err)
        check_schema(blob, "error")
        assert blob["error"]["type"] == "QuadratureAliasing"
        assert (f"variable 1 has degree {poly[-1]}, and N = {samples} "
                in blob["error"]["message"])


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


@pytest.mark.parametrize("kind", ["H", "O", "clifford(0,6)"])
def test_algebra_dump_reads_back(kind):
    code, out, _ = invoke(subcommand="algebra-dump", algebra=kind)
    assert code == 0
    back = algebra_from_json(json.loads(out))
    A = make_algebra(kind)
    assert back == A and back.kind == "custom"
    assert back.basis_names == A.basis_names
    assert back.associative == A.associative


def test_malformed_algebra_dump_is_a_typed_error():
    _, out, _ = invoke(subcommand="algebra-dump", algebra="H")
    dump = json.loads(out)

    def edited(**changes):
        return {**dump, **changes}

    bad = [None, [], "H", {key: v for key, v in dump.items() if key != "dim"}]
    bad += [{key: v for key, v in dump.items() if key != missing}
            for missing in ("basis", "conjugation_signs", "table")]
    bad += [edited(dim=d) for d in ("4", 4.0, None, True, 0, -4, 5)]
    table = dump["table"]
    bad += [edited(table=t) for t in (
        table[:3], [row[:3] for row in table], table + [table[0]], "k",
        {"i": "j"}, [None] * 4, [table[0], table[1], table[2], "1ijk"])]
    bad += [edited(table=[table[0], table[1], table[2], [e, "-j", "i", "-1"]])
            for e in ("x", "--k", "+k", "", "-", 3, None, ["k"])]
    bad += [edited(basis=b) for b in (["1", "i", "j"], ["1", "i", "i", "k"],
                                      "1ijk", [1, 2, 3, 4])]
    bad += [edited(conjugation_signs=c) for c in ([1, -1, -1], [1, 0, -1, -1],
                                                  ["1", -1, -1, -1], None)]
    # the table parses but e_0 is not the unity
    bad.append(edited(basis=["i", "1", "j", "k"]))
    for obj in bad:
        with pytest.raises(UnsupportedKind):
            algebra_from_json(obj)
    with pytest.raises(DimensionTooLarge):
        algebra_from_json(edited(dim=128))


def test_text_format_lines():
    _, out, _ = invoke(subcommand="eval", algebra="H", poly="x1 x2",
                       point="[[0,1,i],[0,1,j]]", fmt="text")
    assert out == "value: k\n"
    _, out, _ = invoke(subcommand="roots", algebra="H", poly="x1^2 + (1)",
                       fmt="text")
    assert "sphere: center 0, radius 1" in out
    _, out, _ = invoke(subcommand="roots", algebra="H", poly="x1 + (0 i 1)",
                       fmt="text")
    assert out == "isolated: -i\nmax residual: 0.000e+00\n"
    _, out, _ = invoke(subcommand="diff", algebra="H", poly="x1^3 x2", var=1,
                       fmt="text")
    assert out == "derivative: (3) x1^2 x2\n"
    _, out, _ = invoke(subcommand="regular", algebra="H", poly="x1^2",
                       fmt="text")
    assert out == "regular: true (max residual 0)\n"
    _, out, _ = invoke(subcommand="scan", algebra="H", poly="x1^2 x2 + (1)",
                       count=4, fmt="text")
    assert out == "finite(2): 3\nspheres(1): 1\nnonempty: true\n"
    args = dict(subcommand="cauchy", algebra="H", poly="x1^2", radii="1.5",
                point="[[0.2,0.3,i]]", samples=16)
    payload = json.loads(invoke(**args)[1])
    _, out, _ = invoke(**args, fmt="text")
    assert out.splitlines() == [
        f"value: {payload['value_str']}",
        f"reference: {payload['reference_str']}",
        f"abs error: {payload['abs_error']:.3e} at N = 16"]


def test_env_tolerance_reaches_the_library(monkeypatch):
    # A unit off the sphere by 0.19 passes only under the loose override.
    argv = ["eval", "--algebra", "H", "--poly", "x1",
            "--point", "[[0,1,[0,0.9,0,0]]]"]
    monkeypatch.setenv("HYPERSLICE_TOL", "0.5")
    assert main(argv) == 0
    monkeypatch.delenv("HYPERSLICE_TOL")
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main(argv) == 2


def test_cauchy_refuses_a_point_unit_the_loose_tolerance_let_through(
        monkeypatch, capsys):
    # [0, 0.9, 0, 0] passes --point under the override, but the kernel
    # needs u u = -1 within 1e-9: once this printed a value 4.75e-2 off
    monkeypatch.setenv("HYPERSLICE_TOL", "0.5")
    argv = ["cauchy", "--algebra", "H", "--poly", "x1^2", "--radii", "1.5",
            "--point", "[[0.2,0.5,[0,0.9,0,0]]]"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    blob = _strict_json(err)
    check_schema(blob, "error")
    assert blob["error"]["type"] == "NotImaginaryUnit"


def test_env_tolerance_leaves_root_finding_alone(monkeypatch, capsys):
    # the tolerance is that of --point and --slice-unit; root finding keeps
    # its fixed thresholds, so a loose one still isolates -0.1i and -0.1e1
    monkeypatch.setenv("HYPERSLICE_TOL", "0.5")
    cases = {"-0.1i": ["--poly", "x1 + (0 i 0.1)"],
             "-0.1e1": ["--algebra", "clifford(0,3)",
                        "--poly", "x1 + (0 e1 0.1)"]}
    for root, argv in cases.items():
        assert main(["roots", *argv]) == 0, argv
        out = json.loads(capsys.readouterr().out)
        assert out["isolated_str"] == [root], argv


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperslice.cli", "eval", "--algebra", "H",
         "--poly", "(0 k 1) x1", "--point", "[[0,1,j]]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value_str"] == "i"


def test_env_tolerance_must_be_finite_and_nonnegative(monkeypatch, capsys):
    cases = {"abc": ["diff", "--poly", "x1^2"],
             "-1": ["eval", "--poly", "x1", "--point", '[[0,1,"i"]]'],
             "nan": ["eval", "--poly", "x1", "--point", '[[0,1,"i"]]']}
    for value, argv in cases.items():
        monkeypatch.setenv("HYPERSLICE_TOL", value)
        assert main(argv) == 2, value
        out, err = capsys.readouterr()
        assert out == "", value
        blob = _strict_json(err)
        check_schema(blob, "error")
        assert blob["error"]["type"] == "InvalidTolerance", value


# a child that runs one CLI command and reports whether numpy and inspect
# (which dataclasses would pull in) got loaded
_NUMPY_PROBE = """\
import sys
from hyperslice.cli import main
code = main(sys.argv[1:])
print("numpy" in sys.modules, "inspect" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

_UNITS = {"H": ("i", "j"), "O": ("e1", "e2")}


def _exact_commands():
    for alg, (u, v) in _UNITS.items():
        yield ["eval", "--algebra", alg, "--poly", f"x1 x2 + (1 {u} 2)",
               "--point", f"[[0.5,1,{u}],[0,1.5,{v}]]"]
        yield ["diff", "--algebra", alg, "--poly", f"(0 {v} 3) x1^2 x2",
               "--var", "2"]
        yield ["regular", "--algebra", alg, "--poly", f"x1^2 x2 + (0 {u} 1)"]
        yield ["product", "--algebra", alg, "--poly", f"x1 + (0 {u} 1)",
               "--times", f"x2 + (0 {v} 1)"]
    for alg in ("H", "O", "clifford(0,6)"):
        yield ["algebra-dump", "--algebra", alg]


@pytest.mark.parametrize("argv", list(_exact_commands()),
                         ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_exact_subcommands_run_without_numpy(argv):
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False False\n"
    json.loads(proc.stdout)


def _root_finding_commands():
    for alg, (u, v) in _UNITS.items():
        yield ["roots", "--algebra", alg, "--poly",
               f"x1^3 + (1 {u} 2) x1^2 + (0 {v} -1) x1 + (2 {u} 1 {v} 1)"]
        yield ["scan", "--algebra", alg, "--poly",
               f"x1^2 + x1 x2 + (0 {u} 1) x2^2 + (-1 {v} 1)", "--count", "8"]
    yield ["roots", "--algebra", "clifford(0,3)", "--poly",
           "x1^3 + (1 e1 2) x1^2 + (0 e2 -1 e3 1) x1 + (2 e1 1)"]


@pytest.mark.parametrize("argv", list(_root_finding_commands()),
                         ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_root_finding_subcommands_run_without_numpy(argv):
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False False\n"
    check_schema(json.loads(proc.stdout), argv[0])


# a child that runs a small `cauchy` through the CLI, numpy loaded first
# or not, and reports the OpenBLAS thread count it leaves in the
# environment and whether numpy got loaded
_BLAS_PROBE = """\
import os, sys
if sys.argv[1] == "numpy-first":
    import numpy
from hyperslice.cli import main
code = main(["cauchy", "--poly", "x1^2 + (1)", "--radii", "1.5",
             "--point", "[[0.2,0.3,i]]", "--samples", "8"])
print(os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules,
      file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("order,preset,reported", [
    ("cli-first", {}, "1"),
    ("cli-first", {"OMP_NUM_THREADS": "3"}, "None"),
    ("numpy-first", {}, "None"),
], ids=["defaults", "user-set-omp", "numpy-loaded-first"])
def test_cli_runs_blas_on_one_thread_unless_told_otherwise(order, preset,
                                                           reported):
    env = {k: v for k, v in os.environ.items() if k not in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, order],
                          capture_output=True, text=True,
                          env={**env, **preset})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{reported} True\n"
    json.loads(proc.stdout)


def test_exact_evaluation_runs_without_numpy():
    probe = (
        "import sys\n"
        "from fractions import Fraction as Q\n"
        "import hyperslice as hs\n"
        "for kind, u, v in (('quaternions', 1, 2), ('octonions', 1, 4)):\n"
        "    A = hs.make_algebra(kind)\n"
        "    p = hs.OrderedPolynomial(2, A, {(2, 1): A.basis(3),\n"
        "                                    (1, 0): A.one()})\n"
        "    x = hs.SlicePoint(A, [Q(1, 2), Q(-1, 3)], [Q(3, 2), 2],\n"
        "                      [A.basis(u), A.basis(v)])\n"
        "    stem = hs.poly_to_stem(p)\n"
        "    source = x.with_units([A.basis(v), A.basis(u)])\n"
        "    assert hs.slice_eval(stem, x) == hs.poly_eval(p, x)\n"
        "    assert hs.representation_eval(\n"
        "        lambda pt: hs.slice_eval(stem, pt), source, x\n"
        "    ) == hs.poly_eval(p, x)\n"
        "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_root_finding_runs_without_numpy():
    probe = (
        "import sys\n"
        "import hyperslice as hs\n"
        "for kind in ('quaternions', 'octonions', 'clifford(0,3)'):\n"
        "    A = hs.make_algebra(kind)\n"
        "    u, v = A.basis(1), A.basis(2)\n"
        "    p = hs.OrderedPolynomial(1, A, {(3,): A.one(), (1,): u,\n"
        "                                    (0,): A.one() + v})\n"
        "    report = hs.roots_one_var(p)\n"
        "    assert len(report.isolated) + 2 * len(report.spherical) == 3\n"
        "    if kind.startswith('clifford'):\n"
        "        continue  # restrictions leave the paravectors\n"
        "    f = hs.OrderedPolynomial(2, A, {(2, 0): A.one(), (1, 1): u,\n"
        "                                    (0, 0): v})\n"
        "    scan = hs.zero_scan(f, hs.scan_samples(A, 2, 8, seed=3))\n"
        "    assert sum(scan.counts().values()) == 8\n"
        "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_bare_import_loads_every_submodule_but_not_numpy():
    # profilers wrap hyperslice.cauchy and hyperslice.zeros straight after
    # `import hyperslice`, so the package imports its submodules eagerly
    probe = ("import sys, hyperslice\n"
             "print('numpy' in sys.modules,\n"
             "      'hyperslice.cauchy' in sys.modules,\n"
             "      'hyperslice.zeros' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True True\n"


def test_closed_stdout_exits_quietly():
    # about 215 kB of output: more than a pipe holds, so the child is
    # still writing when the reader closes its end
    p = " + ".join(f"(1 i 2 j 3 k 4) x1^{a}" for a in range(80))
    q = " + ".join(f"(4 i 3 j 2 k 1) x2^{b}" for b in range(80))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyperslice.cli", "product", "--poly", p,
         "--times", q],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141  # 128 + SIGPIPE, documented in cli
    assert err == ""
