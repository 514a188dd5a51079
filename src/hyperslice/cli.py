"""Command line front end.

Eight subcommands drive the library: eval, diff, regular, product,
cauchy, roots, scan, and algebra-dump.  Output is JSON by default
(schema "hyperslice/1", one document per run, schemas under docs/),
with csv and text renderings for tables and humans.  Exit codes: 0 on
success, 2 on domain errors, 3 on expression or point syntax errors.
Errors are emitted as JSON objects on stderr.  The HYPERSLICE_TOL
environment variable overrides the default tolerance of 1e-9.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

from .algebra import DEFAULT_TOL, make_algebra
from .cauchy import BoundaryTorus, cauchy_reconstruct
from .errors import (ExpressionSyntaxError, HypersliceError, IndexOutOfRange,
                     UnsupportedKind)
from .parser import (format_poly, parse_expression, parse_point, parse_unit)
from .regularity import (OrderedPolynomial, is_slice_regular, poly_eval,
                         star_product)
from .zeros import roots_one_var, scan_samples, zero_scan

SCHEMA = "hyperslice/1"


@dataclass
class Request:
    subcommand: str
    algebra: str = "H"
    poly: str = ""
    times: str = ""
    point: str = ""
    var: int = 1
    conj: bool = False
    radii: str = ""
    centers: str = ""
    samples: int = 128
    slice_unit: str = ""
    count: int = 25
    seed: int = 20240817
    span: float = 2.0
    tol: float = DEFAULT_TOL
    fmt: str = "json"


def _coeffs(a):
    return [float(c) for c in a.coeffs]


def _run_eval(req, algebra):
    p = parse_expression(req.poly, algebra)
    pt = parse_point(req.point, algebra, req.tol, nvars=p.n)
    value = poly_eval(p, pt)
    return {"value": _coeffs(value), "value_str": value.format(), "n": p.n}


def _run_diff(req, algebra):
    p = parse_expression(req.poly, algebra)
    h = req.var
    if not 1 <= h <= p.n:
        raise IndexOutOfRange(f"variable index {h} outside 1..{p.n}")
    # polynomials are slice regular, so their conjugate derivative vanishes
    dp = OrderedPolynomial.zero(p.n, algebra) if req.conj else p.partial(h)
    return {"derivative": format_poly(dp), "variable": h,
            "conjugate": req.conj, "n": p.n}


def _run_regular(req, algebra):
    p = parse_expression(req.poly, algebra)
    report = is_slice_regular(p)
    return {"regular": bool(report), "max_residual": report.max_residual,
            "violations": len(report.violations), "n": p.n}


def _pad(p, n):
    if p.n == n:
        return p
    terms = {ell + (0,) * (n - p.n): a for ell, a in p.terms.items()}
    return OrderedPolynomial(n, p.algebra, terms)


def _run_product(req, algebra):
    p = parse_expression(req.poly, algebra)
    q = parse_expression(req.times, algebra)
    n = max(p.n, q.n)
    prod = star_product(_pad(p, n), _pad(q, n))
    return {"product": format_poly(prod), "n": n}


def _floats(text, what):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UnsupportedKind(f"{what} must be comma-separated numbers, "
                              f"got {text!r}") from None


def _run_cauchy(req, algebra):
    p = parse_expression(req.poly, algebra)
    if not req.radii:
        raise UnsupportedKind("cauchy needs --radii, one value per variable")
    radii = _floats(req.radii, "--radii")
    if len(radii) != p.n:
        raise UnsupportedKind(f"need {p.n} radii, got {len(radii)}")
    centers = _floats(req.centers, "--centers") if req.centers else None
    if centers is not None and len(centers) != p.n:
        raise UnsupportedKind(f"need {p.n} centers, got {len(centers)}")
    J = parse_unit(req.slice_unit, algebra, req.tol) if req.slice_unit \
        else None
    torus = BoundaryTorus.discs(algebra, radii, centers=centers, J=J,
                                samples_per_circle=req.samples)
    pt = parse_point(req.point, algebra, req.tol, nvars=p.n)
    value, diag = cauchy_reconstruct(p, torus, pt)
    reference = poly_eval(p, pt)
    err = (value - reference).euclid_norm()
    return {"value": _coeffs(value), "value_str": value.format(),
            "reference": _coeffs(reference),
            "reference_str": reference.format(),
            "abs_error": err, "N": req.samples,
            "diagnostics": {k: v for k, v in diag.items()}}


def _run_roots(req, algebra):
    p = parse_expression(req.poly, algebra)
    if p.n != 1:
        raise UnsupportedKind(f"roots handles one variable, the expression "
                              f"uses {p.n}; use scan for fibers")
    report = roots_one_var(p, req.tol)
    blob = report.to_json()
    blob["isolated_str"] = [r.format() for r in report.isolated]
    return blob


def _run_scan(req, algebra):
    p = parse_expression(req.poly, algebra)
    if p.n < 2:
        raise UnsupportedKind("scan needs at least two variables; "
                              "use roots for one")
    samples = scan_samples(algebra, p.n, req.count, seed=req.seed,
                           span=req.span)
    report = zero_scan(p, samples, req.tol)
    blob = report.to_json()
    blob["counts"] = report.counts()
    blob["nonempty"] = report.nonempty()
    return blob, list(report.csv_rows())


def _run_algebra_dump(req, algebra):
    table = []
    for i in range(algebra.dim):
        row = []
        for j in range(algebra.dim):
            sign = "-" if algebra.mul_sign[i][j] < 0 else ""
            row.append(sign + algebra.basis_names[algebra.mul_index[i][j]])
        table.append(row)
    try:
        unit = algebra.default_imaginary_unit().format()
    except HypersliceError:
        unit = None
    return {"kind": algebra.kind, "dim": algebra.dim,
            "basis": list(algebra.basis_names),
            "associative": algebra.associative,
            "conjugation_signs": list(algebra.conj_signs),
            "table": table, "default_imaginary_unit": unit}


_HANDLERS = {
    "eval": _run_eval,
    "diff": _run_diff,
    "regular": _run_regular,
    "product": _run_product,
    "cauchy": _run_cauchy,
    "roots": _run_roots,
    "scan": _run_scan,
    "algebra-dump": _run_algebra_dump,
}


def _emit_text(payload, req, out):
    if req.subcommand == "eval":
        print(f"value: {payload['value_str']}", file=out)
    elif req.subcommand == "diff":
        print(f"derivative: {payload['derivative']}", file=out)
    elif req.subcommand == "regular":
        print(f"regular: {str(payload['regular']).lower()} "
              f"(max residual {payload['max_residual']:g})", file=out)
    elif req.subcommand == "product":
        print(f"product: {payload['product']}", file=out)
    elif req.subcommand == "cauchy":
        print(f"value: {payload['value_str']}", file=out)
        print(f"reference: {payload['reference_str']}", file=out)
        print(f"abs error: {payload['abs_error']:.3e} at N = {payload['N']}",
              file=out)
    elif req.subcommand == "roots":
        for s in payload["isolated_str"]:
            print(f"isolated: {s}", file=out)
        for alpha, beta in payload["spherical"]:
            print(f"sphere: center {alpha:g}, radius {beta:g}", file=out)
        print(f"max residual: {payload['residual_max']:.3e}", file=out)
    elif req.subcommand == "scan":
        for kind, count in sorted(payload["counts"].items()):
            print(f"{kind}: {count}", file=out)
        print(f"nonempty: {str(payload['nonempty']).lower()}", file=out)
    else:
        print(f"{payload['kind']}, dimension {payload['dim']}", file=out)
        print("basis: " + " ".join(payload["basis"]), file=out)
        for name, row in zip(payload["basis"], payload["table"]):
            print(f"{name}: " + " ".join(row), file=out)


def _emit_csv(payload, rows, out):
    writer = csv.writer(out, lineterminator="\n")
    if rows is not None:
        writer.writerows(rows)
        return
    for key, value in payload.items():
        if key in ("schema", "subcommand"):
            continue
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        writer.writerow([key, value])


def run(request, out=None, err=None):
    """Dispatch a Request; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        algebra = make_algebra(request.algebra)
        result = _HANDLERS[request.subcommand](request, algebra)
        # a handler with its own csv table returns (payload, rows)
        payload, rows = result if isinstance(result, tuple) else (result, None)
        payload = {"schema": SCHEMA, "subcommand": request.subcommand,
                   "algebra": request.algebra, **payload}
        try:
            text = json.dumps(payload, indent=2, allow_nan=False)
        except ValueError:
            raise HypersliceError(
                "the result holds a value that is not a finite number"
            ) from None
        if request.fmt == "json":
            print(text, file=out)
        elif request.fmt == "csv":
            _emit_csv(payload, rows, out)
        else:
            _emit_text(payload, request, out)
        return 0
    except HypersliceError as exc:
        blob = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ExpressionSyntaxError):
            blob["line"] = exc.line
            blob["col"] = exc.col
            if exc.expected:
                blob["expected"] = exc.expected
        json.dump({"schema": SCHEMA, "error": blob}, err)
        print(file=err)
        return 3 if isinstance(exc, ExpressionSyntaxError) else 2


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hyperslice",
        description="Evaluate, differentiate, multiply, reconstruct, and "
                    "solve slice polynomials over quaternions, octonions, "
                    "and Clifford algebras.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, poly=True):
        sp.add_argument("--algebra", default="H",
                        help="H, O, or clifford(p,q)")
        sp.add_argument("--format", dest="fmt", default="json",
                        choices=("json", "csv", "text"))
        if poly:
            sp.add_argument("--poly", required=True,
                            help="expression, e.g. '(0 i 1) x1^2 x2 + (1)'")

    sp = sub.add_parser("eval", help="evaluate at a cone point")
    common(sp)
    sp.add_argument("--point", required=True,
                    help="[alpha, beta, J] triples, e.g. '[[0,1,i],[0,1,j]]'")

    sp = sub.add_parser("diff", help="slice partial derivative")
    common(sp)
    sp.add_argument("--var", type=int, default=1, help="1-based index")
    sp.add_argument("--conj", action="store_true",
                    help="conjugate derivative instead")

    sp = sub.add_parser("regular", help="slice regularity check")
    common(sp)

    sp = sub.add_parser("product", help="slice (star) product")
    common(sp)
    sp.add_argument("--times", required=True, help="second factor")

    sp = sub.add_parser("cauchy", help="reconstruct from disc boundaries")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--radii", required=True,
                    help="comma-separated, one per variable")
    sp.add_argument("--centers", default="",
                    help="real centers, default all 0")
    sp.add_argument("--samples", type=int, default=128,
                    help="quadrature nodes per circle")
    sp.add_argument("--slice-unit", dest="slice_unit", default="",
                    help="basis name or coefficient list")

    sp = sub.add_parser("roots", help="one-variable zero report")
    common(sp)

    sp = sub.add_parser("scan", help="fiber statistics over random samples")
    common(sp)
    sp.add_argument("--count", type=int, default=25)
    sp.add_argument("--seed", type=int, default=20240817)
    sp.add_argument("--span", type=float, default=2.0)

    sp = sub.add_parser("algebra-dump", help="basis and multiplication table")
    common(sp, poly=False)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    tol = float(os.environ.get("HYPERSLICE_TOL", DEFAULT_TOL))
    fields = {f for f in Request.__dataclass_fields__}
    picked = {k: v for k, v in vars(args).items() if k in fields and
              v is not None}
    return run(Request(tol=tol, **picked))


if __name__ == "__main__":
    raise SystemExit(main())
