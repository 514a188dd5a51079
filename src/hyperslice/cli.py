"""Command line front end.

Eight subcommands drive the library: eval, diff, regular, product,
cauchy, roots, scan, and algebra-dump.  Output is JSON by default
(schema "hyperslice/1", one document per run, schemas under docs/),
with csv and text renderings for tables and humans.  Exit codes: 0 on
success, 2 on domain errors and on unknown, missing or malformed
options, 3 on expression or point syntax errors, and 141 (128 + SIGPIPE,
as a shell reports it) when stdout is closed before the output is
written, as in `hyperslice ... | head`; that case prints nothing more.
Errors are emitted as JSON objects on stderr.  The
HYPERSLICE_TOL environment variable sets the unit tolerance of --point and
--slice-unit, 1e-9 by default; it must be a finite number >= 0, or the
run exits 2.  cauchy still needs each point unit to square to -1 within
1e-9 (NotImaginaryUnit, exit 2), and it exits 2 (QuadratureInaccurate)
when the proven error_bound exceeds both HYPERSLICE_TOL and |value|.

eval, diff, regular, product and algebra-dump are exact, and roots and
scan compute in Python floats: none of them loads numpy, only cauchy
does.  `main` starts numpy's BLAS on one thread unless
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set: no
product here is large enough to use a thread pool, and starting one
costs each process CPU time.
"""

import argparse
import csv
import json
import math
import os
import sys
from collections import namedtuple

from .algebra import DEFAULT_TOL, algebra_to_json, make_algebra
from .cauchy import BoundaryTorus, cauchy_reconstruct
from .errors import (ExpressionSyntaxError, HypersliceError, InvalidTolerance,
                     QuadratureInaccurate, UnsupportedKind, UsageError)
from .parser import (format_poly, parse_expression, parse_point, parse_unit)
from .regularity import (OrderedPolynomial, is_slice_regular, poly_eval,
                         star_product)
from .zeros import roots_one_var, scan_samples, zero_scan

SCHEMA = "hyperslice/1"
EXIT_CLOSED_PIPE = 141
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS")


# the options of a run with their defaults; a Request adds the subcommand
_DEFAULTS = {"algebra": "H", "poly": "", "times": "", "point": "", "var": 1,
             "conj": False, "radii": "", "centers": "", "samples": 128,
             "slice_unit": "", "count": 25, "seed": 20240817, "span": 2.0,
             "tol": DEFAULT_TOL, "fmt": "json"}
Request = namedtuple("Request", ["subcommand", *_DEFAULTS],
                     defaults=_DEFAULTS.values())


def _coeffs(a):
    return [float(c) for c in a.coeffs]


def _run_eval(req, algebra):
    p = parse_expression(req.poly, algebra)
    pt = parse_point(req.point, algebra, req.tol, nvars=p.n)
    value = poly_eval(p, pt)
    return {"value": _coeffs(value), "value_str": value.format(), "n": p.n}


def _run_diff(req, algebra):
    p = parse_expression(req.poly, algebra)
    dp = p.partial(req.var)  # refuses a --var outside 1..n, --conj or not
    if req.conj:
        # polynomials are slice regular, so their conjugate derivative vanishes
        dp = OrderedPolynomial.zero(p.n, algebra)
    return {"derivative": format_poly(dp), "variable": req.var,
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


def _check_bound(value, bound, tol):
    """QuadratureInaccurate where the bound leaves no correct leading digit
    of the value; tol keeps a correct value near 0."""
    size = value.euclid_norm()
    if not bound <= max(tol, size):
        raise QuadratureInaccurate(
            f"error_bound {bound:.3g} exceeds both the tolerance {tol:.3g} "
            f"and |value| = {size:.3g}")


def _run_cauchy(req, algebra):
    p = parse_expression(req.poly, algebra)
    radii = _floats(req.radii, "--radii")
    centers = _floats(req.centers, "--centers") if req.centers else None
    J = parse_unit(req.slice_unit, algebra, req.tol) if req.slice_unit \
        else None
    torus = BoundaryTorus.discs(algebra, radii, centers=centers, J=J,
                                samples_per_circle=req.samples)
    pt = parse_point(req.point, algebra, req.tol, nvars=p.n)
    value, diag = cauchy_reconstruct(p, torus, pt)
    # the direct value is the CLI's own check; the library's is the bound,
    # which stays the last diagnostic
    bound = diag.pop("error_bound")
    _check_bound(value, bound, req.tol)
    reference = poly_eval(p, pt)
    diag["disagreement"] = (value - reference).euclid_norm()
    diag["error_bound"] = bound
    return {"value": _coeffs(value), "value_str": value.format(),
            "reference": _coeffs(reference),
            "reference_str": reference.format(),
            "abs_error": diag["disagreement"], "N": req.samples,
            "diagnostics": diag}


def _run_roots(req, algebra):
    report = roots_one_var(parse_expression(req.poly, algebra))
    blob = report.to_json()
    blob["isolated_str"] = [r.format() for r in report.isolated]
    return blob


def _run_scan(req, algebra):
    p = parse_expression(req.poly, algebra)
    samples = scan_samples(algebra, p.n, req.count, seed=req.seed,
                           span=req.span)
    report = zero_scan(p, samples)
    blob = report.to_json()
    blob["nonempty"] = report.nonempty()
    return blob, list(report.csv_rows())


def _run_algebra_dump(req, algebra):
    return algebra_to_json(algebra)


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
        return _report_error(exc, err)


def _report_error(exc, err):
    """Write exc as one JSON error object; returns the exit code."""
    blob = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ExpressionSyntaxError):
        blob["line"] = exc.line
        blob["col"] = exc.col
        if exc.expected:
            blob["expected"] = exc.expected
    json.dump({"schema": SCHEMA, "error": blob}, err)
    print(file=err)
    return 3 if isinstance(exc, ExpressionSyntaxError) else 2


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage text and exit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(
        prog="hyperslice",
        description="Evaluate, differentiate, multiply, reconstruct, and "
                    "solve slice polynomials over quaternions, octonions, "
                    "and Clifford algebras.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp, poly=True):
        sp.add_argument("--algebra", help="H, O, or clifford(p,q)")
        sp.add_argument("--format", dest="fmt", choices=("json", "csv", "text"))
        if poly:
            sp.add_argument("--poly", required=True,
                            help="expression, e.g. '(0 i 1) x1^2 x2 + (1)'")

    sp = sub.add_parser("eval", help="evaluate at a cone point")
    common(sp)
    sp.add_argument("--point", required=True,
                    help="[alpha, beta, J] triples, e.g. '[[0,1,i],[0,1,j]]'")

    sp = sub.add_parser("diff", help="slice partial derivative")
    common(sp)
    sp.add_argument("--var", type=int, help="1-based index")
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
    sp.add_argument("--centers", help="real centers, default all 0")
    sp.add_argument("--samples", type=int, help="quadrature nodes per circle")
    sp.add_argument("--slice-unit", dest="slice_unit",
                    help="basis name or coefficient list")

    sp = sub.add_parser("roots", help="one-variable zero report")
    common(sp)

    sp = sub.add_parser("scan", help="fiber statistics over random samples")
    common(sp)
    sp.add_argument("--count", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--span", type=float)

    sp = sub.add_parser("algebra-dump", help="basis and multiplication table")
    common(sp, poly=False)
    return ap


def _env_tol():
    """HYPERSLICE_TOL as a finite float >= 0; DEFAULT_TOL when unset."""
    text = os.environ.get("HYPERSLICE_TOL")
    if text is None:
        return DEFAULT_TOL
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise InvalidTolerance(
            f"HYPERSLICE_TOL must be a finite number >= 0, got {text!r}")
    return tol


def main(argv=None):
    if "numpy" not in sys.modules and not any(
            name in os.environ for name in _BLAS_THREADS):
        # products are at most (A, N) @ (N, 4) or 64 x 64: one thread wins
        os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        args = build_parser().parse_args(argv)
        tol = _env_tol()
    except HypersliceError as exc:
        return _report_error(exc, sys.stderr)
    picked = {k: v for k, v in vars(args).items()
              if k in Request._fields and v is not None}
    try:
        code = run(Request(tol=tol, **picked))
        # a closed pipe must surface here, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`): point stdout at devnull so the
        # flush at interpreter exit cannot fail again, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
