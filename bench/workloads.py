"""The four benchmark workloads: seeded inputs, op kinds and reference checks.

An op is one user-level task plus its correctness check.  ``make`` builds
the op's inputs from the workload's seeded generator (untimed); the
returned ``Op.run`` performs the task and checks it (timed).  Every check
compares numbers (coefficient arrays, counts, flags), never rendered
strings.  Library calls go through ``hs.<name>`` so that the tracer's
wrappers see the benchmark's own calls too.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import hyperslice as hs

import warmup

# root-finding residual bound: the library's RESIDUAL_SCALE, restated here
RESIDUAL = 1e-8


class Checks:
    """Problems found by one op.  plant=True corrupts every reference, so a
    correct program must fail every op (the benchmark's self-test)."""

    def __init__(self, plant=False):
        self.plant = plant
        self.problems = []

    def close(self, what, actual, reference, tol):
        """Euclidean distance of two coefficient arrays at most tol."""
        a = np.asarray(actual, dtype=float).ravel()
        r = np.asarray(reference, dtype=float).ravel()
        if self.plant:
            r = r + 1.0
        if a.shape != r.shape:
            self.problems.append(f"{what}: shape {a.shape} != {r.shape}")
            return
        err = float(np.linalg.norm(a - r)) if a.size else 0.0
        if not np.all(np.isfinite(a)) or not err <= tol:
            self.problems.append(f"{what}: error {err:.3e} > {tol:.3e}")

    def equal(self, what, actual, reference):
        if self.plant:
            reference = ("planted", reference)
        if actual != reference:
            self.problems.append(f"{what}: {_short(actual)} != "
                                 f"{_short(reference)}")

    def holds(self, what, condition):
        if not condition:
            self.problems.append(what)

    def poly_close(self, what, actual, reference, tol):
        keys = sorted(set(actual.terms) | set(reference.terms))
        zero = [0.0] * reference.algebra.dim

        def rows(p):
            return [[float(c) for c in p.terms[k].coeffs] if k in p.terms
                    else zero for k in keys]
        self.close(what, rows(actual), rows(reference), tol)


def _short(value, limit=160):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


class Op:
    __slots__ = ("run", "inputs")

    def __init__(self, run, inputs):
        self.run = run
        self.inputs = inputs


class Kind:
    """One op kind; ``weight`` is its number of ops per schedule cycle."""

    __slots__ = ("name", "weight", "make")

    def __init__(self, name, weight, make):
        self.name = name
        self.weight = weight
        self.make = make


def schedule(kinds):
    """Endless deterministic interleaving with kind k taking weight_k of
    every sum(weights) ops; every prefix stays close to that mix."""
    passes = [0.0] * len(kinds)
    while True:
        i = min(range(len(kinds)), key=lambda j: (passes[j], j))
        passes[i] += 1.0 / kinds[i].weight
        yield kinds[i]


def op_stream(kinds, rng, ctx):
    """(kind name, Op) pairs; the k-th op of a kind gets occurrence k."""
    seen = {}
    for kind in schedule(kinds):
        k = seen.get(kind.name, 0)
        seen[kind.name] = k + 1
        yield kind.name, kind.make(rng, ctx, k)


# -- input generators ---------------------------------------------------------

def exact_element(A, rng, span=3):
    while True:
        coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 4))
                  for _ in range(A.dim)]
        if any(coeffs):
            return A.element(coeffs)


def small_exact_element(A, rng):
    """Norm at most 1: entries in [-1/dim, 1/dim]."""
    while True:
        coeffs = [Fraction(rng.randint(-2, 2), 2 * A.dim)
                  for _ in range(A.dim)]
        if any(coeffs):
            return A.element(coeffs)


def float_element(A, rng, span=2.0):
    return A.element([rng.uniform(-span, span) for _ in range(A.dim)])


def unit(A, rng):
    """A random imaginary unit; grade one in Clifford algebras."""
    while True:
        if A.kind.startswith("clifford"):
            v = [rng.gauss(0, 1) if idx.bit_count() == 1 else 0.0
                 for idx in range(A.dim)]
        else:
            v = [0.0] + [rng.gauss(0, 1) for _ in range(A.dim - 1)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return A.element([c / norm for c in v])


def exponents(n, rng, deg):
    while True:
        ell = tuple(rng.randrange(deg + 1) for _ in range(n))
        if sum(ell) <= deg:
            return ell


def poly(A, n, rng, element, deg=3, terms=3):
    out = {}
    while len(out) < terms:
        out[exponents(n, rng, deg)] = element(A, rng)
    return hs.OrderedPolynomial(n, A, out)


def generic_stem(A, n, rng, deg=2):
    """Parity-correct stem with exact coefficients, not from a polynomial."""
    terms = 2 if n < 3 else 1
    comps = {}
    for mask in range(1 << n):
        comp = {}
        for _ in range(terms):
            exp = []
            for h in range(n):
                want = mask >> h & 1
                exp.append(rng.randrange(deg + 1))
                exp.append(rng.choice([v for v in range(deg + 2)
                                       if v % 2 == want]))
            comp[tuple(exp)] = exact_element(A, rng)
        comps[mask] = comp
    return hs.StemPoly(n, A, comps)


def cone_point(A, n, rng, radius):
    """alpha + beta J per variable with |alpha + i beta| <= radius."""
    alphas, betas, units = [], [], []
    for _ in range(n):
        r = rng.uniform(0.0, radius)
        theta = rng.uniform(0.0, math.pi)
        alphas.append(r * math.cos(theta))
        betas.append(r * math.sin(theta))
        units.append(unit(A, rng))
    return hs.SlicePoint(A, alphas, betas, units)


def magnitude(p, point):
    """sum |a_l| prod |x_h|^l_h, a bound on |p(x)| used to scale tolerances."""
    norms = [math.hypot(a, b) for a, b in point.z()]
    return sum(a.euclid_norm() * math.prod(r ** e for r, e in zip(norms, ell))
               for ell, a in p.terms.items())


def canon_stem(F):
    return {(int(mask), exp): tuple(c.coeffs)
            for mask, comp in F.components.items()
            for exp, c in comp.items()}


def coeff_scale(p):
    return max((a.euclid_norm() for a in p.terms.values()), default=0.0)


def check_root(chk, p, root, sample, bound):
    value = hs.poly_eval(p, (root,) + tuple(sample))
    chk.close(f"residual at {root.format()}", value.coeffs,
              [0.0] * p.algebra.dim, bound)


def check_sphere(chk, p, alpha, beta, sample, bound, rng_units):
    for u in rng_units:
        x = p.algebra.from_real(alpha) + beta * u
        check_root(chk, p, x, sample, bound)


# -- exact-calculus -----------------------------------------------------------

def _star_vs_stem(A, n):
    def make(rng, ctx, k):
        p = poly(A, n, rng, exact_element)
        q = poly(A, n, rng, exact_element)

        def run(chk):
            direct = hs.poly_to_stem(hs.star_product(p, q))
            tensor = hs.stem_product(hs.poly_to_stem(p), hs.poly_to_stem(q),
                                     hs.sigma_tensor(n))
            chk.equal("stem(p*q) vs stem product", canon_stem(direct),
                      canon_stem(tensor))
        return Op(run, {"p": p, "q": q})
    return make


def _leibniz(A, n):
    def make(rng, ctx, k):
        F = generic_stem(A, n, rng)
        G = generic_stem(A, n, rng)
        h = rng.randint(1, n)

        def run(chk):
            sigma = hs.sigma_tensor(n)
            lhs = hs.cr_partial_bar(hs.stem_product(F, G, sigma), h)
            rhs = (hs.stem_product(hs.cr_partial_bar(F, h), G, sigma)
                   + hs.stem_product(F, hs.cr_partial_bar(G, h), sigma))
            chk.equal(f"Leibniz rule in variable {h}", canon_stem(lhs),
                      canon_stem(rhs))
        return Op(run, {"F": F, "G": G, "h": h})
    return make


def _regular_star(A, n):
    def make(rng, ctx, k):
        p = poly(A, n, rng, exact_element)
        q = poly(A, n, rng, exact_element)

        def run(chk):
            report = hs.is_slice_regular(hs.star_product(p, q))
            chk.equal("CR violations of p*q", list(report.violations), [])
            chk.close("CR residual of p*q", report.max_residual, 0.0, 0.0)
        return Op(run, {"p": p, "q": q})
    return make


def _eval_agree(A, n):
    def make(rng, ctx, k):
        p = poly(A, n, rng, exact_element)
        xs = cone_point(A, n, rng, radius=1.5).elements()
        source_units = [unit(A, rng) for _ in range(n)]

        def run(chk):
            reference = hs.poly_eval(p, xs)
            x = hs.SlicePoint.from_elements(xs)  # cone_decompose per variable
            tol = 1e-9 * (1.0 + magnitude(p, x))
            via_stem = hs.slice_eval(hs.poly_to_stem(p), x)
            chk.close("slice_eval vs poly_eval", via_stem.coeffs,
                      reference.coeffs, tol)
            rebuilt = hs.representation_eval(
                lambda pt: hs.poly_eval(p, pt), x.with_units(source_units), x)
            chk.close("representation_eval vs poly_eval", rebuilt.coeffs,
                      reference.coeffs, tol)
        return Op(run, {"p": p, "x": list(xs),
                        "source_units": source_units})
    return make


SERIES_RHO = 0.3  # gamma = B rho M < 1 for every B <= sqrt(dim) <= 3 here


def _series_tail(A, n):
    def make(rng, ctx, k):
        while True:
            p = poly(A, n, rng, small_exact_element)
            if p.degree() >= 1:
                break
        x = cone_point(A, n, rng, radius=0.25)

        def run(chk):
            # truncating one degree short of p leaves a nonzero tail bound
            series = hs.PowerSeries(n, A, dict(p.terms), 1.0,
                                    truncation_degree=p.degree() - 1)
            total, tail = hs.series_eval(series, x, SERIES_RHO)
            head = hs.OrderedPolynomial(n, A, {
                ell: a for ell, a in p.terms.items()
                if sum(ell) <= series.truncation_degree})
            chk.close("truncated sum", total.coeffs,
                      hs.poly_eval(head, x).coeffs, 1e-12)
            chk.close("series within its tail bound", total.coeffs,
                      hs.poly_eval(p, x).coeffs, tail + 1e-12)
        return Op(run, {"p": p, "x": x})
    return make


def _format_parse(A, n):
    def make(rng, ctx, k):
        p = poly(A, n, rng, float_element)

        def run(chk):
            back = hs.parse_expression(hs.format_poly(p), A, nvars=n)
            chk.poly_close("parse(format(p))", back, p, 0.0)
        return Op(run, {"p": p})
    return make


EXACT_OPS = (("star-vs-stem", _star_vs_stem), ("leibniz", _leibniz),
             ("regular-star", _regular_star), ("eval-agree", _eval_agree),
             ("series-tail", _series_tail), ("format-parse", _format_parse))


def exact_calculus(alg):
    return [Kind(f"{name}/{kind}/n{n}", 1, make(alg[kind], n))
            for name, make in EXACT_OPS
            for kind in warmup.ALGEBRAS["exact-calculus"]
            for n in (1, 2, 3)]


# -- cauchy-grid --------------------------------------------------------------

def cauchy_poly(A, n, rng):
    """The criterion 08/09 shape x1^2 x2 a + x1 b, extended by x3 for n=3."""
    a, b = float_element(A, rng, 3.0), float_element(A, rng, 3.0)
    if n == 2:
        return hs.OrderedPolynomial(2, A, {(2, 1): a, (1, 0): b})
    return hs.OrderedPolynomial(3, A, {(2, 1, 0): a, (1, 0, 1): b})


CAUCHY_R = 1.5


def cauchy_tolerance(f, x, N, floor):
    """floor, or the trapezoid error scale when x is close to the circles:
    10 n M (rho/R)^N, with rho the largest |alpha + i beta| of x and M the
    bound sum |a_l| R^|l| of f on the torus."""
    rho = max(math.hypot(a, b) for a, b in x.z())
    M = sum(a.euclid_norm() * CAUCHY_R ** sum(ell)
            for ell, a in f.terms.items())
    return max(floor, 10.0 * f.n * M * (rho / CAUCHY_R) ** N)


def _cauchy(algebras, n, N, callable_input, floor):
    def make(rng, ctx, k):
        A = algebras[k % len(algebras)]
        f = cauchy_poly(A, n, rng)
        x = cone_point(A, n, rng, radius=1.0)

        def run(chk):
            torus = hs.BoundaryTorus.discs(A, [CAUCHY_R] * n,
                                           samples_per_circle=N)
            if callable_input:
                stem = hs.poly_to_stem(f)
                value, diag = hs.cauchy_reconstruct(
                    lambda pt: hs.slice_eval(stem, pt), torus, x)
            else:
                value, diag = hs.cauchy_reconstruct(f, torus, x)
            reference = hs.poly_eval(f, x)
            chk.close("reconstruction vs poly_eval", value.coeffs,
                      reference.coeffs, cauchy_tolerance(f, x, N, floor))
            chk.holds(f"min |Delta| {diag['min_abs_delta']:.3g} < 0.2",
                      diag["min_abs_delta"] >= 0.2)
            chk.equal("grid points", diag["grid_points"], N ** n)
        return Op(run, {"f": f, "x": x, "N": N})
    return make


def cauchy_grid(alg):
    H, O = alg["H"], alg["O"]
    # ops per cycle, set from the seed commit's per-op cost so that every
    # kind takes a similar share of the time (about 0.4 s per cycle each);
    # the callable kind alternates H and O
    spec = (("stem/H/n2/N128", (H,), 2, 128, False, 1e-8, 24),
            ("stem/O/n2/N128", (O,), 2, 128, False, 1e-8, 18),
            ("stem/H/n2/N256", (H,), 2, 256, False, 1e-8, 5),
            ("stem/O/n2/N256", (O,), 2, 256, False, 1e-8, 4),
            ("stem/H/n3/N32", (H,), 3, 32, False, 1e-8, 6),
            ("stem/O/n3/N32", (O,), 3, 32, False, 1e-8, 5),
            ("callable/HO/n2/N32", (H, O), 2, 32, True, 1e-5, 1))
    return [Kind(name, weight, _cauchy(algebras, n, N, call, floor))
            for name, algebras, n, N, call, floor, weight in spec]


# -- roots-scan ---------------------------------------------------------------

def _monic(A, coeffs):
    terms = {(k,): c for k, c in enumerate(coeffs)}
    terms[(len(coeffs),)] = A.one()
    return hs.OrderedPolynomial(1, A, terms)


def _check_roots(chk, p, report, degree, probes, sample=(), scale=None):
    """Residual of every root and sphere, and the degree count."""
    if scale is None:
        scale = coeff_scale(p)
    bound = RESIDUAL * (1.0 + scale)
    for r in report.isolated:
        check_root(chk, p, r, sample, bound)
        # zeros of slice polynomials lie on the quadratic cone
        dec = hs.cone_decompose(r)
        chk.close("cone decomposition of a root", dec.compose().coeffs,
                  r.coeffs, 1e-9 * (1.0 + r.euclid_norm()))
    for alpha, beta in report.spherical:
        check_sphere(chk, p, alpha, beta, sample, bound, probes)
    chk.equal("isolated + 2 * spheres",
              len(report.isolated) + 2 * len(report.spherical), degree)


def _roots(A, family, degrees):
    def make(rng, ctx, k):
        d = rng.randint(*degrees)
        if family == "generic":
            coeffs = [float_element(A, rng) for _ in range(d)]
        elif family == "paravector":
            coeffs = [A.element([rng.uniform(-2, 2) if idx.bit_count() <= 1
                                 else 0.0 for idx in range(A.dim)])
                      for _ in range(d)]
        else:
            u = unit(A, rng)
            real = family == "slice-real"
            coeffs = [A.from_real(rng.uniform(-2, 2))
                      + (0.0 if real else rng.uniform(-2, 2)) * u
                      for _ in range(d)]
        p = _monic(A, coeffs)
        probes = [unit(A, rng) for _ in range(3)]

        def run(chk):
            report = hs.roots_one_var(p)
            _check_roots(chk, p, report, d, probes)
            if family in ("generic", "slice-complex"):
                chk.equal("spheres of a generic polynomial",
                          report.spherical, [])
        return Op(run, {"p": p})
    return make


SCAN_COUNT = 12


def scan_poly(A, rng):
    """x1^2 + x1 x2 a + x2^2 b + c, monic in x1: every fiber has degree 2."""
    return hs.OrderedPolynomial(2, A, {
        (2, 0): A.one(), (1, 1): float_element(A, rng),
        (0, 2): float_element(A, rng), (0, 0): float_element(A, rng)})


def _scan(A):
    def make(rng, ctx, k):
        f = scan_poly(A, rng)
        seed = rng.randrange(1 << 30)
        probes = [unit(A, rng) for _ in range(3)]

        def run(chk):
            samples = hs.scan_samples(A, 2, SCAN_COUNT, seed=seed)
            report = hs.zero_scan(f, samples)
            chk.equal("fiber count", sum(report.counts().values()),
                      SCAN_COUNT)
            for rec in report.records:
                if rec.report is None:
                    chk.holds(f"fiber {rec.kind} of a monic polynomial", False)
                    continue
                _check_roots(chk, f, rec.report, 2, probes, rec.sample,
                             _restricted_scale(f, rec.sample))
        return Op(run, {"f": f, "scan_seed": seed})
    return make


def _restricted_scale(f, sample):
    """Bound on the coefficient norms of f restricted to the fiber."""
    norms = [x.euclid_norm() for x in sample]
    return sum(a.euclid_norm() * math.prod(r ** e
                                           for r, e in zip(norms, ell[1:]))
               for ell, a in f.terms.items())


def roots_scan(alg):
    H, O, C = alg["H"], alg["O"], alg["clifford(0,3)"]
    spec = (("generic/H", _roots(H, "generic", (2, 9))),
            ("generic/O", _roots(O, "generic", (2, 6))),
            ("slice-complex/H", _roots(H, "slice-complex", (2, 7))),
            ("slice-real/O", _roots(O, "slice-real", (2, 7))),
            ("paravector/Cl03", _roots(C, "paravector", (2, 5))),
            ("scan/H", _scan(H)),
            ("scan/O", _scan(O)))
    return [Kind(name, 1, make) for name, make in spec]


# -- cli-subprocess -----------------------------------------------------------

def run_child(argv, cwd, env):
    """Run one child to completion: exit code, stdout, stderr, its rusage."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=cwd, env=env)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
    finally:
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out, err[0] if err else b"", usage


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def number_text(x):
    return repr(float(x))


def element_text(a):
    body = [number_text(a.coeffs[0])]
    for name, c in zip(a.algebra.basis_names[1:], a.coeffs[1:]):
        if c != 0:
            body.append(f"{name} {number_text(c)}")
    return "(" + " ".join(body) + ")"


def poly_text(p):
    """The expression grammar, written by the benchmark, not by hyperslice."""
    parts = []
    for ell, a in p.terms.items():
        monos = " ".join(f"x{h + 1}^{d}" for h, d in enumerate(ell) if d)
        parts.append(f"{element_text(a)} {monos}".strip())
    return " + ".join(parts)


def point_text(x):
    return json.dumps([[a, b, [float(c) for c in J.coeffs]]
                       for a, b, J in zip(x.alphas, x.betas, x.units)])


def two_variable_poly(A, rng):
    """The CLI counts the variables an expression uses, so x2 must occur."""
    while True:
        p = poly(A, 2, rng, float_element)
        if any(ell[1] for ell in p.terms):
            return p


CLI_SUBCOMMANDS = ("eval", "diff", "regular", "product", "cauchy", "roots",
                   "scan", "algebra-dump")
CLI_CAUCHY_N = 64
CLI_SCAN_COUNT = 8


def _cli(sub):
    def make(rng, ctx, k):
        kind = ("H", "O")[k % 2]
        A = ctx.alg[kind]
        argv = [sub, "--algebra", kind]
        inputs = {}
        if sub in ("eval", "diff", "regular", "product"):
            p = two_variable_poly(A, rng)
            argv += ["--poly", poly_text(p)]
            inputs["p"] = p
        if sub == "eval":
            x = cone_point(A, 2, rng, radius=1.5)
            argv += ["--point", point_text(x)]
            inputs["x"] = x
        elif sub == "diff":
            h = rng.randint(1, 2)
            conj = (k // 2) % 2 == 1
            argv += ["--var", str(h)] + (["--conj"] if conj else [])
            inputs.update(h=h, conj=conj)
        elif sub == "product":
            q = two_variable_poly(A, rng)
            argv += ["--times", poly_text(q)]
            inputs["q"] = q
        elif sub == "cauchy":
            p = cauchy_poly(A, 2, rng)
            x = cone_point(A, 2, rng, radius=1.0)
            argv += ["--poly", poly_text(p), "--point", point_text(x),
                     "--radii", "1.5,1.5", "--samples", str(CLI_CAUCHY_N)]
            inputs.update(p=p, x=x)
        elif sub == "roots":
            p = _monic(A, [float_element(A, rng)
                           for _ in range(rng.randint(2, 5))])
            argv += ["--poly", poly_text(p)]
            inputs["p"] = p
        elif sub == "scan":
            p = scan_poly(A, rng)
            seed = rng.randrange(1 << 30)
            argv += ["--poly", poly_text(p), "--count", str(CLI_SCAN_COUNT),
                     "--seed", str(seed)]
            inputs.update(p=p, scan_seed=seed)
        elif sub == "algebra-dump":
            kind = ("H", "O", "clifford(0,6)")[k % 3]
            argv[2] = kind
        inputs["argv"] = argv

        def run(chk):
            t0 = time.perf_counter()
            code, out, err, usage = run_child(
                [sys.executable, "-m", "hyperslice.cli", *argv],
                ctx.root, ctx.env)
            ctx.cli_times[sub].append(time.perf_counter() - t0)
            ctx.child_cpu += usage.ru_utime + usage.ru_stime
            ctx.child_maxrss = max(ctx.child_maxrss, usage.ru_maxrss)
            chk.equal("exit code", code, 0)
            if code != 0:
                chk.problems.append(err.decode(errors="replace")[-400:])
                return
            try:
                payload = json.loads(out, parse_constant=_reject_constant)
            except ValueError as exc:
                chk.holds(f"stdout is not strict JSON: {exc}", False)
                return
            for error in ctx.validator(sub).iter_errors(payload):
                chk.holds(f"schema: {error.message}", False)
            CLI_CHECKS[sub](chk, payload, inputs)
        return Op(run, inputs)
    return make


def _parsed(payload, key, A, n):
    return hs.parse_expression(payload[key], A, nvars=n)


def _check_eval(chk, payload, inp):
    p, x = inp["p"], inp["x"]
    reference = hs.poly_eval(p, x)
    chk.close("value", payload["value"], reference.coeffs,
              1e-12 * (1.0 + magnitude(p, x)))
    chk.equal("n", payload["n"], 2)


def _check_diff(chk, payload, inp):
    p = inp["p"]
    reference = (hs.OrderedPolynomial.zero(2, p.algebra) if inp["conj"]
                 else p.partial(inp["h"]))
    chk.poly_close("derivative", _parsed(payload, "derivative", p.algebra, 2),
                   reference, 1e-12 * (1.0 + 3 * coeff_scale(p)))
    chk.equal("variable, conjugate", (payload["variable"],
                                      payload["conjugate"]),
              (inp["h"], inp["conj"]))


def _check_regular(chk, payload, inp):
    report = hs.is_slice_regular(inp["p"])
    chk.equal("regular, violations", (payload["regular"],
                                       payload["violations"]),
              (report.ok, len(report.violations)))
    chk.close("max_residual", payload["max_residual"], report.max_residual,
              1e-12)


def _check_product(chk, payload, inp):
    p, q = inp["p"], inp["q"]
    reference = hs.star_product(p, q)
    chk.poly_close("product", _parsed(payload, "product", p.algebra, 2),
                   reference,
                   1e-12 * (1.0 + 9 * coeff_scale(p) * coeff_scale(q)))


def _check_cauchy(chk, payload, inp):
    p, x = inp["p"], inp["x"]
    reference = hs.poly_eval(p, x)
    scale = 1.0 + magnitude(p, x)
    tol = cauchy_tolerance(p, x, CLI_CAUCHY_N, 1e-8)
    chk.close("value vs in-process poly_eval", payload["value"],
              reference.coeffs, tol)
    chk.close("reference field", payload["reference"], reference.coeffs,
              1e-12 * scale)
    chk.equal("N", payload["N"], CLI_CAUCHY_N)
    chk.holds(f"abs_error {payload['abs_error']:.3e} > {tol:.3e}",
              payload["abs_error"] <= tol)


def _check_roots_cli(chk, payload, inp):
    p = inp["p"]
    report = hs.roots_one_var(p)
    chk.close("isolated roots", sorted(payload["isolated"]),
              sorted([float(c) for c in r.coeffs] for r in report.isolated),
              1e-9 * (1.0 + coeff_scale(p)))
    chk.close("spheres", sorted(payload["spherical"]),
              sorted([a, b] for a, b in report.spherical), 1e-9)
    A = p.algebra
    bound = RESIDUAL * (1.0 + coeff_scale(p))
    for coeffs in payload["isolated"]:
        check_root(chk, p, A.element(coeffs), (), bound)


def _check_scan(chk, payload, inp):
    p = inp["p"]
    samples = hs.scan_samples(p.algebra, 2, CLI_SCAN_COUNT,
                              seed=inp["scan_seed"])
    reference = hs.zero_scan(p, samples)
    chk.equal("fiber counts", payload["counts"], reference.counts())
    chk.equal("fiber total", sum(payload["counts"].values()), CLI_SCAN_COUNT)


def _check_dump(chk, payload, inp):
    kind = inp["argv"][2]
    A = hs.make_algebra(kind)
    table = [[("-" if A.mul_sign[i][j] < 0 else "")
              + A.basis_names[A.mul_index[i][j]] for j in range(A.dim)]
             for i in range(A.dim)]
    chk.equal("dim, basis, conjugation, associative",
              (payload["dim"], payload["basis"],
               payload["conjugation_signs"], payload["associative"]),
              (A.dim, list(A.basis_names), list(A.conj_signs),
               A.associative))
    chk.equal("multiplication table", payload["table"], table)


CLI_CHECKS = {"eval": _check_eval, "diff": _check_diff,
              "regular": _check_regular, "product": _check_product,
              "cauchy": _check_cauchy, "roots": _check_roots_cli,
              "scan": _check_scan, "algebra-dump": _check_dump}


def cli_subprocess(alg):
    return [Kind(sub, 1, _cli(sub)) for sub in CLI_SUBCOMMANDS]


# -- registry -------------------------------------------------------------

WORKLOADS = {
    "exact-calculus": exact_calculus,
    "cauchy-grid": cauchy_grid,
    "roots-scan": roots_scan,
    "cli-subprocess": cli_subprocess,
}

# schedule cycles in a workload's batch.  The cost of an exact-calculus or
# roots-scan op depends strongly on its random inputs, so their batches
# are longer than a 20 s run gets through: every op is new, and a run
# averages over many inputs.  A cauchy-grid op costs the same for any
# inputs of its kind and a CLI call is mostly start-up, so those batches
# are short and repeat, and the median over repeats drops the bursts of
# a shared machine.
BATCH_CYCLES = {
    "exact-calculus": 40,
    "cauchy-grid": 1,
    "roots-scan": 320,
    "cli-subprocess": 4,
}


def batch(workload, rng, ctx):
    """The workload's kinds and its batch: BATCH_CYCLES whole schedule
    cycles of (kind name, Op) pairs made from rng."""
    kinds = WORKLOADS[workload](ctx.alg)
    size = BATCH_CYCLES[workload] * sum(kind.weight for kind in kinds)
    return kinds, list(itertools.islice(op_stream(kinds, rng, ctx), size))


def child_env(root):
    """The environment of child interpreters: hyperslice from root/src."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def context(root, algebras):
    """Shared state of a run: algebras, paths, CLI environment and stats."""
    env = child_env(root)
    validators = {}

    def validator(sub):
        if sub not in validators:
            import jsonschema

            with open(root / "docs" / "schemas" / f"{sub}.json") as fh:
                validators[sub] = jsonschema.Draft7Validator(json.load(fh))
        return validators[sub]

    return SimpleNamespace(alg=algebras, root=root, env=env,
                           validator=validator, cli_times=defaultdict(list),
                           child_cpu=0.0, child_maxrss=0)


def describe(inputs):
    """Readable inputs of a failed op."""
    out = {}
    for key, value in inputs.items():
        if isinstance(value, hs.OrderedPolynomial):
            out[key] = f"{value.algebra.kind}: {poly_text(value)}"
        elif isinstance(value, hs.SlicePoint):
            out[key] = point_text(value)
        elif isinstance(value, hs.StemPoly):
            out[key] = value.to_json()
        elif isinstance(value, list) and value and hasattr(value[0], "coeffs"):
            out[key] = [[float(c) for c in u.coeffs] for u in value]
        else:
            out[key] = value
    return out
