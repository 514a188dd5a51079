"""Span recorder that times hyperslice's public functions from outside.

The recorder replaces each traced function in every ``hyperslice`` module
namespace that holds it (the defining module, the package and every module
that imported it by name), so calls between modules are seen too.  Spans
stay in memory and are written as JSON lines once the run ends.

``Element.__mul__`` runs far too often for one span per call: its calls
and time are added to the innermost open span instead.  A span's self time
is its duration minus its child spans and minus the products it counted.
"""

import json
import statistics
import sys
import time

# module -> public functions traced in it; span names are "module.function"
TRACED = {
    "algebra": ("make_algebra", "invert", "cone_decompose"),
    "stems": ("stem_product", "cr_partial", "cr_partial_bar",
              "monomial_stem", "sigma_tensor"),
    "regularity": ("star_product", "poly_to_stem", "is_slice_regular",
                   "poly_eval", "series_eval", "norm_constant"),
    "slicefun": ("slice_eval", "representation_eval"),
    "cauchy": ("cauchy_reconstruct",),
    "zeros": ("roots_one_var", "zero_scan"),
    "parser": ("parse_expression", "format_poly"),
}
LAYERS = tuple(TRACED)
MUL = "algebra.mul"


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child", "mul_calls",
                 "mul_time", "cpu", "info", "error")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.mul_calls = 0
        self.mul_time = 0.0
        self.cpu = 0.0
        self.info = None
        self.error = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child - self.mul_time


def _cauchy_info(args, result):
    f, torus = args[0], args[1]
    stem = hasattr(f, "terms") or hasattr(f, "components")
    _, diag = result
    return {"path": "stem" if stem else "callable",
            "N": torus.samples_per_circle, "n": torus.n,
            "nodes": diag["grid_points"]}


def _roots_info(args, result):
    p = args[0]
    degree = max((ell[0] for ell in p.terms), default=0)
    return {"degree": degree, "isolated": len(result.isolated),
            "spherical": len(result.spherical)}


def _scan_info(args, result):
    return {"fibers": len(result.records)}


def _norm_info(args, result):
    return {"algebra": args[0].kind}


INFO = {
    "cauchy.cauchy_reconstruct": _cauchy_info,
    "zeros.roots_one_var": _roots_info,
    "zeros.zero_scan": _scan_info,
    "regularity.norm_constant": _norm_info,
}
CPU_TIMED = {"cauchy.cauchy_reconstruct"}


class Recorder:
    """Holds the spans of one run; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.recording = False
        # op -> products made outside every span (benchmark code)
        self.loose = {}
        self._patched = []

    # -- wrapping ------------------------------------------------------------

    def install(self):
        from hyperslice import algebra  # the package loads every submodule

        replace = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"hyperslice.{module}"]
            for name in names:
                original = getattr(mod, name)
                replace[id(original)] = (original,
                                         self._wrap(f"{module}.{name}",
                                                    original))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hyperslice"
                                   or modname.startswith("hyperslice.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        element = algebra.Element
        original_mul = element.__mul__
        element.__mul__ = self._wrap_mul(original_mul)
        self._patched.append((element, "__mul__", original_mul))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        rec = self
        info = INFO.get(name)
        cpu = name in CPU_TIMED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not rec.recording:
                return fn(*args, **kwargs)
            parent = rec.stack[-1] if rec.stack else None
            span = Span(name, rec.op, parent, clock())
            rec.stack.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                if cpu:
                    span.cpu = time.process_time() - cpu0
                rec.stack.pop()
                if parent is not None:
                    parent.child += span.duration
                rec.spans.append(span)
            if info is not None:
                span.info = info(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _wrap_mul(self, fn):
        rec = self
        clock = time.perf_counter

        def traced_mul(a, b):
            if not rec.recording:
                return fn(a, b)
            t0 = clock()
            result = fn(a, b)
            dt = clock() - t0
            if rec.stack:
                top = rec.stack[-1]
            else:
                top = rec.loose.get(rec.op)
                if top is None:
                    top = rec.loose[rec.op] = Span(MUL, rec.op, None, 0.0)
            top.mul_calls += 1
            top.mul_time += dt
            return result

        return traced_mul

    # -- output --------------------------------------------------------------

    def write(self, path):
        """One JSON array per span: op, name, parent index, start, duration,
        self time (seconds), products counted, product time, exception
        name, extra info."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index.get(id(s.parent), -1) if s.parent else -1
                row = [s.op, s.name, parent, round(s.start - t0, 9),
                       round(s.duration, 9), round(s.self_time, 9),
                       s.mul_calls, round(s.mul_time, 9), s.error, s.info]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def summarize(rec, ops, cli_times, startup, overhead):
    """Per-layer metrics of the spans of the ops in range `ops`:
    {name: (value, unit)}, with value None where no span of the range
    measures the metric.

    Per-op values divide totals over the ops numbered 0 and up by their
    number; set-up spans (op -1) count only for make_algebra and the first
    norm_constant calls.
    """
    from workloads import CLI_SUBCOMMANDS

    chosen = [s for s in rec.spans if s.op in ops]
    spans = [s for s in chosen if s.op >= 0]
    count = sum(op >= 0 for op in ops)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(values, scale, per=count):
        values = list(values)
        return sum(values) * scale / per if values else None

    def per_op_ms(name):
        return total((s.self_time for s in by_name.get(name, ())), 1e3)

    def calls(name):
        return total((1 for _ in by_name.get(name, ())), 1.0)

    def p50(name, scale):
        found = by_name.get(name)
        return (statistics.median(s.duration for s in found) * scale
                if found else None)

    def ratio(num, den):
        return None if num is None or den is None else num / den

    loose = [s for op, s in rec.loose.items() if op in ops and op >= 0]
    products = spans + loose
    builds = [s.self_time for s in chosen
              if s.name == "algebra.make_algebra"]
    first_norm = {}
    for s in sorted(chosen, key=lambda s: s.start):
        if s.name == "regularity.norm_constant" and s.info:
            first_norm.setdefault(s.info["algebra"], s.duration)

    cauchy = [s for s in by_name.get("cauchy.cauchy_reconstruct", ())
              if s.info]
    stem = [s for s in cauchy if s.info["path"] == "stem"]
    callable_ = [s for s in cauchy if s.info["path"] == "callable"]

    def ns_per_node(N):
        chosen = [s for s in stem if s.info["N"] == N and s.info["n"] == 2]
        return ratio(total((s.duration for s in chosen), 1e9, 1),
                     total((s.info["nodes"] for s in chosen), 1.0, 1))

    roots = by_name.get("zeros.roots_one_var", ())
    solved = [s for s in roots if s.info]
    scans = [s for s in by_name.get("zeros.zero_scan", ()) if s.info]
    m = {
        "algebra.mul.calls":
            (total((s.mul_calls for s in products), 1.0), "count/op"),
        "algebra.mul.self_ms":
            (total((s.mul_time for s in products), 1e3), "ms/op"),
        "algebra.invert.self_ms": (per_op_ms("algebra.invert"), "ms/op"),
        "algebra.cone_decompose.self_ms":
            (per_op_ms("algebra.cone_decompose"), "ms/op"),
        "algebra.make_algebra.self_ms":
            (total(builds, 1e3, len(builds)), "ms"),
        "stems.stem_product.calls": (calls("stems.stem_product"), "count/op"),
        "stems.stem_product.p50_ms": (p50("stems.stem_product", 1e3), "ms"),
        "stems.stem_product.self_ms":
            (per_op_ms("stems.stem_product"), "ms/op"),
        "stems.cr_partial_bar.self_ms":
            (per_op_ms("stems.cr_partial_bar"), "ms/op"),
        "stems.monomial_stem.self_ms":
            (per_op_ms("stems.monomial_stem"), "ms/op"),
    }
    for name in ("star_product", "poly_to_stem", "is_slice_regular",
                 "poly_eval", "series_eval"):
        m[f"regularity.{name}.self_ms"] = (per_op_ms(f"regularity.{name}"),
                                           "ms/op")
    m["regularity.norm_constant.first_call_ms"] = (
        total(first_norm.values(), 1e3, 1), "ms")
    m.update({
        "slicefun.slice_eval.calls": (calls("slicefun.slice_eval"),
                                      "count/op"),
        "slicefun.slice_eval.self_ms": (per_op_ms("slicefun.slice_eval"),
                                        "ms/op"),
        "slicefun.representation_eval.self_ms":
            (per_op_ms("slicefun.representation_eval"), "ms/op"),
        "cauchy.reconstruct_stem.ns_per_node_N128": (ns_per_node(128), "ns"),
        "cauchy.reconstruct_stem.ns_per_node_N256": (ns_per_node(256), "ns"),
        "cauchy.reconstruct_stem.node_cost_ratio_256_128":
            (ratio(ns_per_node(256), ns_per_node(128)), "ratio"),
        "cauchy.reconstruct_stem.cpu_over_wall":
            (ratio(total((s.cpu for s in stem), 1.0, 1),
                   total((s.duration for s in stem), 1.0, 1)), "ratio"),
        "cauchy.reconstruct_callable.us_per_node":
            (ratio(total((s.duration for s in callable_), 1e6, 1),
                   total((s.info["nodes"] for s in callable_), 1.0, 1)),
             "us"),
        "cauchy.grid_nodes": (total((s.info["nodes"] for s in cauchy), 1.0),
                              "count/op"),
        "zeros.roots_one_var.calls": (calls("zeros.roots_one_var"),
                                      "count/op"),
        "zeros.roots_one_var.p50_ms": (p50("zeros.roots_one_var", 1e3), "ms"),
        "zeros.roots_one_var.self_ms": (per_op_ms("zeros.roots_one_var"),
                                        "ms/op"),
        "zeros.zero_scan.ms_per_fiber":
            (ratio(total((s.duration for s in scans), 1e3, 1),
                   total((s.info["fibers"] for s in scans), 1.0, 1)), "ms"),
        "zeros.roots_per_degree":
            (ratio(total((s.info["isolated"] + 2 * s.info["spherical"]
                          for s in solved), 1.0, 1),
                   total((s.info["degree"] for s in solved), 1.0, 1)),
             "ratio"),
        "zeros.refine_failed":
            (total((s.error == "RefinementFailed" for s in roots), 1.0, 1),
             "count"),
        "parser.parse_expression.us_per_call":
            (p50("parser.parse_expression", 1e6), "us"),
        "parser.format_poly.us_per_call": (p50("parser.format_poly", 1e6),
                                           "us"),
        "cli.startup.python_ms": (startup["python"], "ms"),
        "cli.startup.numpy_import_ms":
            (startup["numpy"] - startup["python"], "ms"),
        "cli.startup.hyperslice_import_ms":
            (startup["hyperslice"] - startup["numpy"], "ms"),
    })
    for sub in CLI_SUBCOMMANDS:
        times = cli_times.get(sub)
        m[f"cli.{sub}.p50_ms"] = (statistics.median(times) * 1e3
                                  if times else None, "ms")
    for layer in LAYERS:
        times = [s.self_time for s in spans if s.name.startswith(layer + ".")]
        if layer == "algebra":
            times += [s.mul_time for s in products if s.mul_calls]
        m[f"layer.{layer}.self_ms"] = (total(times, 1e3), "ms/op")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m
