"""hyperslice benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload roots-scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs the workload's ops back to back (in-process calls; for
cli-subprocess one child process at a time) for ``--seconds`` seconds and
checks every op against a reference.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last
line of stdout is the JSON result; the lines before it are for people,
and the full record (machine facts, failing inputs) goes to
``bench/out/``.  See bench/README.md.
"""

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("exact-calculus", "cauchy-grid", "roots-scan",
                  "cli-subprocess")
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 25, 5.0
STARTUP_REPEATS = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "HYPERSLICE_TOL")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-wrong-reference", action="store_true",
                    help="corrupt every reference (self-test only)")
    return ap.parse_args(argv)


def machine_facts():
    import numpy as np
    import scipy

    facts = {"nproc": len(os.sched_getaffinity(0)),
             "cpu_count": os.cpu_count(),
             "cpu_model": platform.processor() or None,
             "python": platform.python_version(),
             "numpy": np.__version__, "scipy": scipy.__version__,
             "env": {v: os.environ.get(v) for v in THREAD_VARIABLES}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {k: blas.get(k) for k in
                         ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError) as exc:
        facts["blas"] = f"unavailable: {exc}"
    return facts


def measure_setup(workload):
    """Median set-up time over fresh interpreters (bench/warmup.py): at
    least SETUP_MIN of them, more while SETUP_BUDGET_S lasts."""
    from workloads import child_env

    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN or (
            len(times) < SETUP_MAX
            and time.perf_counter() - start < SETUP_BUDGET_S):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "warmup.py"), workload],
            cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True,
            timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return statistics.median(times), times


def measure_startup():
    """Median wall time of bare interpreter starts and imports (ms)."""
    from workloads import child_env, run_child

    snippets = {"python": "pass", "numpy": "import numpy",
                "hyperslice": "import hyperslice"}
    medians = {}
    for name, code in snippets.items():
        times = []
        for _ in range(STARTUP_REPEATS):
            t0 = time.perf_counter()
            rc, _, err, _ = run_child([sys.executable, "-c", code], ROOT,
                                      child_env(ROOT))
            if rc != 0:
                raise RuntimeError(f"{code!r} failed: {err[-2000:]!r}")
            times.append(time.perf_counter() - t0)
        medians[name] = statistics.median(times) * 1e3
    return medians


class Runner:
    """Executes ops, times them, and keeps the failure record.

    The CPU time of an op is this process's (all threads) or, with
    children=True, that of the child processes the op waited for."""

    def __init__(self, ctx, plant, children=False):
        self.ctx = ctx
        self.plant = plant
        self.children = children
        self.attempted = 0
        self.failures = []
        self.tracer = None

    def run(self, name, op, index):
        """Run one op; returns (wall seconds, CPU seconds, passed)."""
        from workloads import Checks, describe

        chk = Checks(self.plant)
        if self.tracer is not None:
            self.tracer.op = index
            self.tracer.recording = True
        cpu0, child0 = time.process_time(), self.ctx.child_cpu
        t0 = time.perf_counter()
        try:
            op.run(chk)
        except Exception as exc:  # an op that raises is a failed op
            chk.problems.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        cpu = (self.ctx.child_cpu - child0 if self.children
               else time.process_time() - cpu0)
        if self.tracer is not None:
            self.tracer.recording = False
        self.attempted += 1
        if chk.problems:
            self.failures.append({"kind": name, "op": index,
                                  "problems": chk.problems[:5],
                                  "inputs": describe(op.inputs)})
        return elapsed, cpu, not chk.problems

    def run_all(self, ops, first_index):
        for index, (name, op) in enumerate(ops, first_index):
            self.run(name, op, index)


def repeat(ops, seconds, least):
    """(position, name, op) over ops again and again until `seconds` of
    wall time have passed; the first `least` ops always run."""
    start = time.perf_counter()
    for n in itertools.count():
        for i, (name, op) in enumerate(ops):
            if ((n or i >= least)
                    and time.perf_counter() - start >= seconds):
                return
            yield i, name, op


def tail(latencies):
    """Highest order statistic with at least ten samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(batch, runs, rss_kb, setup_s):
    """Metrics of the batch ops that ran, from each op's median repeat;
    runs[i] holds the (wall, cpu, passed) of every repeat of op i."""
    batch, runs = zip(*((op, r) for op, r in zip(batch, runs) if r))
    walls = [statistics.median(w for w, _, _ in r) for r in runs]
    cpus = [statistics.median(c for _, c, _ in r) for r in runs]
    passed = sum(all(ok for _, _, ok in r) for r in runs)
    value, pct, n = tail(walls)
    by_kind = {}
    for (name, _), wall in zip(batch, walls):
        by_kind.setdefault(name, []).append(round(wall * 1e3, 3))
    return {
        "ops_per_s": (passed / sum(walls), "op/s"),
        "latency_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "cpu_ms_per_op": (statistics.fmean(cpus) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }, {"tail_percentile": pct, "ops_run": n,
        "repeats": [min(map(len, runs)), max(map(len, runs))],
        "kinds_ms": by_kind}


def workload_ops(workload, seed, ctx):
    """One op of every kind (to warm up, untimed), the batch, and the
    length of one schedule cycle, which holds every kind."""
    import workloads

    kinds, ops = workloads.batch(
        workload, random.Random(f"{workload}/{seed}/batch"), ctx)
    rng = random.Random(f"{workload}/{seed}/warm")
    warm = [(kind.name, kind.make(rng, ctx, 0)) for kind in kinds]
    return warm, ops, sum(kind.weight for kind in kinds)


def untraced(args):
    import warmup
    import workloads

    setup_s, setup_all = measure_setup(args.workload)
    ctx = workloads.context(ROOT, warmup.warm(args.workload))
    children = args.workload == "cli-subprocess"
    runner = Runner(ctx, args.plant_wrong_reference, children)
    warm, ops, cycle = workload_ops(args.workload, args.seed, ctx)
    runner.run_all(warm, -len(warm))
    ctx.child_maxrss = 0
    runs = [[] for _ in ops]
    for i, name, op in repeat(ops, args.seconds, cycle):
        runs[i].append(runner.run(name, op, i))
    rss_kb = (ctx.child_maxrss if children else
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics, extra = end_to_end(ops, runs, rss_kb, setup_s)
    extra.update(setup_runs_s=setup_all,
                 failed_ratio=len(runner.failures) / runner.attempted)
    return runner, metrics, extra


def probe_ops(workload, seed, algebras):
    """One op of every kind of the other workloads, for the layer metrics
    that the workload's own ops do not exercise."""
    import warmup
    import workloads

    for kinds in warmup.ALGEBRAS.values():
        for kind in kinds:
            if kind not in algebras:
                algebras[kind] = workloads.hs.make_algebra(kind)
    ctx = workloads.context(ROOT, algebras)
    rng = random.Random(f"{workload}/{seed}/probe")
    ops = [(kind.name, kind.make(rng, ctx, 0))
           for other in WORKLOAD_NAMES if other != workload
           for kind in workloads.WORKLOADS[other](algebras)]
    return ctx, ops


def traced(args):
    import warmup
    import workloads
    from spans import Recorder, summarize

    rec = Recorder()
    rec.install()
    rec.op = -1
    rec.recording = True  # set-up is traced: make_algebra, norm_constant
    algebras = warmup.warm(args.workload)
    rec.recording = False
    ctx = workloads.context(ROOT, algebras)
    runner = Runner(ctx, args.plant_wrong_reference)
    warm, ops, cycle = workload_ops(args.workload, args.seed, ctx)
    runner.run_all(warm, -len(warm))
    # every op runs untraced and traced, in turn first, which gives
    # trace.overhead_ratio; spans are numbered by traced run
    plain = traced_time = 0.0
    count = 0
    for _, name, op in repeat(ops, args.seconds, cycle):
        for tracer in ((None, rec) if count % 2 == 0 else (rec, None)):
            runner.tracer = tracer
            wall = runner.run(name, op, count)[0]
            if tracer is None:
                plain += wall
            else:
                traced_time += wall
        count += 1
    runner.tracer = rec
    probe_ctx, probe = probe_ops(args.workload, args.seed, algebras)
    runner.ctx = probe_ctx
    runner.run_all(probe, count)
    rec.uninstall()
    startup = measure_startup()
    own = summarize(rec, range(-1, count), ctx.cli_times, startup,
                    traced_time / plain)
    spare = summarize(rec, range(count, count + len(probe)),
                      probe_ctx.cli_times, startup, traced_time / plain)
    metrics, from_probe = {}, []
    for name, (value, unit) in own.items():
        if value is None:
            value = spare[name][0]
            from_probe.append(name)
        if value is None:
            raise RuntimeError(f"{name}: no span measures it")
        metrics[name] = (value, unit)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    rec.write(spans_path)
    extra = {"traced_ops": count, "probe_ops": len(probe),
             "from_probe": from_probe, "spans": len(rec.spans),
             "spans_file": str(spans_path),
             "failed_ratio": len(runner.failures) / runner.attempted}
    return runner, metrics, extra


def run_all(args):
    """Every workload in a fresh process of its own, one after another;
    the last line maps each workload to its result."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.plant_wrong_reference:
            cmd.append("--plant-wrong-reference")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report), flush=True)
        results[workload] = json.loads(last)
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hyperslice" / "__init__.py").is_file():
        print(f"error: no hyperslice sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import hyperslice

    if Path(hyperslice.__file__).resolve().parent != SRC / "hyperslice":
        print(f"error: imported hyperslice from {hyperslice.__file__}",
              file=sys.stderr)
        return 2
    facts = machine_facts()
    runner, metrics, extra = traced(args) if args.trace else untraced(args)
    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts, **extra, "result": result,
              "failures": runner.failures[:50]}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(facts, default=str))
    probed = set(extra.get("from_probe", ()))
    for name, (value, unit) in metrics.items():
        note = "  (probe ops)" if name in probed else ""
        print(f"  {name:52s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_ratio':52s} {extra['failed_ratio']:14.6g} ratio"
          f"  ({failed} of {runner.attempted} ops)")
    if "ops_run" in extra:
        print(f"  latency_tail percentile {extra['tail_percentile']:.4g} of "
              f"{extra['ops_run']} batch ops, each run "
              f"{extra['repeats'][0]}-{extra['repeats'][1]} times")
    if probed:
        print("  (probe ops): not exercised by this workload's own ops; "
              "measured on one op of every kind of the other workloads")
    for failure in runner.failures[:10]:
        print("  FAILED " + json.dumps(failure, default=str)[:600])
    print(f"record {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
