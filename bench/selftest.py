"""Self-test of the benchmark: tiny runs of every workload, including the
two that BENCHMARK.json does not list.

    python3 bench/selftest.py

Checks that
- every end-to-end metric of BENCHMARK.json is emitted with its unit by an
  untraced run, and every per-layer metric by a traced run, as finite
  numbers, with every op passing its reference check;
- a traced run measures the layers a workload is chosen for on the
  workload's own ops, not on the probe ops of the other workloads;
- a run with every reference planted wrong counts every op as failed;
- without the hyperslice sources next to it, the benchmark exits non-zero
  and prints no result.
Exits 0 when all hold.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metric prefixes each workload's own ops must measure
OWN_LAYERS = {
    "exact-calculus": ("algebra.mul.", "stems.", "regularity.", "slicefun.",
                       "parser."),
    "cauchy-grid": ("cauchy.",),
    "roots-scan": ("zeros.",),
    "cli-subprocess": ("cli.",),
}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def check_metrics(result, expected, label):
    got = result["metrics"]
    names = {m["name"] for m in expected}
    assert set(got) == names, f"{label}: names differ: {set(got) ^ names}"
    for m in expected:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{label}: {m['name']} unit {entry}"
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{label}: {m['name']} = {value!r}"


def untraced_and_traced(workload):
    for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        label = f"{workload} trace {trace}"
        result = result_of(bench("--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace)))
        check_metrics(result, expected, label)
        assert result["correct"] and result["failed"] == 0, \
            f"{label}: {result['failed']} failed ops"
    record = json.loads((BENCH / "out" / f"{workload}-seed1-trace1.json")
                        .read_text())
    probed = [name for name in record["from_probe"]
              if name.startswith(OWN_LAYERS[workload])]
    assert not probed, f"{workload}: own layers from probe ops: {probed}"


def planted(workload):
    result = result_of(bench("--workload", workload, "--seed", "2",
                             "--seconds", "1", "--trace", "0",
                             "--plant-wrong-reference"))
    assert not result["correct"], "still correct"
    assert result["failed"] == result["attempted"] >= 1, \
        f"{result['failed']} of {result['attempted']} ops failed"


def bare_checkout():
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = bench("--workload", "roots-scan", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), \
        f"exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"


def main():
    checks = []
    for workload in WORKLOAD_NAMES:
        checks.append((f"{workload}: metrics and units",
                       lambda w=workload: untraced_and_traced(w)))
        checks.append((f"{workload}: planted wrong reference fails every op",
                       lambda w=workload: planted(w)))
    checks.append(("without hyperslice sources: non-zero exit, no result",
                   bare_checkout))
    failed = 0
    for label, check in checks:
        try:
            check()
            print(f"ok    {label}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {label}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
