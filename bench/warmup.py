"""Workload set-up: import hyperslice, build algebras, fill first-use caches.

Run as a script it times one set-up in a fresh interpreter and prints
``{"setup_s": ...}``; that is how ``setup_s`` is measured.  The benchmark
process calls ``warm`` too, before its timed phase.

    PYTHONPATH=src python3 bench/warmup.py exact-calculus
"""

import json
import sys
import time

ALGEBRAS = {
    "exact-calculus": ("H", "O", "clifford(0,3)"),
    "cauchy-grid": ("H", "O"),
    "roots-scan": ("H", "O", "clifford(0,3)"),
    "cli-subprocess": ("H", "O", "clifford(0,6)"),
}


def warm(workload):
    """Set up one workload; returns {algebra spelling: AlgebraDef}."""
    import hyperslice as hs

    algebras = {}
    for kind in ALGEBRAS[workload]:
        A = hs.make_algebra(kind)
        A.dense_tensor()
        A.default_imaginary_unit()
        algebras[kind] = A
    if workload == "exact-calculus":
        # the first series_eval per algebra pays for norm_constant
        from hyperslice.regularity import norm_constant

        for A in algebras.values():
            norm_constant(A)
    if workload == "cli-subprocess":
        import hyperslice.cli  # noqa: F401
    return algebras


if __name__ == "__main__":
    start = time.perf_counter()
    warm(sys.argv[1])
    print(json.dumps({"setup_s": time.perf_counter() - start}))
