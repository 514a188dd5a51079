"""List every raise statement in src/hyperslice that the test suite never runs.

A hand-run check, not a test: it runs the suite in this process under a
sys.settrace line collector, then prints each `raise` of the package none
of whose lines ran, as file:line and the statement's first line.  Only the
test runner is imported beside the standard library.

    python3 tests/unreached_raises.py [pytest arguments]

Tests that start a child interpreter (the CLI subprocess tests) are not
traced, so a raise that only they reach is listed too.  Hypothesis draws
from a fixed seed, 0, so that two runs list the same raises; another
--hypothesis-seed shows what other draws reach.  Tracing makes the suite
three to four times slower.  Exits with pytest's status when the suite
fails, since the list then means little, and 0 otherwise.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperslice"


def run_traced(args):
    """pytest.main(args) under a line collector; pytest's status and the
    set of (resolved file, line) pairs that ran in the package."""
    import pytest
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_globals.get("__name__") or ""
        return local if name.split(".")[0] == "hyperslice" else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, {(str(Path(f).resolve()), line) for f, line in ran}


def unreached(ran):
    """(path, line, first source line) of each raise none of whose lines
    is in ran, in file and line order."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, ast.Raise) and not any(
                    (str(path), line) in ran
                    for line in range(node.lineno, node.end_lineno + 1)):
                out.append((path, node.lineno, lines[node.lineno - 1].strip()))
    return sorted(out)


def main(argv):
    status, ran = run_traced(
        [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *argv])
    missed = unreached(ran)
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}  {text}")
    print(f"{len(missed)} raise statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
