"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperslice"


def test_every_tol_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args
                     + args.kwonlyargs}
            if "tol" not in names:
                continue
            reads = any(isinstance(sub, ast.Name) and sub.id == "tol"
                        and isinstance(sub.ctx, ast.Load)
                        for stmt in node.body for sub in ast.walk(stmt))
            if not reads:
                unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert unread == []
