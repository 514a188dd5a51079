"""Checks on the package source itself."""

import ast
import contextlib
import importlib
import io
import json
import re
import shlex
from pathlib import Path

import hyperslice
from hyperslice import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperslice"


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


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in bound.items() if name not in read]
    assert unused == []


def test_every_public_name_has_a_caller():
    # A caller is a Name or Attribute in the package or bench/, a word in
    # a code span or fenced block of README.md, or an entry of __all__,
    # matched by name: tests do not count
    defined, used = [], set(hyperslice.__all__)
    code = re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(),
                      re.S)
    used.update(re.findall(r"\w+", " ".join(code)))
    for path in sorted(SRC.glob("*.py")) + sorted(ROOT.glob("bench/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(sub.id if isinstance(sub, ast.Name) else sub.attr
                    for sub in ast.walk(tree)
                    if isinstance(sub, (ast.Name, ast.Attribute)))
        if path.parent != SRC:
            continue
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and d.name[0] != "_":
                    defined.append((d.name, f"{path.name}:{d.lineno}"))
    assert [f"{where} {name}" for name, where in defined
            if name not in used] == []


def test_every_private_name_is_read():
    # module-level _names and UPPER_CASE constants, and private methods,
    # each read as a Name or Attribute somewhere in the package
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read.update(sub.id if isinstance(sub, ast.Name) else sub.attr
                    for sub in ast.walk(tree)
                    if isinstance(sub, (ast.Name, ast.Attribute))
                    and isinstance(sub.ctx, ast.Load))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                names = [t.id for t in getattr(d, "targets", [])
                         if isinstance(t, ast.Name)]
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    names.append(d.name)
                defined += [f"{path.name}:{d.lineno} {name}" for name in names
                            if (name[0] == "_" or name.isupper())
                            and not name.endswith("__") and name not in read]
    assert defined == []


def _readme_examples():
    """(argv, expected stdout) for each `$ hyperslice ...` in README.md."""
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = []
    t = 0
    while t < len(lines):
        if not lines[t].startswith("$ hyperslice "):
            t += 1
            continue
        command = lines[t][2:]
        while command.endswith("\\"):
            t += 1
            command = command[:-1] + lines[t]
        t += 1
        output = []
        while t < len(lines) and lines[t] and not lines[t].startswith(
                ("$ ", "```")):
            output.append(lines[t])
            t += 1
        examples.append((shlex.split(command)[1:], "\n".join(output) + "\n"))
    return examples


def test_readme_cli_examples_run_as_shown():
    examples = _readme_examples()
    assert len(examples) >= 3
    for argv, expected in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        if expected.startswith("{"):
            assert json.loads(out.getvalue()) == json.loads(expected), argv
        else:
            assert out.getvalue() == expected, argv


def test_benchmark_traced_names_exist():
    # a traced benchmark run wraps getattr(module, name) for each of these
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    missing = [f"{module}.{name}" for module, names in traced.items()
               for name in names if not hasattr(
                   importlib.import_module(f"hyperslice.{module}"), name)]
    assert traced and missing == []
    assert [n for n in hyperslice.__all__ if not hasattr(hyperslice, n)] == []


def test_cli_handlers_raise_nothing():
    # argument checks live in the library; option parsing (_floats,
    # _env_tol) stays outside the handlers
    tree = ast.parse((SRC / "cli.py").read_text())
    handlers = {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_run_")}
    assert set(handlers) == {f.__name__ for f in cli._HANDLERS.values()}
    raising = [name for name, node in handlers.items()
               if any(isinstance(sub, ast.Raise) for sub in ast.walk(node))]
    assert raising == []


def _unbounded_caches(source):
    """Lines that use functools.cache, or lru_cache without its maxsize
    stated as an int literal (None, a name, or left to the default)."""
    tree = ast.parse(source)
    names = {a.asname or a.name: a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for a in node.names}
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = names.get(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            name = node.attr
        else:
            continue
        if name == "lru_cache" and id(node) in calls:
            call = calls[id(node)]
            maxsize = [k.value for k in call.keywords if k.arg == "maxsize"]
            maxsize = (call.args + maxsize)[:1]
            if (maxsize and isinstance(maxsize[0], ast.Constant)
                    and type(maxsize[0].value) is int):
                continue
        if name in ("cache", "lru_cache"):
            found.append(node.lineno)
    return found


def test_every_functools_cache_has_a_finite_maxsize():
    # an unbounded cache keeps every argument and result for the life of
    # the process; each bound is stated where its cache is made
    samples = {"import functools\n@functools.cache\ndef f(x): pass": [2],
               "from functools import lru_cache as c\n@c(maxsize=None)\n"
               "def f(x): pass": [2],
               "from functools import lru_cache\n@lru_cache\n"
               "def f(x): pass": [2],
               "import functools\n@functools.lru_cache(maxsize=8)\n"
               "def f(x): pass\ng = functools.lru_cache(16)(f)": []}
    for source, lines in samples.items():
        assert _unbounded_caches(source) == lines, source
    unbounded = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in _unbounded_caches(path.read_text())]
    assert unbounded == []
