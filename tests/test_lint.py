"""Source checks: internal invariants raise typed exceptions, because
python -O strips assert statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import prophecke


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_or_bare_assertion_error():
    offences = []
    for path in sorted(Path(prophecke.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and _raises_assertion_error(node)
            ):
                offences.append(f"{path.name}:{node.lineno}")
    assert not offences, offences


def _definitions(tree):
    """(name, line) of every function or class defined, and of every
    attribute stored on an object, dunders excepted."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            name = node.attr
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            yield name, node.lineno


def _loads(tree):
    """Every name, attribute, import alias and string constant read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_unreferenced_definitions():
    """Every function, class and stored attribute of the package is read
    somewhere in the package, the tests or the benchmark; a string
    constant counts, since getattr and patching name attributes so."""
    repo = Path(__file__).resolve().parents[1]
    loaded = set()
    for top in ("src", "tests", "perfbench"):
        for path in (repo / top).rglob("*.py"):
            loaded.update(_loads(ast.parse(path.read_text(), filename=str(path))))
    unread = []
    for path in sorted(Path(prophecke.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unread += [f"{path.name}:{line} {name}" for name, line in _definitions(tree)
                   if name not in loaded]
    assert not unread, unread


def test_import_loads_no_exact_rationals():
    """The package does integer arithmetic only: importing it (with the CLI
    and the suites) loads neither fractions nor decimal."""
    code = ("import sys, prophecke, prophecke.cli, prophecke.verify; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    src = str(Path(prophecke.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
