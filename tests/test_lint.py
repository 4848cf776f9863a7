"""Source checks: internal invariants raise typed exceptions, because
python -O strips assert statements."""

import ast
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
