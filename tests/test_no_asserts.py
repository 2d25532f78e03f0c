"""Internal invariants raise InvariantViolationError: `python -O` strips assert statements."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagclass"


def test_runtime_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
