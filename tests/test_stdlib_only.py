"""The runtime imports only the standard library; numpy and hypothesis stay test-only.

Nor does it import `typing`: annotations are postponed, so none needs it at run time.
"""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagclass"


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names or name == "typing"
            ]
    assert outside == []


def test_runtime_parses_at_the_python_floor():
    # pyproject.toml promises requires-python >= 3.10, while the tests run on a
    # newer interpreter; newer syntax such as `except*` would pass them unnoticed.
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
