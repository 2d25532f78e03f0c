"""The runtime computes exactly: no float literals, float() calls or float-only math."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagclass"
FLOAT_MATH = {"sqrt", "isclose"}


def test_runtime_has_no_floats():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: float literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append(f"{path.name}:{node.lineno}: float() call")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr in FLOAT_MATH
            ):
                found.append(f"{path.name}:{node.lineno}: math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [
                    f"{path.name}:{node.lineno}: from math import {alias.name}"
                    for alias in node.names
                    if alias.name in FLOAT_MATH
                ]
    assert found == []
