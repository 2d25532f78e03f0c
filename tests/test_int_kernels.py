"""The exact kernels compute in ints: their hot loops neither call nor name Fraction."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagclass"
KERNELS = {
    "feasibility.py": "_eliminate",
    "chevalley.py": "verify_jacobi",
    "rootsys.py": "cartan_pairing",
}
# Q is the Fraction alias in rootsys and chevalley
FRACTION_NAMES = {"Fraction", "Q"}


def _names(node: ast.AST):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
        if node.asname:
            yield node.asname


def test_kernels_use_no_fraction():
    found = []
    for filename, kernel in KERNELS.items():
        tree = ast.parse((SRC / filename).read_text(), filename=filename)
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == kernel]
        assert len(defs) == 1, (filename, kernel)
        found += [
            f"{filename}:{node.lineno}: {kernel} names {name}"
            for node in ast.walk(defs[0])
            for name in _names(node)
            if name in FRACTION_NAMES
        ]
    assert found == []
