"""Only `discforms` imports `fractions`: the rest of k3lat computes in
integers, and discforms uses Fraction only at its public boundary."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "k3lat"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_discforms_imports_fractions():
    users = sorted(path.name for path in SRC.glob("*.py")
                   if any(m.split(".")[0] == "fractions"
                          for m in _imported_modules(path)))
    assert users == ["discforms.py"]
