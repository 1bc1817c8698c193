"""Import structure of k3lat.

Only `discforms` imports `fractions`: the rest of k3lat computes in
integers, and discforms uses Fraction only at its public boundary. No
module reads a private name of another k3lat module: what one module
needs of another is part of that module's public surface. No module
imports `multiprocessing`, `concurrent.futures` or `threading`, and only
`parallel` calls os.fork, once: the one parallel path is `parallel.run`,
which forks for the split of a big Fincke-Pohst walk in `enumeration`
and for the two halves of `walls.classification_table`, and every
module-level import adds to the start-up time of every command.
"""

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


def test_no_module_imports_a_pool_or_threads():
    users = sorted(f"{path.name}: {m}" for path in SRC.glob("*.py")
                   for m in _imported_modules(path)
                   if m.split(".")[0] in ("multiprocessing", "concurrent",
                                          "threading"))
    assert users == []


def _fork_calls(path):
    """Lines of `os.fork(...)` calls and of `from os import fork`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "fork"
                    and isinstance(f.value, ast.Name) and f.value.id == "os"):
                yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name == "fork" for alias in node.names)):
            yield node.lineno


def test_only_parallel_forks_once():
    sites = sorted(f"{path.name}:{line}" for path in SRC.glob("*.py")
                   for line in _fork_calls(path))
    assert len(sites) == 1 and sites[0].startswith("parallel.py:")


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads(path):
    """`alias._name` reads through a k3lat module alias bound by
    `from . import x [as alias]`, and `from .x import _name` imports."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield f"{aliases[node.value.id]}.{node.attr}"


def test_no_module_reads_another_modules_private_names():
    found = sorted(f"{path.name}: {name}" for path in SRC.glob("*.py")
                   for name in _private_reads(path))
    assert found == []
