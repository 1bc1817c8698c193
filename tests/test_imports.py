"""Import structure of k3lat.

No module imports `fractions`: k3lat computes in integers, and a finite
quadratic form is built from the integer numerators of e q. No
module reads a private name of another k3lat module: what one module
needs of another is part of that module's public surface. No module
imports `multiprocessing`, `concurrent.futures` or `threading`:
`parallel.run(first, second)` is the one parallel path, and every
module-level import adds to the start-up time of every command. Only
`parallel` calls os.fork, once, and only `walls` imports `parallel`, for
the two halves of `walls.classification_table`, so the fork has one call
site; `enumeration`'s walks run in one process.

No decision path uses floating point: `src/k3lat` holds no float
literal, no true division and no call of `float`, `round` or of the
float functions of `math` (sqrt, log*, exp, floor, ceil).

Every public function and class of k3lat is loaded somewhere in
`src/k3lat` outside its own body, and every public method is loaded
there as an attribute: code that only tests reach is deleted, or put on
a checked path such as the acceptance battery. An attribute load whose
receiver is a k3lat module alias (`linalg.dot`) counts only for that
module's names, and one whose receiver is a k3lat class name
(`Lattice.from_json`) only for that class's methods.

The benchmark's span tracer, perfbench/spans.py, wraps some k3lat
functions by name, private ones included; each name it lists must still
be a k3lat function.

No function keeps state in a module-level name: none writes a subscript
of one or calls a mutating method on it, so that what a call computes
depends on its arguments alone and data flows through them. The one
exemption is `catalog._cache`, the catalog's build-once memo of its
fixed models.
"""

import ast
import importlib
import inspect
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "k3lat"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_fractions():
    users = sorted(path.name for path in SRC.glob("*.py")
                   if any(m.split(".")[0] == "fractions"
                          for m in _imported_modules(path)))
    assert users == []


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


def _imports_parallel(path):
    """Whether a module imports k3lat.parallel or a name from it, by an
    absolute or a relative import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}"
                     for alias in node.names]
        else:
            continue
        if any("parallel" in name.split(".") for name in names):
            return True
    return False


def test_only_walls_imports_parallel():
    users = sorted(path.name for path in SRC.glob("*.py")
                   if _imports_parallel(path))
    assert users == ["walls.py"]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _module_aliases(tree):
    """{alias: module} of `from . import x [as alias]` in a module."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is None for alias in node.names}


def _private_reads(path):
    """`alias._name` reads through a k3lat module alias bound by
    `from . import x [as alias]`, and `from .x import _name` imports."""
    tree = ast.parse(path.read_text())
    aliases = _module_aliases(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module is not None):
            yield from (f"{node.module}.{alias.name}"
                        for alias in node.names if _private(alias.name))
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield f"{aliases[node.value.id]}.{node.attr}"


def test_no_module_reads_another_modules_private_names():
    found = sorted(f"{path.name}: {name}" for path in SRC.glob("*.py")
                   for name in _private_reads(path))
    assert found == []


# Reached only from perfbench, the benchmark harness, which changes to the
# library leave as it is: its workloads compare discriminant forms with
# forms_isomorphic, and its self-test builds identity_isometry.
BENCHMARK_ONLY = {"discforms.forms_isomorphic", "isometries.identity_isometry"}


def _public_definitions(path):
    """(qualified name, node, is a method) of the module's public
    functions and classes and of the public methods of its public
    classes."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield f"{path.stem}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub, True


def _loads(path, classes):
    """(line, name, receiver) of every name and attribute load. A load
    x.attr through a k3lat module alias has receiver "module", one
    through a k3lat class name "module.Class"; any other attribute load
    has receiver "" and a bare name None."""
    tree = ast.parse(path.read_text())
    aliases = _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id, None
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            receiver = ""
            if isinstance(node.value, ast.Name):
                receiver = (aliases.get(node.value.id)
                            or classes.get(node.value.id, ""))
            yield node.lineno, node.attr, receiver


def _reaches(qualified, method, receiver):
    """Whether a load with this receiver can reach the definition: a
    module alias reaches only that module's names, a class name only that
    class's methods, and a bare name no method."""
    owner = qualified.rsplit(".", 1)[0]
    if receiver is None:
        return not method
    return receiver == "" or receiver == owner


def test_every_public_name_has_a_caller_in_src():
    definitions = [(path.name, qualified, node, method)
                   for path in SRC.glob("*.py")
                   for qualified, node, method in _public_definitions(path)]
    classes = {node.name: qualified for _, qualified, node, method
               in definitions
               if isinstance(node, ast.ClassDef)}
    loads = [(path.name, line, name, receiver)
             for path in SRC.glob("*.py")
             for line, name, receiver in _loads(path, classes)]
    unreached = sorted(
        qualified for where_defined, qualified, node, method in definitions
        if qualified not in BENCHMARK_ONLY and not any(
            name == node.name and _reaches(qualified, method, receiver)
            and not (where == where_defined
                     and node.lineno <= line <= node.end_lineno)
            for where, line, name, receiver in loads))
    assert unreached == []


_FLOAT_MATH = {"sqrt", "exp", "floor", "ceil"}


def _float_uses(path):
    """(line, what) of each float literal, true division, and call of
    float, round, math.sqrt, math.log*, math.exp, math.floor or
    math.ceil."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("float", "round"):
                yield node.lineno, f"{f.id}()"
            elif (isinstance(f, ast.Attribute)
                  and isinstance(f.value, ast.Name) and f.value.id == "math"
                  and (f.attr in _FLOAT_MATH or f.attr.startswith("log"))):
                yield node.lineno, f"math.{f.attr}()"


def test_no_floating_point_in_src():
    found = sorted(f"{path.name}:{line}: {what}" for path in SRC.glob("*.py")
                   for line, what in _float_uses(path))
    assert found == []


SPANS = SRC.parent.parent / "perfbench" / "spans.py"


def _benchmark_hooks():
    """The "layer.function" names that perfbench/spans.py wraps by name:
    its PRIVATE pairs and its TALLIES keys, read from the file's syntax
    tree without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name == "PRIVATE":
                yield from (".".join(pair)
                            for pair in ast.literal_eval(node.value))
            elif name == "TALLIES":
                yield from (ast.literal_eval(key) for key in node.value.keys)


def test_benchmark_hooks_name_k3lat_functions():
    hooks = list(_benchmark_hooks())
    assert "enumeration._enumerate_reduced" in hooks
    missing = []
    for hook in hooks:
        layer, function = hook.split(".")
        module = importlib.import_module(f"k3lat.{layer}")
        if not inspect.isfunction(getattr(module, function, None)):
            missing.append(hook)
    assert missing == []


MUTATORS = {"append", "appendleft", "extend", "extendleft", "insert", "add",
            "update", "setdefault", "pop", "popleft", "popitem", "remove",
            "discard", "clear", "sort", "reverse", "__setitem__",
            "__delitem__"}
MODULE_STATE = {"catalog._cache"}


def _root_name(node):
    """The name at the root of a chain of subscripts and attributes."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_state_writes(path):
    """(line, name) of each write, inside a function, of a subscript of a
    module-level name (one the module assigns or imports from k3lat), and
    of each call of a mutating method on one. A name the function binds
    itself, and does not declare global, is its own."""
    tree = ast.parse(path.read_text())
    module_names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            module_names.update(n.id for t in targets for n in ast.walk(t)
                                if isinstance(n, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            module_names.update(alias.asname or alias.name
                                for alias in node.names)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        declared = {name for node in ast.walk(fn)
                    if isinstance(node, ast.Global) for name in node.names}
        args = fn.args
        local = {a.arg for a in args.posonlyargs + args.args
                 + args.kwonlyargs + [args.vararg, args.kwarg] if a}
        local |= {node.id for node in ast.walk(fn)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)}
        shared = module_names - (local - declared)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                name = _root_name(node.value)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                name = _root_name(node.func.value)
            else:
                continue
            if name in shared and f"{path.stem}.{name}" not in MODULE_STATE:
                yield node.lineno, name


def test_no_function_mutates_module_state():
    found = sorted(f"{path.name}:{line}: {name}"
                   for path in SRC.glob("*.py")
                   for line, name in _module_state_writes(path))
    assert found == []
