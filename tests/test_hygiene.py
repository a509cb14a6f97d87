"""Source hygiene: no module of the package imports a name it never uses
or imports again inside a function a module it imports at top level, numpy
is imported only inside ``linalg._numpy``, every module-level private
function or class has a reference, every error class is raised somewhere
in the package, and every layer the benchmark's tracer wraps names a
function or ``Mat`` method that exists."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sympdiff"


def unused_imports(tree: ast.Module):
    """Names bound by an import in the module and never read, apart from
    ``__future__`` features and names re-exported through ``__all__``."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return sorted(imported - used)


def test_scan_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import List, Tuple\n"
        "from dataclasses import field\n"
        "import concurrent.futures\n"
        "__all__ = ['Tuple']\n"
        "class C:\n"
        "    field: int  # binds the name, does not read it\n"
        "def f(x: List) -> None:\n"
        "    return concurrent.futures.wait(os.sep)\n"
    )
    assert unused_imports(tree) == ["field", "system"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def unreferenced_private_defs(trees):
    """Module-level ``_private`` functions and classes, as ``module.name``,
    that no module in ``trees`` (name -> parsed module) reads by name, as an
    attribute or in an import."""
    defined, used = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and node.name.startswith("_") and not node.name.startswith("__"):
                defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return sorted(f"{m}.{name}" for m, name in defined if name not in used)


def test_scan_finds_an_unreferenced_private_def():
    trees = {
        "a": ast.parse(
            "def _kept(): pass\n"
            "def _by_attribute(): pass\n"
            "def _dead(): pass\n"
            "class _Dead: pass\n"
            "def public(): return _kept()\n"
            "def __getattr__(name): pass\n"
        ),
        "b": ast.parse(
            "from .a import _imported\n"
            "from . import a\n"
            "x = a._by_attribute\n"
            "def _imported(): pass\n"
        ),
    }
    assert unreferenced_private_defs(trees) == ["a._Dead", "a._dead"]


def test_no_unreferenced_private_defs():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    assert unreferenced_private_defs(trees) == []


def _imported_modules(nodes):
    """The module each import among ``nodes`` names, relative ones with
    their leading dots."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def redundant_local_imports(tree: ast.Module):
    """Imports inside a function that name a module the module already
    imports at top level, as ``(line, module)``."""
    top = set(_imported_modules(tree.body))
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                found.update(
                    (node.lineno, module)
                    for module in _imported_modules([node]) if module in top
                )
    return sorted(found)


def test_scan_finds_a_redundant_local_import():
    tree = ast.parse(
        "import os\n"
        "from .decide import pair_context\n"
        "def f():\n"
        "    from .decide import special_quadratic\n"
        "    from .poly import Poly  # late import; avoids a cycle\n"
        "    import os.path, json\n"
        "    def g():\n"
        "        import os\n"
    )
    assert redundant_local_imports(tree) == [(4, ".decide"), (8, "os")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    assert redundant_local_imports(ast.parse(path.read_text(), filename=str(path))) == []


def numpy_imports(tree: ast.Module):
    """For each import of numpy in the module, in source order, the name of
    the innermost function that holds it, or None when it runs at import
    (at module level or in a class body)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and any(
                module.split(".")[0] == "numpy" for module in _imported_modules([child])
            ):
                found.append(func)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(tree, None)
    return found


def test_scan_finds_numpy_imports():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import det\n"
        "import numpyro, os\n"
        "from .numpy import x\n"
        "class C:\n"
        "    import numpy\n"
        "def helper():\n"
        "    import numpy as _np\n"
        "    def inner():\n"
        "        from numpy import int64\n"
        "if True:\n"
        "    import os, numpy.random\n"
    )
    assert numpy_imports(tree) == [None, None, None, "helper", "inner", None]


def test_numpy_is_imported_on_first_use_only():
    found = {
        path.stem: numpy_imports(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {module: funcs for module, funcs in found.items() if funcs} == {
        "linalg": ["_numpy"]
    }


def raised_names(tree: ast.Module):
    """The names of the exceptions raised in the module, by ``raise X``,
    ``raise X(...)`` or ``raise module.X(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_scan_finds_raised_names():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise A('message')\n"
        "    try:\n"
        "        raise errors.B\n"
        "    except C:\n"
        "        raise\n"
        "    D('built, not raised')\n"
    )
    assert raised_names(tree) == {"A", "B"}


def test_every_error_class_is_raised():
    from sympdiff import errors

    raised = set()
    for path in sorted(SRC.glob("*.py")):
        raised |= raised_names(ast.parse(path.read_text(), filename=str(path)))
    classes = [
        name for name, cls in vars(errors).items()
        if inspect.isclass(cls) and issubclass(cls, errors.SympdiffError)
        and cls is not errors.SympdiffError
    ]
    assert classes
    assert [name for name in classes if name not in raised] == []


def test_tracing_layers_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # defines LAYERS; installs nothing
    from sympdiff.linalg import Mat

    missing = []
    for module, attr, _ in tracing.LAYERS:
        owner, _, name = attr.rpartition(".")
        if owner == "Mat":
            found = module == "linalg" and callable(getattr(Mat, name, None))
        else:
            found = callable(
                getattr(importlib.import_module(f"sympdiff.{module}"), attr, None)
            )
        if not found:
            missing.append(f"{module}.{attr}")
    assert tracing.LAYERS
    assert missing == []
