"""Source hygiene: no module of the package imports a name it never uses
or imports again inside a function a module it imports at top level, and
every module-level private function or class has a reference."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sympdiff"


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
