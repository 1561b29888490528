"""Source hygiene the test suite can check without a linter: every
import of the package, at module level or at the top of a function, is
used where it is bound, every module-level function and class is read
somewhere in the package or exported, and the package's star import
binds exactly its ``__all__``."""

import ast
from pathlib import Path

import pytest

import ctxkit

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ctxkit").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in the body of the module, or of a
    function, that the module, or that function, never reads.  A
    module's literal ``__all__`` marks its names as read; a computed
    ``__all__`` (``sorted(...)``) marks none."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in (tree, *functions):
        bound = set()
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in scope.body:
            if isinstance(node, ast.Import):
                bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        unused += bound - used
    return sorted(unused)


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    import json\n"
        "    return numpy.linalg.norm(pi)\n"
    )
    assert unused_imports(source) == ["json", "os", "osp"]
    computed = source.replace("__all__ = ['tau']", "__all__ = sorted({'tau': 0})")
    assert unused_imports(computed) == ["json", "os", "osp", "tau"]
    # An import in a function is read in that function, not elsewhere.
    used_in_f = source.replace("return numpy", "return json, numpy")
    assert unused_imports(used_in_f) == ["os", "osp"]
    elsewhere = used_in_f.replace("import json\n", "pass\n") + "def g():\n    import json\n"
    assert unused_imports(elsewhere) == ["json", "os", "osp"]


def unread_definitions(sources: dict[str, str], exported) -> list[str]:
    """Module-level functions and classes, dunders aside, as
    "module.name", whose name no module of ``sources`` reads (an AST
    ``Name`` it loads, an ``Attribute`` or an import) and that are not in
    ``exported``."""
    defined, read = [], set(exported)
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(d for d in defined if d.partition(".")[2] not in read)


def test_scan_finds_unread_definitions():
    sources = {
        "a": ("def called(): pass\n"
              "def imported(): pass\n"
              "def attribute(): pass\n"
              "def stored(): pass\n"
              "class Exported: pass\n"
              "class Unread:\n"
              "    def method(self): pass\n"
              "def __getattr__(name): pass\n"),
        "b": ("from .a import imported\n"
              "import a\n"
              "stored = called()\n"
              "a.attribute\n"),
    }
    assert unread_definitions(sources, ["Exported"]) == ["a.Unread", "a.stored"]


def test_every_definition_is_read_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_definitions(sources, ctxkit.__all__) == []


def test_every_package_module_is_scanned():
    assert {"__init__.py", "linalg.py", "states.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_star_import_binds_exactly_all():
    # A name left in _EXPORTS after it leaves its module breaks the star
    # import.  The package resolves exactly the names of __all__, each
    # from one module: the sum catches a name listed under two modules,
    # which _MODULE_OF alone would hide.
    assert len(set(ctxkit.__all__)) == len(ctxkit.__all__)
    assert sorted(ctxkit._MODULE_OF) == sorted(ctxkit.__all__)
    assert sum(map(len, ctxkit._EXPORTS.values())) == len(ctxkit.__all__)
    assert set(ctxkit.__all__) <= set(dir(ctxkit))
    ns = {}
    exec("from ctxkit import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(ctxkit.__all__)
