"""Package hygiene checks that read the source, not run it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).resolve().parent.parent
                      / "src" / "fermicert").glob("*.py")
    # __init__.py imports names to re-export them.
    if path.name != "__init__.py")


def unused_imports(source: str):
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def write_only_locals(source: str):
    """Locals that a function assigns but never reads, as (line, name).

    A function's locals are the names it stores outside nested functions,
    lambdas and classes (those are checked on their own), less any it
    declares global or nonlocal; a read anywhere in the function, nested
    scopes included, counts.  ``_`` names a value dropped on purpose.
    """
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stores, declared = {}, set()
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores[node.id] = min(node.lineno,
                                      stores.get(node.id, node.lineno))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            if not isinstance(node, nested):
                stack.extend(ast.iter_child_nodes(node))
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found.extend((line, name) for name, line in stores.items()
                     if name != "_" and name not in read | declared)
    return sorted(found)


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_names():
    source = ("import os\nimport numpy as np\n"
              "from typing import Dict, List\n"
              "def f() -> List[int]:\n    return [np.pi]\n")
    assert unused_imports(source) == [(1, "os"), (3, "Dict")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_write_only_locals(path):
    assert write_only_locals(path.read_text()) == []


def test_detector_flags_write_only_locals():
    source = ("def f(xs):\n"
              "    total = 0\n"
              "    skipped = 0\n"
              "    for i, x in enumerate(xs):\n"
              "        skipped += 1\n"
              "        total += x\n"
              "    half, _ = divmod(total, 2)\n"
              "    def g():\n"
              "        nonlocal half\n"
              "        half = unused = 1\n"
              "        return half\n"
              "    return g\n")
    assert write_only_locals(source) == [(3, "skipped"), (4, "i"),
                                         (10, "unused")]
