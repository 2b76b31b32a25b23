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
def test_no_scipy_import(path):
    # The package runs on numpy alone; scipy is a test dependency.
    modules = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


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


#: Top-level definitions that ``cli.main`` does not reach, each kept for
#: the reason given.
UNREACHED_ALLOWED = {
    # Named in the benchmark's span list (perfbench/spans.py TARGETS).
    "ladder_matrix": "benchmark span target",
    "_dense": "the dense kernel of ladder_matrix",
    "expectation_word_dense": "benchmark span target",
    "ground_state": "benchmark span target",
    # Independent oracles that the tests compare the package against.
    "even_partitions": "test oracle for the cumulant partitions",
    "moment_from_cumulant_fn": "test oracle for moment-cumulant inversion",
    "fourier_ladder_matrix": "test oracle for the Fourier ladder products",
    "mixture_matrix": "test oracle for the mixture density matrix",
    "build_hamiltonian": "test oracle for the sparse Hamiltonian",
    # Public API, exported by the package.
    "expansion_to_text": "writes the fixture format that --fixture reads",
    "to_expansion": "dense-to-symbolic conversion",
    "hermitian_eig": "eigendecomposition with the Hermiticity check",
    "is_order_preserving": "condition (1) of the invariance definition",
}


def top_level_definitions(sources):
    """Functions, classes and assigned names at module level, as a map
    from name to the AST nodes that define it, over ``sources`` (module
    name -> source text)."""
    defs = {}
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs.setdefault(name.id, []).append(node)
    return defs


def unreached_definitions(sources, root="main"):
    """Top-level names that no chain of references from ``root`` reaches.

    Matching is by name alone: a definition is reached when a reached
    definition mentions its name, as a name or an attribute, anywhere in
    its body, decorators or annotations.  The allowlist exempts names but
    does not make them roots, so a helper that only an allowlisted
    function calls is still reported.
    """
    defs = top_level_definitions(sources)
    reached, stack = {root}, [root]
    while stack:
        for node in defs.get(stack.pop(), []):
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else None)
                if name in defs and name not in reached:
                    reached.add(name)
                    stack.append(name)
    return sorted(defs.keys() - reached)


def test_every_definition_reached_from_main():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert "main" in top_level_definitions({"cli": sources["cli"]})
    unreached = unreached_definitions(sources)
    assert sorted(set(unreached) - UNREACHED_ALLOWED.keys()) == []
    # No stale entries: each exempt name exists and is really unreached.
    assert sorted(UNREACHED_ALLOWED.keys() - set(unreached)) == []


def test_detector_flags_helpers_of_exempt_functions():
    # A word-coefficient helper that only the exempt to_expansion calls is
    # reported; helpers that main reaches, even through an attribute of an
    # imported module, are not.
    sources = {
        "cli": ("from . import fock\n"
                "def main():\n    return fock.reduce_expansion(1)\n"),
        "fock": ("LIMIT = 4\n"
                 "def _kept(k):\n    return k < LIMIT\n"
                 "def reduce_expansion(k):\n    return _kept(k)\n"
                 "def word_coefficients(m):\n    return m\n"
                 "def to_expansion(m):\n    return word_coefficients(m)\n"),
    }
    assert unreached_definitions(sources) == ["to_expansion",
                                              "word_coefficients"]
