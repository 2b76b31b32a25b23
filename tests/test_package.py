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
