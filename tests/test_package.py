"""Package hygiene checks that read the source, not run it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SOURCES = sorted(
    path for path in (ROOT / "src" / "fermicert").glob("*.py")
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


def xor_users(sources):
    """Names of the modules whose code applies the ``^`` operator."""
    return sorted(name for name, source in sources.items()
                  if any(isinstance(node, (ast.BinOp, ast.AugAssign))
                         and isinstance(node.op, ast.BitXor)
                         for node in ast.walk(ast.parse(source))))


def test_xor_terms_have_one_home():
    # Fock-basis entries [a, a ^ x] are read and written by the fock layer
    # (XOR terms) and the word algebra alone.
    sources = {path.name: path.read_text() for path in SOURCES}
    assert xor_users(sources) == ["algebra.py", "fock.py"]


def test_detector_flags_xor():
    sources = {"a.py": "x = 1 ^ 2\n", "b.py": "x = 1\nx ^= 3\n",
               "c.py": "# a ^ b\nx = '^'\ny = 1 | 2\n"}
    assert xor_users(sources) == ["a.py", "b.py"]


def callers(sources, name):
    """``module.function`` (``module.Class.method`` for a method) of every
    top-level definition whose body calls ``name``, nested functions
    included."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            defs = (node.body if isinstance(node, ast.ClassDef) else [node])
            for func in defs:
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(call, ast.Call) and name in (
                        getattr(call.func, "id", None),
                        getattr(call.func, "attr", None))
                       for call in ast.walk(func)):
                    owner = (f"{node.name}." if node is not func else "")
                    found.append(f"{module[:-3]}.{owner}{func.name}")
    return sorted(found)


def test_coordinate_search_has_one_caller():
    # Both optimizers run their 1-D searches through one sweep loop.
    sources = {path.name: path.read_text() for path in SOURCES}
    assert callers(sources, "coordinate_search") == [
        "definetti.coordinate_sweep"]


def test_detector_finds_callers():
    sources = {"a.py": ("def f():\n    def g():\n        return s(1)\n"
                        "    return g()\n"
                        "class C:\n    def m(self):\n"
                        "        return mod.s()\n"),
               "b.py": "x = s(2)\ndef h():\n    return s\n"}
    assert callers(sources, "s") == ["a.C.m", "a.f"]


def package_users(source, package="fermicert"):
    """Top-level functions of a module that reach ``package``: they import
    from it, read a name the module imports from it, or call a top-level
    function of the module that does."""
    tree = ast.parse(source)

    def imports(node):
        if isinstance(node, ast.Import):
            return [a for a in node.names if a.name.split(".")[0] == package]
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == package:
                return node.names
        return []

    package_names = {(a.asname or a.name).split(".")[0]
                     for node in tree.body for a in imports(node)}
    funcs = {node.name: node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    reads = {name: {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
             for name, func in funcs.items()}
    users = {name for name, func in funcs.items()
             if reads[name] & package_names
             or any(imports(n) for n in ast.walk(func))}
    while True:
        new = {name for name in funcs if reads[name] & users} - users
        if not new:
            return sorted(users)
        users |= new


def test_partition_oracle_is_independent():
    # The recombination oracle the cumulant tests compare the package
    # against reads nothing of the package.
    source = (ROOT / "tests" / "conftest.py").read_text()
    oracle = ["even_block_partitions", "inversion_sign",
              "moment_from_cumulant_fn", "oracle_set_partitions"]
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert set(oracle) <= defined
    assert set(oracle).isdisjoint(package_users(source))


def test_detector_flags_package_users():
    source = ("import numpy as np\n"
              "from fermicert.algebra import SystemShape\n"
              "def a():\n    from fermicert import fock\n    return fock\n"
              "def b():\n    return SystemShape(1, 1)\n"
              "def c():\n    return d() + a()\n"
              "def d():\n    return np.ones(2)\n"
              "def e():\n    import fermicert.cli\n"
              "def f():\n    return c\n")
    assert package_users(source) == ["a", "b", "c", "e", "f"]


def test_numpy_floor_has_bitwise_count():
    # np.bitwise_count first appeared in NumPy 2.0; an older numpy imports
    # the package and fails on the first dense matrix.
    if not any("bitwise_count" in path.read_text() for path in SOURCES):
        pytest.skip("no source calls np.bitwise_count")
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)(?:\.(\d+))?', pyproject)
    assert floor is not None
    assert (int(floor[1]), int(floor[2] or 0)) >= (2, 0)


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


def unpassed_defaults(sources):
    """``module.function.parameter`` (``module.Class.method.parameter``
    for a method) of each defaulted parameter, at any nesting, that no
    call in ``sources`` (module name -> source text) passes.

    A call matches a function by name alone, as a name or an attribute,
    and a ``Class(...)`` call matches ``Class.__init__``.  It passes a
    parameter by keyword, through ``**``, or by position: past ``self``
    or ``cls`` for a method that is not a ``staticmethod``, and every
    position from a ``*`` argument on.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []

    def visit(module, body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(module, node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check(module, node, owner)
                visit(module, node.body, owner)

    def check(module, func, owner):
        args = func.args
        positional = args.posonlyargs + args.args
        bound = int(owner is not None and "staticmethod" not in [
            getattr(d, "id", None) for d in func.decorator_list])
        first = len(positional) - len(args.defaults)
        params = [(i - bound, a.arg) for i, a in enumerate(positional)
                  if i >= first]
        params += [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults)
                   if d is not None]
        name = owner if func.name == "__init__" else func.name
        matching = [call for call in calls if name in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))]
        for pos, param in params:
            if not any(
                    any(kw.arg in (param, None) for kw in call.keywords)
                    or pos is not None and any(
                        i >= pos or isinstance(arg, ast.Starred)
                        for i, arg in enumerate(call.args))
                    for call in matching):
                found.append(".".join(filter(None, [module, owner,
                                                    func.name, param])))

    for module, tree in trees.items():
        visit(module, tree.body, None)
    return sorted(found)


#: Defaulted parameters that no package call sets, each kept for the
#: reason given.  Any other is a module constant: one setting, the one
#: the commands run.
UNPASSED_ALLOWED = {
    "algebra.random_expansions.max_degree":
        "the tests draw words of bounded degree",
    "algebra.OperatorExpansion.identity.coeff":
        "multiples of the identity, which the tests build",
    "cli.main.argv": "the console script reads sys.argv; the tests pass "
                     "their own",
}


def test_every_defaulted_parameter_is_passed():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unpassed_defaults(sources) == sorted(UNPASSED_ALLOWED)


def test_detector_flags_unpassed_defaults():
    # Passed by keyword, by position past self, through *args or **kw,
    # and to __init__ by a class call; f.b and the static method's c,
    # whose one call passes nothing, are not.
    sources = {
        "a": ("def f(x, a=1, b=2):\n    return x\n"
              "class C:\n"
              "    def __init__(self, n=0):\n        self.n = n\n"
              "    def m(self, t=1, *, u=2):\n        return t\n"
              "    @staticmethod\n"
              "    def s(c=3):\n        return c\n"),
        "b": ("from a import C, f\n"
              "def g(*args, **kw):\n"
              "    def h(q=0):\n        return q\n"
              "    C(1).m(5, **kw)\n    C.s()\n    h(*args)\n"
              "    return f(1, a=2)\n"),
    }
    assert unpassed_defaults(sources) == ["a.C.s.c", "a.f.b"]


#: Top-level definitions that ``cli.main`` does not reach, each kept for
#: the reason given.
UNREACHED_ALLOWED = {
    # Named in the benchmark's span list (perfbench/spans.py TARGETS).
    "expectation_word_dense": "benchmark span target",
    "ground_state": "benchmark span target",
    # Public API, exported by the package.
    "expansion_to_text": "writes the fixture format that --fixture reads",
    "to_expansion": "dense-to-symbolic conversion",
    "hermitian_eig": "eigendecomposition with the Hermiticity check",
    "is_order_preserving": "condition (1) of the invariance definition",
}


def body_definitions(body):
    """Functions, classes and assigned names of one statement list, as a
    map from name to the AST nodes that define it."""
    defs = {}
    for node in body:
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


def top_level_definitions(sources):
    """:func:`body_definitions` at module level over ``sources`` (module
    name -> source text), merged."""
    defs = {}
    for source in sources.values():
        for name, nodes in body_definitions(ast.parse(source).body).items():
            defs.setdefault(name, []).extend(nodes)
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


#: A Sphinx-style cross reference, ``:func:`fock.to_matrix``` and the like.
REFERENCE = re.compile(r":(func|class|meth|data):`([\w.]+)`")


def stale_references(sources):
    """``(module, target)`` of each ``:func:``, ``:class:``, ``:meth:`` or
    ``:data:`` reference in ``sources`` (module name -> source text) whose
    target names no definition.

    ``module.name`` must be defined at the top level of that module, a
    bare name at the top level of any module, and ``Class.member`` in the
    body of that class; a bare ``:meth:`` name may be a member of any
    class.  Members are the methods and class-level names.
    """
    modules = {name: top_level_definitions({name: source})
               for name, source in sources.items()}
    anywhere = top_level_definitions(sources)
    members = {}
    for nodes in anywhere.values():
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                members.setdefault(node.name, set()).update(
                    body_definitions(node.body))
    any_member = set().union(*members.values())
    found = []
    for module, source in sources.items():
        for kind, target in REFERENCE.findall(source):
            head, *rest = target.split(".")
            scope = anywhere
            if head in modules and rest:
                scope = modules[head]
                head, *rest = rest
            if rest:
                ok = (head in scope and len(rest) == 1
                      and rest[0] in members.get(head, ()))
            else:
                ok = head in scope or (kind == "meth" and head in any_member)
            if not ok:
                found.append((module, target))
    return sorted(found)


def test_source_references_name_definitions():
    # A docstring or comment that names a function, class, method or
    # constant names one that exists.
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert stale_references(sources) == []


def test_detector_flags_stale_references():
    # A deleted function, a name looked up in the wrong module and a
    # missing member are reported; a method named bare, a class-level
    # name and module-qualified names that exist are not.
    sources = {
        "fock": ("XorTerms = tuple\n"
                 "class Isometry:\n    rank: int\n"
                 "    def dim(self):\n        return 1\n"
                 "def xor_matrix(terms):\n"
                 '    """Not :func:`_lower_bound`; see :data:`XorTerms`\n'
                 '    and :meth:`Isometry.rank`."""\n'),
        "rdm": ('"""Reads :func:`fock.xor_matrix`, :func:`fock.one_rdm`,\n'
                ':meth:`dim`, :class:`fock.Isometry` and\n'
                ':meth:`Isometry.size`."""\n'
                "def one_rdm(op):\n    return op\n"),
    }
    assert stale_references(sources) == [
        ("fock", "_lower_bound"), ("rdm", "Isometry.size"),
        ("rdm", "fock.one_rdm")]


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
