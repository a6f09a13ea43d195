"""Every imported name, every private helper and every public function or
class is used: dead code fails here, as a linter would.

The package's __init__.py is left out of the import check, because its
imports are the public API. A name counts as used when it appears anywhere
in the module as a name, the root of an attribute chain included.

A private helper is a module-level function, class or assigned constant of
the package whose name starts with one underscore. It counts as used when
some package module reads it beyond its definition: as a name, as an
attribute, or in an import. Tests do not count, since a helper only tests
reach is dead code. A public module-level function, class or ALL_CAPS
constant is held to the same rule, with the package's __init__.py counted
as a reader: a name the public API exports is used. So is every method or
property of a package class, dunders aside: some package module must read
it by name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "holoinv").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import math\nimport os.path\nfrom a import b as c, d\nprint(os.path.sep, d)\n"
    assert unused_imports(source) == ["math (line 1)", "c (line 3)"]


def module_definitions(tree):
    """(name, line, assigned) for each module-level function, class or
    assigned name; `assigned` is true for the last."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node.lineno, isinstance(node, (ast.Assign, ast.AnnAssign))


def private_definitions(tree):
    """(name, line) for each module-level private function, class or constant."""
    for name, line, _ in module_definitions(tree):
        if name.startswith("_") and not name.startswith("__"):
            yield name, line


def read_names(tree):
    """Every name the module reads: bare names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def public_definitions(tree):
    """(name, line) for each module-level public function or class."""
    for name, line, assigned in module_definitions(tree):
        if not assigned and not name.startswith("_"):
            yield name, line


def public_constants(tree):
    """(name, line) for each module-level ALL_CAPS assignment."""
    for name, line, assigned in module_definitions(tree):
        if assigned and name.isupper() and not name.startswith("_"):
            yield name, line


def method_definitions(tree):
    """(name, line) for each non-dunder method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno


def dead_definitions(sources, definitions=private_definitions):
    """`module: name (line n)` for each of the `definitions` that no module
    of `sources` (module name -> source text) reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {name for tree in trees.values() for name in read_names(tree)}
    return [f"{module}: {name} (line {line})" for module, tree in trees.items()
            for name, line in definitions(tree) if name not in read]


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert dead_definitions(sources) == []


def test_no_dead_public_functions_or_classes():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert dead_definitions(sources, public_definitions) == []


def test_no_dead_public_constants():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert dead_definitions(sources, public_constants) == []


def test_no_dead_methods():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert dead_definitions(sources, method_definitions) == []


def test_a_dead_method_is_found():
    sources = {
        "a": "class Box:\n"
             "    def __len__(self):\n        return 0\n"
             "    @property\n    def size(self):\n        return self._grow()\n"
             "    def _grow(self):\n        return 1\n"
             "    @staticmethod\n    def spare():\n        return 2\n"
             "    @property\n    def unread(self):\n        return 3\n",
        "b": "from a import Box\nprint(Box().size)\n",
    }
    assert dead_definitions(sources, method_definitions) == [
        "a: spare (line 10)", "a: unread (line 13)"]


def test_a_dead_public_function_is_found():
    sources = {
        "a": "def exported():\n    return 1\n"
             "def called():\n    return 2\n"
             "def dead():\n    return called()\n"
             "class Dead:\n    pass\n",
        "__init__": "from .a import exported\n",
    }
    assert dead_definitions(sources, public_definitions) == [
        "a: dead (line 5)", "a: Dead (line 7)"]


def test_a_dead_public_constant_is_found():
    sources = {
        "a": "LIMIT = 3\nSPARE: int = 4\nSTALE = 5\nlog = None\nRational = int\n"
             "def check(x):\n    return x < LIMIT\n",
        "b": "from a import SPARE\n",
        "__init__": "from .a import check\n",
    }
    assert dead_definitions(sources, public_constants) == ["a: STALE (line 3)"]


def test_a_dead_private_helper_is_found():
    sources = {
        "a": "_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n"
             "def _used():\n    return _LIMIT\n"
             "def _dead():\n    return 1\n"
             "class _Dead:\n    pass\n"
             "def public():\n    return _used()\n",
        "b": "from a import _SPARE\n",
    }
    assert dead_definitions(sources) == [
        "a: _dead (line 6)", "a: _Dead (line 8)"]


STENCILS = {"holomorphic_derivative", "mixed_hessian", "ricci_from_log_density"}
# the stencil's own module, and the CLI for the convergence suite's reference
STENCIL_READERS = {"calculus", "cli"}


def stencil_reads(sources):
    """`module: name` for each stencil primitive a module outside
    STENCIL_READERS reads: every other derivative comes from jets."""
    return sorted(f"{module}: {name}" for module, source in sources.items()
                  if module not in STENCIL_READERS
                  for name in set(read_names(ast.parse(source))) & STENCILS)


def test_only_the_convergence_suite_reads_the_stencil():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert stencil_reads(sources) == []


def test_a_stencil_read_is_found():
    sources = {"cli": "calculus.mixed_hessian(f, z)\n",
               "geometry": "from .calculus import holomorphic_derivative\n"}
    assert stencil_reads(sources) == ["geometry: holomorphic_derivative"]
