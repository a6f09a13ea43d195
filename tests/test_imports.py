"""Every imported name is used: a dead import fails here, as a linter would.

The package's __init__.py is left out, because its imports are the public
API. A name counts as used when it appears anywhere in the module as a
name, the root of an attribute chain included.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "holoinv").glob("*.py") if p.name != "__init__.py")
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
