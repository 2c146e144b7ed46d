"""numpy is the only runtime dependency of the package.

Every absolute import in ``src/spinfringe``, at module level or inside a
function, must name a standard-library module or numpy.  Scipy and other
packages may be installed where the tests run; the package must not
come to rely on them.
"""

import ast
import sys
from pathlib import Path

import pytest

import spinfringe

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
SOURCES = sorted(Path(spinfringe.__file__).parent.glob("*.py"))


def _absolute_imports(tree: ast.AST) -> list[str]:
    """Top-level package names of every absolute import in ``tree``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


def test_the_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "langevin.py", "params.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [name for name in _absolute_imports(tree) if name not in ALLOWED] == []


def test_a_function_level_scipy_import_is_caught():
    tree = ast.parse("def f():\n    from scipy.linalg import expm\n    import numpy.linalg\n")
    assert _absolute_imports(tree) == ["scipy", "numpy"]
