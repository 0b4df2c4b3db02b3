"""The package imports nothing outside the standard library at run time,
and its root imports nothing at all."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "polyrep"


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_absolute_import_is_in_the_standard_library(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    outside = sorted(name for name in names if name.split(".")[0] not in sys.stdlib_module_names)
    assert outside == []


def test_package_root_binds_only_its_version():
    docstring, *rest = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [type(node).__name__ for node in rest] == ["Assign"]
    assert [target.id for target in rest[0].targets] == ["__version__"]
