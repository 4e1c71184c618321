"""numpy stays the only runtime dependency: every absolute import in the
package is numpy or a module of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kgcn"


def _absolute_imports(path):
    """(line, top-level module) of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    outside = [(line, module) for line, module in _absolute_imports(path)
               if module != "numpy" and module not in sys.stdlib_module_names]
    assert outside == []


def test_the_package_is_found():
    assert (PACKAGE / "__init__.py").is_file()
