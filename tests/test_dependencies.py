"""numpy stays the only runtime dependency: every absolute import in the
package is numpy or a module of the standard library. The package's modules
are layered: each imports only modules before it in LAYERS, so no import
cycle can form. A module reads every name it imports."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kgcn"

LAYERS = ("errors", "graph", "data", "numerics", "model", "evaluate", "trainer", "cli")


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


def _relative_imports(path):
    """(line, module of the package) of each relative import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:   # from . import data
                yield from ((node.lineno, alias.name) for alias in node.names)


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(("__init__", *LAYERS))


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_earlier_layers(module):
    earlier = LAYERS[:LAYERS.index(module)]
    later = [(line, name) for line, name in _relative_imports(PACKAGE / f"{module}.py")
             if name not in earlier]
    assert later == []


def _unread_imports(path):
    """(line, name) of each name a source file imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_reads_every_imported_name(path):
    assert list(_unread_imports(path)) == []


def test_the_package_is_found():
    assert (PACKAGE / "__init__.py").is_file()
