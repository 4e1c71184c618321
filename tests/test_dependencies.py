"""numpy stays the only runtime dependency: every absolute import in the
package is numpy or a module of the standard library. The package's modules
are layered: each imports only modules before it in LAYERS, so no import
cycle can form. A module reads every name it imports, and every function,
class and method the package defines has a caller in the package or in
perfbench."""

import ast
import functools
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kgcn"
PERFBENCH = PACKAGE.parent.parent / "perfbench"

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


def _definitions(tree):
    """(line, name) of each module-level function and class of a parsed module
    and each method of those classes, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def _uses(tree):
    """Every name, attribute and string constant of a parsed module: perfbench
    reaches the functions it wraps by their names as strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.cache
def _used_names():
    """The uses in every module of the package and of perfbench."""
    callers = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    return {name for source in callers for name in _uses(_parsed(source))}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_has_a_caller(path):
    unused = [(line, name) for line, name in _definitions(_parsed(path))
              if name not in _used_names()]
    assert unused == []


def test_the_package_is_found():
    assert (PACKAGE / "__init__.py").is_file() and (PERFBENCH / "run.py").is_file()
