"""Static checks over the program's source files."""

import ast
import pathlib

import pytest

import tmfc

ROOT = pathlib.Path(tmfc.__file__).parent
MODULES = sorted(ROOT.rglob("*.py"))


def unused_imports(source: str):
    """Names a module imports and never references.  A name listed in
    ``__all__`` counts as referenced; ``from __future__`` imports are not
    names."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name != "*")


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, numpy.linalg\n"
              "from typing import List, Optional as Opt\n"
              "from .a import b, c\n"
              "__all__ = ['c']\n"
              "x: List[int] = numpy.linalg.norm\n")
    assert unused_imports(source) == [(2, "os"), (3, "Opt"), (4, "b")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
