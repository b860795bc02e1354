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


def dead_private_names(sources):
    """Private top-level names (one leading underscore) defined in
    ``sources`` (path to text) that no top-level statement but their own
    definition reads, as sorted ``(path, line, name)``.  A read is a loaded
    name or an attribute, in any of the sources."""
    defined, reads = [], []
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
            else:
                names = []
            defined += [(path, stmt.lineno, name, len(reads)) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            reads.append({n.id for n in ast.walk(stmt)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                         | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})
    return sorted((path, line, name) for path, line, name, own in defined
                  if not any(name in r for i, r in enumerate(reads) if i != own))


def test_dead_private_names_are_found():
    sources = {"a": ("_LIMIT = 3\n"
                     "_unused = 1\n"
                     "def _recurse(n):\n    return _recurse(n - 1)\n"
                     "def _helper():\n    return _LIMIT\n"),
               "b": "from a import _helper\nimport a\nx = _helper() + a._Kept\n",
               "c": "class _Kept:\n    pass\n"}
    assert dead_private_names(sources) == [("a", 2, "_unused"), ("a", 3, "_recurse")]


def test_no_dead_private_names():
    """Every private top-level name of the package is read somewhere else
    in it, so a retired helper does not linger."""
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES}
    assert dead_private_names(sources) == []
