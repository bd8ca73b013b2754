"""Static checks on the library source, from the standard library only."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "sephom")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source):
    """(line, name) for each name an import binds that the module never
    reads: not as a name, not inside a string annotation, not in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in _annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_checker_flags_an_import_nothing_reads():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from .sgcore import RED, EdgeColour, SignedGraph, Switching\n"
        "def f(g: 'SignedGraph') -> bool:\n"
        "    return g is RED\n"
        "__all__ = ['Switching']\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (3, "EdgeColour")]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(paths) > 5
    found = {}
    for path in paths:
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            unused = unused_imports(fh.read())
        if unused:
            found[os.path.basename(path)] = unused
    assert found == {}
