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


def _quoted_names(tree):
    """Names read inside string annotations."""
    names = set()
    for note in _annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            names |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _quoted_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unread_private_names(sources):
    """(file, line, name) for each module-level private name, bound by a
    def, a class or an assignment in one of sources (file -> text), that no
    source reads: not as a name, not as an attribute, not in a from import."""
    defined, read = [], set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [(n.id, n.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(path, line, name) for name, line in bound
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
        read |= _quoted_names(tree)
    return sorted(d for d in defined if d[2] not in read)


def _sources():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(paths) > 5
    sources = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)] = fh.read()
    return sources


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
    found = {}
    for name, source in _sources().items():
        if name == "__init__.py":
            continue
        unused = unused_imports(source)
        if unused:
            found[name] = unused
    assert found == {}


def test_the_checker_flags_a_private_name_nothing_reads():
    sources = {
        "a.py": (
            "_H_WHITE = 1\n"
            "_H_BLACK = 2\n"
            "_T: int = 3\n"
            "def _f() -> '_Alias':\n"
            "    _local = _H_WHITE\n"
            "class _C:\n"
            "    _inner = 4\n"
            "_Alias = int\n"
            "__all__ = []\n"
        ),
        "b.py": "from .a import _f\nfrom . import a\nx = a._C\n",
    }
    assert unread_private_names(sources) == [("a.py", 2, "_H_BLACK"), ("a.py", 3, "_T")]


def test_every_private_name_is_read_in_the_library():
    assert unread_private_names(_sources()) == []
