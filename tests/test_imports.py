"""Every imported name in src/ and tests/ is used.

A name bound by an import counts as used when the module reads it, lists
it in ``__all__``, or imports it on a line range marked ``# noqa`` (a
re-export). ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from a import (b,  # noqa: F401\n    c)\n"
              "from d import e as f, g\n"
              "__all__ = ['g']\n"
              "print(sys.argv)\n")
    assert unused_imports(source) == [(2, "os"), (5, "f")]


def test_no_unused_imports():
    found = []
    for folder in ("src", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def _private_definitions(stmt) -> set:
    """The private names a module-level statement binds: functions,
    classes and assignments named _name (dunder names excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = {stmt.target.id}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _reads(stmt) -> set:
    """Names a statement reads: loaded names, attribute names and the
    names it imports from other modules."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unread_private_names(sources: dict):
    """(module, line, name) for each module-level private name of the
    given {module: source} that no module reads outside the statement
    that defines it."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _private_definitions(stmt)
            defined.extend((module, stmt.lineno, name) for name in names)
            read.update(_reads(stmt) - names)
    return sorted(d for d in defined if d[2] not in read)


def test_unread_private_names_are_found():
    sources = {
        "a": ("import b\n"
              "_LIMIT = 3\n"
              "_unused = 4\n"
              "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n"
              "class _Dead:\n    pass\n"
              "def __getattr__(name):\n    pass\n"
              "print(b._helper())\n"),
        "b": ("from .c import _Imported\n"
              "def _helper():\n    return _Imported\n"),
        "c": "class _Imported:\n    pass\n",
    }
    # _walk reads only itself
    assert unread_private_names(sources) == [
        ("a", 3, "_unused"), ("a", 4, "_walk"), ("a", 6, "_Dead")]


def test_every_private_name_in_src_is_read():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    found = [f"{module}:{line}: {name}"
             for module, line, name in unread_private_names(sources)]
    assert not found, "private names nothing in src/ reads:\n" + "\n".join(found)
