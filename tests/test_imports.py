"""Every imported name in src/ and tests/ is used.

A name bound by an import counts as used when the module reads it, lists
it in ``__all__``, or imports it on a line range marked ``# noqa`` (a
re-export). ``from __future__`` imports are directives, not names.
"""

import ast
import re
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


# Public names nothing outside the tests reads yet, each with its reason.
# calibrate_bias_constant stays until ROADMAP item 2 moves its estimator
# into empirical_check.
UNREAD_PUBLIC_ALLOWED = {"invariance.calibrate_bias_constant"}


def _exported(tree) -> list:
    """The strings of the module's __all__ list."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets)
                and isinstance(stmt.value, (ast.List, ast.Tuple))):
            return [elt.value for elt in stmt.value.elts
                    if isinstance(elt, ast.Constant)]
    return []


def _definition(tree, name):
    """The module-level statement that binds name, or None."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == name:
            return stmt
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in stmt.targets):
            return stmt
    return None


def _dotted_strings(tree) -> set:
    """The parts of every string constant that is a dotted name, such as
    the span names "expr.evaluate" that bench/ reads."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(r"\w+(\.\w+)*", node.value)):
            out.update(node.value.split("."))
    return out


def readme_tour_names(readme: str) -> set:
    """The identifiers in the code of the README's library tour: its
    code blocks and inline code, from its heading to the end."""
    tour = readme.split("## Library tour", 1)[1]
    code = re.findall(r"```.*?```|`[^`]*`", tour, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def unread_public_names(sources: dict, outside: set):
    """layer.name for each name in a layer's __all__ that no statement of
    the given {module: source} reads, apart from the one that defines
    it, and that is not in outside."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    found = []
    for module, tree in trees.items():
        for name in _exported(tree):
            own = _definition(tree, name)
            if name not in outside and not any(
                    stmt is not own and name in names for stmt, names in reads):
                found.append(f"{Path(module).stem}.{name}")
    return sorted(found)


def test_unread_public_names_are_found():
    sources = {
        "a.py": ("__all__ = ['used', 'bench_only', 'dead', 'recursive']\n"
                 "def used():\n    pass\n"
                 "def bench_only():\n    pass\n"
                 "def dead():\n    pass\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"),
        "b.py": "from .a import used\n",
    }
    assert unread_public_names(sources, {"bench_only"}) == ["a.dead", "a.recursive"]
    assert readme_tour_names("`x` ## Library tour\n```python\nf(y)\n```\n"
                             "and `sde.z`\n") == {"python", "f", "y", "sde", "z"}


def test_every_public_name_in_src_is_read():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    outside = readme_tour_names((ROOT / "README.md").read_text(encoding="utf-8"))
    for path in sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside |= _reads(tree) | _dotted_strings(tree)
    found = [name for name in unread_public_names(sources, outside)
             if name not in UNREAD_PUBLIC_ALLOWED]
    assert not found, ("public names that only tests read:\n"
                       + "\n".join(found))
