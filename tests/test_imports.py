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


def imports_in_src(module):
    """path:line of each import of module in src/."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import) else
                       [node.module] if isinstance(node, ast.ImportFrom) else [])
            if module in modules:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_no_module_in_src_imports_dataclasses():
    # a dataclass compiles its generated methods while its module is
    # imported, a cost every command pays at start-up
    found = imports_in_src("dataclasses")
    assert not found, "dataclasses imported at:\n" + "\n".join(found)


def test_no_module_in_src_imports_re():
    # a pattern is compiled when its module is imported, a cost every
    # command pays at start-up; expressions are read by Python's parser
    found = imports_in_src("re")
    assert not found, "re imported at:\n" + "\n".join(found)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope) -> list:
    """The nodes of a module or function that no function in it encloses."""
    nodes, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        nodes.append(node)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return nodes


def quotient_name_tests(source: str) -> list:
    """The lines of source that compare a quotient's name with a string.

    A quotient's name is an ``identification``, a read of the config
    value "manifold.type", or a name that its function (or the module)
    assigns one of these. A string is a constant, a name the module
    assigns one, or a tuple, list or set holding one."""
    tree = ast.parse(source)
    strings = {t.id for stmt in tree.body if isinstance(stmt, ast.Assign)
               and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
               for t in stmt.targets if isinstance(t, ast.Name)}

    def is_string(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_string(n) for n in node.elts)
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                or isinstance(node, ast.Name) and node.id in strings)

    found = set()
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _SCOPES))]:
        nodes, names = _own_nodes(scope), set()

        def is_quotient(node):
            if isinstance(node, ast.Attribute):
                return node.attr == "identification"
            if isinstance(node, ast.Name):
                return node.id in names or node.id == "identification"
            return isinstance(node, (ast.Call, ast.Subscript)) and any(
                isinstance(n, ast.Constant) and n.value == "manifold.type"
                for n in ast.walk(node))

        for node in (n for n in nodes if isinstance(n, ast.Assign)):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                names.update(t.id for t, v in pairs
                             if isinstance(t, ast.Name) and is_quotient(v))
        for node in (n for n in nodes if isinstance(n, ast.Compare)):
            operands = [node.left, *node.comparators]
            if any(is_quotient(a) and any(is_string(b) for b in operands if b is not a)
                   for a in operands):
                found.add(node.lineno)
    return sorted(found)


def test_quotient_name_tests_are_found():
    source = ("TORUS = 'torus'\n"
              "def f(m, values, identification):\n"
              "    kind = values['manifold.type']\n"
              "    lengths, other = values.get('manifold.lengths'), value('manifold.type')\n"
              "    if m.identification == TORUS: pass\n"  # 5
              "    if kind == 'heisenberg' and len(lengths) != 3: pass\n"
              "    if 'heisenberg' != other: pass\n"
              "    if identification not in (TORUS, 'heisenberg'): pass\n"
              "    if value('manifold.type') in ['sol']: pass\n"
              "    if m.identification in QUOTIENTS or lengths == 'x': pass\n"  # 10
              "    if m.identification == other.identification: pass\n"
              "def g(kind):\n"  # a kind of another function's scope
              "    return kind == 'foliation'\n")
    assert quotient_name_tests(source) == [5, 6, 7, 8, 9]


def test_no_module_in_src_compares_a_quotient_name():
    # a quotient is a row of manifold.QUOTIENTS, read through its shears
    # and needed dimension: a branch on its name is a second description
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in quotient_name_tests(path.read_text(encoding="utf-8"))]
    assert not found, "quotient name compared with a string at:\n" + "\n".join(found)


def test_config_and_cli_name_no_quotient():
    # the manifold.type choices and default lengths come from the table
    from stochflow.manifold import QUOTIENTS

    found = [f"{name}:{node.lineno}: {node.value!r}"
             for name in ("config.py", "cli.py")
             for node in ast.walk(ast.parse(
                 (ROOT / "src" / "stochflow" / name).read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and node.value in QUOTIENTS]
    assert not found, "quotient named at:\n" + "\n".join(found)


def test_no_module_in_src_names_numpy_random():
    # the noise is drawn by numpy arithmetic (stochflow.noise): importing
    # numpy's generators maps OpenSSL, through secrets and hmac
    found = [f"{path.relative_to(ROOT)}:{n}"
             for path in sorted((ROOT / "src" / "stochflow").rglob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), 1)
             if re.search(r"\b(numpy|np)\.random\b", line)]
    assert not found, "numpy.random named at:\n" + "\n".join(found)


# try statements, with except* ones where the grammar has them (3.11)
_TRY = (ast.Try, *([ast.TryStar] if hasattr(ast, "TryStar") else []))


def try_statements_outside(source: str, function: str) -> list:
    """The lines of the try statements of source that are not inside its
    module-level function of the given name."""
    tree = ast.parse(source)
    inside = {node for stmt in tree.body
              if isinstance(stmt, ast.FunctionDef) and stmt.name == function
              for node in ast.walk(stmt)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, _TRY) and node not in inside)


def test_try_statements_outside_a_function_are_found():
    source = ("try:\n    pass\nexcept E:\n    pass\n"
              "def main():\n    try:\n        pass\n    finally:\n        pass\n"
              "def _cmd():\n    def main():\n        try:\n            pass\n"
              "        except E:\n            pass\n")
    assert try_statements_outside(source, "main") == [1, 12]


def test_cli_catches_errors_only_in_main():
    # one error boundary: each command lets its errors reach main, which
    # prints them as error lines, so no command handles its own
    source = (ROOT / "src" / "stochflow" / "cli.py").read_text(encoding="utf-8")
    assert try_statements_outside(source, "main") == []


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def foreign_private_reads(sources: dict) -> list:
    """(module, "owner._name") for each private name of another module of
    the package that a module of the given {path: source} imports by
    name (``from .owner import _name``) or reads as ``owner._name`` of a
    module it imported (``from . import owner``); modules by stem."""
    found = []
    for path, source in sources.items():
        module = Path(path).stem
        tree = ast.parse(source)
        owners = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if node.module is None:
                    owners[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append((module, f"{node.module}.{alias.name}"))
        found.extend(
            (module, f"{owners[node.value.id]}.{node.attr}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in owners and _private(node.attr))
    return sorted(set(found))


def test_foreign_private_reads_are_found():
    sources = {
        "pkg/a.py": ("from . import b as bee, c\n"
                     "from .b import _helper, public, __version__\n"
                     "import os\n"
                     "def f(obj):\n"
                     "    return bee._LIMIT, c.__name__, obj._cached, os._exit\n"),
        "pkg/b.py": "_LIMIT = 3\ndef _helper():\n    return _LIMIT\n",
    }
    assert foreign_private_reads(sources) == [("a", "b._LIMIT"), ("a", "b._helper")]


# Reads of another module's private name, each with its reason. Every
# other private name has one owner, the module that defines it.
FOREIGN_PRIVATE_READS_ALLOWED = {
    # the pullback chunk rule counts the arrays that the flow holds
    ("currents", "sde._endpoint_arrays"),
    # heun is sde's loop compiler, split out of sde so that no set-up
    # loads it: it reads sde's divergences and row block, and compiles
    # expr's operator codes to their ufuncs
    ("heun", "sde._divergences"),
    ("heun", "sde._FLOAT_ROWS"),
    ("heun", "expr._UFUNCS"),
}


def test_each_private_name_in_src_has_one_owner():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "stochflow").rglob("*.py"))}
    reads = foreign_private_reads(sources)
    found = [f"{module} reads {name}" for module, name in reads
             if (module, name) not in FOREIGN_PRIVATE_READS_ALLOWED]
    assert not found, ("private names read outside their module:\n"
                       + "\n".join(found))
    # and no allowance outlives its read
    assert FOREIGN_PRIVATE_READS_ALLOWED <= set(reads)


# Public names nothing outside the tests reads yet, each with its reason.
# calibrate_bias_constant stays until ROADMAP item 5 measures the bias
# with its estimator, on the paths of an EmpiricalRun.
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


def _free_names(stmt) -> set:
    """The bare names stmt reads that it does not bind itself: a
    parameter or local of a function in it, such as the ``run`` of
    ``empirical_check(run, ...)``, is not the module-level cli.run."""
    loaded, bound = set(), set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
    return loaded - bound


def _reached(start, defining) -> set:
    """The statements that start reaches through its free names: those
    that define such a name, and what they reach in turn. Attribute
    names are left out, as ``.run`` of a method is not cli.run."""
    seen, todo = set(), [start]
    while todo:
        names = _free_names(todo.pop())
        for stmt in (d for name in names for d in defining.get(name, ())):
            if stmt not in seen:
                seen.add(stmt)
                todo.append(stmt)
    return seen


def unread_public_names(sources: dict, outside: set):
    """layer.name for each name in a layer's __all__ that is not in
    outside and that no statement of the given {module: source} reads
    from outside its own cycle of references: a statement that reads it
    counts only when the name's definition does not reach it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {stmt: _reads(stmt) for tree in trees.values() for stmt in tree.body}
    defining = {}  # name -> the module-level statements that bind it
    for tree in trees.values():
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt]
            for name in (getattr(t, "id", None) or getattr(t, "name", None)
                         for t in targets):
                defining.setdefault(name, []).append(stmt)
    found = []
    for module, tree in trees.items():
        for name in _exported(tree):
            own = _definition(tree, name)
            cycle = _reached(own, defining) | {own}
            if name not in outside and not any(
                    name in names for stmt, names in reads.items()
                    if stmt not in cycle):
                found.append(f"{Path(module).stem}.{name}")
    return sorted(found)


def test_unread_public_names_are_found():
    sources = {
        "a.py": ("__all__ = ['used', 'bench_only', 'dead', 'recursive', 'cycle',\n"
                 "           'called_in_a_cycle']\n"
                 "def used():\n    pass\n"
                 "def bench_only():\n    pass\n"
                 "def dead():\n    pass\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 # only _helper reads cycle, and only cycle reads _helper
                 "def cycle(n):\n    return _helper(n)\n"
                 "def _helper(n):\n    return cycle(n - 1) + called_in_a_cycle()\n"
                 "def called_in_a_cycle():\n    pass\n"),
        "b.py": "from .a import used\nprint(called_in_a_cycle())\n",
        # run_one is read only by run, and reaches no run: the run of
        # check is its parameter, and that of check_all a local
        "c.py": ("__all__ = ['run', 'run_one', 'check', 'check_all']\n"
                 "def run():\n    return run_one()\n"
                 "def run_one():\n    return check(0) + check_all()\n"
                 "def check(run):\n    return run\n"
                 "def check_all():\n    run = 1\n    return check(run)\n"),
    }
    assert unread_public_names(sources, {"bench_only", "run"}) == [
        "a.cycle", "a.dead", "a.recursive"]
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


# Defaulted parameters that no call in src/ or bench/ sets. seed and
# n_paths of calibrate_bias_constant stay until ROADMAP item 5 measures
# the bias with its estimator, on the paths of an EmpiricalRun.
UNSET_DEFAULTS_ALLOWED = {"invariance.calibrate_bias_constant.seed",
                          "invariance.calibrate_bias_constant.n_paths"}


def _defaulted(stmt) -> list:
    """(name, position) for each defaulted parameter of a function, or of
    a class's __init__ (positions counted after self); position None when
    keyword-only."""
    if isinstance(stmt, ast.ClassDef):
        init = next((s for s in stmt.body if isinstance(s, ast.FunctionDef)
                     and s.name == "__init__"), None)
        return [(name, None if i is None else i - 1) for name, i in _defaulted(init)]
    if isinstance(stmt, ast.FunctionDef):
        args = stmt.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        return ([(a.arg, i) for i, a in enumerate(positional) if i >= first]
                + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None])
    return []


def _calls(tree) -> list:
    """(call, scopes, names) for each call in the module: the functions
    around it, innermost first, and the names it may call, which are the
    callee's own name and, for a local alias bound by ``a = f`` or
    ``a = f if c else g``, the functions it is bound to."""
    aliases = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            value = node.value
            branches = ([value.body, value.orelse] if isinstance(value, ast.IfExp)
                        else [value])
            if all(isinstance(b, ast.Name) for b in branches):
                aliases.setdefault(node.targets[0].id, set()).update(
                    b.id for b in branches)
    out = []

    def visit(node, scopes):
        for child in ast.iter_child_nodes(node):
            inner = scopes
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [child, *scopes]
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                out.append((child, scopes, {name} | aliases.get(name, set())))
            visit(child, inner)

    visit(tree, [])
    return out


def _star_keys(value, tree):
    """The keys that ``**value`` can pass when value calls a function of
    the module whose every return is a dict literal, or a choice between
    dict literals, with constant keys; None when they cannot be told."""
    name = getattr(value.func, "id", None) if isinstance(value, ast.Call) else None
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == name:
            keys = set()
            for ret in (n for n in ast.walk(fn) if isinstance(n, ast.Return)):
                dicts = ([ret.value.body, ret.value.orelse]
                         if isinstance(ret.value, ast.IfExp) else [ret.value])
                if not all(isinstance(d, ast.Dict) and all(
                        isinstance(k, ast.Constant) for k in d.keys) for d in dicts):
                    return None
                keys.update(k.value for d in dicts for k in d.keys)
            return keys
    return None


def _argument(call, param, position, tree):
    """The node the call passes for param; True when ``*`` or ``**`` may
    pass it, None when the call leaves it out."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
        if kw.arg is None:
            keys = _star_keys(kw.value, tree)
            if keys is None or param in keys:
                return True
    if position is None:
        return None
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return call.args[position] if position < len(call.args) else None


def _gives_a_value(arg, scopes, stem, unset) -> bool:
    """False when arg is missing, or is a parameter of a function around
    the call that is itself never set."""
    if arg is None:
        return False
    if isinstance(arg, ast.Name):
        for fn in scopes:
            args = fn.args
            if arg.id in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                return f"{stem}.{fn.name}.{arg.id}" not in unset
    return True


def unset_defaults(layers: dict, callers: dict):
    """layer.function.parameter (or layer.Class.parameter) for each defaulted
    parameter of a function, or of a class's __init__, in a layer's
    __all__ that no call in the {module: source} callers sets by name,
    by position or through ``**``. A call that passes on a parameter of
    a function around it that is itself never set does not set it."""
    defaults = {}  # name -> [(key, param, position)]
    for module, source in layers.items():
        tree = ast.parse(source)
        for name in _exported(tree):
            for param, position in _defaulted(_definition(tree, name)):
                defaults.setdefault(name, []).append(
                    (f"{Path(module).stem}.{name}.{param}", param, position))
    calls = [(*call, tree, Path(module).stem)
             for module, source in callers.items()
             for tree in [ast.parse(source)] for call in _calls(tree)]
    unset = {key for params in defaults.values() for key, _, _ in params}
    changed = True
    while changed:  # until no parameter is found to be set
        changed = False
        for call, scopes, names, tree, stem in calls:
            for key, param, position in (d for n in names for d in defaults.get(n, ())):
                if key in unset and _gives_a_value(
                        _argument(call, param, position, tree), scopes, stem, unset):
                    unset.discard(key)
                    changed = True
    return sorted(unset)


def test_unset_defaults_are_found():
    layers = {"a.py": ("__all__ = ['f', 'g', 'h', 'k', 'wrap', 'D']\n"
                       "def f(x, by_position=1, by_name=2, unset=3):\n    pass\n"
                       "def g(x, *, through_kwargs=1, known=2, left_out=3):\n    pass\n"
                       "def h(x, through_alias=1):\n    pass\n"
                       "def k(x, passed_on=1):\n    pass\n"
                       "def wrap(x, never=1):\n    k(x, never)\n"
                       "class D:\n"
                       "    def __init__(self, a, set_field=0, unset_field=0):\n"
                       "        pass\n")}
    callers = {**layers, "b.py": ("def only():\n"
                                  "    return {} if c else {'known': 1}\n"
                                  "f(0, 1, by_name=2)\n"
                                  "g(0, **options)\n"
                                  "g(0, **only())\n"
                                  "run = h if fast else f\n"
                                  "run(0, 1)\n"
                                  "wrap(0)\n"
                                  "D(1, 2)\n")}
    assert unset_defaults(layers, callers) == [
        "a.D.unset_field", "a.f.unset", "a.k.passed_on", "a.wrap.never"]
    callers["b.py"] = callers["b.py"].replace("**options", "left_out=0")
    assert unset_defaults(layers, callers) == [
        "a.D.unset_field", "a.f.unset", "a.g.through_kwargs", "a.k.passed_on",
        "a.wrap.never"]


def test_every_defaulted_parameter_is_set_by_some_caller():
    layers = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
              for path in sorted((ROOT / "src").rglob("*.py"))}
    callers = dict(layers)
    callers.update({str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
                    for path in sorted((ROOT / "bench").rglob("*.py"))})
    found = [p for p in unset_defaults(layers, callers)
             if p not in UNSET_DEFAULTS_ALLOWED]
    assert not found, ("defaulted parameters that no caller in src/ or bench/ "
                       "sets (make each a constant):\n" + "\n".join(found))
