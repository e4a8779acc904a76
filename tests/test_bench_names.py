"""Every stochflow name the benchmark traces exists.

bench/run.py reads per-layer metrics from spans named "<layer>.<name>"
(LAYER_FIELDS), and bench/tracer.py counts work on some of them
(COUNTERS) and patches per-step methods onto classes (METHODS). The
tracer wraps only what a layer lists in ``__all__``, and a traced run
fails when a span it reads is missing, so a renamed or dropped function
is caught here. The tables are read with ``ast``; bench/ is not
imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def module_dict(path: Path, name: str) -> ast.Dict:
    """The dict literal assigned to name at the top level of path."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in stmt.targets)):
            return stmt.value
    raise LookupError(f"no dict {name} in {path}")


METHODS = ast.literal_eval(module_dict(BENCH / "tracer.py", "METHODS"))
TRACED = sorted(set(METHODS).union(
    key.value for path, name in ((BENCH / "run.py", "LAYER_FIELDS"),
                                 (BENCH / "tracer.py", "COUNTERS"))
    for key in module_dict(path, name).keys))


@pytest.mark.parametrize("span", TRACED)
def test_traced_name_exists(span):
    if span in METHODS:
        layer, cls_name, meth = METHODS[span]
        cls = getattr(importlib.import_module(f"stochflow.{layer}"), cls_name)
        assert callable(getattr(cls, meth, None)), f"{span}: no {cls_name}.{meth}"
        return
    layer, name = span.split(".")
    module = importlib.import_module(f"stochflow.{layer}")
    assert name in getattr(module, "__all__", ()), \
        f"{span}: {name} is not in stochflow.{layer}.__all__"
    assert callable(getattr(module, name))
