"""Span tracer for one run of the stochflow command line.

Run as a script, it wraps the public functions of the stochflow layer
modules, runs ``stochflow.cli.main`` on the remaining arguments under
those wrappers and, when the command has ended, writes every span to
SPANS_FILE:

    python3 bench/tracer.py SPANS_FILE check heisenberg_foliation --paths 30

Imported, it reads such a file back (``load_spans``) and reduces it to
per-function totals (``summarize``). Reading needs only the standard
library, so the benchmark parent never imports numpy or stochflow.

A span is (name, start_ns, end_ns, parent). Spans are kept in memory
while the command runs, so the file write lands after the measured work.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import math
import sys
import time

# Layers are the modules; a span is named "<module>.<function>".
LAYERS = ("config", "cli", "expr", "manifold", "sde", "currents",
          "invariance", "liealg")

# Methods that carry per-step work, patched on their class.
METHODS = {
    "manifold.wrap": ("manifold", "ChartedManifold", "wrap"),
    "manifold.field_call": ("manifold", "VectorFieldSpec", "__call__"),
}

ROOT = "cli.main"
_FIELDS = 5  # name, start_ns, end_ns, parent, nested (same name already open)


def _lead_size(a) -> int:
    """Number of points in an array of shape (..., dim)."""
    shape = getattr(a, "shape", None)
    if shape is None:
        import numpy as np
        shape = np.shape(a)
    return math.prod(shape[:-1])


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work counters, taken at the boundary where the work happens:
# name -> fn(args, kwargs, result) -> {counter: amount}.
def _count_points(args, kwargs, result):
    return {"points": _lead_size(args[1])}


def _count_noise(args, kwargs, result):
    return {"values": result.increments.size}


def _count_endpoints(args, kwargs, result):
    steps = _arg(args, kwargs, 3, "increments").shape[-2]
    return {"steps": steps, "point_steps": _lead_size(result) * steps}


def _count_trajectory(args, kwargs, result):
    steps = result.trajectory.shape[0] - 1
    return {"steps": steps,
            "point_steps": steps * math.prod(result.trajectory.shape[1:-1])}


def _count_jacobian_check(args, kwargs, result):
    meta = result.metadata
    steps = int(round(meta["T"] / meta["dt"]))
    return {"steps": steps, "point_steps": steps * meta["n_paths"]}


def _count_rows(args, kwargs, result):
    return {"rows": _arg(args, kwargs, 0, "result").trajectory.shape[0]}


COUNTERS = {
    "manifold.wrap": _count_points,
    "manifold.field_call": _count_points,
    "sde.generate_noise": _count_noise,
    "sde.flow_endpoints": _count_endpoints,
    "sde.flow_with_jacobian": _count_trajectory,
    "invariance.jacobian_check": _count_jacobian_check,
    "sde.write_trajectory_csv": _count_rows,
}


class Tracer:
    """Records nested spans of wrapped functions into a flat int64 array."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = array.array("q")
        self.counts = {}
        self._stack = []
        self._open = []  # per name id: how many spans of that name are open

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        spans, stack, is_open = self.spans, self._stack, self._open
        clock = time.perf_counter_ns
        totals = self.counts.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans) // _FIELDS
            spans.extend((nid, 0, -1, stack[-1] if stack else -1,
                          1 if is_open[nid] else 0))
            stack.append(i)
            is_open[nid] += 1
            spans[i * _FIELDS + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i * _FIELDS + 2] = clock()
                is_open[nid] -= 1
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + amount
            return result
        return traced

    def install(self, package="stochflow"):
        """Wrap every public function of each layer module, rebinding it at
        every module attribute that holds it, so that callers which did
        ``from .sde import flow_endpoints`` see the wrapper too."""
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    replace[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for name, (layer, cls_name, meth) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth), name))
        return modules

    def save(self, path):
        meta = {"names": self.names, "counts": self.counts}
        with open(path, "wb") as fh:
            blob = json.dumps(meta).encode()
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            self.spans.tofile(fh)


def load_spans(path):
    """(names, counts, spans) from a file written by Tracer.save."""
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        meta = json.loads(fh.read(size))
        spans = array.array("q")
        spans.frombytes(fh.read())
    return meta["names"], meta["counts"], spans


def summarize(path):
    """Per span name: calls, self_s, total_s, plus its work counters.

    self_s is the span time not covered by child spans. total_s sums the
    spans that have no open span of the same name above them, so
    recursion is not counted twice. Raises ValueError when a span leaves
    its parent, or when the self times do not add up to the root span,
    which happens when sibling spans overlap.
    """
    names, counts, spans = load_spans(path)
    n = len(spans) // _FIELDS
    child_ns = [0] * n   # per span: length of the union of its children
    covered = [0] * n    # per span: end of the latest child seen so far
    roots = []
    for i in range(n):   # spans are stored in order of start
        base = i * _FIELDS
        start, end, parent = spans[base + 1], spans[base + 2], spans[base + 3]
        if end < start:
            raise ValueError(f"span {names[spans[base]]} never ended")
        if parent < 0:
            roots.append(i)
            continue
        pbase = parent * _FIELDS
        if start < spans[pbase + 1] or end > spans[pbase + 2]:
            raise ValueError(f"span {names[spans[base]]} leaves its parent")
        child_ns[parent] += max(0, end - max(start, covered[parent]))
        covered[parent] = max(covered[parent], end)
    if len(roots) != 1 or names[spans[roots[0] * _FIELDS]] != ROOT:
        raise ValueError(f"expected one root span {ROOT}, got {len(roots)}")
    out = {name: {"calls": 0, "self_ns": 0, "total_ns": 0} for name in names}
    self_sum = 0
    for i in range(n):
        base = i * _FIELDS
        dur = spans[base + 2] - spans[base + 1]
        agg = out[names[spans[base]]]
        agg["calls"] += 1
        agg["self_ns"] += dur - child_ns[i]
        self_sum += dur - child_ns[i]
        if not spans[base + 4]:
            agg["total_ns"] += dur
    root = roots[0] * _FIELDS
    root_ns = spans[root + 2] - spans[root + 1]
    if self_sum != root_ns:
        raise ValueError(f"self times sum to {self_sum} ns, root span "
                         f"lasted {root_ns} ns")
    summary = {}
    for name, agg in out.items():
        summary[name] = {"calls": agg["calls"], "self_s": agg["self_ns"] / 1e9,
                         "total_s": agg["total_ns"] / 1e9, **counts.get(name, {})}
    return summary


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    modules = tracer.install()
    try:
        code = modules["cli"].main(cli_argv)
    finally:
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
