"""Experiment configuration: parsing, validation and typed values.

The text format is flat key-value lines under section headers:

    [manifold]
    type = torus
    lengths = 1, 1

    [fields]
    drift = 0, 0
    diffusion1 = -sin(2*pi*x1), cos(2*pi*x2)

    [current]
    density = 1
    grid = 64

    [check strict_nform]
    tolerance = 1e-8

A Lie-algebra experiment replaces [fields]/[current] with a [liealg]
section (algebra or inline constants, subalgebra, optional
realization). Exactly one of the two experiment types must be present.
'#' starts a comment. JSON documents with the same section names are
accepted as an alternative input.

parse_config converts each value once, by its entry in _VALUES, which
also holds its default. The raw text is kept only for serialize_config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import expr

__all__ = [
    "CHECK_KEYS",
    "ConfigIssue",
    "ConfigError",
    "CheckSpec",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
]

_SECTIONS = ("manifold", "fields", "current", "liealg")

# The keys each current type reads; parse_config rejects the other
# type's keys rather than drop them.
_CURRENT_KEYS = {
    "density": ("density", "grid", "normalize"),
    "empirical": ("atoms", "weights"),
}

# The keys each check kind reads, and so accepts; parse_config rejects
# every other key rather than drop it. The pathwise check probes a fixed
# number of paths, the mean check's tolerance is 3*stderr + C*dt per
# basis function, and the foliation pipeline keeps its own tolerances.
CHECK_KEYS = {
    "strict_nform": ("tolerance", "grid"),
    "mean_nform": ("tolerance", "grid"),
    "strict_residual": ("tolerance", "grid", "basis_k"),
    "mean_residual": ("tolerance", "grid", "basis_k"),
    "empirical_pathwise": ("tolerance", "grid", "basis_k", "t", "dt", "seed"),
    "empirical_mean": ("grid", "basis_k", "t", "dt", "seed", "paths", "bias_c"),
    "jacobian": ("tolerance", "t", "dt", "seed", "paths", "x0"),
    "foliation": ("t", "dt", "seed", "paths", "grid", "basis_k", "bias_c"),
}


@dataclass(frozen=True)
class ConfigIssue:
    message: str
    line: Optional[int] = None
    col: Optional[int] = None
    path: Optional[str] = None

    def __str__(self):
        where = ""
        if self.line is not None:
            where = f"line {self.line}"
            if self.col is not None:
                where += f", column {self.col}"
        if self.path:
            where = f"{self.path}" + (f" ({where})" if where else "")
        return f"{where}: {self.message}" if where else self.message


class ConfigError(ValueError):
    """Carries every issue found, not just the first."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


@dataclass(frozen=True)
class CheckSpec:
    kind: str
    params: tuple  # ((key, raw text), ...) in declaration order
    values: tuple  # ((key, typed value), ...) for each key of CHECK_KEYS[kind]

    def value(self, key):
        """The typed value of key, or its default when the check leaves it out."""
        return dict(self.values)[key]


@dataclass(frozen=True)
class ExperimentConfig:
    manifold: Optional[tuple] = None  # ((key, raw text), ...) per section
    fields: Optional[tuple] = None
    current: Optional[tuple] = None
    liealg: Optional[tuple] = None
    checks: tuple = ()
    values: tuple = ()  # (("section.key", typed value), ...), defaults filled in

    def value(self, path):
        """The typed value at "section.key", or its default."""
        return dict(self.values)[path]

    @property
    def is_flow(self) -> bool:
        return self.fields is not None

    @property
    def is_liealg(self) -> bool:
        return self.liealg is not None


# ---------------------------------------------------------------------------
# raw text -> sections

def _parse_sections(text, issues):
    """Returns a list of (section_name, header_line, [(key, value, line, col)])."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        line = stripped.strip()
        if line.startswith("["):
            if not line.endswith("]"):
                issues.append(ConfigIssue("unterminated section header", lineno, 1))
                continue
            name = line[1:-1].strip()
            current = (name, lineno, [])
            sections.append(current)
            continue
        if "=" not in line:
            issues.append(ConfigIssue("expected 'key = value'", lineno, 1))
            continue
        if current is None:
            issues.append(ConfigIssue("entry outside any [section]", lineno, 1))
            continue
        key, _, value = stripped.partition("=")
        # 1-based column of the first character of the trimmed value
        col = stripped.index("=") + 2 + (len(value) - len(value.lstrip()))
        current[2].append((key.strip(), value.strip(), lineno, col))
    return sections


class _JSONObject(dict):
    """A JSON object that keeps its pairs, so a key given twice shows."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _json_to_sections(doc, issues):
    sections = []
    if not isinstance(doc, dict):
        issues.append(ConfigIssue("JSON config must be an object"))
        return sections

    def norm(v):
        if isinstance(v, list) and any(isinstance(item, list) for item in v):
            # rows, as atoms [[0.1, 0.2], [0.3, 0.4]]: "0.1 0.2; 0.3 0.4"
            return "; ".join(" ".join(map(norm, row)) if isinstance(row, list)
                             else norm(row) for row in v)
        if isinstance(v, list):
            return ", ".join(norm(item) for item in v)
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, dict):
            return json.dumps(v, sort_keys=True)
        return str(v)

    for name, body in doc.pairs:
        if name == "checks":
            for i, chk in enumerate(body):
                if not isinstance(chk, dict) or "kind" not in chk:
                    issues.append(ConfigIssue("check needs a 'kind'",
                                              path=f"checks[{i}]"))
                    continue
                sections.append((f"check {chk['kind']}", None, [
                    (k, norm(v), None, None) for k, v in chk.pairs if k != "kind"]))
        elif name in _SECTIONS and not isinstance(body, dict):
            issues.append(ConfigIssue("section must be an object", path=name))
        elif name in _SECTIONS:
            sections.append((name, None,
                             [(k, norm(v), None, None) for k, v in body.pairs]))
    return sections


# ---------------------------------------------------------------------------
# conversion of one value

class _Value:
    """The text of one entry and where it was written."""

    def __init__(self, text, line, col, path, issues):
        self.text, self.line, self.col, self.path = text, line, col, path
        self.issues = issues
        self.failed = False

    def fail(self, message, offset=0):  # offset None: at the line alone
        col = None if offset is None or self.col is None else self.col + offset
        self.issues.append(ConfigIssue(message, self.line, col, self.path))
        self.failed = True


# the rules a number may have to keep: (message when it does not, test)
_POSITIVE = ("must be positive", lambda n: n > 0)
_NON_NEGATIVE = ("must be >= 0", lambda n: n >= 0)
_PHILOX_KEY = ("must be in [0, 2**64)", lambda n: 0 <= n < 2 ** 64)


def _number(value, text, integer=False, rule=None):
    try:
        number = int(text) if integer else float(text)
    except ValueError:
        return value.fail(
            f"expected {'an integer' if integer else 'a number'}, got {text!r}")
    if not integer and not math.isfinite(number):
        return value.fail("must be finite")
    if rule and not rule[1](number):
        return value.fail(rule[0])
    return number


def _numbers(integer=False, rule=None, one=False):
    def convert(value, values):
        if one:
            return _number(value, value.text, integer, rule)
        numbers = tuple(_number(value, part.strip(), integer, rule)
                        for part in value.text.split(","))
        return None if value.failed else numbers
    return convert


_positive = _numbers(rule=_POSITIVE, one=True)
_count = _numbers(integer=True, rule=_POSITIVE, one=True)


def _flag(value, values):
    flag = {"true": True, "false": False}.get(value.text.lower())
    if flag is None:
        value.fail(f"expected true or false, got {value.text!r}")
    return flag


def _choice(what, *options):
    def convert(value, values):
        if value.text in options:
            return value.text
        return value.fail(f"unknown {what} {value.text!r} (known: "
                          f"{', '.join(options)})", offset=None)
    return convert


def _lengths(value, values):
    lengths = _numbers(rule=_POSITIVE)(value, values)
    if lengths and values["manifold.type"] == "heisenberg" and len(lengths) != 3:
        return value.fail(f"a heisenberg manifold has 3 lengths, got {len(lengths)}")
    return lengths


def _expression(value, text, offset, dim):
    try:
        node = expr.parse(text)
    except expr.ExprParseError as e:
        return value.fail(f"expression error: {e.message}", offset + e.pos)
    used = expr.max_coordinate(node)
    if dim is not None and used > dim:
        return value.fail(f"references x{used} but the manifold has dimension {dim}",
                          offset)
    return node


def _field(value, values):
    """One expression per coordinate (the grammar has no commas)."""
    dim = values.get("manifold.dim")
    parts = value.text.split(",")
    if dim is not None and len(parts) != dim:
        value.fail(f"{value.path.split('.')[1]} has {len(parts)} components, "
                   f"manifold has dimension {dim}", offset=None)
    components, offset = [], 0
    for part in parts:
        lead = len(part) - len(part.lstrip())
        components.append(_expression(value, part.strip(), offset + lead, dim))
        offset += len(part) + 1
    return None if value.failed else tuple(components)


def _density(value, values):
    node = _expression(value, value.text, 0, values.get("manifold.dim"))
    return None if node is expr.constant(1.0) else node  # None: the volume


def _atoms(value, values):
    dim = values.get("manifold.dim")
    atoms = []
    for i, point in enumerate(value.text.split(";")):
        coords = point.split()
        if not coords or (dim is not None and len(coords) != dim):
            value.fail(f"atom {i + 1} has {len(coords)} coordinates, need "
                       f"{dim or 'at least 1'}")
        atoms.append(tuple(_number(value, text) for text in coords))
    return None if value.failed else tuple(atoms)


def _constants(value, values):
    try:
        return json.loads(value.text)
    except json.JSONDecodeError as e:
        return value.fail(f"inline constants are not valid JSON: {e.msg}")


def _algebra(value, values):
    """A name of liealg.algebra_zoo, or file:PATH of a constants file."""
    name = value.text
    return Path(name[len("file:"):]) if name.startswith("file:") else name


def _indices(value, values):  # 1-based in the config, 0-based as values
    indices = _numbers(integer=True, rule=_POSITIVE)(value, values)
    return indices and tuple(i - 1 for i in indices)


def _default_grid(values):
    return values.get("manifold.dim") and (32 if values["manifold.dim"] >= 3 else 64)


def _check_grid(values):
    if values["kind"] == "foliation":
        return 8
    if values["kind"].endswith("_nform"):
        return _default_grid(values)
    return None  # the current's own grid


# Every settable value, as "section.key": its conversion and its default.
# A conversion takes the _Value and the values converted before it, and
# returns the typed value, or None after reporting each issue. A default
# is a value, or a function of the values converted before it; in a
# check, values["kind"] is its kind.
_VALUES = {
    "manifold.type": (_choice("manifold type", "torus", "heisenberg"), "torus"),
    "manifold.lengths": (_lengths, lambda v: v["manifold.type"] and (1.0,) * (
        3 if v["manifold.type"] == "heisenberg" else 1)),
    "fields.drift": (_field, lambda v: v["manifold.dim"] and (
        expr.constant(0.0),) * v["manifold.dim"]),
    "fields.diffusionN": (_field, None),  # in index order as "fields.diffusions"
    "current.type": (_choice("current type", *_CURRENT_KEYS), "density"),
    "current.density": (_density, None),
    "current.grid": (_count, _default_grid),
    "current.normalize": (_flag, False),
    "current.atoms": (_atoms, None),
    "current.weights": (_numbers(), None),
    "liealg.algebra": (_algebra, None),
    "liealg.constants": (_constants, None),
    "liealg.subalgebra": (_indices, None),
    "liealg.realization": (_choice("realization", "heisenberg", "torus"), None),
    "check.tolerance": (_positive, None),  # None: the check function's own
    "check.grid": (_count, _check_grid),
    "check.basis_k": (_count, 3),
    "check.t": (_positive, 1.0),
    "check.dt": (_positive, 1e-3),
    "check.seed": (_numbers(integer=True, rule=_PHILOX_KEY, one=True), 0),
    "check.paths": (_count, lambda v: 100 if v["kind"] == "jacobian" else 1000),
    "check.x0": (_numbers(), lambda v: v.get("manifold.lengths") and tuple(
        0.5 * length for length in v["manifold.lengths"])),
    "check.bias_c": (_numbers(rule=_NON_NEGATIVE, one=True), None),
}


def _resolve(values, section, keys, entries):
    """Sets values["section.key"] for each key, in order."""
    for key in keys:
        convert, default = _VALUES[f"{section}.{key}"]
        if key in entries:
            values[f"{section}.{key}"] = convert(entries[key], values)
        else:
            values[f"{section}.{key}"] = (default(values) if callable(default)
                                          else default)


# ---------------------------------------------------------------------------
# validation and conversion of a config

def _rejected(section, key):
    """Why section ("manifold", "check.jacobian", ...) does not take key."""
    if section.startswith("check."):
        kind = section[len("check."):]
        return None if key in CHECK_KEYS[kind] else (
            f"[check {kind}] does not take {key!r} (it takes "
            f"{', '.join(CHECK_KEYS[kind])})")
    if section == "fields":
        diffusion = key.startswith("diffusion") and key[len("diffusion"):].isdigit()
        return None if key == "drift" or diffusion else (
            f"field keys are 'drift' or 'diffusionN', got {key!r}")
    return None if f"{section}.{key}" in _VALUES else f"unknown {section} key {key!r}"


def _entries(section, entries, issues):
    """key -> _Value of one section's entries; a key the section does not
    take, or one given twice, is an issue at its line."""
    out = {}
    for key, text, line, col in entries:
        rejected = f"duplicate key {key!r}" if key in out else _rejected(section, key)
        if rejected:
            issues.append(ConfigIssue(rejected, line, path=f"{section}.{key}"))
        else:
            out[key] = _Value(text, line, col, f"{section}.{key}", issues)
    return out


def _current_values(entries, values, issues):
    _resolve(values, "current", ("type",), entries)
    current_type = values["current.type"]
    if current_type is None:
        return
    keys = _CURRENT_KEYS[current_type]
    for key, value in entries.items():
        if key not in ("type", *keys):
            issues.append(ConfigIssue(
                f"a {current_type} current does not take {key!r} (it takes "
                f"{', '.join(keys)})", value.line, path=value.path))
    for key in keys:
        if current_type == "empirical" and key not in entries:
            issues.append(ConfigIssue(f"an empirical current needs {key!r}",
                                      entries["type"].line, path=f"current.{key}"))
    _resolve(values, "current", keys, entries)
    if "atoms" in entries and "weights" in entries:
        n_atoms = entries["atoms"].text.count(";") + 1
        n_weights = entries["weights"].text.count(",") + 1
        if n_weights != n_atoms:
            entries["weights"].fail(f"{n_weights} weights for {n_atoms} atoms")


def _flow_values(plain, values, issues):
    for name in ("manifold", "fields"):
        if name not in plain:
            issues.append(ConfigIssue(f"flow experiment needs a [{name}] section"))
    if "manifold" in plain:
        _resolve(values, "manifold", ("type", "lengths"), plain["manifold"])
    values["manifold.dim"] = len(values.get("manifold.lengths") or ()) or None
    fields = plain.get("fields", {})
    _resolve(values, "fields", ("drift",), fields)
    convert = _VALUES["fields.diffusionN"][0]
    values["fields.diffusions"] = tuple(
        convert(fields[key], values) for _, key in
        sorted((int(key[len("diffusion"):]), key) for key in fields if key != "drift"))
    _current_values(plain.get("current", {}), values, issues)


def _check_spec(kind, header_line, entries, values, issues):
    if values.get("current.type") == "empirical":
        # a sum of atoms has no grid to set, and the n-form checks would
        # test the volume form instead of the atoms (the residual checks
        # decide the atoms)
        if kind in ("strict_nform", "mean_nform"):
            issues.append(ConfigIssue(
                f"[check {kind}] tests a density, but the current is "
                f"empirical (use strict_residual or mean_residual)",
                header_line, path=f"check.{kind}"))
        elif "grid" in entries:
            issues.append(ConfigIssue(
                f"[check {kind}] cannot set 'grid': the current is "
                f"empirical", entries["grid"].line, path=f"check.{kind}.grid"))
    scope = dict(values, kind=kind)
    _resolve(scope, "check", CHECK_KEYS[kind], entries)
    return CheckSpec(kind=kind,
                     params=tuple((k, v.text) for k, v in entries.items()),
                     values=tuple((k, scope[f"check.{k}"]) for k in CHECK_KEYS[kind]))


def parse_config(text: str) -> ExperimentConfig:
    """Parse, validate and convert; raises ConfigError listing all problems."""
    issues = []
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text, object_pairs_hook=_JSONObject)
        except json.JSONDecodeError as e:
            raise ConfigError([ConfigIssue(f"invalid JSON: {e.msg}",
                                           e.lineno, e.colno)])
        sections = _json_to_sections(doc, issues)
    else:
        sections = _parse_sections(text, issues)

    plain = {}
    check_sections = []
    for name, header_line, entries in sections:
        if name.startswith("check"):
            kind = name[len("check"):].strip()
            if kind not in CHECK_KEYS:
                issues.append(ConfigIssue(
                    f"unknown check kind {kind!r} (known: {', '.join(CHECK_KEYS)})",
                    header_line, path=f"check.{kind or '?'}"))
                continue
            check_sections.append(
                (kind, header_line, _entries(f"check.{kind}", entries, issues)))
        elif name not in _SECTIONS:
            issues.append(ConfigIssue(f"unknown section [{name}]", header_line))
        elif name in plain:
            issues.append(ConfigIssue(f"duplicate section [{name}]", header_line))
        else:
            plain[name] = _entries(name, entries, issues)

    has_flow = "fields" in plain or "current" in plain or "manifold" in plain
    has_liealg = "liealg" in plain
    if has_flow and has_liealg:
        issues.append(ConfigIssue(
            "config mixes a flow experiment with a liealg experiment"))
    if not has_flow and not has_liealg:
        issues.append(ConfigIssue(
            "config needs either [manifold]/[fields] or [liealg]"))

    values = {}
    if has_flow:
        _flow_values(plain, values, issues)
    if has_liealg:
        liealg = plain["liealg"]
        if "algebra" not in liealg and "constants" not in liealg:
            issues.append(ConfigIssue(
                "liealg experiment needs 'algebra' or inline 'constants'"))
        if "subalgebra" not in liealg:
            issues.append(ConfigIssue("liealg experiment needs 'subalgebra'"))
        _resolve(values, "liealg", ("algebra", "constants", "subalgebra",
                                    "realization"), liealg)
    checks = tuple(_check_spec(*section, values, issues)
                   for section in check_sections)
    if issues:
        raise ConfigError(issues)
    raw = {name: tuple((k, v.text) for k, v in entries.items())
           for name, entries in plain.items()}
    return ExperimentConfig(**raw, checks=checks, values=tuple(values.items()))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    sections = [(name, getattr(cfg, name)) for name in _SECTIONS]
    sections += [(f"check {chk.kind}", chk.params) for chk in cfg.checks]
    out = []
    for name, data in sections:
        if data is not None:
            out += [f"[{name}]", *(f"{k} = {v}" for k, v in data), ""]
    return "\n".join(out).rstrip() + "\n"
