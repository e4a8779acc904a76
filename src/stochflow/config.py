"""Experiment configuration: parsing, validation and canonical form.

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
'#' starts a comment; values keep their raw text so a parse/serialize
round trip is the identity. JSON documents with the same section names
are accepted as an alternative input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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

# The keys each current type reads; parse_config rejects the other
# type's keys rather than drop them.
_CURRENT_KEYS = {
    "density": ("density", "grid", "normalize"),
    "empirical": ("atoms", "weights"),
}

_SECTION_KEYS = {
    "manifold": {"type", "lengths"},
    "fields": None,  # drift plus diffusionN, validated separately
    "current": {"type"}.union(*_CURRENT_KEYS.values()),
    "liealg": {"algebra", "constants", "subalgebra", "realization"},
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
    params: tuple  # ((key, raw-value-string), ...) in declaration order

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class ExperimentConfig:
    manifold: Optional[tuple] = None
    fields: Optional[tuple] = None
    current: Optional[tuple] = None
    liealg: Optional[tuple] = None
    checks: tuple = ()

    def section(self, name):
        data = getattr(self, name)
        return dict(data) if data is not None else None

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


def _json_to_sections(doc, issues):
    sections = []
    if not isinstance(doc, dict):
        issues.append(ConfigIssue("JSON config must be an object"))
        return sections

    def norm(v):
        if isinstance(v, list):
            return ", ".join(norm(item) for item in v)
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, dict):
            return json.dumps(v, sort_keys=True)
        return str(v)

    for name in ("manifold", "fields", "current", "liealg"):
        if name in doc:
            body = doc[name]
            if not isinstance(body, dict):
                issues.append(ConfigIssue("section must be an object", path=name))
                continue
            sections.append((name, None,
                             [(k, norm(v), None, None) for k, v in body.items()]))
    for i, chk in enumerate(doc.get("checks", [])):
        if not isinstance(chk, dict) or "kind" not in chk:
            issues.append(ConfigIssue("check needs a 'kind'", path=f"checks[{i}]"))
            continue
        entries = [(k, norm(v), None, None) for k, v in chk.items() if k != "kind"]
        sections.append((f"check {chk['kind']}", None, entries))
    return sections


# ---------------------------------------------------------------------------
# validation

def _expressions_of(value):
    """Split a value on top-level commas (the grammar has no commas)."""
    return [part.strip() for part in value.split(",")]


def _check_expression(value, dim, issues, line, col, path):
    offset = 0
    for part in value.split(","):
        text = part.strip()
        lead = len(part) - len(part.lstrip())
        try:
            node = expr.parse(text)
        except expr.ExprParseError as e:
            issues.append(ConfigIssue(
                f"expression error: {e.message}", line,
                None if col is None else col + offset + lead + e.pos, path))
        else:
            used = expr.max_coordinate(node)
            if dim is not None and used > dim:
                issues.append(ConfigIssue(
                    f"references x{used} but the manifold has dimension {dim}",
                    line, col if col is None else col + offset + lead, path))
        offset += len(part) + 1


def _validate_number(value, issues, line, col, path, integer=False, positive=False):
    try:
        v = int(value) if integer else float(value)
    except ValueError:
        issues.append(ConfigIssue(
            f"expected {'an integer' if integer else 'a number'}, got {value!r}",
            line, col, path))
        return None
    if positive and v <= 0:
        issues.append(ConfigIssue("must be positive", line, col, path))
        return None
    return v


def _manifold_dim(manifold_entries):
    data = dict((k, v) for k, v, *_ in manifold_entries)
    mtype = data.get("type", "torus")
    if mtype == "heisenberg":
        return 3
    lengths = data.get("lengths")
    if lengths is None:
        return None
    return len(_expressions_of(lengths))


def _reject_grid_checks(check_sections, issues):
    """An empirical current is a sum of atoms: it has no grid to set, and
    the n-form checks would test the volume form instead of the atoms
    (the residual checks decide the atoms)."""
    for kind, header_line, entries in check_sections:
        if kind in ("strict_nform", "mean_nform"):
            issues.append(ConfigIssue(
                f"[check {kind}] tests a density, but the current is "
                f"empirical (use strict_residual or mean_residual)",
                header_line, path=f"check.{kind}"))
            continue
        for key, _, line, _ in entries:
            if key == "grid":
                issues.append(ConfigIssue(
                    f"[check {kind}] cannot set 'grid': the current is "
                    f"empirical", line, path=f"check.{kind}.grid"))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing all problems."""
    issues = []
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            sections = _json_to_sections(json.loads(text), issues)
        except json.JSONDecodeError as e:
            raise ConfigError([ConfigIssue(f"invalid JSON: {e.msg}",
                                           e.lineno, e.colno)])
    else:
        sections = _parse_sections(text, issues)

    plain = {}
    checks = []
    check_sections = []
    for name, header_line, entries in sections:
        if name.startswith("check"):
            kind = name[len("check"):].strip()
            if kind not in CHECK_KEYS:
                issues.append(ConfigIssue(
                    f"unknown check kind {kind!r} (known: {', '.join(CHECK_KEYS)})",
                    header_line, path=f"check.{kind or '?'}"))
                continue
            for key, value, line, col in entries:
                path = f"check.{kind}.{key}"
                if key not in CHECK_KEYS[kind]:
                    issues.append(ConfigIssue(
                        f"[check {kind}] does not take {key!r} (it takes "
                        f"{', '.join(CHECK_KEYS[kind])})", line, path=path))
                elif key in ("tolerance", "t", "dt", "bias_c"):
                    _validate_number(value, issues, line, col, path,
                                     positive=key != "bias_c")
                elif key == "x0":
                    for part in _expressions_of(value):
                        _validate_number(part, issues, line, col, path)
                else:
                    _validate_number(value, issues, line, col, path, integer=True,
                                     positive=key != "seed")
            checks.append(CheckSpec(
                kind=kind, params=tuple((k, v) for k, v, *_ in entries)))
            check_sections.append((kind, header_line, entries))
        elif name in _SECTION_KEYS:
            if name in plain:
                issues.append(ConfigIssue(f"duplicate section [{name}]", header_line))
                continue
            plain[name] = entries
        else:
            issues.append(ConfigIssue(f"unknown section [{name}]", header_line))

    has_flow = "fields" in plain or "current" in plain or "manifold" in plain
    has_liealg = "liealg" in plain
    if has_flow and has_liealg:
        issues.append(ConfigIssue(
            "config mixes a flow experiment with a liealg experiment"))
    if not has_flow and not has_liealg:
        issues.append(ConfigIssue(
            "config needs either [manifold]/[fields] or [liealg]"))

    dim = None
    if "manifold" in plain:
        dim = _manifold_dim(plain["manifold"])
        data = {k: (v, line, col) for k, v, line, col in plain["manifold"]}
        for key, (v, line, col) in data.items():
            if key not in _SECTION_KEYS["manifold"]:
                issues.append(ConfigIssue(f"unknown manifold key {key!r}", line,
                                          path=f"manifold.{key}"))
        mtype = data.get("type", ("torus", None, None))[0]
        if mtype not in ("torus", "heisenberg"):
            line = data.get("type", (None, None, None))[1]
            issues.append(ConfigIssue(f"unknown manifold type {mtype!r}", line,
                                      path="manifold.type"))
        if "lengths" in data:
            v, line, col = data["lengths"]
            for part in _expressions_of(v):
                _validate_number(part, issues, line, col, "manifold.lengths",
                                 positive=True)
    elif has_flow:
        issues.append(ConfigIssue("flow experiment needs a [manifold] section"))

    if "fields" in plain:
        seen_drift = False
        for key, value, line, col in plain["fields"]:
            if key == "drift":
                seen_drift = True
            elif not (key.startswith("diffusion") and key[len("diffusion"):].isdigit()):
                issues.append(ConfigIssue(
                    f"field keys are 'drift' or 'diffusionN', got {key!r}", line,
                    path=f"fields.{key}"))
                continue
            if dim is not None and len(_expressions_of(value)) != dim:
                issues.append(ConfigIssue(
                    f"{key} has {len(_expressions_of(value))} components, "
                    f"manifold has dimension {dim}", line, path=f"fields.{key}"))
            _check_expression(value, dim, issues, line, col, f"fields.{key}")
    elif has_flow:
        issues.append(ConfigIssue("flow experiment needs a [fields] section"))

    if "current" in plain:
        data = {k: (v, line) for k, v, line, _ in plain["current"]}
        current_type, type_line = data.get("type", ("density", None))
        if current_type not in _CURRENT_KEYS:
            issues.append(ConfigIssue(
                f"unknown current type {current_type!r} (known: "
                f"{', '.join(_CURRENT_KEYS)})", type_line, path="current.type"))
        for key, value, line, col in plain["current"]:
            if key not in _SECTION_KEYS["current"]:
                issues.append(ConfigIssue(f"unknown current key {key!r}", line,
                                          path=f"current.{key}"))
            elif (key != "type" and current_type in _CURRENT_KEYS
                  and key not in _CURRENT_KEYS[current_type]):
                issues.append(ConfigIssue(
                    f"a {current_type} current does not take {key!r} (it takes "
                    f"{', '.join(_CURRENT_KEYS[current_type])})", line,
                    path=f"current.{key}"))
            elif key == "density":
                _check_expression(value, dim, issues, line, col, "current.density")
            elif key == "grid":
                _validate_number(value, issues, line, col, "current.grid",
                                 integer=True, positive=True)
        if current_type == "empirical":
            for key in _CURRENT_KEYS["empirical"]:
                if key not in data:
                    issues.append(ConfigIssue(f"an empirical current needs {key!r}",
                                              type_line, path=f"current.{key}"))
            _reject_grid_checks(check_sections, issues)

    if has_liealg:
        data = {k: (v, line, col) for k, v, line, col in plain["liealg"]}
        for key, (v, line, col) in data.items():
            if key not in _SECTION_KEYS["liealg"]:
                issues.append(ConfigIssue(f"unknown liealg key {key!r}", line,
                                          path=f"liealg.{key}"))
        if "algebra" not in data and "constants" not in data:
            issues.append(ConfigIssue(
                "liealg experiment needs 'algebra' or inline 'constants'"))
        if "subalgebra" not in data:
            issues.append(ConfigIssue("liealg experiment needs 'subalgebra'"))
        else:
            v, line, col = data["subalgebra"]
            for part in _expressions_of(v):
                _validate_number(part, issues, line, col, "liealg.subalgebra",
                                 integer=True, positive=True)
        if "constants" in data:
            v, line, col = data["constants"]
            try:
                json.loads(v)
            except json.JSONDecodeError as e:
                issues.append(ConfigIssue(f"inline constants are not valid JSON: {e.msg}",
                                          line, col, "liealg.constants"))

    if issues:
        raise ConfigError(issues)

    def freeze(name):
        if name not in plain:
            return None
        return tuple((k, v) for k, v, *_ in plain[name])

    return ExperimentConfig(manifold=freeze("manifold"), fields=freeze("fields"),
                            current=freeze("current"), liealg=freeze("liealg"),
                            checks=tuple(checks))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    out = []
    for name in ("manifold", "fields", "current", "liealg"):
        data = getattr(cfg, name)
        if data is None:
            continue
        out.append(f"[{name}]")
        for k, v in data:
            out.append(f"{k} = {v}")
        out.append("")
    for chk in cfg.checks:
        out.append(f"[check {chk.kind}]")
        for k, v in chk.params:
            out.append(f"{k} = {v}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"
