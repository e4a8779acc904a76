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
accepted as an alternative input. ``jsonformats`` reads them, and the
JSON constants of a [liealg] section, and is imported only to read JSON.

parse_config converts each value once, by its entry in _VALUES, which
also holds its default; the command-line overrides --seed, --dt and
--paths of `check`, --t, --dt, --x0 and --seed of `simulate`
(parse_flags), and the constants file and --subalgebra of `liealg`
(parse_liealg_args) go through the same entries. The raw text is kept
only for serialize_config.
"""

from __future__ import annotations

import math

from . import expr
from .manifold import QUOTIENTS, ChartedManifold, is_compatible_field, step_count

__all__ = [
    "CHECK_KEYS",
    "ConfigIssue",
    "ConfigError",
    "CheckSpec",
    "ExperimentConfig",
    "parse_config",
    "parse_flags",
    "parse_liealg_args",
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


class ConfigIssue:
    """One problem with a config: its message, and where it was written
    (line and column of the text, path of the value). Immutable, and
    equal to any issue of the same message and place, so that an issue
    several checks raise through one override is reported once."""

    def __init__(self, message, line=None, col=None, path=None):
        vars(self).update(message=message, line=line, col=col, path=path)

    def __setattr__(self, name, value=None):
        raise AttributeError("ConfigIssue is immutable")

    __delattr__ = __setattr__

    def _key(self):
        return (self.message, self.line, self.col, self.path)

    def __eq__(self, other):
        return type(other) is ConfigIssue and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


class CheckSpec:
    """One [check ...] section: its kind, ((key, raw text), ...) in
    declaration order, and ((key, typed value), ...) for each key of
    CHECK_KEYS[kind]."""

    def __init__(self, kind, params, values):
        self.kind = kind
        self.params = params
        self.values = values

    def __eq__(self, other):
        return type(other) is CheckSpec and vars(self) == vars(other)

    def value(self, key):
        """The typed value of key, or its default when the check leaves it out."""
        return dict(self.values)[key]


class ExperimentConfig:
    """A parsed config. manifold, fields, current and liealg hold
    ((key, raw text), ...) of their section, or None without one; values
    holds (("section.key", typed value), ...) with the defaults filled
    in, and overrides ((key, typed value), ...) of the command-line
    overrides some check takes."""

    def __init__(self, manifold, fields, current, liealg, checks, values, overrides):
        self.manifold = manifold
        self.fields = fields
        self.current = current
        self.liealg = liealg
        self.checks = checks
        self.values = values
        self.overrides = overrides

    def __eq__(self, other):
        return type(other) is ExperimentConfig and vars(self) == vars(other)

    def value(self, path):
        """The typed value at "section.key", or its default."""
        return dict(self.values)[path]

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
_GRID = ("must be >= 2", lambda n: n >= 2)
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
_grid = _numbers(integer=True, rule=_GRID, one=True)


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
    kind = values["manifold.type"]
    if lengths and kind:
        try:  # the quotient's dimension and lattice rules
            ChartedManifold(len(lengths), lengths, kind)
        except ValueError as e:
            return value.fail(str(e), offset=None)
    return lengths


def _expression(value, text, offset, dim, what):
    """The parsed expression of text, found at offset in value's text,
    or None after reporting why not; what names it in a message."""
    try:
        node = expr.parse(text)
    except expr.ExprParseError as e:
        return value.fail(f"expression error: {e.message}", offset + e.pos)
    used = expr.max_coordinate(node)
    if dim is not None and used > dim:
        return value.fail(f"references x{used} but the manifold has dimension {dim}",
                          offset)
    lowering = expr.Lowering()
    try:  # fold the constants as an evaluation does, so 1/0 fails here
        result = lowering.emit(node, [f"x{i}" for i in range(used)])
    except ArithmeticError as e:
        return value.fail(str(e), offset)
    # the constants an evaluation reads, so exp(1000) fails here too; an
    # intermediate inf that folds away, as in 1/exp(1000), is no issue.
    # Sorted, so the issue reported does not depend on the hash seed.
    for name in sorted({result}.union(*(args for _, *args in lowering.code))):
        folded = lowering.constant_value(name)
        if folded is not None and not math.isfinite(folded):
            part = what if name == result else f"a constant part of {what}"
            return value.fail(f"{part} is {float(folded)}", offset)
    return node


def _field(value, values):
    """One expression per coordinate (the grammar has no commas)."""
    dim = values.get("manifold.dim")
    parts = value.text.split(",")
    key = value.path.split(".")[1]
    if dim is not None and len(parts) != dim:
        value.fail(f"{key} has {len(parts)} components, "
                   f"manifold has dimension {dim}", offset=None)
    name = key.replace("diffusion", "diffusion ")  # as the system names it
    components, offset = [], 0
    for k, part in enumerate(parts, start=1):
        lead = len(part) - len(part.lstrip())
        components.append(_expression(value, part.strip(), offset + lead, dim,
                                      f"{name} component {k}"))
        offset += len(part) + 1
    return None if value.failed else tuple(components)


def _density(value, values):
    """The density's expression, which must descend to the quotient."""
    node = _expression(value, value.text, 0, values.get("manifold.dim"),
                       "the density")
    lengths, kind = values.get("manifold.lengths"), values.get("manifold.type")
    if node is None or not (lengths and kind):
        return node
    try:
        descends = is_compatible_field(ChartedManifold(len(lengths), lengths, kind),
                                       node)
    except ValueError:  # not finite at a sample point: the current's build reports it
        return node
    return node if descends else value.fail(
        "the density does not descend to the quotient: it differs at points "
        "that the identification glues", offset=None)


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


def _constants(value, values, source=None):
    """The algebra of the inline JSON constants, or of source, an open
    constants file; None after reporting why it cannot be read."""
    from .jsonformats import load_structure_constants  # only to read constants

    try:
        return load_structure_constants(source or value.text)
    except ValueError as e:  # a JSON syntax error included
        return value.fail(str(e))


def _algebra(value, values):
    """An algebra of liealg.ALGEBRAS by name, built alone, or read from
    file:PATH."""
    name = value.text
    if name.startswith("file:"):
        try:
            with open(name[len("file:"):], encoding="utf-8") as fh:
                return _constants(value, values, fh)
        except OSError as e:
            return value.fail(f"cannot read the constants file: {e}")
    from .liealg import ALGEBRAS  # loaded only for a liealg experiment

    name = _choice("algebra", *sorted(ALGEBRAS))(value, values)
    return name and ALGEBRAS[name]()


def _realization(value, values):  # a label of liealg.REALIZATIONS
    from .liealg import REALIZATIONS  # loaded only for a liealg experiment

    return _choice("realization", *REALIZATIONS)(value, values)


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
    "manifold.type": (_choice("manifold type", *QUOTIENTS), next(iter(QUOTIENTS))),
    "manifold.lengths": (_lengths, lambda v: v["manifold.type"] and (1.0,) * (
        QUOTIENTS[v["manifold.type"]][0] or 1)),
    "fields.drift": (_field, lambda v: v["manifold.dim"] and (
        expr.constant(0.0),) * v["manifold.dim"]),
    "fields.diffusionN": (_field, None),  # in index order as "fields.diffusions"
    "current.type": (_choice("current type", *_CURRENT_KEYS), "density"),
    "current.density": (_density, expr.constant(1.0)),
    "current.grid": (_grid, _default_grid),
    "current.normalize": (_flag, False),
    "current.atoms": (_atoms, None),
    "current.weights": (_numbers(), None),
    "liealg.algebra": (_algebra, None),
    "liealg.constants": (_constants, None),
    "liealg.subalgebra": (_indices, None),
    "liealg.realization": (_realization, None),
    "check.tolerance": (_positive, None),  # None: invariance.DEFAULT_TOLERANCES
    "check.grid": (_grid, _check_grid),
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


def _overrides(overrides, issues):
    """key -> (_Value, typed value) of each override given, converted by
    the entry of its check key."""
    out = {}
    for key, text in overrides.items():
        if text is not None:
            value = _Value(str(text), None, None, f"--{key}", issues)
            typed = _VALUES[f"check.{key}"][0](value, {})
            if not value.failed:
                out[key] = (value, typed)
    return out


def _check_rules(scope, given):
    """Reports each check value in scope that breaks a rule of its check
    at the _Value in given that set it (a default keeps every rule)."""
    x0, paths, t, dt = (scope.get(f"check.{key}") for key in ("x0", "paths", "t", "dt"))
    dim = scope.get("manifold.dim")
    if x0 and dim not in (None, len(x0)):
        given["x0"].fail(f"x0 has {len(x0)} coordinates, manifold has dimension {dim}")
    if scope.get("kind") in ("empirical_mean", "foliation") and paths is not None \
            and paths < 2:
        given["paths"].fail("must be >= 2: the mean check estimates a standard error")
    if t is not None and dt is not None:
        try:
            step_count(t, dt)
        except ValueError as e:
            (given.get("dt") or given["t"]).fail(str(e), offset=None)


def _check_spec(kind, header_line, entries, values, overrides, used, issues):
    """The CheckSpec of one section; adds to used each override it takes."""
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
    given = dict(entries)  # where each value that is not a default came from
    for key, (value, typed) in overrides.items():
        if key in CHECK_KEYS[kind]:
            scope[f"check.{key}"], given[key] = typed, value
            used.add(key)
    _check_rules(scope, given)
    return CheckSpec(kind=kind,
                     params=tuple((k, v.text) for k, v in entries.items()),
                     values=tuple((k, scope[f"check.{k}"]) for k in CHECK_KEYS[kind]))


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """Parse, validate and convert; raises ConfigError listing all problems.

    overrides maps "seed", "dt" and "paths" to command-line text, or to
    None when not given. Each is converted as its check key is, and sets
    that key in every check whose kind takes it; a foliation check
    without a realization flows nothing and takes none.
    """
    issues = []
    overrides = _overrides(overrides or {}, issues)
    if text.lstrip().startswith("{"):
        from .jsonformats import config_pairs, config_sections  # JSON text only

        sections = []
        for name, body in config_pairs(text, issues):
            if name == "checks" or name in _SECTIONS:
                sections += config_sections(name, body, issues)
            else:
                issues.append(ConfigIssue(f"unknown section [{name}]"))
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
        algebra = [key for key in liealg if key in ("algebra", "constants")]
        if not algebra:
            issues.append(ConfigIssue(
                "liealg experiment needs 'algebra' or inline 'constants'"))
        elif len(algebra) == 2:
            second = liealg[algebra[1]]
            issues.append(ConfigIssue("give 'algebra' or 'constants', not both",
                                      second.line, path=second.path))
        if "subalgebra" not in liealg:
            issues.append(ConfigIssue("liealg experiment needs 'subalgebra'"))
        _resolve(values, "liealg", ("algebra", "constants", "subalgebra",
                                    "realization"), liealg)
    checks, used = [], set()
    for kind, header_line, entries in check_sections:
        # with one experiment kind, foliation runs on liealg, the rest on a flow
        if has_flow != has_liealg and (kind == "foliation") != has_liealg:
            experiment = "[liealg]" if has_liealg else "[manifold]/[fields]"
            issues.append(ConfigIssue(
                f"[check {kind}] does not run on a {experiment} experiment",
                header_line, path=f"check.{kind}"))
        elif kind == "foliation" and "realization" not in plain.get("liealg", {}):
            # the trace criterion alone flows nothing: it records its
            # seed, and takes no other key and no override
            for key in [k for k in entries if k != "seed"]:
                value = entries.pop(key)
                issues.append(ConfigIssue(
                    f"[check foliation] without a realization runs no flow and "
                    f"does not take {key!r} (it takes seed)", value.line,
                    path=value.path))
            checks.append(_check_spec(kind, header_line, entries, values, {},
                                      used, issues))
        else:
            checks.append(_check_spec(kind, header_line, entries, values,
                                      overrides, used, issues))
    if issues:
        raise ConfigError(dict.fromkeys(issues))  # an override's issue once
    raw = {name: tuple((k, v.text) for k, v in plain[name].items())
           if name in plain else None for name in _SECTIONS}
    return ExperimentConfig(**raw, checks=tuple(checks), values=tuple(values.items()),
                            overrides=tuple((key, overrides[key][1])
                                            for key in sorted(used)))


def parse_flags(flags, manifold) -> dict:
    """key -> typed value of command-line flags named after check keys
    ("t", "dt", "x0", "seed"), checked against manifold as a check's
    values are.

    flags maps each key to its text, or to None when not given. Each is
    converted by its check key's entry, with its issues at path --key;
    one not given takes that key's default (x0: the centre of the box).
    Raises ConfigError listing every issue.
    """
    issues = []
    scope = {"manifold.dim": manifold.dim, "manifold.lengths": manifold.box_lengths}
    _resolve(scope, "check", flags, {})
    given = {}
    for key, (value, typed) in _overrides(flags, issues).items():
        scope[f"check.{key}"], given[key] = typed, value
    _check_rules(scope, given)
    if issues:
        raise ConfigError(issues)
    return {key: scope[f"check.{key}"] for key in flags}


def parse_liealg_args(constants, subalgebra):
    """(algebra, 0-based indices) of the `liealg` command's constants file
    and --subalgebra, converted as [liealg] algebra = file:PATH and
    subalgebra are, each issue at its input's name; raises ConfigError."""
    issues = []
    algebra = _algebra(_Value(f"file:{constants}", None, None, constants, issues), {})
    indices = _indices(_Value(subalgebra, None, None, "--subalgebra", issues), {})
    if issues:
        raise ConfigError(issues)
    return algebra, indices


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    sections = [(name, getattr(cfg, name)) for name in _SECTIONS]
    sections += [(f"check {chk.kind}", chk.params) for chk in cfg.checks]
    out = []
    for name, data in sections:
        if data is not None:
            out += [f"[{name}]", *(f"{k} = {v}" for k, v in data), ""]
    return "\n".join(out).rstrip() + "\n"
