"""The two JSON input formats: a config written as JSON, and a file of
structure constants.

``config`` imports this module only where it reads JSON: a config text
that starts with '{', and the constants of a [liealg] section, inline
or named by ``algebra = file:PATH`` (the constants file of the
``liealg`` command too). A text config that names a built-in algebra
loads neither this module nor ``json``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import ConfigError, ConfigIssue

__all__ = ["config_pairs", "config_sections", "load_structure_constants"]


# ---------------------------------------------------------------------------
# configs

class _JSONObject(dict):
    """A JSON object that keeps its pairs, so a key given twice shows."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def config_pairs(text: str, issues: list) -> list:
    """The (name, body) pairs of a JSON config, in document order, each
    key given twice kept; raises ConfigError when text is not JSON, and
    reports a document that is not an object, which has none."""
    try:
        doc = json.loads(text, object_pairs_hook=_JSONObject)
    except json.JSONDecodeError as e:
        raise ConfigError([ConfigIssue(f"invalid JSON: {e.msg}", e.lineno, e.colno)])
    if not isinstance(doc, dict):
        issues.append(ConfigIssue("JSON config must be an object"))
        return []
    return doc.pairs


def _text(v) -> str:
    """A JSON value as the text of a config value."""
    if isinstance(v, list) and any(isinstance(item, list) for item in v):
        # rows, as atoms [[0.1, 0.2], [0.3, 0.4]]: "0.1 0.2; 0.3 0.4"
        return "; ".join(" ".join(map(_text, row)) if isinstance(row, list)
                         else _text(row) for row in v)
    if isinstance(v, list):
        return ", ".join(_text(item) for item in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


def config_sections(name: str, body, issues: list) -> list:
    """The sections (name, None, [(key, text, None, None)]) of one pair
    of a JSON config: a section of each check object in the list
    "checks", whose "kind" names it, or else the section of the object
    body; none after reporting a body of another shape. Whether name
    names a section is the caller's to decide."""
    if name != "checks":
        if not isinstance(body, dict):
            issues.append(ConfigIssue("section must be an object", path=name))
            return []
        return [(name, None, [(k, _text(v), None, None) for k, v in body.pairs])]
    if not isinstance(body, list):
        issues.append(ConfigIssue("must be a list of check objects", path=name))
        return []
    sections = []
    for i, chk in enumerate(body):
        if not isinstance(chk, dict) or "kind" not in chk:
            issues.append(ConfigIssue("check must be an object with a 'kind'",
                                      path=f"checks[{i}]"))
            continue
        sections.append((f"check {chk['kind']}", None, [
            (k, _text(v), None, None) for k, v in chk.pairs if k != "kind"]))
    return sections


# ---------------------------------------------------------------------------
# structure constants

def _integer(value, what: str) -> int:
    """value as an int, or ValueError naming what: JSON gives an index as
    an integer or an integral float, never as null, a bool or a string."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _coefficients(coeffs, n: int, where: str) -> np.ndarray:
    """coeffs as an array of n floats, or ValueError naming where."""
    try:
        numeric = isinstance(coeffs, list) and all(
            not isinstance(v, bool) and math.isfinite(v) for v in coeffs)
    except (TypeError, OverflowError):  # not a number, or too large a float
        numeric = False
    if not numeric:
        raise ValueError(f"{where}: 'coeffs' must be a list of finite "
                         f"numbers, not {coeffs!r}")
    if len(coeffs) != n:
        raise ValueError(f"{where} needs {n} coefficients")
    return np.array(coeffs, dtype=float)


def load_structure_constants(source):
    """The ``liealg.LieAlgebraData`` of the JSON wire format for
    structure constants, read from a string, an open file or the
    decoded document:

    {"dim": n, "brackets": [{"i": 1, "j": 2, "coeffs": [...n reals...]}, ...]}

    Indices are 1-based; unspecified brackets default to zero and the
    antisymmetric completion is applied automatically. A malformed value
    raises ValueError naming the entry.
    """
    from .liealg import LieAlgebraData  # loaded for the algebra it builds

    if isinstance(source, (str, bytes)):
        data = json.loads(source)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = source
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError("structure-constant file must be an object with 'dim'")
    n = _integer(data["dim"], "dim")
    if n < 1:
        raise ValueError("dim must be positive")
    if n > 32:  # the Jacobi check's n^4 arrays: about 60 MB at n = 32
        raise ValueError(f"dim must be at most 32, not {n}")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise ValueError(f"'brackets' must be a list, not {brackets!r}")
    c = np.zeros((n, n, n))
    seen = {}
    for number, entry in enumerate(brackets, 1):
        where = f"bracket entry {number}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object with 'i', 'j' and "
                             f"'coeffs', not {entry!r}")
        for key in ("i", "j", "coeffs"):
            if key not in entry:
                raise ValueError(f"{where} has no {key!r}")
        i = _integer(entry["i"], f"{where}: 'i'") - 1
        j = _integer(entry["j"], f"{where}: 'j'") - 1
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bracket index out of range: ({i + 1}, {j + 1})")
        coeffs = _coefficients(entry["coeffs"], n, f"bracket ({i + 1}, {j + 1})")
        if i == j:
            if np.any(coeffs != 0):
                raise ValueError(f"bracket ({i + 1}, {i + 1}) must vanish")
            continue
        for key, value in ((i, j), coeffs), ((j, i), -coeffs):
            if key in seen and not np.array_equal(seen[key], value):
                raise ValueError(f"conflicting entries for bracket {key}")
            seen[key] = value
        c[i, j, :] = coeffs
        c[j, i, :] = -coeffs
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError(f"'labels' must be a list, not {labels!r}")
    return LieAlgebraData(n=n, c=c, basis_labels=tuple(labels) if labels else None)
