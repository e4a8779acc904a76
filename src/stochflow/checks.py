"""The check runner of ``stochflow check``: each check of a config run by
its kind, and the report's CSV files and payload digest.

Only ``cli.run`` imports this module, so no set-up, and no command but
``check``, compiles the check dispatch or loads the check layers and
the report's CSV and hash modules.
"""

from __future__ import annotations

import csv
import importlib.util
import sys as _sys
from pathlib import Path

from .config import CheckSpec
from .currents import DensityCurrent, make_test_basis
from .invariance import (
    EmpiricalRun,
    InvarianceReport,
    check_mean_nform,
    check_strict_nform,
    empirical_check,
    foliation_pipeline,
    jacobian_check,
    residual_check,
)

__all__ = ["run_check", "write_csvs", "sha256_hex"]


def run_check(exp, currents: dict, chk: CheckSpec, runs: dict) -> InvarianceReport:
    """Run one check of the experiment exp (``cli.build_experiment``),
    reading the values of the keys config.CHECK_KEYS lists for its kind;
    parse_config has matched the kind to the experiment and applied the
    overrides. currents holds the current of each grid built so far, the
    [current] (``cli.build_current``) under None as well; runs the
    EmpiricalRun of each (current, basis_k, t, dt, seed)."""
    kind, value = chk.kind, chk.value
    if kind == "foliation":
        return foliation_pipeline(
            exp.subalgebra, exp.realization, t=value("t"), dt=value("dt"),
            seed=value("seed"), n_paths=value("paths"), grid_n=value("grid"),
            basis_k=value("basis_k"), bias_c=value("bias_c"))
    if kind == "jacobian":
        return jacobian_check(exp.system, value("x0"), value("t"), value("dt"),
                              value("seed"), value("paths"), value("tolerance"))
    grid = value("grid")  # None: the current's own grid
    if grid not in currents:
        T = currents[None]
        currents[grid] = DensityCurrent(T.manifold, T.density, grid, T.normalize)
    T = currents[grid]
    if kind in ("strict_nform", "mean_nform"):
        check = check_strict_nform if kind == "strict_nform" else check_mean_nform
        return check(T, exp.system.fields(), value("tolerance"))
    basis = make_test_basis(T.manifold, value("basis_k"))
    if kind in ("strict_residual", "mean_residual"):
        mode = "strict" if kind == "strict_residual" else "mean"
        return residual_check(T, exp.system, basis, mode, value("tolerance"))
    key = (T, *map(value, ("basis_k", "t", "dt", "seed")))
    if key not in runs:
        runs[key] = EmpiricalRun(T, exp.system, basis, *key[2:])
    if kind == "empirical_pathwise":
        return empirical_check(runs[key], "pathwise", tolerance=value("tolerance"))
    return empirical_check(runs[key], "mean", value("paths"), bias_c=value("bias_c"))


_CSV_COLUMNS = ["check", "basis_index", "field_index", "value", "std_error",
                "tolerance"]


def _csv_rows(report: InvarianceReport):
    prefix = report.kind
    for row in report.per_basis:
        yield (prefix, row.get("basis_index", row.get("path_index", "")),
               row.get("field_index", ""), row.get("value"),
               row.get("std_error", ""), row.get("tolerance", ""))
    if report.kind == "foliation_verdict":
        for item in report.metadata.get("offending", []):
            yield (prefix, item["index"], "", item["trace"], "", "")
    for sub in report.subchecks:
        for row in _csv_rows(sub):
            yield (f"{prefix}/{row[0]}",) + row[1:]


def write_csvs(reports, outdir: Path):
    """check_<i>_<kind>.csv of each report, numbered from 01, in outdir."""
    for i, rep in enumerate(reports, start=1):
        path = outdir / f"check_{i:02d}_{rep.kind}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for row in _csv_rows(rep):
                writer.writerow(row)


def sha256_hex(data: bytes) -> str:
    """The SHA-256 of data, in hex, from CPython's built-in implementation.

    hashlib maps OpenSSL's libcrypto at import (about 3 MB resident), which
    a check that draws no noise would load for this one digest. The
    built-in module is the constructor hashlib itself falls back to, so
    the digest is the same; hashlib serves only a build without it.
    """
    name = "_sha2" if _sys.version_info >= (3, 12) else "_sha256"
    if importlib.util.find_spec(name) is None:
        name = "hashlib"
    return importlib.import_module(name).sha256(data).hexdigest()
