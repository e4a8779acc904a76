"""Configuration-driven experiment runner and command line interface.

Commands:
    check <config> [--out DIR] [--seed S] [--dt D] [--paths N]
    liealg <constants.json> --subalgebra i,j,...
    simulate <config> --trajectory out.csv [--t T] [--dt D] [--seed S]
    presets list | show NAME

Exit codes: 0 when every verdict is true, 2 when any check fails,
1 on usage, configuration or execution errors. The commands raise their
errors, and main alone catches them: each issue of a ConfigError, or an
ArithmeticError, OSError or ValueError, is one `error:` line on stderr.
A process that ends when its command returns runs console, not main.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys as _sys
import time
from pathlib import Path

from .config import (
    CheckSpec,
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_flags,
    parse_liealg_args,
    serialize_config,
)
from .manifold import ChartedManifold, VectorFieldSpec, make_test_basis
from .presets import preset_names, preset_text
from .sde import (
    FlowResult,
    StratonovichSystem,
    flow_paths,
    step_count,
    write_trajectory_csv,
)

# The invariance, liealg and currents layers, and the modules that write
# the report, are imported inside the functions that use them, so that a
# command loads only what it runs: `simulate` loads neither the checks'
# layers nor the report writer, the set-up of a liealg preset loads
# liealg alone, and `check` on a flow preset does not load liealg.

__all__ = ["console", "main", "run", "build_experiment", "build_current"]


# ---------------------------------------------------------------------------
# building runtime objects out of a validated config

class Experiment:
    """Runtime objects for one config: either a flow or a liealg setup."""

    def __init__(self, config):
        self.config = config
        self.system = None
        self.subalgebra = None
        self.realization = None


def build_experiment(config: ExperimentConfig) -> Experiment:
    """The system of a flow config, or the subalgebra and realization of
    a liealg config; run builds the [current] (build_current) only when
    a check reads it."""
    exp = Experiment(config)
    value = config.value
    if config.is_liealg:
        from .liealg import REALIZATIONS, Subalgebra

        algebra = value("liealg.constants") or value("liealg.algebra")
        exp.subalgebra = Subalgebra(algebra, value("liealg.subalgebra"))
        realization = value("liealg.realization")
        if realization is not None:
            exp.realization = REALIZATIONS[realization](algebra.n)
        return exp
    dim = value("manifold.dim")
    manifold = ChartedManifold(dim=dim, box_lengths=value("manifold.lengths"),
                               identification=value("manifold.type"))
    drift, *diffusions = [VectorFieldSpec(dim=dim, components=components)
                          for components in (value("fields.drift"),
                                             *value("fields.diffusions"))]
    exp.system = StratonovichSystem(manifold=manifold, drift=drift,
                                    diffusions=tuple(diffusions))
    return exp


def build_current(exp: Experiment) -> Current:
    """The [current] of a flow experiment, on its own grid."""
    from .currents import DensityCurrent, EmpiricalCurrent

    value, manifold = exp.config.value, exp.system.manifold
    if value("current.type") == "empirical":
        return EmpiricalCurrent(manifold=manifold, atoms=value("current.atoms"),
                                atom_weights=value("current.weights"))
    return DensityCurrent(manifold=manifold, density=value("current.density"),
                          grid_n=value("current.grid"),
                          normalize=value("current.normalize"))


# ---------------------------------------------------------------------------
# check dispatch

def _run_check(exp: Experiment, currents: dict, chk: CheckSpec,
               runs: dict) -> InvarianceReport:
    """Run one check, reading the values of the keys config.CHECK_KEYS
    lists for its kind; parse_config has matched the kind to the
    experiment and applied the overrides. currents holds the current of
    each grid built so far, the [current] (build_current) under None as
    well; runs the EmpiricalRun of each (current, basis_k, t, dt, seed)."""
    from .currents import DensityCurrent
    from .invariance import (
        EmpiricalRun,
        check_mean_nform,
        check_strict_nform,
        empirical_check,
        foliation_pipeline,
        jacobian_check,
        residual_check,
    )

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


# ---------------------------------------------------------------------------
# reports

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


def _write_csvs(reports, outdir: Path):
    import csv

    for i, rep in enumerate(reports, start=1):
        path = outdir / f"check_{i:02d}_{rep.kind}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for row in _csv_rows(rep):
                writer.writerow(row)


def _sha256_hex(data: bytes) -> str:
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


def run(config: ExperimentConfig, outdir) -> int:
    """Execute every check; write report.json and per-check CSVs.

    report.json holds the hashed ``payload``, its ``payload_sha256``, and
    outside the hash ``generated_at`` and ``diagnostics``: per check, in
    the order of payload["checks"], its kind and wall time ``wall_s``.
    Returns 0 when all verdicts hold and 2 when any fails; an error
    propagates to the caller, and so does a ValueError for a config with
    no checks. The output directory is made only after every check has
    run, so a failed check leaves none.
    """
    import json
    from datetime import datetime, timezone

    if not config.checks:  # all() of no verdicts would read as a pass
        raise ValueError("config has no [check KIND] section, so nothing to check")
    outdir = Path(outdir)
    exp = build_experiment(config)
    # built once, before any check runs, so a bad density fails first
    reads_current = {c.kind for c in config.checks} - {"foliation", "jacobian"}
    current = build_current(exp) if reads_current else None
    currents = {None: current, current.grid_n: current} if current else {}
    reports, timings, runs = [], [], {}
    for chk in config.checks:
        start = time.perf_counter()
        reports.append(_run_check(exp, currents, chk, runs))
        timings.append({"kind": reports[-1].kind,
                        "wall_s": time.perf_counter() - start})
    payload = {
        "config": serialize_config(config),
        "overrides": dict(config.overrides),
        "checks": [r.payload() for r in reports],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    document = {
        "payload": payload,
        "payload_sha256": _sha256_hex(blob.encode()),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        # outside the payload, so the hash stays deterministic
        "diagnostics": {"checks": timings},
    }
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csvs(reports, outdir)
    for rep in reports:
        status = "pass" if rep.all_verdicts() else "FAIL"
        print(f"[{status}] {rep.kind}: residual={rep.residual:.6g} "
              f"tolerance={rep.tolerance:.6g}")
    return 0 if all(r.all_verdicts() for r in reports) else 2


# ---------------------------------------------------------------------------
# commands

def _load_config_text(path_or_name: str) -> str:
    path = Path(path_or_name)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    if path_or_name in preset_names():
        return preset_text(path_or_name)
    raise FileNotFoundError(f"no config file or preset named {path_or_name!r}")


def _cmd_check(args) -> int:
    overrides = {"seed": args.seed, "dt": args.dt, "paths": args.paths}
    return run(parse_config(_load_config_text(args.config), overrides), args.out)


def _cmd_liealg(args) -> int:
    from . import liealg

    g, indices = parse_liealg_args(args.constants, args.subalgebra)
    h = liealg.Subalgebra(g, indices)
    ok, offending = liealg.invariance_verdict(h)
    print(f"dimension: {g.n}")
    print(f"subalgebra: {', '.join(g.label(i) for i in h.indices)}")
    print(f"nilpotent: {liealg.is_nilpotent(g)}")
    print(f"semisimple: {liealg.is_semisimple(g)}")
    for i in h.indices:
        print(f"trace ad({g.label(i)}) on h: {liealg.tr_ad_restricted(h, i):g}")
    drift = liealg.foliated_drift(h)
    print("foliated drift: "
          + ", ".join(f"{g.label(k)}: {d:g}" for k, d in zip(h.indices, drift)))
    print(f"totally invariant: {ok}")
    for i, tr in offending:
        print(f"offending: {g.label(i)} trace {tr:g}")
    return 0 if ok else 2


def _cmd_simulate(args) -> int:
    exp = build_experiment(parse_config(_load_config_text(args.config)))
    system = exp.system
    if system is None and exp.realization is None:
        raise ValueError("config has no simulatable system "
                         "(liealg experiment without a realization)")
    if system is None:
        from .liealg import foliated_system

        system = foliated_system(exp.subalgebra, exp.realization)
    flags = parse_flags({"t": args.t, "dt": args.dt, "x0": args.x0,
                         "seed": args.seed}, system.manifold)
    steps = step_count(flags["t"], flags["dt"])
    states, log_j = flow_paths(system, "trajectory", flags["x0"], flags["dt"],
                               steps, flags["seed"],
                               range(args.path_index, args.path_index + 1))
    with open(args.trajectory, "w", newline="", encoding="utf-8") as fh:
        write_trajectory_csv(FlowResult(flags["dt"], states[:, 0], log_j[:, 0]),
                             fh)
    print(f"wrote {args.trajectory} ({steps + 1} rows)")
    return 0


def _cmd_presets(args) -> int:
    if args.action == "list":
        print(*preset_names(), sep="\n")
    else:
        print(preset_text(args.name), end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochflow",
        description="Stochastic flows on compact manifolds and "
                    "invariance checks for 0-currents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the checks of a config or preset")
    p_check.add_argument("config", help="config file path or preset name")
    p_check.add_argument("--out", default="out", help="output directory")
    p_check.add_argument("--seed")  # converted by parse_config, as in a config
    p_check.add_argument("--dt")
    p_check.add_argument("--paths")
    p_check.set_defaults(func=_cmd_check)

    p_lie = sub.add_parser("liealg", help="trace criterion for a constants file")
    p_lie.add_argument("constants", help="structure-constant JSON file")
    p_lie.add_argument("--subalgebra", required=True,
                       help="1-based indices, e.g. 1,2")
    p_lie.set_defaults(func=_cmd_liealg)

    p_sim = sub.add_parser("simulate", help="integrate one path and export CSV")
    p_sim.add_argument("config", help="config file path or preset name")
    p_sim.add_argument("--trajectory", required=True, help="output CSV path")
    p_sim.add_argument("--t")  # converted by parse_flags, as a check's t
    p_sim.add_argument("--dt")
    p_sim.add_argument("--seed")
    p_sim.add_argument("--path-index", type=int, default=0)
    p_sim.add_argument("--x0", default=None, help="comma-separated start point")
    p_sim.set_defaults(func=_cmd_simulate)

    p_pre = sub.add_parser("presets", help="list or show shipped presets")
    pre_sub = p_pre.add_subparsers(dest="action", required=True)
    p_list = pre_sub.add_parser("list")
    p_list.set_defaults(func=_cmd_presets)
    p_show = pre_sub.add_parser("show")
    p_show.add_argument("name")
    p_show.set_defaults(func=_cmd_presets)

    # the one error boundary: bad input is one error line per issue, exit 1
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 on --help
        return 1 if e.code else 0
    except ConfigError as e:
        errors = e.issues
    except (ArithmeticError, OSError, ValueError) as e:
        errors = [e]
    for error in errors:
        print(f"error: {error}", file=_sys.stderr)
    return 1


def console() -> int:
    """main on the command line, for a process that ends when it returns.

    gc.freeze() moves the heap out of the collector's reach, so the
    interpreter's last collections at exit do not walk the numpy and
    stochflow objects that the OS reclaims anyway. stdio is still
    flushed and atexit handlers still run; only cyclic garbage goes
    unfreed. main leaves the collector alone, so an in-process caller
    keeps a collectable heap.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(console())
