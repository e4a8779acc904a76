"""Configuration-driven experiment runner and command line interface.

Commands:
    check <config> [--out DIR] [--seed S] [--dt D] [--paths N]
    liealg <constants.json> --subalgebra i,j,...
    simulate <config> --trajectory out.csv [--t T] [--dt D] [--seed S]
    presets list | show NAME

Exit codes: 0 when every verdict is true, 2 when any check fails,
1 on configuration or execution errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys as _sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import expr
from .config import CheckSpec, ConfigError, ExperimentConfig, parse_config, serialize_config
from .manifold import ChartedManifold, VectorFieldSpec, make_test_basis, torus
from .presets import preset_names, preset_text
from .sde import (
    StratonovichSystem,
    flow_with_jacobian,
    generate_noise,
    step_count,
    write_trajectory_csv,
)

# The invariance, liealg and currents layers are imported inside the
# functions that use them, so that a command loads only what it runs:
# `simulate` on a flow preset loads neither invariance nor liealg, and
# `check` on a flow preset does not load liealg.

__all__ = ["main", "run", "build_experiment"]

# defaults for check keys that the check functions require; a tolerance
# the config leaves out takes the default of its check function
_DEFAULTS = {
    "t": 1.0,
    "dt": 1e-3,
    "seed": 0,
    "basis_k": 3,
    "paths_mean": 1000,
    "paths_jacobian": 100,
}


# ---------------------------------------------------------------------------
# building runtime objects out of a validated config

class Experiment:
    """Runtime objects for one config: either a flow or a liealg setup."""

    def __init__(self, config):
        self.config = config
        self.manifold = None
        self.fields = None
        self.system = None
        self.current = None
        self.algebra = None
        self.subalgebra = None
        self.realization = None
        self.default_grid = 64

    def current_at(self, grid_n):
        from .currents import DensityCurrent, EmpiricalCurrent

        if isinstance(self.current, EmpiricalCurrent) or grid_n is None:
            return self.current
        if isinstance(self.current, DensityCurrent) and self.current.grid_n == grid_n:
            return self.current
        return DensityCurrent(manifold=self.current.manifold,
                              density=self.current.density, grid_n=grid_n,
                              normalize=self.current.normalize)


def _build_manifold(section):
    mtype = section.get("type", "torus")
    if mtype == "heisenberg":
        lengths = section.get("lengths")
        vals = tuple(float(v) for v in lengths.split(",")) if lengths else (1.0, 1.0, 1.0)
        return ChartedManifold(dim=3, box_lengths=vals, identification="heisenberg")
    lengths = section.get("lengths", "1")
    return torus(*(float(v) for v in lengths.split(",")))


def _build_fields(section, dim):
    drift = VectorFieldSpec.zero(dim)
    diffusions = []
    for key, value in sorted(section.items(),
                             key=lambda kv: (kv[0] != "drift", kv[0])):
        comps = [part.strip() for part in value.split(",")]
        field = VectorFieldSpec.from_strings(comps)
        if key == "drift":
            drift = field
        else:
            diffusions.append((int(key[len("diffusion"):]), field))
    diffusions.sort(key=lambda kv: kv[0])
    return drift, tuple(f for _, f in diffusions)


def _build_current(section, manifold, default_grid):
    from .currents import DensityCurrent, EmpiricalCurrent

    section = section or {}
    if section.get("type", "density") == "empirical":
        atoms = [[float(v) for v in pt.split()]
                 for pt in section["atoms"].split(";")]
        weights = [float(v) for v in section["weights"].split(",")]
        return EmpiricalCurrent(manifold=manifold, atoms=atoms, atom_weights=weights)
    grid_n = int(section.get("grid", default_grid))
    density_text = section.get("density", "1").strip()
    density = None if density_text == "1" else expr.parse(density_text)
    normalize = section.get("normalize", "false").lower() == "true"
    return DensityCurrent(manifold=manifold, density=density, grid_n=grid_n,
                          normalize=normalize)


def _build_algebra(section):
    from . import liealg

    if "constants" in section:
        return liealg.load_structure_constants(section["constants"])
    name = section["algebra"]
    if name.startswith("file:"):
        with open(name[len("file:"):], encoding="utf-8") as fh:
            return liealg.load_structure_constants(fh)
    zoo = liealg.algebra_zoo()
    if name not in zoo:
        raise ConfigError([f"unknown algebra {name!r}; known: {', '.join(sorted(zoo))}"])
    return zoo[name]


def build_experiment(config: ExperimentConfig) -> Experiment:
    exp = Experiment(config)
    if config.is_liealg:
        from . import liealg
        from .invariance import heisenberg_realization, torus_translation_realization

        section = config.section("liealg")
        exp.algebra = _build_algebra(section)
        exp.subalgebra = liealg.parse_subalgebra(section["subalgebra"])
        realization = section.get("realization")
        if realization == "heisenberg":
            exp.realization = heisenberg_realization()
        elif realization == "torus":
            exp.realization = torus_translation_realization(exp.algebra.n)
        elif realization is not None:
            raise ConfigError([f"unknown realization {realization!r}"])
        return exp
    exp.manifold = _build_manifold(config.section("manifold"))
    exp.default_grid = 32 if exp.manifold.dim >= 3 else 64
    drift, diffusions = _build_fields(config.section("fields"), exp.manifold.dim)
    exp.fields = [drift, *diffusions]
    exp.system = StratonovichSystem(manifold=exp.manifold, drift=drift,
                                    diffusions=diffusions)
    exp.current = _build_current(config.section("current"), exp.manifold,
                                 exp.default_grid)
    return exp


# ---------------------------------------------------------------------------
# check dispatch

def _run_check(exp: Experiment, chk: CheckSpec, overrides,
               applied: set) -> InvarianceReport:
    """Run one check, reading the keys config.CHECK_KEYS lists for its kind;
    adds to applied the keys of the overrides it used."""
    from .currents import DensityCurrent
    from .invariance import (
        check_mean_nform,
        check_strict_nform,
        empirical_check,
        foliation_pipeline,
        jacobian_check,
        residual_check,
    )

    kind = chk.kind

    def param(key, default=None, cast=float):
        if overrides.get(key) is not None:
            applied.add(key)
            return overrides[key]
        raw = chk.get(key)
        return default if raw is None else cast(raw)

    def horizon():
        return (param("t", _DEFAULTS["t"]), param("dt", _DEFAULTS["dt"]),
                param("seed", _DEFAULTS["seed"], int))

    def tolerance():
        # passed only when set, so that each check keeps its own default
        raw = chk.get("tolerance")
        return {} if raw is None else {"tolerance": float(raw)}

    if kind == "foliation":
        t, dt, seed = horizon()
        return foliation_pipeline(
            exp.algebra, exp.subalgebra, exp.realization, t=t, dt=dt,
            seed=seed, n_paths=param("paths", _DEFAULTS["paths_mean"], int),
            grid_n=param("grid", 8, int),
            basis_k=param("basis_k", _DEFAULTS["basis_k"], int),
            bias_c=param("bias_c"))

    if exp.system is None:
        raise ConfigError([f"check {kind!r} needs a flow experiment"])
    m = exp.manifold

    if kind in ("strict_nform", "mean_nform"):
        density = exp.current.density if isinstance(exp.current, DensityCurrent) else None
        check = check_strict_nform if kind == "strict_nform" else check_mean_nform
        return check(m, density, exp.fields, param("grid", exp.default_grid, int),
                     **tolerance())
    if kind == "jacobian":
        t, dt, seed = horizon()
        x0 = param("x0", 0.5 * m.lengths,
                   lambda text: np.array([float(v) for v in text.split(",")]))
        paths = param("paths", _DEFAULTS["paths_jacobian"], int)
        return jacobian_check(exp.system, x0, t, dt, seed, paths, **tolerance())
    T = exp.current_at(param("grid", None, int))
    basis = make_test_basis(m, param("basis_k", _DEFAULTS["basis_k"], int))
    if kind in ("strict_residual", "mean_residual"):
        mode = "strict" if kind == "strict_residual" else "mean"
        return residual_check(T, exp.system, basis, mode, **tolerance())
    t, dt, seed = horizon()
    if kind == "empirical_pathwise":
        return empirical_check(T, exp.system, basis, t, dt, seed, None,
                               "pathwise", **tolerance())
    if kind == "empirical_mean":
        return empirical_check(T, exp.system, basis, t, dt, seed,
                               param("paths", _DEFAULTS["paths_mean"], int),
                               "mean", bias_c=param("bias_c"))
    raise ConfigError([f"unhandled check kind {kind!r}"])


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
    for i, rep in enumerate(reports, start=1):
        path = outdir / f"check_{i:02d}_{rep.kind}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for row in _csv_rows(rep):
                writer.writerow(row)


def run(config: ExperimentConfig, outdir, overrides=None) -> int:
    """Execute every check; write report.json and per-check CSVs.

    report.json holds the hashed ``payload``, its ``payload_sha256``, and
    outside the hash ``generated_at`` and ``diagnostics``: per check, in
    the order of payload["checks"], its kind and wall time ``wall_s``.
    Returns 0 when all verdicts hold, 2 when any fails, 1 on error.
    """
    overrides = dict(overrides or {})
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        exp = build_experiment(config)
        applied = set()
        reports, timings = [], []
        for chk in config.checks:
            start = time.perf_counter()
            reports.append(_run_check(exp, chk, overrides, applied))
            timings.append({"kind": reports[-1].kind,
                            "wall_s": time.perf_counter() - start})
        payload = {
            "config": serialize_config(config),
            # only the overrides some check used
            "overrides": {k: overrides[k] for k in sorted(applied)},
            "checks": [r.payload() for r in reports],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        document = {
            "payload": payload,
            "payload_sha256": hashlib.sha256(blob.encode()).hexdigest(),
            "generated_at": datetime.now(timezone.utc).isoformat(),
            # outside the payload, so the hash stays deterministic
            "diagnostics": {"checks": timings},
        }
        with open(outdir / "report.json", "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_csvs(reports, outdir)
    except (ConfigError, OSError, ValueError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    for rep in reports:
        status = "pass" if rep.all_verdicts() else "FAIL"
        print(f"[{status}] {rep.kind}: residual={rep.residual:.6g} "
              f"tolerance={rep.tolerance:.6g}")
    return 0 if all(r.all_verdicts() for r in reports) else 2


# ---------------------------------------------------------------------------
# commands

def _load_config_text(path_or_name: str) -> str:
    path = Path(path_or_name)
    if path.exists():
        return path.read_text(encoding="utf-8")
    if path_or_name in preset_names():
        return preset_text(path_or_name)
    raise FileNotFoundError(f"no config file or preset named {path_or_name!r}")


def _cmd_check(args) -> int:
    try:
        text = _load_config_text(args.config)
        config = parse_config(text)
    except FileNotFoundError as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    except ConfigError as e:
        for issue in e.issues:
            print(f"error: {issue}", file=_sys.stderr)
        return 1
    overrides = {"seed": args.seed, "dt": args.dt, "paths": args.paths}
    return run(config, args.out, overrides)


def _cmd_liealg(args) -> int:
    from . import liealg

    try:
        with open(args.constants, encoding="utf-8") as fh:
            g = liealg.load_structure_constants(fh)
        h = liealg.parse_subalgebra(args.subalgebra)
        ok, offending = liealg.invariance_verdict(g, h)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    print(f"dimension: {g.n}")
    print(f"subalgebra: {', '.join(g.label(i) for i in h.indices)}")
    print(f"nilpotent: {liealg.is_nilpotent(g)}")
    print(f"semisimple: {liealg.is_semisimple(g)}")
    for i in h.indices:
        print(f"trace ad({g.label(i)}) on h: {liealg.tr_ad_restricted(g, h, i):g}")
    drift = liealg.foliated_drift(g, h)
    print("foliated drift: "
          + ", ".join(f"{g.label(k)}: {d:g}" for k, d in zip(h.indices, drift)))
    print(f"totally invariant: {ok}")
    for i, tr in offending:
        print(f"offending: {g.label(i)} trace {tr:g}")
    return 0 if ok else 2


def _cmd_simulate(args) -> int:
    try:
        config = parse_config(_load_config_text(args.config))
        exp = build_experiment(config)
        if exp.system is not None:
            system = exp.system
        elif exp.realization is not None:
            from .invariance import foliated_system

            system = foliated_system(exp.algebra, exp.subalgebra, exp.realization)
        else:
            print("error: config has no simulatable system "
                  "(liealg experiment without a realization)", file=_sys.stderr)
            return 1
        x0 = (np.array([float(v) for v in args.x0.split(",")])
              if args.x0 else 0.5 * system.manifold.lengths)
        steps = step_count(args.t, args.dt)
        noise = generate_noise(args.seed, args.path_index, system.m, args.dt, steps)
        result = flow_with_jacobian(system, x0, noise)
        with open(args.trajectory, "w", newline="", encoding="utf-8") as fh:
            write_trajectory_csv(result, fh)
    except (ConfigError, FileNotFoundError, OSError, ValueError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    print(f"wrote {args.trajectory} ({steps + 1} rows)")
    return 0


def _cmd_presets(args) -> int:
    if args.action == "list":
        for name in preset_names():
            print(name)
        return 0
    try:
        print(preset_text(args.name), end="")
    except KeyError as e:
        print(f"error: {e.args[0]}", file=_sys.stderr)
        return 1
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
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--dt", type=float, default=None)
    p_check.add_argument("--paths", type=int, default=None)
    p_check.set_defaults(func=_cmd_check)

    p_lie = sub.add_parser("liealg", help="trace criterion for a constants file")
    p_lie.add_argument("constants", help="structure-constant JSON file")
    p_lie.add_argument("--subalgebra", required=True,
                       help="1-based indices, e.g. 1,2")
    p_lie.set_defaults(func=_cmd_liealg)

    p_sim = sub.add_parser("simulate", help="integrate one path and export CSV")
    p_sim.add_argument("config", help="config file path or preset name")
    p_sim.add_argument("--trajectory", required=True, help="output CSV path")
    p_sim.add_argument("--t", type=float, default=1.0)
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--seed", type=int, default=0)
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
