"""Configuration-driven experiment runner and command line interface.

usage:
    stochflow check <config> [--out DIR] [--seed S] [--dt D] [--paths N]
    stochflow liealg <constants.json> --subalgebra i,j,...
    stochflow simulate <config> --trajectory out.csv [--t T] [--dt D] [--seed S]
                       [--x0 X] [--path-index P]
    stochflow presets list
    stochflow presets show NAME

<config> is a config file or the name of a preset; -h or --help prints
this text. Exit codes: 0 when every verdict is true, 2 when any check
fails, 1 on usage, configuration or execution errors.
"""

from __future__ import annotations

import gc
import sys as _sys
import time
from pathlib import Path

from .config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_flags,
    parse_liealg_args,
    serialize_config,
)
from .manifold import (
    ChartedManifold,
    StratonovichSystem,
    VectorFieldSpec,
    step_count,
)
from .presets import preset_names, preset_text

# Set-up (parse_config and build_experiment), which every command runs,
# loads only config, expr, manifold and presets, and liealg for a
# [liealg] config. The run layers are imported inside the functions that
# use them, so that a command loads only what it runs: `simulate` loads
# sde and neither the checks' layers nor the report writer, `check`
# loads the check runner (checks) with invariance and currents, and on
# a flow preset not liealg.

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
# reports

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

    from .checks import run_check, sha256_hex, write_csvs

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
        reports.append(run_check(exp, currents, chk, runs))
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
        "payload_sha256": sha256_hex(blob.encode()),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        # outside the payload, so the hash stays deterministic
        "diagnostics": {"checks": timings},
    }
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    write_csvs(reports, outdir)
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


def _cmd_check(config, out, seed, dt, paths) -> int:
    overrides = {"seed": seed, "dt": dt, "paths": paths}
    return run(parse_config(_load_config_text(config), overrides), out)


def _cmd_liealg(constants, subalgebra) -> int:
    from . import liealg

    g, indices = parse_liealg_args(constants, subalgebra)
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


def _cmd_simulate(config, trajectory, t, dt, seed, path_index, x0) -> int:
    first = int(path_index)
    exp = build_experiment(parse_config(_load_config_text(config)))
    system = exp.system
    if system is None and exp.realization is None:
        raise ValueError("config has no simulatable system "
                         "(liealg experiment without a realization)")
    if system is None:
        from .liealg import foliated_system

        system = foliated_system(exp.subalgebra, exp.realization)
    flags = parse_flags({"t": t, "dt": dt, "x0": x0, "seed": seed}, system.manifold)
    steps = step_count(flags["t"], flags["dt"])
    from .sde import FlowResult, flow_paths, write_trajectory_csv

    states, log_j = flow_paths(system, "trajectory", flags["x0"], flags["dt"],
                               steps, flags["seed"], range(first, first + 1))
    with open(trajectory, "w", newline="", encoding="utf-8") as fh:
        write_trajectory_csv(FlowResult(flags["dt"], states[:, 0], log_j[:, 0]),
                             fh)
    print(f"wrote {trajectory} ({steps + 1} rows)")
    return 0


def _cmd_presets(name=None) -> int:
    if name is None:
        print(*preset_names(), sep="\n")
    else:
        print(preset_text(name), end="")
    return 0


# The commands of the usage in the module docstring, by their words: the
# handler, its number of positionals, and the default of each option, or
# ... for an option that must be given. Each option takes one value, as
# --opt VALUE or --opt=VALUE, and the last one given wins; main passes
# the positionals in order and each option by its name, with - read as _.
_COMMANDS = {
    "check": (_cmd_check, 1, {"out": "out", "seed": None, "dt": None, "paths": None}),
    "liealg": (_cmd_liealg, 1, {"subalgebra": ...}),
    "simulate": (_cmd_simulate, 1, {"trajectory": ..., "t": None, "dt": None,
                                    "seed": None, "path_index": 0, "x0": None}),
    "presets list": (_cmd_presets, 0, {}),
    "presets show": (_cmd_presets, 1, {}),
}


def main(argv=None) -> int:
    # The one error boundary: the commands raise their errors, and main
    # alone catches them. Each issue of a ConfigError, or an
    # ArithmeticError, MemoryError, OSError or ValueError, is one `error:`
    # line on stderr, and main returns 1. A usage error prints the module
    # docstring first. A process that ends when its command returns runs
    # console, not main.
    try:
        words, values, given = iter(_sys.argv[1:] if argv is None else argv), [], {}
        for word in words:
            if word in ("-h", "--help"):
                print(__doc__)
                return 0
            if word.startswith("--"):
                flag, eq, value = word[2:].partition("=")
                given[flag.replace("-", "_")] = value if eq else next(words, ...)
            else:
                values.append(word)
        name = values[:2] if " ".join(values[:2]) in _COMMANDS else values[:1]
        handler, count, options = _COMMANDS.get(" ".join(name), (None, -1, {}))
        args, values = {**options, **given}, values[len(name):]
        if len(values) != count or ... in args.values() or given.keys() - options.keys():
            print(__doc__, file=_sys.stderr)
            raise ValueError("the arguments do not match the usage above")
        return handler(*values, **args)
    except ConfigError as e:
        errors = e.issues
    except (ArithmeticError, MemoryError, OSError, ValueError) as e:
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
