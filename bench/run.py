#!/usr/bin/env python3
"""Benchmark of the stochflow command line, end to end and layer by layer.

    python3 bench/run.py --workload mc_heisenberg --seed 1 --seconds 35 --trace 0

It measures the source tree above bench/, found from its own location,
so it can be run from any directory. Every measured operation is a
fresh child process, started one at a time, with PYTHONPATH=<root>/src
and BLAS/OpenMP pinned to one thread. The seed is passed on as the
command's --seed.

--trace 0 runs the workload command again and again for --seconds and
reports the end-to-end metrics: each timing is the median over the
runs. A probe (bench/probe.py) follows every command run; it measures
the set-up time and a fixed reference kernel, and timings are reported
at the speed where that kernel takes REFERENCE_S seconds, which cancels
the drift in the speed of a shared machine.
--trace 1 alternates untraced runs with runs under bench/tracer.py and
reports the per-layer metrics, as medians over the traced runs.

Every run's output is checked, and every run at one seed must produce
the same output, traced or not; a run that fails a check is counted as
failed. Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
Metric names and units come from BENCHMARK.json at the root of the tree.
bench/README.md says why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
# Artefacts stay inside the tree, which is the only place the benchmark
# may write; each run removes its own directory, and a later run removes
# those of runs that were killed.
SCRATCH = ROOT / ".bench_build"

MIN_RUNS = 3           # timed command runs per benchmark run, at least
REFERENCE_S = 0.1      # reported seconds are at the speed where the
                       # reference kernel of bench/probe.py takes this long
CHILD_TIMEOUT_S = 120  # a child still running after this is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def shape(kind, dt=None, T=None, n_paths=None, grid=None, basisK=None,
          rows=0, subchecks=()):
    """The sizes one check report states for the work it did: its kind,
    dt, T, n_paths, grid and basisK, its number of per_basis rows and
    the shapes of its subchecks, in order."""
    return (kind, dt, T, n_paths, grid, basisK, rows, tuple(subchecks))


def report_shape(chk) -> tuple:
    """shape() of a check as it appears in report.json."""
    return shape(chk["kind"], chk["dt"], chk["T"], chk["n_paths"],
                 chk["grid"], chk["basisK"], len(chk["per_basis"]),
                 [report_shape(sub) for sub in chk.get("subchecks", ())])


@dataclass(frozen=True)
class Workload:
    """One stochflow command line and what its output must satisfy.

    point_steps counts the support-point path-steps of the workload's
    main integration pass, from its definition: paths x support points
    x steps.
    """

    name: str
    command: str       # "check" or "simulate"
    preset: str
    options: tuple     # size options, placed after the preset name
    point_steps: int
    checks: tuple = ()  # check: shape() of each report check, in order
    steps: int = 0      # simulate: steps of the written trajectory
    t_final: float = 0.0
    experiment: str = "flow"  # what build_experiment makes of the preset

    def argv(self, seed, out: Path):
        argv = [self.command, self.preset, *self.options, "--seed", str(seed)]
        if self.command == "check":
            return argv + ["--out", str(out)]
        return argv + ["--trajectory", str(out / "trajectory.csv")]


# Sizes are scaled from the criterion-6/7 shapes so that one command takes
# two to three seconds on a 2-core box and a 35-second run holds about ten.
# Each keeps its regime's profile (bench/README.md gives the traced shares).
MC_PATHS = 30
JAC_STEPS = 4000
WORKLOADS = {w.name: w for w in (
    # Large batch: 30 paths x 8^3 support points x 1000 steps with constant
    # fields and the twisted Heisenberg wrap, then the 49-function basis
    # on the endpoints and the Lie trace criterion. The pathwise subcheck
    # integrates 5 more paths.
    Workload("mc_heisenberg", "check", "heisenberg_foliation",
             ("--paths", str(MC_PATHS)), point_steps=MC_PATHS * 8 ** 3 * 1000,
             checks=(shape("foliation_verdict", 1e-3, 1.0, MC_PATHS, 8, 3,
                           subchecks=(
                               shape("mean_residual", grid=8, basisK=3,
                                     rows=49),
                               shape("strict_residual", grid=8, basisK=3,
                                     rows=147),
                               shape("empirical_mean", 1e-3, 1.0, MC_PATHS,
                                     8, 3, rows=49),
                               shape("empirical_pathwise", 1e-3, 1.0, 5,
                                     8, 3, rows=49))),),
             experiment="liealg"),
    # Small batch with trig fields: 100 paths x 4000 steps co-evolving
    # log J, plus symbolic strict and generator residuals on a 64^2 grid.
    Workload("jac_hamiltonian", "check", "hamiltonian_torus",
             ("--dt", str(1.0 / JAC_STEPS)), point_steps=100 * JAC_STEPS,
             checks=(shape("strict_nform", grid=64, rows=3),
                     shape("strict_residual", grid=64, basisK=3, rows=147),
                     shape("mean_residual", grid=64, basisK=3, rows=49),
                     shape("jacobian", 1.0 / JAC_STEPS, 1.0, 100,
                           rows=100))),
    # Batch 1: one 5000-step trajectory with log J, written as CSV.
    Workload("sim_hamiltonian", "simulate", "hamiltonian_torus",
             ("--t", "0.5", "--dt", "1e-4"), point_steps=5000,
             steps=5000, t_final=0.5),
)}

# Per-layer metrics read straight from the span summary: span name ->
# fields. calls and work counters are counts, self_s and total_s seconds.
LAYER_FIELDS = {
    "manifold.wrap": ("calls", "points", "self_s"),
    "manifold.field_call": ("calls", "points", "self_s"),
    "manifold.apply_field": ("self_s",),
    "manifold.is_compatible_field": ("total_s",),
    "config.parse_config": ("total_s",),
    "cli.build_experiment": ("total_s",),
    "cli.run": ("self_s",),
    "expr.diff": ("calls", "self_s"),
    "expr.evaluate": ("calls", "self_s"),
    "sde.generate_noise": ("calls", "values", "self_s"),
    "sde.flow_endpoints": ("calls", "point_steps", "self_s"),
    "sde.flow_with_jacobian": ("steps", "self_s"),
    "sde.write_trajectory_csv": ("rows", "self_s"),
    "currents.pullback_values": ("self_s",),
    "currents.generator_residuals": ("total_s",),
    "currents.strict_residuals": ("total_s",),
    "invariance.empirical_check": ("total_s",),
    "invariance.foliation_pipeline": ("self_s",),
    "invariance.check_strict_nform": ("total_s",),
    "invariance.residual_check": ("total_s",),
    "invariance.jacobian_check": ("self_s",),
    "liealg.invariance_verdict": ("total_s",),
}
# Every span that integrates the flow; their steps and point_steps
# counters add up to the work the integrator did.
INTEGRATORS = ("sde.flow_endpoints", "sde.flow_with_jacobian",
               "invariance.jacobian_check")


class BadOutput(Exception):
    pass


# What checking a child's output may raise when the output is wrong.
CHECK_ERRORS = (BadOutput, OSError, ValueError, LookupError, TypeError,
                AttributeError)


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_child(cmd, env, cwd: Path, log: Path) -> Child:
    """Run cmd to completion; time it from spawn to exit and read the
    child's own CPU time and peak RSS from os.wait4 (RUSAGE_CHILDREN
    would be a running maximum over all children)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall_s,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0, log=log)


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _failed_verdicts(checks, prefix=""):
    for i, chk in enumerate(checks):
        where = f"{prefix}{chk['kind']}[{i}]"
        if chk["verdict"] is not True:
            yield where
        yield from _failed_verdicts(chk.get("subchecks", []), where + "/")


def check_report(w: Workload, seed: int, code: int, out: Path) -> str:
    """Checks a `check` run; returns a digest of its hashed payload and CSVs."""
    if code != 0:
        raise BadOutput(f"exit code {code}")
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    payload = doc["payload"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if _sha256(blob.encode()) != doc["payload_sha256"]:
        raise BadOutput("payload_sha256 does not match the payload")
    if payload["overrides"].get("seed") != seed:
        raise BadOutput(f"report ran seed {payload['overrides'].get('seed')}")
    # the report must state the sizes and subchecks the workload asks for,
    # so that doing less work cannot pass as a faster run
    checks = tuple(report_shape(chk) for chk in payload["checks"])
    if checks != w.checks:
        raise BadOutput(f"report checks {checks}, expected {w.checks}")
    failed = list(_failed_verdicts(payload["checks"]))
    if failed:
        raise BadOutput(f"verdict false in {', '.join(failed)}")
    csvs = sorted(out.glob("check_*.csv"))
    if len(csvs) != len(checks):
        raise BadOutput(f"{len(csvs)} check CSVs for {len(checks)} checks")
    return _sha256(doc["payload_sha256"].encode(),
                   *(p.name.encode() + p.read_bytes() for p in csvs))


def check_trajectory(w: Workload, code: int, out: Path) -> str:
    """Checks a `simulate` run; returns a digest of the CSV bytes."""
    if code != 0:
        raise BadOutput(f"exit code {code}")
    data = (out / "trajectory.csv").read_bytes()
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    header, body = rows[0], rows[1:]
    dim = len(header) - 2
    if header != ["t", *(f"x{i + 1}" for i in range(dim)), "logJ"]:
        raise BadOutput(f"trajectory header {header}")
    if len(body) != w.steps + 1:
        raise BadOutput(f"{len(body)} trajectory rows, expected {w.steps + 1}")
    values = [[float(v) for v in row] for row in body]
    if not all(math.isfinite(v) for row in values for v in row):
        raise BadOutput("non-finite value in the trajectory")
    # the preset's torus has unit periods
    if not all(0.0 <= v < 1.0 for row in values for v in row[1:-1]):
        raise BadOutput("coordinate outside [0, 1)")
    if abs(values[-1][0] - w.t_final) > 1e-9:
        raise BadOutput(f"trajectory ends at t={values[-1][0]}")
    # both fields are divergence-free, so the flow preserves volume
    if abs(values[-1][-1]) > 1e-6:
        raise BadOutput(f"final |logJ| = {abs(values[-1][-1]):.3g} > 1e-6")
    return _sha256(data)


def layer_metrics(summary) -> dict:
    """Per-layer metric values of one traced run (trace.overhead_s aside).

    The tracer lists every function it wrapped, called or not; one that
    is missing was renamed or dropped, and the traced run fails rather
    than report it as free. A work counter reads 0 only when its
    function was never called.
    """
    missing = [name for name in LAYER_FIELDS if name not in summary]
    if missing:
        raise BadOutput(f"no traced function {', '.join(missing)}")

    def get(name, key):
        span = summary[name]
        if key in span:
            return span[key]
        if span["calls"] == 0:
            return 0
        raise BadOutput(f"{name} ran {span['calls']} times without a {key} count")

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{name}.{key}": get(name, key)
           for name, keys in LAYER_FIELDS.items() for key in keys}
    steps = sum(get(name, "steps") for name in INTEGRATORS)
    point_steps = sum(get(name, "point_steps") for name in INTEGRATORS)
    out["manifold.wrap.points_per_point_step"] = ratio(
        get("manifold.wrap", "points"), point_steps)
    out["expr.evaluate.calls_per_step"] = ratio(
        get("expr.evaluate", "calls"), steps)
    out["sde.flow_endpoints.ns_per_point_step"] = ratio(
        get("sde.flow_endpoints", "total_s") * 1e9,
        get("sde.flow_endpoints", "point_steps"))
    out["sde.flow_with_jacobian.us_per_step"] = ratio(
        get("sde.flow_with_jacobian", "total_s") * 1e6,
        get("sde.flow_with_jacobian", "steps"))
    return out


class Bench:
    """Runs and checks the children of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, tmp: Path):
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        **{var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failures = []
        self.digest = None  # every run at this seed must reproduce it
        self.loaded = {}  # where the last probe found stochflow and numpy
        self._n = 0

    def _fresh_dir(self, prefix) -> Path:
        self._n += 1
        path = self.tmp / f"{prefix}-{self._n:03d}"
        path.mkdir()
        return path

    def _fail(self, what, reason, child):
        log = child.log.read_text(encoding="utf-8", errors="replace")
        self.failures.append(f"{what}: {reason}\n{log[-2000:]}")

    def command(self, traced=False):
        """Runs the workload command once; returns (Child, layer metrics of
        a traced run or None)."""
        out = self._fresh_dir("traced" if traced else "run")
        argv = self.w.argv(self.seed, out)
        if traced:
            spans = out / "spans.bin"
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "stochflow.cli", *argv]
        self.attempted += 1
        child = run_child(cmd, self.env, out, out / "stdout.log")
        layers, errors = None, []
        try:
            if self.w.command == "check":
                digest = check_report(self.w, self.seed, child.code, out)
            else:
                digest = check_trajectory(self.w, child.code, out)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                raise BadOutput("output differs from the first run at this seed")
        except CHECK_ERRORS as e:
            errors.append(repr(e))
        if traced:
            try:
                layers = layer_metrics(tracer.summarize(spans))
            except CHECK_ERRORS as e:
                errors.append(repr(e))
        if errors:
            self._fail("traced run" if traced else "run", "; ".join(errors),
                       child)
        shutil.rmtree(out)
        return child, layers

    def probe(self):
        """Runs one probe (bench/probe.py); returns its figures or None."""
        out = self._fresh_dir("probe")
        cmd = [sys.executable, str(BENCH / "probe.py"), self.w.preset]
        self.attempted += 1
        child = run_child(cmd, self.env, out, out / "stdout.log")
        result = None
        try:
            if child.code != 0:
                raise BadOutput(f"exit code {child.code}")
            probe = json.loads(child.log.read_text().splitlines()[-1])
            where = Path(probe["stochflow_file"]).resolve()
            if not where.is_relative_to(SRC.resolve()):
                raise BadOutput(f"stochflow imported from {where}, not {SRC}")
            if probe["kind"] != self.w.experiment:
                raise BadOutput(f"built a {probe['kind']} experiment")
            result = {key: float(probe[key])
                      for key in ("setup_s", "reference_s")}
            self.loaded = {key: probe[key] for key in ("stochflow_file", "numpy")}
        except CHECK_ERRORS as e:
            self._fail("probe", f"{e!r}", child)
        shutil.rmtree(out)
        return result


def end_to_end(b: Bench, seconds: float):
    """Command runs, each followed by a probe, for `seconds`; returns
    metric -> (value, note).

    Timings are reported at the reference speed: each is multiplied by
    REFERENCE_S / the reference kernel time measured next to it (the
    mean of the probes before and after a command run; the probe's own
    kernel for its set-up time), which cancels the drift in the speed of
    a shared machine. The raw medians are printed beside them.
    """
    runs, walls, cpus, setups, raw_setups, refs = [], [], [], [], [], []
    b.command()  # warm-up: byte-compiles, fills caches, fixes the digest
    before = b.probe()
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or (len(walls) < MIN_RUNS and len(runs) < 4 * MIN_RUNS)):
        child = b.command()[0]
        after = b.probe()
        runs.append(child)
        if after is not None:
            refs.append(after["reference_s"])
            raw_setups.append(after["setup_s"])
            setups.append(after["setup_s"] * REFERENCE_S / after["reference_s"])
            if before is not None:
                scale = 2.0 * REFERENCE_S / (before["reference_s"]
                                             + after["reference_s"])
                walls.append(child.wall_s * scale)
                cpus.append(child.cpu_s * scale)
        before = after
    metrics = {
        "wall_s": _median(walls, _raw(c.wall_s for c in runs)),
        "cpu_s": _median(cpus, _raw(c.cpu_s for c in runs)),
        "setup_s": _median(setups, _raw(raw_setups)),
        "peak_rss_mb": _median([c.peak_rss_mb for c in runs]),
    }
    metrics["point_steps_per_s"] = (
        b.w.point_steps / metrics["wall_s"][0],
        f"{b.w.point_steps} point-steps / wall_s; reference kernel "
        f"{statistics.median(refs):.4g} s (median of {len(refs)})")
    return metrics


def per_layer(b: Bench, seconds: float):
    """Untraced and traced runs, alternating which goes first, for
    `seconds`; returns metric -> (value, note)."""
    plain, traced, layers = [], [], []
    b.command()  # warm-up, untraced: its output is the reference
    b.probe()
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_RUNS or time.perf_counter() < deadline:
        for use_tracer in ((False, True) if len(traced) % 2 == 0
                           else (True, False)):
            child, values = b.command(traced=use_tracer)
            (traced if use_tracer else plain).append(child.wall_s)
            if values is not None:
                layers.append(values)
    if not layers:
        raise RuntimeError("no traced run could be summarized: "
                           + (b.failures[0] if b.failures else "no failure"))
    note = f"median of {len(layers)} traced runs"
    metrics = {name: (statistics.median(run[name] for run in layers), note)
               for name in layers[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain),
        f"median traced wall_s ({len(traced)}) - untraced ({len(plain)})")
    return metrics


def _raw(samples):
    samples = list(samples)
    return f"raw median {statistics.median(samples):.4g}" if samples else ""


def _median(samples, extra=""):
    if not samples:
        raise RuntimeError("a metric has no samples")
    note = (f"median of {len(samples)} (min {min(samples):.4g}, "
            f"max {max(samples):.4g})")
    return statistics.median(samples), f"{note} {extra}".rstrip()


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def sweep_stale(scratch: Path):
    """Removes the directories of earlier benchmark runs that were killed
    before they could remove them: those whose process has ended."""
    for path in scratch.glob("run-*-*"):
        pid = path.name.split("-")[1]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass


def provenance(b: Bench) -> dict:
    sources = sorted((SRC / "stochflow").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": b.loaded.get("numpy"),
        "blas_threads": {var: b.env[var] for var in THREAD_VARS},
        "git_sha": _git_sha(),
        "src_sha256": _sha256(*(p.relative_to(SRC).as_posix().encode()
                                + p.read_bytes() for p in sources)),
        "stochflow_file": b.loaded.get("stochflow_file"),
    }


def load_metric_table(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stochflow" / "__init__.py").is_file():
        print(f"error: no stochflow sources under {SRC}", file=sys.stderr)
        return 2
    try:
        units = load_metric_table(bool(args.trace))
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot read BENCHMARK.json: {e!r}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    w = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    sweep_stale(SCRATCH)
    tmp = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=SCRATCH))
    try:
        b = Bench(w, args.seed, tmp)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(b, args.seconds)
        prov = provenance(b)
    except (_Timeout, RuntimeError) as e:
        print(f"error: {e!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # unless another run is using it
        except OSError:
            pass

    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json lists "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    failed = len(b.failures)
    print(f"workload {w.name}, seed {args.seed}, trace {args.trace}: "
          f"stochflow {' '.join(w.argv(args.seed, Path('<tmp>')))}")
    for name in units:
        value, note = metrics[name]
        print(f"  {name:40s} {value:>14.6g} {units[name]:10s} {note}")
    print(f"  {'failed_frac':40s} {failed / b.attempted:>14.6g} {'fraction':10s}"
          f" {failed} failed of {b.attempted} attempted")
    for failure in b.failures:
        print(f"FAILED {failure}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": b.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
