"""Set-up time of one stochflow experiment and the speed of the machine,
measured in a fresh process.

    python3 bench/probe.py PRESET

Prints one JSON line with:

- setup_s: seconds to import stochflow, parse the preset's config and
  build its experiment. numpy is imported before the clock starts: its
  import is a fixed cost of the environment, about as long as the whole
  stochflow set-up, and would hide work that moves into system
  construction.
- reference_s: seconds taken by a fixed kernel that does not depend on
  stochflow. On a shared machine the speed of the cores changes by tens
  of percent over seconds to minutes; the benchmark divides its timings
  by this figure, measured next to them, to cancel that drift.
- where stochflow and numpy were loaded from.
"""

import json
import sys
import time

import numpy as np


def reference_kernel():
    """Fixed work shaped like stochflow's two regimes: many small array
    calls driven by the interpreter (per-step overhead at batch 1), and
    elementwise passes over an array of a few thousand points (batch)."""
    small = np.linspace(0.0, 1.0, 100)
    big = np.linspace(0.0, 1.0, 12 * 512 * 3).reshape(-1, 3)
    acc = 0.0
    for _ in range(10000):
        acc += float(np.sin(2.0 * np.pi * small).sum())
    for _ in range(120):
        np.mod(big * 1.1 + 0.25, 1.0)
    return acc


def main(argv):
    preset = argv[0]
    start = time.perf_counter()
    import stochflow
    from stochflow import cli, config, presets
    exp = cli.build_experiment(config.parse_config(presets.preset_text(preset)))
    setup_s = time.perf_counter() - start
    start = time.perf_counter()
    reference_kernel()
    reference_s = time.perf_counter() - start
    print(json.dumps({
        "setup_s": setup_s,
        "reference_s": reference_s,
        "kind": "liealg" if exp.config.is_liealg else "flow",
        "stochflow_file": stochflow.__file__,
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
