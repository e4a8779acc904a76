"""What a command loads at start-up.

The module-load tests run each command, or the set-up every command
runs, in a fresh interpreter and read ``sys.modules`` at its end, so
that an eager import which loads a layer the command never runs shows
up here.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stochflow
from stochflow.currents import make_test_basis
from stochflow.manifold import ChartedManifold, torus

ROOT = Path(__file__).resolve().parent.parent

# The scripts print without json, so that it shows only where stochflow
# loads it: three last lines of code, then space-separated module names.
_RUN_MAIN = """\
import sys
import stochflow
bare = sorted(m for m in sys.modules if m.startswith("stochflow."))
from stochflow import cli
code = cli.main(sys.argv[1:])
print(code, " ".join(bare), " ".join(sorted(sys.modules)), sep="\\n")
"""

# the set-up that every command runs, after numpy, as bench/probe.py times it
_SET_UP = """\
import sys
import numpy
from stochflow import cli, config, presets
cli.build_experiment(config.parse_config(presets.preset_text(sys.argv[1])))
print(0, "", " ".join(sorted(sys.modules)), sep="\\n")
"""

# the same set-up of the config file named by the first argument
_SET_UP_FILE = """\
import sys
import numpy
from stochflow import cli, config
with open(sys.argv[1], encoding="utf-8") as fh:
    cli.build_experiment(config.parse_config(fh.read()))
print(0, "", " ".join(sorted(sys.modules)), sep="\\n")
"""


def run_script(script, argv, cwd=None):
    """(exit code, modules loaded by `import stochflow` alone, modules
    loaded at the end), from script run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, bare, modules = proc.stdout.splitlines()[-3:]
    return int(code), bare.split(), set(modules.split())


def run_main(argv, cwd):
    """run_script of cli.main(argv)."""
    return run_script(_RUN_MAIN, argv, cwd)


COMMANDS = {
    "simulate_flow": ["simulate", "hamiltonian_torus", "--t", "0.01", "--dt", "1e-3",
                      "--trajectory", "t.csv"],
    "simulate_foliation": ["simulate", "heisenberg_foliation", "--t", "0.01",
                           "--dt", "1e-3", "--trajectory", "f.csv"],
    "check_flow": ["check", "hamiltonian_torus", "--dt", "0.01", "--out", "flow"],
    "check_foliation": ["check", "heisenberg_foliation", "--paths", "30", "--out",
                        "foliation"],
}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """run_main of each of COMMANDS, each run once for the module."""
    cwd = tmp_path_factory.mktemp("startup")
    return {name: run_main(argv, cwd) for name, argv in COMMANDS.items()}


# what only `check` reads: the check runner, the current, and the modules
# that write its report, with CPython's built-in SHA-256 for its digest
CHECK_ONLY = {"stochflow.checks", "stochflow.currents", "json", "csv",
              "_sha2" if sys.version_info >= (3, 12) else "_sha256"}
# OpenSSL's hashes, which no command loads: the report's digest is the
# built-in one, and the noise is drawn by numpy arithmetic (stochflow.noise)
OPENSSL = {"hashlib", "_hashlib"}
# numpy's generators, and the modules through which importing them maps
# OpenSSL (numpy.random.bit_generator imports secrets, secrets hmac)
GENERATORS = {"numpy.random", "secrets", "hmac"}
# the Philox normals, which only a command that draws noise loads
NOISE = "stochflow.noise"


# the Heun loop compiler, which only a flow that steps loads
HEUN = "stochflow.heun"
# the zero test, which the flow and the residual checks ask
PROOFS = "stochflow.proofs"
# the readers of JSON configs and structure constants, which set-up
# loads only to read JSON
JSONFORMATS = "stochflow.jsonformats"
# what set-up does not load for a text config: what a command runs once
# set-up is over (the flow, its loop, noise and zero test, and the
# checks) and the JSON readers
RUN_LAYERS = {"stochflow.sde", HEUN, NOISE, PROOFS, "stochflow.currents",
              "stochflow.invariance", "stochflow.checks", JSONFORMATS}
# standard modules that no command needs: main reads argv by its table of
# commands, not argparse (which loads gettext, and locale as its parser
# is built), and the zero test keeps its rationals as pairs of ints,
# not as fractions.Fraction (which loads decimal)
UNNEEDED = {"argparse", "gettext", "locale", "fractions", "decimal"}
# the modules of set-up, which every command runs
SET_UP_MODULES = ("__init__", "cli", "config", "expr", "manifold", "presets", "liealg")


def test_every_module_is_in_one_table():
    # each module states when it loads: set-up loads it, or it is loaded
    # only when needed; a module added to src/ has to say which
    modules = sorted(path.stem for path in (ROOT / "src" / "stochflow").glob("*.py"))
    tables = [*SET_UP_MODULES, *(name.split(".", 1)[1] for name in RUN_LAYERS
                                 if name.startswith("stochflow."))]
    counts = {module: tables.count(module) for module in modules}
    assert {m: n for m, n in counts.items() if n != 1} == {}
    assert set(tables) <= set(modules)


@pytest.mark.parametrize("preset", ["hamiltonian_torus", "heisenberg_foliation"])
def test_no_set_up_loads_a_generator_or_openssl(preset):
    _, _, modules = run_script(_SET_UP, [preset])
    assert not (GENERATORS | OPENSSL) & modules
    assert NOISE not in modules  # set-up draws no noise


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_a_generator_or_openssl(loaded, command):
    code, _, modules = loaded[command]
    assert code == 0
    assert not (GENERATORS | OPENSSL) & modules


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_the_command_line_or_rational_modules(loaded, command):
    # each command reads its argv, and all but the foliation check expand
    # a tree in the zero test
    code, _, modules = loaded[command]
    assert code == 0
    assert not UNNEEDED & modules


def test_set_up_of_a_flow_preset_loads_nothing_only_check_reads():
    _, _, modules = run_script(_SET_UP, ["hamiltonian_torus"])
    assert {"stochflow.cli", "stochflow.manifold"} <= modules
    # the system is built by manifold: set-up loads no flow code
    assert not RUN_LAYERS & modules
    assert not CHECK_ONLY & modules


@pytest.mark.parametrize("source", ["json_config", "constants_file"])
def test_set_up_of_json_input_loads_the_json_readers(tmp_path, source):
    constants = tmp_path / "heisenberg.json"
    constants.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 1, "j": 2, "coeffs": [0, 0, 1]}]}), encoding="utf-8")
    texts = {
        "json_config": json.dumps({"manifold": {"lengths": [1, 1]},
                                   "fields": {"diffusion1": "1, 0"}}),
        "constants_file": f"[liealg]\nalgebra = file:{constants}\nsubalgebra = 1, 3\n",
    }
    config = tmp_path / "config"
    config.write_text(texts[source], encoding="utf-8")
    _, _, modules = run_script(_SET_UP_FILE, [str(config)])
    assert JSONFORMATS in modules
    assert not (RUN_LAYERS - {JSONFORMATS}) & modules
    if source == "json_config":  # a flow: the constants reader builds no algebra
        assert "stochflow.liealg" not in modules


def test_set_up_of_a_liealg_preset_does_not_load_the_heun_loop():
    _, _, modules = run_script(_SET_UP, ["heisenberg_foliation"])
    assert "stochflow.liealg" in modules
    # its realization is built by liealg: no flow or check layer loads
    # before a command runs
    assert not RUN_LAYERS & modules
    assert not CHECK_ONLY & modules


def top_level_imports(source: str, package: str = "stochflow") -> set:
    """The modules that the import statements at the top level of a
    module of package name: ``import a.b`` names a.b, ``from .x import
    y`` names package.x, and ``from . import y`` names package.y."""
    found = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Import):
            found.update(alias.name for alias in stmt.names)
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module if not stmt.level else ".".join(
                filter(None, (package, stmt.module)))
            found.update([base] if stmt.module else
                         (f"{base}.{alias.name}" for alias in stmt.names))
    return found


def test_top_level_imports_are_found():
    source = ("import argparse, os.path\nfrom . import sde, expr\n"
              "from .manifold import torus\nfrom json import dumps\n"
              "def f():\n    import gettext\n")
    assert top_level_imports(source) == {
        "argparse", "os.path", "stochflow.sde", "stochflow.expr",
        "stochflow.manifold", "json"}


@pytest.mark.parametrize("module", SET_UP_MODULES)
def test_no_set_up_module_imports_a_run_layer_at_its_top(module):
    source = (ROOT / "src" / "stochflow" / f"{module}.py").read_text(encoding="utf-8")
    assert not RUN_LAYERS & top_level_imports(source)


def test_simulate_of_a_flow_preset_loads_neither_invariance_nor_liealg(loaded):
    code, bare, modules = loaded["simulate_flow"]
    assert code == 0
    assert bare == []  # `import stochflow` loads no layer module
    assert "stochflow.sde" in modules
    assert HEUN in modules  # its trajectory is stepped
    assert "stochflow.invariance" not in modules
    assert "stochflow.liealg" not in modules
    assert not CHECK_ONLY & modules
    assert NOISE in modules  # its trajectory's increments are drawn


def test_simulate_of_a_liealg_preset_loads_no_check_layer(loaded):
    code, _, modules = loaded["simulate_foliation"]
    assert code == 0
    assert {"stochflow.sde", "stochflow.liealg"} <= modules
    assert "stochflow.invariance" not in modules
    assert not CHECK_ONLY & modules


def test_check_of_a_flow_preset_loads_neither_liealg_nor_numpy_random(loaded):
    code, _, modules = loaded["check_flow"]
    assert code == 0
    assert {"stochflow.invariance", *CHECK_ONLY} <= modules
    assert "stochflow.liealg" not in modules
    assert "numpy.random" not in modules
    assert not OPENSSL & modules  # the report's digest is the built-in one
    # its fields are divergence-free, so the jacobian check steps no loop
    # and draws no noise
    assert HEUN not in modules
    assert NOISE not in modules


def test_check_of_a_foliation_preset_loads_its_layers(loaded):
    code, _, modules = loaded["check_foliation"]
    assert code == 0
    assert {"stochflow.invariance", "stochflow.liealg", NOISE, PROOFS,
            *CHECK_ONLY} <= modules
    # constant fields flow by one summed increment per path
    assert HEUN not in modules


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_of_a_text_config_loads_the_json_readers(loaded, command):
    code, _, modules = loaded[command]
    assert code == 0
    assert JSONFORMATS not in modules


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_dataclasses(loaded, command):
    # the package's classes define their methods in their class bodies,
    # so importing them compiles no generated code
    code, _, modules = loaded[command]
    assert code == 0
    assert "dataclasses" not in modules


def test_equal_manifolds_built_apart_share_one_test_basis():
    first, second = torus(1.0, 2.0), ChartedManifold(2, [1, 2])
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert make_test_basis(first, 2) is make_test_basis(second, 2)
    assert make_test_basis(torus(2.0, 1.0), 2) is not make_test_basis(first, 2)


def test_a_manifold_is_immutable():
    m = torus(1.0)
    for name, value in (("dim", 2), ("box_lengths", (2.0,)), ("anything", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(m, name, value)
    assert (m.dim, m.box_lengths) == (1, (1.0,))


def test_the_package_binds_only_its_version():
    # each name is imported from the module that defines it: the package
    # re-exports none
    tree = ast.parse((ROOT / "src" / "stochflow" / "__init__.py").read_text(
        encoding="utf-8"))
    assert [type(stmt) for stmt in tree.body] == [ast.Expr, ast.Assign]
    assert [t.id for t in tree.body[1].targets] == ["__version__"]
    assert stochflow.__version__


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="nope"):
        stochflow.nope  # noqa: B018
    with pytest.raises(ImportError):
        from stochflow import nope  # noqa: F401


def tour_prints(block: str) -> list:
    """The comment of each print statement of a code block, in order."""
    return re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)


def printed_as_stated(printed: str, comment: str) -> bool:
    """Whether a printed value is what its comment states, up to the
    first ':': "~0" for below 1e-12, "~X" for within a factor of 2 of X,
    and anything else for the printed text itself."""
    stated = comment.split(":", 1)[0]
    if not stated.startswith("~"):
        return printed == stated
    value, want = abs(float(printed)), float(stated[1:])
    return value < 1e-12 if want == 0 else want / 2 <= value <= 2 * want


def test_printed_values_are_checked_against_their_comments():
    assert tour_prints("x = 1\nprint(a)   # ~0: none\nprint(b)  # True\n") == [
        "~0: none", "True"]
    assert printed_as_stated("0.0", "~0: exact")
    assert printed_as_stated("1.4e-3", "~1e-3: paths 0..4")
    assert not printed_as_stated("2.92e-3", "~7e-3: paths 0..4")
    assert printed_as_stated("(True, [])", "(True, []): invariant")
    assert not printed_as_stated("False", "True: div X = 0")


def test_readme_library_tour_runs_as_written(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library tour\n", 1)[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", tour, re.S | re.M)
    assert len(blocks) == 4, "README.md's Library tour has four code blocks"
    namespace = {}  # each block runs on what the blocks before it defined
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        printed = capsys.readouterr().out.splitlines()
        comments = tour_prints(block)
        assert len(printed) == len(comments)
        for value, comment in zip(printed, comments):
            assert printed_as_stated(value, comment), (value, comment)
