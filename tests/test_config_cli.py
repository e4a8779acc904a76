import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from example_systems import THETA_DENSITY, translation_bm_system
from stochflow import expr, invariance
from stochflow.checks import sha256_hex
from stochflow.cli import build_current, build_experiment, main, run
from stochflow.config import (
    CHECK_KEYS,
    CheckSpec,
    ConfigError,
    parse_config,
    serialize_config,
)
from stochflow.currents import DensityCurrent, volume_current
from stochflow.invariance import (
    DEFAULT_TOLERANCES,
    EXACT_BIAS_C,
    EmpiricalRun,
    empirical_check,
)
from stochflow.manifold import make_test_basis
from stochflow.presets import PRESETS, preset_names, preset_text

ROOT = Path(__file__).resolve().parent.parent

MINIMAL_FLOW = """\
[manifold]
type = torus
lengths = 1, 1

[fields]
drift = 0, 0
diffusion1 = 1, 0
diffusion2 = 0, 1

[current]
density = 1
grid = 8

[check strict_nform]
tolerance = 1e-8
"""


# ---------------------------------------------------------------------------
# parsing

def test_hamiltonian_preset_parses_with_two_diffusions():
    cfg = parse_config(preset_text("hamiltonian_torus"))
    fields = dict(cfg.fields)
    assert "diffusion1" in fields and "diffusion2" in fields
    assert dict(cfg.current)["density"] == "1"
    exp = build_experiment(cfg)
    assert exp.system.m == 2
    assert isinstance(build_current(exp), DensityCurrent)


def test_all_presets_parse_and_roundtrip():
    for name in preset_names():
        cfg = parse_config(PRESETS[name])
        assert parse_config(serialize_config(cfg)) == cfg, name


def test_out_of_range_coordinate_is_semantic_error():
    text = MINIMAL_FLOW.replace("diffusion1 = 1, 0", "diffusion1 = x3, 0")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    issues = [str(i) for i in e.value.issues]
    assert any("fields.diffusion1" in s and "x3" in s for s in issues)


def test_unclosed_parenthesis_position():
    text = MINIMAL_FLOW.replace("diffusion1 = 1, 0",
                                "diffusion1 = sin(2*pi*x1, 0")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    issue = next(i for i in e.value.issues if "parenthesis" in i.message)
    line = MINIMAL_FLOW.splitlines().index("diffusion1 = 1, 0") + 1
    assert issue.line == line
    # column points at the '(' that was never closed
    assert issue.col == len("diffusion1 = sin") + 1


def test_all_errors_reported_not_just_first():
    text = """\
[manifold]
type = torus
lengths = 1, 1

[fields]
drift = x9, 0
diffusion1 = sin(, cos(2*pi*x2)
bogus_key = 1, 2

[check nonsense]
t = 1
"""
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    msgs = " | ".join(str(i) for i in e.value.issues)
    assert "x9" in msgs
    assert "expression error" in msgs
    assert "bogus_key" in msgs
    assert "nonsense" in msgs
    assert len(e.value.issues) >= 4


def test_exactly_one_experiment_kind():
    with pytest.raises(ConfigError, match="mixes"):
        parse_config(MINIMAL_FLOW + "\n[liealg]\nalgebra = sl2\nsubalgebra = 1\n")
    with pytest.raises(ConfigError, match="either"):
        parse_config("[check jacobian]\nt = 1\n")


def test_json_config_is_accepted():
    doc = {
        "manifold": {"type": "torus", "lengths": [1, 1]},
        "fields": {"drift": "0, 0", "diffusion1": "1, 0"},
        "current": {"density": "1", "grid": 8},
        "checks": [{"kind": "strict_nform", "tolerance": "1e-8"}],
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.checks[0].kind == "strict_nform"
    exp = build_experiment(cfg)
    assert exp.system.m == 1


def test_json_atoms_may_be_nested_lists():
    doc = {
        "manifold": {"type": "torus", "lengths": [1, 1]},
        "fields": {"drift": "0, 0", "diffusion1": "sin(2*pi*x2), 0"},
        "current": {"type": "empirical", "atoms": [[0.1, 0.2], [0.3, 0.4]],
                    "weights": [0.5, 0.5]},
        "checks": [{"kind": "strict_residual"}],
    }
    text = """\
[manifold]
type = torus
lengths = 1, 1

[fields]
drift = 0, 0
diffusion1 = sin(2*pi*x2), 0

[current]
type = empirical
atoms = 0.1 0.2; 0.3 0.4
weights = 0.5, 0.5

[check strict_residual]
"""
    cfg = parse_config(json.dumps(doc))
    assert cfg == parse_config(text)
    assert dict(cfg.current)["atoms"] == "0.1 0.2; 0.3 0.4"
    T = build_current(build_experiment(cfg))
    assert T.points.tolist() == [[0.1, 0.2], [0.3, 0.4]]


JSON_FLOW = '{"manifold": {"lengths": [1, 1]}, "fields": {"diffusion1": "1, 0"}, '


@pytest.mark.parametrize("rest,path,message", [
    ('"checks": 5}', "checks", "must be a list of check objects"),
    ('"checks": [{"kind": "strict_nform"}, 5]}', "checks[1]",
     "check must be an object with a 'kind'"),
    # a misspelt [current] would run the volume current
    ('"curent": {"density": "1 + 0.5*sin(2*pi*x1)"}}', None,
     "unknown section [curent]"),
], ids=["checks_not_a_list", "check_not_an_object", "unknown_section"])
def test_json_shape_errors_are_one_issue(rest, path, message):
    with pytest.raises(ConfigError) as e:
        parse_config(JSON_FLOW + rest)
    assert [(i.path, i.message) for i in e.value.issues] == [(path, message)]


def test_invalid_json_reports_position():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config('{"manifold": }')


def test_liealg_config_builds():
    cfg = parse_config(preset_text("sl2_foliation"))
    exp = build_experiment(cfg)
    assert exp.subalgebra.algebra.n == 3
    assert exp.subalgebra.indices == (0, 1)
    assert exp.realization is None


def test_inline_constants_build():
    cfg = parse_config(preset_text("frame_divergence_torus"))
    exp = build_experiment(cfg)
    assert exp.subalgebra.algebra.n == 2
    assert exp.realization is not None


# ---------------------------------------------------------------------------
# runner and exit codes

def test_run_exit_codes(tmp_path):
    cfg = parse_config(MINIMAL_FLOW)
    assert run(cfg, tmp_path / "ok") == 0
    bad = parse_config(MINIMAL_FLOW.replace("tolerance = 1e-8", "tolerance = 1e-8")
                       .replace("diffusion1 = 1, 0",
                                "diffusion1 = sin(2*pi*x1), 0"))
    assert run(bad, tmp_path / "fail") == 2  # sin field is not divergence free


def test_sl2_preset_exits_2_and_reports_offending_trace(tmp_path, capsys):
    code = main(["check", "sl2_foliation", "--out", str(tmp_path)])
    assert code == 2
    doc = json.loads((tmp_path / "report.json").read_text())
    chk = doc["payload"]["checks"][0]
    assert chk["verdict"] is False
    assert chk["extra"]["offending"] == [{"index": 1, "label": "X", "trace": 2.0}]


def test_an_infinite_field_literal_is_reported_at_its_component(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(MINIMAL_FLOW.replace("diffusion2 = 0, 1", "diffusion2 = 0, 1e999"))
    assert main(["check", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "diffusion 2 component 2 is inf" in capsys.readouterr().err


DIVISIONS_BY_ZERO = {
    "check_density": ("check", "density = 1", "density = 1/0",
                      "current.density (line 11, column 11)"),
    "simulate_drift": ("simulate", "drift = 0, 0", "drift = 1/0, 0",
                       "fields.drift (line 6, column 9)"),
    "simulate_density": ("simulate", "density = 1", "density = sin(1/0)",
                         "current.density (line 11, column 11)"),
    "check_drift": ("check", "drift = 0, 0", "drift = 0, x1 + 1/(2-2)",
                    "fields.drift (line 6, column 12)"),
}


@pytest.mark.parametrize("command,old,new,where", DIVISIONS_BY_ZERO.values(),
                         ids=list(DIVISIONS_BY_ZERO))
def test_division_by_zero_is_one_error_line(tmp_path, capsys, command, old, new,
                                            where):
    # parse_config folds each expression's constants, dividing 1 by 0 in
    # Python floats, so the error has the key and column of its component
    cfg = tmp_path / "div.cfg"
    cfg.write_text(MINIMAL_FLOW.replace(old, new))
    out = tmp_path / "out"
    flag = "--out" if command == "check" else "--trajectory"
    assert main([command, str(cfg), flag, str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {where}: float division by zero"]
    assert not out.exists()



@pytest.mark.parametrize("command", ["check", "simulate"])
def test_a_deeply_nested_expression_is_one_error_line(tmp_path, capsys, command):
    # 600 summed terms nest 599 operations, past expr.MAX_DEPTH: one error
    # line at the key, not a RecursionError from a walk of the tree
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(MINIMAL_FLOW.replace(
        "drift = 0, 0", "drift = " + "+".join(["0*x1"] * 600) + ", 0"))
    out = tmp_path / "out"
    flag = "--out" if command == "check" else "--trajectory"
    assert main([command, str(cfg), flag, str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: fields.drift (line 6, column 9): expression error: "
        f"operations nested more than {expr.MAX_DEPTH} deep"]
    assert not out.exists()

def test_constants_fold_at_parse_time_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="the density is inf"):
            parse_config(MINIMAL_FLOW.replace("density = 1",
                                              "density = 2 + exp(1000)"))
        # an overflow that folds away is no issue
        parse_config(MINIMAL_FLOW.replace("density = 1", "density = 2 + 1/exp(1000)"))
        # a division by a coordinate's value is left to the evaluation
        parse_config(MINIMAL_FLOW.replace("drift = 0, 0", "drift = x1/0, 0"))


NON_FINITE_CONSTANTS = {
    "check_drift": ("check", "drift = 0, 0", "drift = exp(1000), 0",
                    "fields.drift (line 6, column 9): drift component 1 is inf"),
    "simulate_drift": ("simulate", "drift = 0, 0", "drift = exp(1000), 0",
                       "fields.drift (line 6, column 9): drift component 1 is inf"),
    "check_part": ("check", "diffusion2 = 0, 1", "diffusion2 = 0, x1 + exp(1000)*0",
                   "fields.diffusion2 (line 8, column 17): a constant part of "
                   "diffusion 2 component 2 is nan"),
    "simulate_density": ("simulate", "density = 1", "density = x1*exp(1000)",
                         "current.density (line 11, column 11): a constant part "
                         "of the density is inf"),
}


@pytest.mark.parametrize("command,old,new,message", NON_FINITE_CONSTANTS.values(),
                         ids=list(NON_FINITE_CONSTANTS))
def test_a_constant_that_is_not_finite_is_reported_at_its_key(
        tmp_path, capsys, command, old, new, message):
    # the constants an evaluation reads are checked when they are folded,
    # so the error has the key and column of the component
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(MINIMAL_FLOW.replace(old, new))
    out = tmp_path / "out"
    flag = "--out" if command == "check" else "--trajectory"
    assert main([command, str(cfg), flag, str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("old,new", [
    ("diffusion2 = 0, 1", "diffusion2 = 0, 1e999"),
    (MINIMAL_FLOW, "[liealg]\nalgebra = file:no_such_constants.json\n"
                   "subalgebra = 1\n\n[check foliation]\n"),
], ids=["check", "constants_file"])
def test_a_failed_check_makes_no_output_directory(tmp_path, capsys, old, new):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINIMAL_FLOW.replace(old, new))
    out = tmp_path / "out" / "nested"
    assert main(["check", str(cfg), "--out", str(out)]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_check_of_a_config_without_checks_is_an_error_but_simulate_runs(tmp_path,
                                                                        capsys):
    # a report of no checks would read as a pass
    cfg = tmp_path / "no_checks.cfg"
    cfg.write_text(MINIMAL_FLOW.split("[check")[0])
    out = tmp_path / "out"
    assert main(["check", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: config has no [check KIND] section, so nothing to check"]
    assert not out.exists()
    csv_path = tmp_path / "t.csv"
    assert main(["simulate", str(cfg), "--t", "0.01", "--dt", "1e-3",
                 "--trajectory", str(csv_path)]) == 0
    assert len(csv_path.read_text().splitlines()) == 12  # header and 11 steps


def test_check_evaluates_the_density_once(tmp_path, monkeypatch):
    # the preset's strict_nform runs at grid 64, the current's own grid,
    # so it reads the current that run built before the checks
    evaluated = []
    evaluate = expr.evaluate
    monkeypatch.setattr(expr, "evaluate", lambda node, points: evaluated.append(
        (node, len(points))) or evaluate(node, points))
    assert main(["check", "hamiltonian_torus", "--dt", "0.01",
                 "--out", str(tmp_path)]) == 0
    assert evaluated == [(expr.constant(1.0), 64 * 64)]


def test_a_density_only_the_checks_read_fails_check_but_not_simulate(tmp_path,
                                                                     capsys):
    cfg = tmp_path / "negative.cfg"
    cfg.write_text(MINIMAL_FLOW.replace("density = 1", "density = -1"))
    out = tmp_path / "out"
    assert main(["check", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: current density must be positive"]
    assert not out.exists()
    trajectory = tmp_path / "traj.csv"
    assert main(["simulate", str(cfg), "--trajectory", str(trajectory),
                 "--t", "0.1", "--dt", "0.01"]) == 0
    assert len(trajectory.read_text().splitlines()) == 12


@pytest.mark.parametrize("preset,old,new,message", [
    ("hamiltonian_torus", "density = 1", "density = exp(1000*x1)",
     "current has non-finite total mass"),
    ("translation_bm_torus", "drift = 0, 0", "drift = exp(1000*x1), 0",
     "drift component 1 is inf at x = "),
], ids=["check_density", "simulate_drift"])
def test_an_overflow_prints_only_the_error_line(tmp_path, preset, old, new, message):
    # numpy would print a RuntimeWarning and its source line to stderr first
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(preset_text(preset).replace(old, new))
    command = (["check", str(cfg), "--out", str(tmp_path / "out")]
               if preset == "hamiltonian_torus" else
               ["simulate", str(cfg), "--trajectory", str(tmp_path / "t.csv")])
    proc = subprocess.run([sys.executable, "-m", "stochflow.cli", *command],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


def test_simulate_prints_no_warning_for_an_overflow_that_folds_away(tmp_path):
    # the step loop lowers the fields again, and folds exp(1000) to inf
    cfg = tmp_path / "folded.cfg"
    cfg.write_text(preset_text("translation_bm_torus").replace(
        "drift = 0, 0", "drift = 1/exp(1000), 0"))
    out = tmp_path / "t.csv"
    proc = subprocess.run([sys.executable, "-m", "stochflow.cli", "simulate", str(cfg),
                           "--t", "0.01", "--dt", "1e-3", "--trajectory", str(out)],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert out.read_text().count("\n") == 12


TILTED_HAMILTONIAN = """\
[manifold]
type = torus
lengths = 1, 1

[fields]
diffusion1 = -0.25*sin(2*pi*x1)*sin(2*pi*x2), -0.25*cos(2*pi*x1)*cos(2*pi*x2)
diffusion2 = 0.25*cos(2*pi*x1)*cos(2*pi*x2), 0.25*sin(2*pi*x1)*sin(2*pi*x2)

[current]
density = 1 + 0.5*sin(2*pi*x1)
grid = 16
"""

MC = "paths = 200\nt = 0.5\ndt = 0.01\nbasis_k = 2\nseed = 3\n"

# the offending key is on line 14, the first of its check section
NON_FINITE_CHECKS = {
    "inf_bias_c": ("empirical_mean", "bias_c = inf\n" + MC,
                   "check.empirical_mean.bias_c (line 14, column 10): must be finite"),
    "nan_bias_c": ("empirical_mean", "bias_c = nan\n" + MC,
                   "check.empirical_mean.bias_c (line 14, column 10): must be finite"),
    "negative_bias_c": ("empirical_mean", "bias_c = -5\n" + MC,
                        "check.empirical_mean.bias_c (line 14, column 10): "
                        "must be >= 0"),
    "nan_tolerance": ("empirical_pathwise", "tolerance = nan\nt = 0.5\ndt = 0.01\n",
                      "check.empirical_pathwise.tolerance (line 14, column 13): "
                      "must be finite"),
    "inf_t": ("jacobian", "t = inf\ndt = 0.01\npaths = 200\n",
              "check.jacobian.t (line 14, column 5): must be finite"),
    # a seed is the 64-bit key of a Philox stream: -1 would alias
    # 2**64 - 1, and 2**64 alias 0
    "negative_seed": ("jacobian", "seed = -1\nt = 0.5\ndt = 0.01\n",
                      "check.jacobian.seed (line 14, column 8): "
                      "must be in [0, 2**64)"),
    "seed_of_65_bits": ("empirical_pathwise", f"seed = {2 ** 64}\nt = 0.5\n",
                        "check.empirical_pathwise.seed (line 14, column 8): "
                        "must be in [0, 2**64)"),
}


@pytest.mark.parametrize("kind,body,message", NON_FINITE_CHECKS.values(),
                         ids=list(NON_FINITE_CHECKS))
def test_non_finite_and_negative_numbers_are_one_error_line(tmp_path, capsys,
                                                            kind, body, message):
    cfg = tmp_path / "tilted.cfg"
    cfg.write_text(f"{TILTED_HAMILTONIAN}\n[check {kind}]\n{body}")
    assert main(["check", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv,message", [
    (["check", "translation_bm_torus", "--seed", "-1"],
     "--seed: must be in [0, 2**64)"),
    (["simulate", "hamiltonian_torus", "--seed", "-1"],
     "--seed: must be in [0, 2**64)"),
    (["simulate", "hamiltonian_torus", "--path-index", "-1"],
     "seed and path index must be in [0, 2**64), got 0 and -1"),
], ids=["check_seed", "simulate_seed", "simulate_path_index"])
def test_negative_seed_and_path_index_are_one_error_line(tmp_path, capsys, argv,
                                                         message):
    out = (["--out", str(tmp_path / "out")] if argv[0] == "check"
           else ["--trajectory", str(tmp_path / "traj.csv")])
    assert main(argv + out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not list(tmp_path.iterdir())


DUPLICATE_KEYS = {
    "text": (MINIMAL_FLOW.replace("diffusion2 = 0, 1\n",
                                  "diffusion2 = 0, 1\ndiffusion1 = 0, 1\n")
             + "\n[check jacobian]\npaths = 3\npaths = 5\n",
             [("fields.diffusion1", 9), ("check.jacobian.paths", 20)]),
    "json": ('{"manifold": {"lengths": [1, 1]}, "fields": {"diffusion1": "1, 0", '
             '"diffusion1": "0, 1"}, "checks": [{"kind": "jacobian", '
             '"paths": 3, "paths": 5}]}',
             [("fields.diffusion1", None), ("check.jacobian.paths", None)]),
}


@pytest.mark.parametrize("text,where", DUPLICATE_KEYS.values(),
                         ids=list(DUPLICATE_KEYS))
def test_a_key_given_twice_is_one_issue(text, where):
    # the first diffusion1 would be dropped, and the check would run 3 paths
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert [(i.path, i.line) for i in e.value.issues] == where
    assert [i.message for i in e.value.issues] == [
        "duplicate key 'diffusion1'", "duplicate key 'paths'"]


@pytest.mark.parametrize("text,value", [("true", True), ("FALSE", False),
                                        ("yes", None), ("1", None)])
def test_normalize_is_true_or_false(text, value):
    config = MINIMAL_FLOW.replace("grid = 8\n", f"grid = 8\nnormalize = {text}\n")
    if value is None:
        with pytest.raises(ConfigError) as e:
            parse_config(config)
        assert [(i.path, i.message) for i in e.value.issues] == [
            ("current.normalize", f"expected true or false, got {text!r}")]
    else:
        T = build_current(build_experiment(parse_config(config)))
        assert T.normalize is value


TORUS2 = "[manifold]\nlengths = 1, 1\n\n[fields]\ndiffusion1 = 1, 0\n\n"
HEISENBERG_LIEALG = "[liealg]\nalgebra = heisenberg\nsubalgebra = 1, 3\n\n"
HEISENBERG_REALIZED = HEISENBERG_LIEALG.replace("\n\n", "\nrealization = heisenberg\n\n")
MEAN_RULE = "must be >= 2: the mean check estimates a standard error"
STEP_RULE = "t must be an integer multiple of dt"
GRID_RULE = "must be >= 2"

# values that failed inside build_experiment, or while the checks ran,
# each with the command-line overrides it is parsed with
LOCATED_AT_PARSE = {
    # one issue: the check is not taken for one without a realization
    "unknown_realization": (
        "[liealg]\nalgebra = sl2\nsubalgebra = 1, 2\nrealization = sphere\n"
        "\n[check foliation]\npaths = 2\n", {},
        "liealg.realization", 4,
        "unknown realization 'sphere' (known: heisenberg, torus)"),
    "unknown_algebra": (
        "[liealg]\nalgebra = sl3\nsubalgebra = 1\n\n[check foliation]\n", {},
        "liealg.algebra", 2, "unknown algebra 'sl3' (known: abelian1, abelian2, "
        "abelian3, heisenberg, sl2, so3)"),
    # a grid of one point, in the current or in any check that has a grid
    "current_grid_of_one": (TORUS2 + "[current]\ngrid = 1\n", {}, "current.grid", 8,
                            GRID_RULE),
    "nform_grid_of_one": (TORUS2 + "[check mean_nform]\ngrid = 1\n", {},
                          "check.mean_nform.grid", 8, GRID_RULE),
    "residual_grid_of_one": (TORUS2 + "[check strict_residual]\ngrid = 1\n", {},
                             "check.strict_residual.grid", 8, GRID_RULE),
    "empirical_grid_of_one": (TORUS2 + "[check empirical_mean]\ngrid = 1\n", {},
                              "check.empirical_mean.grid", 8, GRID_RULE),
    "foliation_grid_of_one": (HEISENBERG_REALIZED + "[check foliation]\ngrid = 1\n",
                              {}, "check.foliation.grid", 7, GRID_RULE),
    # 1 + x1 jumps by 2 where the circle glues x1 = 1 to x1 = 0
    "density_that_does_not_descend": (
        "[manifold]\nlengths = 1\n\n[fields]\ndiffusion1 = 1\n\n"
        "[current]\ndensity = 1 + x1\ngrid = 64\n", {}, "current.density", 8,
        "the density does not descend to the quotient: it differs at points "
        "that the identification glues"),
    "heisenberg_with_two_lengths": (
        "[manifold]\ntype = heisenberg\nlengths = 1, 1\n\n"
        "[fields]\ndiffusion1 = 1, 0, 0\n", {},
        "manifold.lengths", 3, "a heisenberg manifold has 3 lengths, got 2"),
    "heisenberg_lattice_rule": (
        "[manifold]\ntype = heisenberg\nlengths = 1, 1, 2\n\n"
        "[fields]\ndiffusion1 = 1, 0, 0\n", {},
        "manifold.lengths", 3, "heisenberg lattice needs Lx*Ly integer multiple of Lz"),
    "torus_of_default_dimension": (
        "[manifold]\ntype = torus\n\n[fields]\ndiffusion1 = 1, 0\n", {},
        "fields.diffusion1", 5, "diffusion1 has 2 components, manifold has "
        "dimension 1"),
    "foliation_on_a_flow": (
        TORUS2 + "[check foliation]\npaths = 2\n", {}, "check.foliation", 7,
        "[check foliation] does not run on a [manifold]/[fields] experiment"),
    "jacobian_on_a_liealg": (
        HEISENBERG_LIEALG + "[check jacobian]\n", {}, "check.jacobian", 5,
        "[check jacobian] does not run on a [liealg] experiment"),
    "algebra_and_constants": (
        "[liealg]\nalgebra = sl2\nsubalgebra = 1, 2\nconstants = "
        '{"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0]}]}\n', {},
        "liealg.constants", 4, "give 'algebra' or 'constants', not both"),
    "x0_of_the_wrong_dimension": (
        TORUS2 + "[check jacobian]\nx0 = 0.3\n", {}, "check.jacobian.x0", 8,
        "x0 has 1 coordinates, manifold has dimension 2"),
    "one_mean_path": (
        TORUS2 + "[check empirical_mean]\npaths = 1\n", {},
        "check.empirical_mean.paths", 8, MEAN_RULE),
    "one_foliation_path": (
        HEISENBERG_REALIZED + "[check foliation]\n", {"paths": "1"}, "--paths", None,
        MEAN_RULE),
    "zero_paths": (TORUS2 + "[check jacobian]\n", {"paths": "0"}, "--paths", None,
                   "must be positive"),
    "horizon_not_a_multiple": (
        TORUS2 + "[check empirical_pathwise]\nt = 1\ndt = 0.3\n", {},
        "check.empirical_pathwise.dt", 9, STEP_RULE),
    # one issue for the two checks the override sets
    "overridden_dt_not_a_divisor": (
        TORUS2 + "[check empirical_pathwise]\n\n[check jacobian]\nt = 0.5\n",
        {"dt": "0.3"}, "--dt", None, STEP_RULE),
    "non_finite_dt": (TORUS2 + "[check jacobian]\n", {"dt": "nan"}, "--dt", None,
                      "must be finite"),
}


@pytest.mark.parametrize("text,overrides,path,line,message",
                         LOCATED_AT_PARSE.values(), ids=list(LOCATED_AT_PARSE))
def test_values_are_rejected_at_parse_with_a_location(text, overrides, path, line,
                                                      message):
    with pytest.raises(ConfigError) as e:
        parse_config(text, overrides)
    assert [(i.path, i.line, i.message) for i in e.value.issues] == [
        (path, line, message)]


# (type or None, lengths or None, density, want): want is the manifold's
# lengths, or the (path, message) of each issue, as they were when the
# quotients were written out by name
QUOTIENT_CONFIGS = {
    "default_torus": (None, None, "1", (1.0,)),
    "torus_of_0.7_and_a_third": (
        "torus", "0.7, 0.3333333333333333", "2 + cos(2*pi*x1/0.7)*sin(6*pi*x2)",
        (0.7, 1 / 3)),
    "torus4": ("torus", "1, 2, 0.5, 3", "2 + sin(2*pi*x4/3)", (1.0, 2.0, 0.5, 3.0)),
    "circle_density_with_a_seam": ("torus", "1", "1 + x1", [(
        "current.density", "the density does not descend to the quotient: it "
        "differs at points that the identification glues")]),
    "default_heisenberg": ("heisenberg", None, "1", (1.0, 1.0, 1.0)),
    "heisenberg_theta_density": ("heisenberg", "1, 1, 1", THETA_DENSITY, (1.0, 1.0, 1.0)),
    "heisenberg_one_fiber_mode": ("heisenberg", "1, 1, 1", "2 + cos(2*pi*(x3 + x2))", [(
        "current.density", "the density does not descend to the quotient: it "
        "differs at points that the identification glues")]),
    "heisenberg_box": ("heisenberg", "2, 0.5, 1", "2 + cos(pi*x1)*sin(4*pi*x2)",
                       (2.0, 0.5, 1.0)),
    "heisenberg_box_fiber_mode": ("heisenberg", "2, 0.5, 1", "2 + sin(2*pi*x3)", [(
        "current.density", "the density does not descend to the quotient: it "
        "differs at points that the identification glues")]),
    "heisenberg_non_dyadic": ("heisenberg", "0.7, 1.4285714285714286, 1", "1",
                              (0.7, 10 / 7, 1.0)),
    "heisenberg_two_lengths": ("heisenberg", "1, 1", "1", [
        ("manifold.lengths", "a heisenberg manifold has 3 lengths, got 2")]),
    "heisenberg_four_lengths": ("heisenberg", "1, 1, 1, 1", "1", [
        ("manifold.lengths", "a heisenberg manifold has 3 lengths, got 4")]),
    "heisenberg_lattice_rule": ("heisenberg", "1, 1, 0.7", "1", [
        ("manifold.lengths", "heisenberg lattice needs Lx*Ly integer multiple of Lz")]),
    "quotient_outside_the_table": ("sol", "1, 1, 1", "1", [
        ("manifold.type", "unknown manifold type 'sol' (known: torus, heisenberg)")]),
}


@pytest.mark.parametrize("kind,lengths,density,want", QUOTIENT_CONFIGS.values(),
                         ids=list(QUOTIENT_CONFIGS))
def test_each_quotient_config_descends_or_is_rejected_as_before(kind, lengths,
                                                                density, want):
    dim = len(want) if isinstance(want, tuple) else len((lengths or "1").split(","))
    text = ("[manifold]\n" + (f"type = {kind}\n" if kind else "")
            + (f"lengths = {lengths}\n" if lengths else "")
            + "\n[fields]\ndiffusion1 = " + ", ".join(["1"] + ["0"] * (dim - 1))
            + f"\n\n[current]\ndensity = {density}\ngrid = 8\n\n[check strict_nform]\n")
    if isinstance(want, list):
        with pytest.raises(ConfigError) as e:
            parse_config(text)
        assert [(i.path, i.message) for i in e.value.issues] == want
        return
    cfg = parse_config(text)
    assert cfg.value("manifold.lengths") == want
    exp = build_experiment(cfg)
    assert exp.system.manifold.identification == (kind or "torus")
    assert build_current(exp).density == expr.parse(density)


def test_a_fiber_density_that_descends_is_accepted():
    # the theta density descends to rounding (4.4e-16) on the Heisenberg
    # nilmanifold, though it depends on the fiber coordinate
    cfg = parse_config("[manifold]\ntype = heisenberg\n\n[fields]\n"
                       "diffusion1 = 0, 0, sin(2*pi*x1)\n\n[current]\n"
                       f"density = {THETA_DENSITY}\ngrid = 16\n\n"
                       "[check strict_nform]\n")
    T = build_current(build_experiment(cfg))
    assert T.density == expr.parse(THETA_DENSITY)


@pytest.mark.parametrize("name", [*preset_names(), "tilted_density"])
def test_each_expression_is_parsed_once(name, monkeypatch):
    text = TILTED_HAMILTONIAN if name == "tilted_density" else preset_text(name)
    parsed = []
    parse = expr.parse
    monkeypatch.setattr(expr, "parse", lambda s: parsed.append(s) or parse(s))
    cfg = parse_config(text)
    build_experiment(cfg)
    monkeypatch.undo()
    expressions = [part.strip() for _, value in cfg.fields or ()
                   for part in value.split(",")]
    expressions += [v for k, v in cfg.current or () if k == "density"]
    assert sorted(parsed) == sorted(expressions)


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_simulate_rejects_a_non_finite_horizon(tmp_path, capsys, t):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "hamiltonian_torus", "--trajectory", str(out),
                 "--t", t, "--dt", "0.01"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --t: must be finite"]
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--x0", "abc"], "--x0: expected a number, got 'abc'"),
    (["--x0", "0.3"], "--x0: x0 has 1 coordinates, manifold has dimension 2"),
    (["--t", "0.5", "--dt", "0.3"], "--dt: t must be an integer multiple of dt"),
    (["--dt", "0.3"], "--dt: t must be an integer multiple of dt"),
    (["--dt", "0"], "--dt: must be positive"),
    (["--t", "abc", "--x0", "0.1, 0.2, 0.3"],
     "--t: expected a number, got 'abc'\n"
     "error: --x0: x0 has 3 coordinates, manifold has dimension 2"),
], ids=["x0_not_a_number", "x0_of_the_wrong_dimension", "horizon_not_a_multiple",
        "dt_not_a_divisor_of_the_default_t", "zero_dt", "two_flags"])
def test_simulate_flags_are_converted_as_check_values(tmp_path, capsys, argv,
                                                      message):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "hamiltonian_torus", "--trajectory", str(out),
                 *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_flags_left_out_take_the_check_defaults(tmp_path):
    def rows(*argv):
        out = tmp_path / f"traj{len(argv)}.csv"
        assert main(["simulate", "heisenberg_foliation", "--trajectory", str(out),
                     *argv]) == 0
        return out.read_text()

    given = rows("--t", "1.0", "--dt", "0.001", "--x0", "0.5, 0.5, 0.5")
    assert rows() == given
    assert given.splitlines()[1] == "0,0.5,0.5,0.5,0"


def test_unknown_config_is_execution_error(tmp_path):
    assert main(["check", "no_such_file.cfg", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv,message", [
    (["--paths", "0"], "--paths: must be positive"),
    (["--dt", "0"], "--dt: must be positive"),
    (["--dt", "nan"], "--dt: must be finite"),
    (["--dt", "abc"], "--dt: expected a number, got 'abc'"),
    (["--dt", "0.3"], "--dt: t must be an integer multiple of dt"),
    (["--seed", str(2 ** 64)], "--seed: must be in [0, 2**64)"),
])
def test_overrides_are_rejected_before_any_check_runs(tmp_path, capsys, argv,
                                                       message):
    out = tmp_path / "out"
    assert main(["check", "translation_bm_torus", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("argv,err", [
    (["check"], "usage:"),
    # --seed is converted as --dt is: a flag error, not a usage error
    (["check", "translation_bm_torus", "--seed", "abc"],
     "error: --seed: expected an integer, got 'abc'\n"),
], ids=["no_config", "seed_not_an_integer"])
def test_usage_errors_exit_1(capsys, argv, err):
    assert main(argv) == 1
    assert err in capsys.readouterr().err


BOUNDARY_ERRORS = {
    "check_missing": (["check", "missing.cfg"],
                      "no config file or preset named 'missing.cfg'"),
    "simulate_missing": (["simulate", "missing.cfg"],
                         "no config file or preset named 'missing.cfg'"),
    "check_directory": (["check", "a_directory"],
                        "no config file or preset named 'a_directory'"),
    "simulate_directory": (["simulate", "a_directory"],
                           "no config file or preset named 'a_directory'"),
    "check_not_utf8": (["check", "latin1.cfg"], "'utf-8' codec can't decode byte "
                       "0xe9 in position 5: invalid continuation byte"),
    "simulate_not_utf8": (["simulate", "latin1.cfg"], "'utf-8' codec can't decode "
                          "byte 0xe9 in position 5: invalid continuation byte"),
    "liealg_directory": (["liealg", "a_directory", "--subalgebra", "1"],
                         "a_directory: cannot read the constants file: "
                         "[Errno 21] Is a directory: 'a_directory'"),
    "presets_show_unknown": (["presets", "show", "nope"],
                             f"unknown preset 'nope'; known: {', '.join(preset_names())}"),
    "check_seed_not_an_integer": (["check", "translation_bm_torus", "--seed", "abc"],
                                  "--seed: expected an integer, got 'abc'"),
    "simulate_seed_not_an_integer": (["simulate", "hamiltonian_torus", "--seed",
                                      "abc"], "--seed: expected an integer, got 'abc'"),
    "check_negative_seed": (["check", "translation_bm_torus", "--seed", "-1"],
                            "--seed: must be in [0, 2**64)"),
    "simulate_negative_path_index": (
        ["simulate", "hamiltonian_torus", "--path-index", "-1"],
        "seed and path index must be in [0, 2**64), got 0 and -1"),
}


@pytest.mark.parametrize("argv,message", BOUNDARY_ERRORS.values(),
                         ids=list(BOUNDARY_ERRORS))
def test_every_command_reports_bad_input_as_one_error_line(tmp_path, monkeypatch,
                                                           capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "latin1.cfg").write_bytes(f"# caf\xe9\n{MINIMAL_FLOW}".encode("latin-1"))
    out = {"check": ["--out", "out"], "simulate": ["--trajectory", "traj.csv"]}
    assert main(argv + out.get(argv[0], [])) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {message}"]
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory", "latin1.cfg"]


def test_a_directory_named_like_a_preset_runs_the_preset(tmp_path, monkeypatch):
    # the config argument is read as a file only when it is one
    hashes = []
    for folder in ("plain", "with_directory"):
        (tmp_path / folder).mkdir()
        monkeypatch.chdir(tmp_path / folder)
        if folder == "with_directory":
            Path("hamiltonian_torus").mkdir()
        assert main(["check", "hamiltonian_torus", "--out", "out"]) == 0
        hashes.append(json.loads(Path("out/report.json").read_text())["payload_sha256"])
    assert hashes[0] == hashes[1]


def test_report_hash_is_deterministic(tmp_path):
    args = ["check", "translation_bm_torus", "--paths", "20", "--dt", "0.01"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    doc_a = json.loads((tmp_path / "a" / "report.json").read_text())
    doc_b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert doc_a["payload_sha256"] == doc_b["payload_sha256"]
    assert doc_a["payload"] == doc_b["payload"]


def test_report_times_each_check_outside_the_hash(tmp_path):
    args = ["check", "hamiltonian_torus", "--dt", "0.01"]
    docs = []
    for name in ("a", "b"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
        docs.append(json.loads((tmp_path / name / "report.json").read_text()))
    for doc in docs:
        timings = doc["diagnostics"]["checks"]
        assert [t["kind"] for t in timings] == [
            c["kind"] for c in doc["payload"]["checks"]]
        assert all(isinstance(t["wall_s"], float) and t["wall_s"] >= 0
                   for t in timings)
        blob = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == doc["payload_sha256"]
    assert docs[0]["payload_sha256"] == docs[1]["payload_sha256"]


# sizes about SHA-256's 64-byte block: the padding of 55 bytes fits in
# one block, that of 56 does not
@pytest.mark.parametrize("size", [0, 1, 55, 56, 64, 10**6])
def test_report_digest_is_sha256(size):
    data = (bytes(range(256)) * (size // 256 + 1))[:size]
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_report_digest_falls_back_to_hashlib_without_built_in_hashes(monkeypatch):
    # a CPython built without its own hashes has only OpenSSL's
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
        None if name in ("_sha2", "_sha256") else find_spec(name, *args)))
    imported, import_module = [], importlib.import_module
    monkeypatch.setattr(importlib, "import_module",
                        lambda name: imported.append(name) or import_module(name))
    assert sha256_hex(b"abc") == hashlib.sha256(b"abc").hexdigest()
    assert imported == ["hashlib"]


def test_report_hash_depends_on_seed(tmp_path):
    base = ["check", "translation_bm_torus", "--paths", "10", "--dt", "0.01"]
    main(base + ["--seed", "1", "--out", str(tmp_path / "s1")])
    main(base + ["--seed", "2", "--out", str(tmp_path / "s2")])
    a = json.loads((tmp_path / "s1" / "report.json").read_text())
    b = json.loads((tmp_path / "s2" / "report.json").read_text())
    assert a["payload_sha256"] != b["payload_sha256"]


def test_csv_rows_have_documented_header(tmp_path):
    main(["check", "sl2_foliation", "--out", str(tmp_path)])
    files = sorted(tmp_path.glob("check_*.csv"))
    assert files
    with open(files[0], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "basis_index", "field_index", "value",
                       "std_error", "tolerance"]
    assert any(r[0] == "foliation_verdict" and r[3] == "2.0" for r in rows[1:])


SMALL_MC = "t = 0.02\ndt = 0.01\nbasis_k = 1\n"
NO_TOLERANCES = {
    "flow": MINIMAL_FLOW.replace("tolerance = 1e-8\n", "") + (
        "\n[check mean_nform]\n\n[check strict_residual]\nbasis_k = 1\n"
        "\n[check mean_residual]\nbasis_k = 1\n"
        f"\n[check empirical_pathwise]\n{SMALL_MC}"
        f"\n[check empirical_mean]\n{SMALL_MC}paths = 4\n"
        "\n[check jacobian]\nt = 0.02\ndt = 0.01\npaths = 2\n"),
    "liealg": ("[liealg]\nalgebra = heisenberg\nsubalgebra = 1, 3\n"
               f"realization = heisenberg\n\n[check foliation]\n{SMALL_MC}"
               "paths = 4\ngrid = 4\n"),
}


def test_a_check_without_tolerance_reports_the_default_of_its_kind(tmp_path):
    def reports(checks):
        for chk in checks:
            yield chk
            yield from reports(chk.get("subchecks", []))

    kinds = set()
    for name, text in NO_TOLERANCES.items():
        assert run(parse_config(text), tmp_path / name) == 0
        doc = json.loads((tmp_path / name / "report.json").read_text())
        for chk in reports(doc["payload"]["checks"]):
            kinds.add(chk["kind"])
            if chk["kind"] != "empirical_mean":  # 3*stderr + C*dt instead
                assert chk["tolerance"] == DEFAULT_TOLERANCES[chk["kind"]], chk["kind"]
    assert kinds == set(DEFAULT_TOLERANCES)


def test_normalize_leaves_the_nform_residuals_of_the_raw_density(tmp_path):
    # the n-form checks read the density expression, not the weights,
    # which normalizing divides by the mass 3
    nform = "\n[check strict_nform]\n\n[check mean_nform]\n"
    tilted = TILTED_HAMILTONIAN.replace("density = 1 + 0.5*sin(2*pi*x1)",
                                        "density = 3 + 1.5*sin(2*pi*x1)")
    checks = []
    for normalize in ("false", "true"):
        text = tilted.replace("grid = 16\n",
                              f"grid = 16\nnormalize = {normalize}\n") + nform
        run(parse_config(text), tmp_path / normalize)
        doc = json.loads((tmp_path / normalize / "report.json").read_text())
        checks.append(doc["payload"]["checks"])
    assert checks[0] == checks[1]
    assert [c["residual"] > 0 for c in checks[0]] == [True, True]


def test_an_nform_check_validates_the_density_at_its_own_grid(tmp_path, capsys):
    # positive at the current's 8 midpoints per axis, where cos(8*pi*x1)
    # is 0, but not at the 64 of the check
    cfg = tmp_path / "dips.cfg"
    cfg.write_text(MINIMAL_FLOW.replace("density = 1", "density = 0.5 - cos(8*pi*x1)"))
    assert main(["check", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: current density must be positive\n"


def test_csv_rows_carry_std_error_and_tolerance(tmp_path):
    args = ["check", "translation_bm_torus", "--paths", "20", "--dt", "0.01"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    for i, chk in enumerate(doc["payload"]["checks"], start=1):
        path = tmp_path / f"check_{i:02d}_{chk['kind']}.csv"
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[-2:] == ["std_error", "tolerance"]
        assert len(rows) == len(chk["per_basis"])
        for row, want in zip(rows, chk["per_basis"]):
            assert float(row[3]) == want["value"]
            if chk["kind"] == "empirical_mean":
                assert float(row[4]) == want["std_error"] >= 0
                assert float(row[5]) == want["tolerance"] > 0
            else:
                assert row[4:] == ["", ""]
    kinds = [chk["kind"] for chk in doc["payload"]["checks"]]
    assert "empirical_mean" in kinds and "mean_residual" in kinds


def test_pathwise_check_rejects_paths():
    text = preset_text("translation_bm_torus").replace(
        "[check empirical_pathwise]\n", "[check empirical_pathwise]\npaths = 40\n")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    (issue,) = e.value.issues
    assert "[check empirical_pathwise]" in str(issue) and "'paths'" in str(issue)
    assert issue.path == "check.empirical_pathwise.paths"
    # the same key stays valid where it is used
    parse_config(text.replace("[check empirical_pathwise]\npaths = 40\n",
                              "[check empirical_pathwise]\n"))


ONE_ATOM = """\
[manifold]
type = torus
lengths = 1

[fields]
drift = 0
diffusion1 = sin(2*pi*x1)

[current]
type = empirical
atoms = 0.5
weights = 1

[check strict_residual]
"""


def test_empirical_current_rejects_grid_and_nform_checks(tmp_path):
    # the atom at 0.5 is a fixed point, so its Dirac current is strictly
    # invariant; strict_nform would test the volume form instead and
    # report FAIL (residual 6.16 on a 16-grid)
    text = (ONE_ATOM + "grid = 16\n\n[check strict_nform]\ngrid = 16\n\n"
            "[check mean_nform]\n\n[check mean_residual]\ngrid = 8\n\n"
            "[check empirical_mean]\ngrid = 8\n")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert [i.path for i in e.value.issues] == [
        "check.strict_residual.grid", "check.strict_nform", "check.mean_nform",
        "check.mean_residual.grid", "check.empirical_mean.grid"]
    assert all("empirical" in i.message for i in e.value.issues)
    assert e.value.issues[0].line == 15
    # without them the residual checks decide the atom
    cfg = parse_config(ONE_ATOM + "\n[check mean_residual]\n")
    assert run(cfg, tmp_path) == 0
    # a density current still takes both
    density = ONE_ATOM.replace("type = empirical\natoms = 0.5\nweights = 1\n",
                               "density = 1\n")
    parse_config(density + "grid = 16\n\n[check strict_nform]\n")


def test_current_rejects_the_other_types_keys():
    # an empirical current has no grid, density or normalization
    text = ONE_ATOM.replace("weights = 1\n", "weights = 1\ngrid = 16\n"
                            "density = 1 + 0.5*sin(2*pi*x1)\nnormalize = true\n")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert [(i.path, i.line) for i in e.value.issues] == [
        ("current.grid", 13), ("current.density", 14), ("current.normalize", 15)]
    assert all("empirical current does not take" in i.message
               for i in e.value.issues)
    # a density current has no atoms or weights
    density = ONE_ATOM.replace("type = empirical\n", "type = density\n")
    with pytest.raises(ConfigError) as e:
        parse_config(density)
    assert [i.path for i in e.value.issues] == ["current.atoms", "current.weights"]
    assert all("density current does not take" in i.message for i in e.value.issues)
    # ... whether its type is given or not
    with pytest.raises(ConfigError) as e:
        parse_config(ONE_ATOM.replace("type = empirical\n", ""))
    assert [i.path for i in e.value.issues] == ["current.atoms", "current.weights"]
    with pytest.raises(ConfigError) as e:
        parse_config(ONE_ATOM.replace("type = empirical", "type = dirac"))
    assert e.value.issues[0].path == "current.type"
    assert "unknown current type 'dirac'" in e.value.issues[0].message


def test_empirical_current_needs_atoms_and_weights(tmp_path, capsys):
    text = ONE_ATOM.replace("atoms = 0.5\n", "")
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert [(i.path, i.line) for i in e.value.issues] == [("current.atoms", 10)]
    assert "empirical current needs 'atoms'" in e.value.issues[0].message
    with pytest.raises(ConfigError) as e:
        parse_config(ONE_ATOM.replace("atoms = 0.5\nweights = 1\n", ""))
    assert [i.path for i in e.value.issues] == ["current.atoms", "current.weights"]
    # check reports the issue and exits 1 instead of failing in the run
    cfg = tmp_path / "atom.cfg"
    cfg.write_text(text)
    assert main(["check", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "current.atoms (line 10): an empirical current needs 'atoms'" in \
        capsys.readouterr().err


def test_empirical_atoms_and_weights_must_be_numbers(tmp_path, capsys):
    def issues(old, new):
        with pytest.raises(ConfigError) as e:
            parse_config(ONE_ATOM.replace(old, new))
        return [(i.path, i.line, i.message) for i in e.value.issues]

    assert issues("atoms = 0.5", "atoms = abc") == [
        ("current.atoms", 11, "expected a number, got 'abc'")]
    assert issues("weights = 1", "weights = one") == [
        ("current.weights", 12, "expected a number, got 'one'")]
    assert issues("atoms = 0.5", "atoms = 0.5; 0.25") == [
        ("current.weights", 12, "1 weights for 2 atoms")]
    assert issues("atoms = 0.5", "atoms = 0.5; 0.25 0.75") == [
        ("current.atoms", 11, "atom 2 has 2 coordinates, need 1"),
        ("current.weights", 12, "1 weights for 2 atoms")]
    parse_config(ONE_ATOM.replace("atoms = 0.5\nweights = 1",
                                  "atoms = 0.5; 0.25\nweights = 0.5, 0.5"))
    cfg = tmp_path / "atom.cfg"
    cfg.write_text(ONE_ATOM.replace("atoms = 0.5", "atoms = 0.5 abc"))
    assert main(["check", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "current.atoms (line 11, column 9): expected a number, got 'abc'" in err
    assert "could not convert" not in err


def test_overrides_record_only_what_a_check_used(tmp_path):
    def overrides(checks, name):
        cfg = parse_config(MINIMAL_FLOW + checks, {"seed": 4, "dt": 0.01, "paths": 7})
        assert run(cfg, tmp_path / name) == 0
        doc = json.loads((tmp_path / name / "report.json").read_text())
        return doc["payload"]["overrides"]

    assert overrides("", "nform") == {}
    pathwise = "\n[check empirical_pathwise]\nt = 0.02\nbasis_k = 1\n"
    assert overrides(pathwise, "pathwise") == {"dt": 0.01, "seed": 4}
    mean = "\n[check empirical_mean]\nt = 0.02\nbasis_k = 1\n"
    assert overrides(mean, "mean") == {"dt": 0.01, "paths": 7, "seed": 4}


SL2_ALONE = "[liealg]\nalgebra = sl2\nsubalgebra = 1, 2\n\n[check foliation]\n"


@pytest.mark.parametrize("key", ["t", "dt", "paths", "grid", "basis_k", "bias_c"])
def test_foliation_without_a_realization_rejects_the_flow_keys(key):
    with pytest.raises(ConfigError) as e:
        parse_config(f"{SL2_ALONE}seed = 1\n{key} = 2\n")
    assert [(i.path, i.line, i.message) for i in e.value.issues] == [
        (f"check.foliation.{key}", 7, "[check foliation] without a realization "
         f"runs no flow and does not take {key!r} (it takes seed)")]


def test_foliation_without_a_realization_takes_no_override(tmp_path):
    # --paths 1 would break the mean rule of a check that flows paths
    cfg = parse_config(SL2_ALONE + "seed = 3\n",
                       {"seed": "5", "dt": "0.3", "paths": "1"})
    assert cfg.overrides == ()
    assert cfg.checks[0].value("seed") == 3
    out = tmp_path / "out"
    assert main(["check", "sl2_foliation", "--paths", "7", "--seed", "5",
                 "--out", str(out)]) == 2
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert payload["overrides"] == {}
    assert payload["checks"][0]["seed"] == 0


def with_key(text, kind, key, value):
    header = f"[check {kind}]\n"
    assert header in text
    return text.replace(header, f"{header}{key} = {value}\n")


@pytest.mark.parametrize("preset,kind,key,value", [
    ("frame_divergence_torus", "foliation", "tolerance", "1e-30"),
    ("translation_bm_torus", "mean_residual", "x0", "0.1, 0.2"),
    ("translation_bm_torus", "mean_residual", "t", "1.0"),
    ("translation_bm_torus", "mean_residual", "bias_c", "2"),
    ("translation_bm_torus", "empirical_pathwise", "bias_c", "2"),
    ("translation_bm_torus", "empirical_mean", "tolerance", "1e-30"),
    ("translation_bm_torus", "strict_nform", "dt", "0.01"),
    ("hamiltonian_torus", "jacobian", "grid", "16"),
])
def test_keys_a_check_does_not_read_are_rejected(preset, kind, key, value):
    with pytest.raises(ConfigError) as e:
        parse_config(with_key(preset_text(preset), kind, key, value))
    (issue,) = e.value.issues
    assert f"[check {kind}]" in str(issue) and repr(key) in str(issue)
    assert issue.path == f"check.{kind}.{key}"


def test_every_key_outside_the_table_is_rejected():
    keys = sorted(set().union(*CHECK_KEYS.values()))
    value = {"x0": "0.5, 0.5", "dt": "0.5"}
    for kind, accepted in CHECK_KEYS.items():
        experiment = HEISENBERG_REALIZED if kind == "foliation" else TORUS2
        for key in keys:
            text = f"{experiment}\n[check {kind}]\n{key} = {value.get(key, '2')}\n"
            if key in accepted:
                parse_config(text)
            else:
                with pytest.raises(ConfigError) as e:
                    parse_config(text)
                assert [i.path for i in e.value.issues] == [f"check.{kind}.{key}"]


# Each check kind on a small run: the value of every key it accepts, once
# changed, shows in the payload, and checks.run_check reads no other key.
HONOURED_FLOW = """\
[manifold]
type = torus
lengths = 1

[fields]
drift = 0
diffusion1 = 0.2*sin(2*pi*x1)

[current]
density = 1
grid = 8
"""
HONOURED_LIEALG = """\
[liealg]
algebra = heisenberg
subalgebra = 1, 3
realization = heisenberg
"""
BASE_VALUES = {"tolerance": "0.5", "grid": "8", "basis_k": "1", "t": "0.02",
               "dt": "0.01", "seed": "1", "paths": "4", "bias_c": "2",
               "x0": "0.3"}
OTHER_VALUES = {"tolerance": "0.25", "grid": "6", "basis_k": "2", "t": "0.03",
                "dt": "0.005", "seed": "2", "paths": "3", "bias_c": "3",
                "x0": "0.6"}


def run_one_check(tmp_path, kind, values, name):
    experiment = HONOURED_LIEALG if kind == "foliation" else HONOURED_FLOW
    section = "".join(f"{k} = {v}\n" for k, v in values.items())
    cfg = parse_config(f"{experiment}\n[check {kind}]\n{section}")
    assert run(cfg, tmp_path / name) in (0, 2)
    doc = json.loads((tmp_path / name / "report.json").read_text())
    (check,) = doc["payload"]["checks"]
    return check


@pytest.mark.parametrize("kind", sorted(CHECK_KEYS))
def test_every_accepted_key_is_honoured(kind, tmp_path, monkeypatch):
    base = {key: BASE_VALUES[key] for key in CHECK_KEYS[kind]}
    read = set()
    value = CheckSpec.value

    def recording_value(self, key):
        read.add(key)
        return value(self, key)

    monkeypatch.setattr(CheckSpec, "value", recording_value)
    want = run_one_check(tmp_path, kind, base, "base")
    monkeypatch.undo()
    assert read == set(CHECK_KEYS[kind])
    for key in CHECK_KEYS[kind]:
        got = run_one_check(tmp_path, kind, {**base, key: OTHER_VALUES[key]}, key)
        assert got != want, key


def test_bias_constant_follows_the_system_that_runs(tmp_path):
    def bias_constants(name):
        out = tmp_path / "out" / Path(name).name
        assert main(["check", name, "--paths", "4", "--dt", "0.01",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        checks = list(doc["payload"]["checks"])
        for chk in checks:
            checks.extend(chk.get("subchecks", []))
        return [c["extra"]["bias_c"] for c in checks if c["kind"] == "empirical_mean"]

    for name in ("translation_bm_torus", "heisenberg_foliation",
                 "frame_divergence_torus"):
        assert bias_constants(name) == [EXACT_BIAS_C], name
    cfg = tmp_path / "bias.cfg"
    cfg.write_text(with_key(preset_text("translation_bm_torus"),
                            "empirical_mean", "bias_c", "0.5"))
    assert bias_constants(str(cfg)) == [0.5]


def test_config_and_library_translations_give_one_report():
    config_built = build_experiment(parse_config(preset_text("translation_bm_torus")))
    reports = []
    for sys in (config_built.system, translation_bm_system(2)):
        T = volume_current(sys.manifold, 8)
        basis = make_test_basis(sys.manifold, 1)
        run = EmpiricalRun(T, sys, basis, 0.1, 0.01, 3)
        reports.append(empirical_check(run, "mean", 20))
    assert reports[0].payload() == reports[1].payload()
    assert reports[0].metadata["bias_c"] == EXACT_BIAS_C


def record_flows(monkeypatch):
    """The paths of each pullback_values call of the checks, and the
    number of evaluate_many calls, as they are made."""
    flows, targets = [], []
    pullback, evaluate = invariance.pullback_values, invariance.evaluate_many
    monkeypatch.setattr(invariance, "pullback_values",
                        lambda *args: flows.append(args[-1]) or pullback(*args))
    monkeypatch.setattr(invariance, "evaluate_many",
                        lambda *args: targets.append(1) or evaluate(*args))
    return flows, targets


def test_translation_preset_flows_its_empirical_paths_once(tmp_path, monkeypatch):
    # the pathwise probe flows paths 0-4, and the mean check the rest of
    # its 1000
    flows, targets = record_flows(monkeypatch)
    assert main(["check", "translation_bm_torus", "--out", str(tmp_path)]) == 0
    assert flows == [range(5), range(5, 1000)] and len(targets) == 1


def test_translation_preset_builds_one_current_per_grid(tmp_path, monkeypatch):
    # the [current] is built at 16, strict_nform's at its default 64, and
    # one current at 32 serves both residual checks
    grids = []
    init = DensityCurrent.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        grids.append(self.grid_n)

    monkeypatch.setattr(DensityCurrent, "__init__", recording_init)
    assert main(["check", "translation_bm_torus", "--out", str(tmp_path)]) == 0
    assert grids == [16, 64, 32]


# the current's grid is 8; a check without a grid of its own runs on it
SHARED_RUNS = HONOURED_FLOW + """
[check empirical_pathwise]
t = 0.02
dt = 0.01
seed = 3

[check empirical_mean]
t = 0.02
dt = 0.01
seed = 3
grid = 8
paths = 12

[check empirical_mean]
t = 0.02
dt = 0.01
seed = 4
paths = 3

[check empirical_pathwise]
t = 0.02
dt = 0.01
seed = 3
grid = 4
"""


def test_empirical_checks_of_one_run_key_share_one_run(tmp_path, monkeypatch):
    flows, targets = record_flows(monkeypatch)
    assert run(parse_config(SHARED_RUNS), tmp_path) in (0, 2)
    monkeypatch.undo()
    # one run per (grid, basis_k, t, dt, seed), each path flowed once
    assert flows == [range(5), range(5, 12), range(3), range(5)]
    assert len(targets) == 3
    # each report is that of a run of exactly the paths it reads
    exp = build_experiment(parse_config(SHARED_RUNS))
    checks = json.loads((tmp_path / "report.json").read_text())["payload"]["checks"]
    for chk, check in zip(exp.config.checks, checks):
        T = volume_current(exp.system.manifold, chk.value("grid") or 8)
        basis = make_test_basis(T.manifold, chk.value("basis_k"))
        paths = chk.value("paths") if chk.kind == "empirical_mean" else 5
        alone = EmpiricalRun(T, exp.system, basis, 0.02, 0.01, chk.value("seed"))
        mode = chk.kind[len("empirical_"):]
        want = empirical_check(alone, mode, paths) if mode == "mean" else \
            empirical_check(alone, mode)
        assert check == json.loads(json.dumps(want.payload()))


# ---------------------------------------------------------------------------
# other commands

def test_liealg_command(tmp_path, capsys):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps({
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": [0, 2, 0]},
            {"i": 1, "j": 3, "coeffs": [0, 0, -2]},
            {"i": 2, "j": 3, "coeffs": [1, 0, 0]},
        ],
        "labels": ["X", "Y", "Z"],
    }))
    code = main(["liealg", str(path), "--subalgebra", "1,2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "trace ad(X) on h: 2" in out
    assert "totally invariant: False" in out


def test_liealg_command_abelian_passes(tmp_path, capsys):
    path = tmp_path / "ab.json"
    path.write_text(json.dumps({"dim": 2, "brackets": []}))
    assert main(["liealg", str(path), "--subalgebra", "1,2"]) == 0
    assert "totally invariant: True" in capsys.readouterr().out


def _brackets(*entries, dim=2):
    return {"dim": dim, "brackets": list(entries)}


MALFORMED_CONSTANTS = {
    "no_i": (_brackets({"j": 2, "coeffs": [0, 1]}), "bracket entry 1 has no 'i'"),
    "no_j": (_brackets({"i": 1, "coeffs": [0, 1]}), "bracket entry 1 has no 'j'"),
    "no_coeffs": (_brackets({"i": 1, "j": 2}), "bracket entry 1 has no 'coeffs'"),
    "entry_not_object": (_brackets([1, 2]), "bracket entry 1 must be an object"),
    "brackets_not_list": ({"dim": 2, "brackets": 5}, "'brackets' must be a list"),
    "null_dim": ({"dim": None}, "dim must be an integer, not None"),
    "fractional_dim": ({"dim": 2.5}, "dim must be an integer, not 2.5"),
    "null_index": (_brackets({"i": 1, "j": None, "coeffs": [0, 1]}),
                   "bracket entry 1: 'j' must be an integer, not None"),
    "string_index": (_brackets({"i": "1", "j": 2, "coeffs": [0, 1]}),
                     "bracket entry 1: 'i' must be an integer, not '1'"),
    "text_coeff": (_brackets({"i": 1, "j": 2, "coeffs": ["a", 1]}),
                   "bracket (1, 2): 'coeffs' must be a list of finite numbers"),
    "null_coeff": (_brackets({"i": 1, "j": 2, "coeffs": [None, 1]}),
                   "bracket (1, 2): 'coeffs' must be a list of finite numbers"),
    "coeffs_not_list": (_brackets({"i": 1, "j": 2, "coeffs": 3}),
                        "bracket (1, 2): 'coeffs' must be a list of finite numbers"),
    "huge_dim": ({"dim": 100000}, "dim must be at most 32, not 100000"),
    "index_out_of_range": (_brackets({"i": 1, "j": 5, "coeffs": [0, 0]}),
                           "bracket index out of range: (1, 5)"),
}


@pytest.mark.parametrize("route", ["file", "inline", "algebra_file"])
@pytest.mark.parametrize("doc,message", MALFORMED_CONSTANTS.values(),
                         ids=list(MALFORMED_CONSTANTS))
def test_malformed_constants_are_one_error_line(tmp_path, capsys, route, doc, message):
    # a config reports them at the line of the key that gives the
    # constants, the liealg command at the file's name
    text = json.dumps(doc)
    path = tmp_path / "constants.json"
    path.write_text(text)
    if route == "file":
        code, where = main(["liealg", str(path), "--subalgebra", "1,2"]), f"{path}: "
    else:
        key, entry = (("constants", text) if route == "inline"
                      else ("algebra", f"file:{path}"))
        cfg = tmp_path / "liealg.cfg"
        cfg.write_text(f"[liealg]\n{key} = {entry}\nsubalgebra = 1, 2\n\n"
                       "[check foliation]\nseed = 0\n")
        code = main(["check", str(cfg), "--out", str(tmp_path / "out")])
        where = f"liealg.{key} (line 2, column {len(key) + 4}): "
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {where}{message}")


def test_the_liealg_command_names_a_constants_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "constants.json"
    path.write_text("dim = 3\n")
    assert main(["liealg", str(path), "--subalgebra", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: Expecting value: line 1 column 1 (char 0)"]


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_a_missing_constants_file_is_reported_at_its_key(tmp_path, capsys, command):
    missing = tmp_path / "missing.json"
    cfg = tmp_path / "liealg.cfg"
    cfg.write_text(f"[liealg]\nalgebra = file:{missing}\nsubalgebra = 1, 3\n"
                   "realization = heisenberg\n\n[check foliation]\npaths = 2\n")
    out = tmp_path / "out"
    flag = "--out" if command == "check" else "--trajectory"
    assert main([command, str(cfg), flag, str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: liealg.algebra (line 2, column 11): cannot read the constants "
        f"file: [Errno 2] No such file or directory: '{missing}'"]
    assert not out.exists()


# id -> (indices as written, message, whether the text itself is bad: its
# message then names the flag or the config entry); the indices
# are named 1-based, as written
SUBALGEBRA_ERRORS = {
    "zero": ("0", "must be positive", True),
    "empty_part": ("1,,2", "expected an integer, got ''", True),
    "repeated": ("2,2", "subalgebra indices repeat index 2", False),
    "out_of_range": ("1,4", "subalgebra index 4 beyond algebra dimension 3", False),
    "not_closed": ("1, 2", "indices (1, 2) do not span a subalgebra", False),
}


@pytest.mark.parametrize("command", ["check", "liealg", "simulate"])
@pytest.mark.parametrize("indices,message,bad_text", SUBALGEBRA_ERRORS.values(),
                         ids=list(SUBALGEBRA_ERRORS))
def test_subalgebra_errors_are_one_error_line(tmp_path, capsys, command,
                                              indices, message, bad_text):
    if bad_text:
        message = (f"--subalgebra: {message}" if command == "liealg" else
                   f"liealg.subalgebra (line 3, column 14): {message}")
    if command == "liealg":
        path = tmp_path / "heisenberg.json"
        path.write_text(json.dumps(_brackets({"i": 1, "j": 2, "coeffs": [0, 0, 1]},
                                             dim=3)))
        argv = ["liealg", str(path), "--subalgebra", indices]
    else:
        cfg = tmp_path / "heisenberg.cfg"
        cfg.write_text(f"[liealg]\nalgebra = heisenberg\nsubalgebra = {indices}\n"
                       "realization = heisenberg\n\n[check foliation]\npaths = 2\n")
        out = ["--out", str(tmp_path / "out")] if command == "check" else [
            "--trajectory", str(tmp_path / "traj.csv")]
        argv = [command, str(cfg), *out]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_simulate_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "translation_bm_torus", "--trajectory", str(out),
                 "--t", "0.1", "--dt", "0.01", "--seed", "4"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "x2", "logJ"]
    assert len(rows) == 12
    assert float(rows[1][1]) == pytest.approx(0.5)


def test_simulate_flows_its_path_through_flow_paths(tmp_path, monkeypatch):
    # simulate enters the flow as the checks do: the "trajectory" consumer
    # of flow_paths on the one path it writes
    from stochflow import sde

    def not_called(*args):
        raise AssertionError("a flow outside flow_paths")

    calls, flow = [], sde.flow_paths
    monkeypatch.setattr(sde, "flow_paths",
                        lambda *args: calls.append(args[1:]) or flow(*args))
    monkeypatch.setattr(sde, "generate_noise", not_called)
    monkeypatch.setattr(sde, "flow_with_jacobian", not_called)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "hamiltonian_torus", "--trajectory", str(out),
                 "--t", "0.1", "--dt", "0.01", "--seed", "4",
                 "--path-index", "3"]) == 0
    assert [(c[0], *c[2:]) for c in calls] == [
        ("trajectory", 0.01, 10, 4, range(3, 4))]
    assert len(out.read_text().splitlines()) == 12


def test_simulate_checks_the_realization(tmp_path, capsys):
    # sl(2) does not commute: translations on the torus cannot realize it
    cfg = tmp_path / "sl2_torus.cfg"
    cfg.write_text("[liealg]\nalgebra = sl2\nsubalgebra = 1, 2\nrealization = torus\n"
                   "\n[check foliation]\npaths = 2\n")
    out = tmp_path / "traj.csv"
    assert main(["simulate", str(cfg), "--trajectory", str(out),
                 "--t", "0.1", "--dt", "0.01"]) == 1
    assert "frame brackets disagree with structure constants at ([X, Y])" \
        in capsys.readouterr().err
    assert not out.exists()
    assert main(["check", str(cfg), "--out", str(tmp_path / "check")]) == 1


def test_simulate_horizon_must_be_a_multiple_of_dt(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "translation_bm_torus", "--trajectory", str(out),
                 "--t", "0.1", "--dt", "0.03"]) == 1
    assert "multiple of dt" in capsys.readouterr().err


def test_presets_commands(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(preset_names())
    assert main(["presets", "show", "sl2_foliation"]) == 0
    assert "[liealg]" in capsys.readouterr().out
    assert main(["presets", "show", "nope"]) == 1
