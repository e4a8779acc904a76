import csv
import hashlib
import json
from pathlib import Path

import pytest

from example_systems import translation_bm_system
from stochflow.cli import build_experiment, main, run
from stochflow.config import (
    CHECK_KEYS,
    CheckSpec,
    ConfigError,
    parse_config,
    serialize_config,
)
from stochflow.currents import DensityCurrent, volume_current
from stochflow.invariance import EXACT_BIAS_C, empirical_check
from stochflow.manifold import make_test_basis
from stochflow.presets import PRESETS, preset_names, preset_text

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
    assert isinstance(exp.current, DensityCurrent)


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
    assert cfg.is_flow
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
    assert cfg.section("current")["atoms"] == "0.1 0.2; 0.3 0.4"
    assert build_experiment(cfg).current.atoms.tolist() == [[0.1, 0.2], [0.3, 0.4]]


def test_invalid_json_reports_position():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config('{"manifold": }')


def test_liealg_config_builds():
    cfg = parse_config(preset_text("sl2_foliation"))
    exp = build_experiment(cfg)
    assert exp.algebra.n == 3
    assert exp.subalgebra.indices == (0, 1)
    assert exp.realization is None


def test_inline_constants_build():
    cfg = parse_config(preset_text("frame_divergence_torus"))
    exp = build_experiment(cfg)
    assert exp.algebra.n == 2
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


def test_non_finite_field_is_execution_error(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(MINIMAL_FLOW.replace("diffusion2 = 0, 1", "diffusion2 = 0, 1e999"))
    assert main(["check", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "diffusion 2 component 2 is inf" in capsys.readouterr().err


def test_unknown_config_is_execution_error(tmp_path):
    assert main(["check", "no_such_file.cfg", "--out", str(tmp_path)]) == 1


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
        cfg = parse_config(MINIMAL_FLOW + checks)
        assert run(cfg, tmp_path / name, {"seed": 4, "dt": 0.01, "paths": 7}) == 0
        doc = json.loads((tmp_path / name / "report.json").read_text())
        return doc["payload"]["overrides"]

    assert overrides("", "nform") == {}
    pathwise = "\n[check empirical_pathwise]\nt = 0.02\nbasis_k = 1\n"
    assert overrides(pathwise, "pathwise") == {"dt": 0.01, "seed": 4}
    mean = "\n[check empirical_mean]\nt = 0.02\nbasis_k = 1\n"
    assert overrides(mean, "mean") == {"dt": 0.01, "paths": 7, "seed": 4}


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
    value = {"x0": "0.5, 0.5"}
    for kind, accepted in CHECK_KEYS.items():
        for key in keys:
            text = f"[liealg]\nalgebra = sl2\nsubalgebra = 1\n\n[check {kind}]\n" \
                   f"{key} = {value.get(key, '2')}\n"
            if key in accepted:
                parse_config(text)
            else:
                with pytest.raises(ConfigError) as e:
                    parse_config(text)
                assert [i.path for i in e.value.issues] == [f"check.{kind}.{key}"]


# Each check kind on a small run: the value of every key it accepts, once
# changed, shows in the payload, and _run_check reads no other key.
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
    get = CheckSpec.get

    def recording_get(self, key, default=None):
        read.add(key)
        return get(self, key, default)

    monkeypatch.setattr(CheckSpec, "get", recording_get)
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
        reports.append(empirical_check(T, sys, basis, 0.1, 0.01, 3, 20, "mean"))
    assert reports[0].payload() == reports[1].payload()
    assert reports[0].metadata["bias_c"] == EXACT_BIAS_C


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
}


@pytest.mark.parametrize("route", ["file", "inline"])
@pytest.mark.parametrize("doc,message", MALFORMED_CONSTANTS.values(),
                         ids=list(MALFORMED_CONSTANTS))
def test_malformed_constants_are_one_error_line(tmp_path, capsys, route, doc, message):
    text = json.dumps(doc)
    if route == "file":
        path = tmp_path / "constants.json"
        path.write_text(text)
        code = main(["liealg", str(path), "--subalgebra", "1,2"])
    else:
        cfg = tmp_path / "inline.cfg"
        cfg.write_text(f"[liealg]\nconstants = {text}\nsubalgebra = 1, 2\n\n"
                       "[check foliation]\nseed = 0\n")
        code = main(["check", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


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
