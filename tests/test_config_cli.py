import csv
import json

import pytest

from stochflow.cli import build_experiment, main, run
from stochflow.config import ConfigError, parse_config, serialize_config
from stochflow.currents import DensityCurrent
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


def test_presets_commands(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(preset_names())
    assert main(["presets", "show", "sl2_foliation"]) == 0
    assert "[liealg]" in capsys.readouterr().out
    assert main(["presets", "show", "nope"]) == 1
