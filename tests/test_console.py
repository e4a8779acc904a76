"""The command line's exit path: ``cli.console`` runs ``cli.main`` and
then freezes the heap, so that the interpreter's last collections skip
it. What a command writes must not depend on which of the two ran it.
"""

import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

from stochflow import cli
from stochflow.cli import main

ROOT = Path(__file__).resolve().parent.parent

BAD_CONFIG = """\
[manifold]
type = torus
lengths = 1, 1

[fields]
drift = 0, (
diffusion1 = 1, 0
"""

# argv (run in a directory that holds BAD_CONFIG as bad.cfg), and exit code
COMMANDS = {
    "check_flow": (["check", "hamiltonian_torus", "--dt", "0.01", "--out", "out"], 0),
    "check_foliation": (["check", "heisenberg_foliation", "--paths", "30",
                         "--out", "out"], 0),
    "simulate": (["simulate", "hamiltonian_torus", "--t", "0.05", "--dt", "1e-3",
                  "--trajectory", "t.csv"], 0),
    "check_sl2": (["check", "sl2_foliation", "--out", "out"], 2),
    "parse_error": (["check", "bad.cfg", "--out", "out"], 1),
}


def outputs(cwd: Path) -> dict:
    """The payload hash, the check CSVs and the trajectory a command left in cwd."""
    found = {path.name: path.read_bytes()
             for path in sorted((cwd / "out").glob("check_*.csv"))}
    report = cwd / "out" / "report.json"
    if report.is_file():
        found["payload_sha256"] = json.loads(report.read_text())["payload_sha256"]
    if (cwd / "t.csv").is_file():
        found["t.csv"] = (cwd / "t.csv").read_bytes()
    return found


def fresh_dir(path: Path) -> Path:
    path.mkdir()
    (path / "bad.cfg").write_text(BAD_CONFIG)
    return path


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_line_process_writes_what_main_writes(tmp_path, monkeypatch,
                                                        capsys, command):
    # -X dev shows a ResourceWarning for a file that is left open and
    # freed at exit; one left open in a reference cycle is never freed
    # from a frozen heap, so the in-process run collects it and looks
    # for the warning there
    argv, code = COMMANDS[command]
    child = fresh_dir(tmp_path / "child")
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "stochflow.cli", *argv],
                          cwd=child, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    monkeypatch.chdir(fresh_dir(tmp_path / "in_process"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        want_code = main(argv)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    want = capsys.readouterr()
    assert proc.returncode == want_code == code
    assert proc.stdout.splitlines() == want.out.splitlines()
    assert proc.stderr == want.err
    assert (proc.stderr == "") == (code != 1)
    assert outputs(child) == outputs(tmp_path / "in_process")
    assert (outputs(child) == {}) == (code == 1)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        main(["check", "hamiltonian_torus", "--dt", "0.01", "--out", str(tmp_path)])
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_console_freezes_the_heap_after_main_returns():
    calls = []
    with mock.patch.object(cli, "main", lambda: calls.append("main") or 2), \
            mock.patch.object(gc, "freeze", lambda: calls.append("freeze")):
        assert cli.console() == 2
    assert calls == ["main", "freeze"]


def test_the_installed_script_runs_what_the_main_block_runs():
    # a regex, as tomllib is missing on Python 3.10
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", pyproject,
                        flags=re.M | re.S).group(1)
    script = re.findall(r'^stochflow\s*=\s*"stochflow\.cli:(\w+)"$', scripts,
                        flags=re.M)
    source = (ROOT / "src" / "stochflow" / "cli.py").read_text(encoding="utf-8")
    block = re.findall(r'^if __name__ == "__main__":\n'
                       r'    raise SystemExit\((\w+)\(\)\)\n\Z', source, flags=re.M)
    assert script == block == ["console"]
