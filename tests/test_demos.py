"""The README's quick-start demos and every CLI command's help run to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from figqa.pipeline import STAGE_FUNCTIONS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
COMMANDS = [*STAGE_FUNCTIONS, "run"]


def run_python(*args, cwd=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    run_python(str(demo), cwd=str(tmp_path))


def test_top_level_help_lists_every_command():
    proc = run_python("-m", "figqa", "--help")
    commands = proc.stdout.split("Commands:")[1].splitlines()
    assert {line.split()[0] for line in commands if line.strip()} == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help(command):
    proc = run_python("-m", "figqa", command, "--help")
    assert f"Usage: python -m figqa {command} [OPTIONS]" in proc.stdout
