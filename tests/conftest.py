from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from figqa.gateway import load_templates

CRASH_LAUNCHER = Path(__file__).with_name("crash_launcher.py")


@pytest.fixture(scope="session")
def templates():
    return load_templates()


@pytest.fixture(scope="session")
def e2e_bundle(tmp_path_factory):
    """Synthetic 3-paper corpus plus a fully scripted mock backend."""
    from e2e_corpus import build_corpus

    root = tmp_path_factory.mktemp("e2e_corpus")
    return build_corpus(root)


@pytest.fixture(scope="session")
def run_cli():
    """Invoke the CLI in a subprocess; crash_after=n runs it under crash_launcher."""

    def _run(args, crash_after=None, cwd=None, timeout=120):
        command = [sys.executable, "-m", "figqa"]
        if crash_after is not None:
            command = [sys.executable, str(CRASH_LAUNCHER), str(crash_after)]
        return subprocess.run(
            [*command, *args],
            capture_output=True,
            text=True,
            cwd=cwd or str(Path.cwd()),
            timeout=timeout,
        )

    return _run
