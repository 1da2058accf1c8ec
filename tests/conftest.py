from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import figqa
from figqa.gateway import load_templates

CRASH_LAUNCHER = Path(__file__).with_name("crash_launcher.py")
# The directory holding the figqa package this process imported, as an absolute
# path, so a child started in any directory imports the same package.
PACKAGE_ROOT = str(Path(figqa.__file__).resolve().parents[1])


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
        pythonpath = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [*command, *args],
            capture_output=True,
            text=True,
            cwd=cwd or str(Path.cwd()),
            env={**os.environ, "PYTHONPATH": pythonpath},
            timeout=timeout,
        )

    return _run
