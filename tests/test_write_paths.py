"""Every file write of the package goes through dataset's durable writers.

dataset.py replaces whole files atomically and appends with fsync. Any
other module that opened a file for writing, fsynced, renamed or
truncated would be a second, unreviewed path to disk. replay.py does not
even read a file: it checks the rows the stats stage already parsed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import figqa

PACKAGE = Path(figqa.__file__).parent
WRITER = "dataset.py"
WRITE_MODE_CHARS = set("wax+")
FORBIDDEN_METHODS = {"write_text", "write_bytes", "truncate", "replace", "rename"}


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an open() or Path.open() call, if given."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def _dataset_aliases(tree: ast.AST) -> set[str]:
    """Names a module binds to figqa.dataset (``from . import dataset as ds``, say)."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (None, "figqa")
        for alias in node.names
        if alias.name == "dataset"
    }


def write_sites(source: str) -> list[tuple[int, str]]:
    """(line, what) for each file write, fsync, rename or truncate in source.

    Calls through the dataset module (``ds.write_text``) are its writers, not
    a second path.
    """
    tree = ast.parse(source)
    dataset = _dataset_aliases(tree)
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        owner = func.value.id if attr and isinstance(func.value, ast.Name) else None
        if owner in dataset:
            continue
        if owner == "os" and attr in {"open", "fsync", "replace", "rename"}:
            sites.append((node.lineno, f"os.{attr}"))
        elif attr in FORBIDDEN_METHODS:
            # str.replace takes two arguments, Path.replace(target) one.
            if attr != "replace" or len(node.args) == 1:
                sites.append((node.lineno, attr))
        elif attr == "open" or (isinstance(func, ast.Name) and func.id == "open"):
            mode = _mode(node)
            if mode is None:
                continue
            if not isinstance(mode, ast.Constant) or WRITE_MODE_CHARS & set(str(mode.value)):
                sites.append((node.lineno, f"open({ast.unparse(mode)})"))
    return sites


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != WRITER)
)
def test_no_module_but_dataset_writes_files(name):
    assert write_sites((PACKAGE / name).read_text(encoding="utf-8")) == []


READS = {"open", "read_jsonl", "read_rows", "read_text"}


def read_sites(source: str) -> list[tuple[int, str]]:
    """(line, name) for each call in source that opens or reads a file."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in READS:
                sites.append((node.lineno, name))
    return sites


def test_replay_reads_no_file():
    assert read_sites((PACKAGE / "replay.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "snippet",
    ["open(p)", "p.open()", "read_jsonl(p)", "ds.read_rows(p, C)", "p.read_text()"],
)
def test_read_guard_sees_each_kind_of_read(snippet):
    assert len(read_sites(snippet)) == 1


def test_dataset_holds_the_write_paths():
    found = {what for _, what in write_sites((PACKAGE / WRITER).read_text(encoding="utf-8"))}
    assert {"os.fsync", "os.replace", "truncate"} <= found


@pytest.mark.parametrize(
    "snippet",
    [
        "open(p, 'w')",
        "open(p, mode='a', encoding='utf-8')",
        "open(p, 'rb+')",
        "open(p, m)",
        "p.open('x')",
        "p.write_text('t')",
        "p.write_bytes(b'')",
        "fh.truncate(0)",
        "os.fsync(fd)",
        "os.replace(a, b)",
        "os.rename(a, b)",
        "p.rename(q)",
        "p.replace(q)",
        "os.open(d, os.O_RDONLY)",
    ],
)
def test_guard_sees_each_kind_of_write(snippet):
    assert len(write_sites(snippet)) == 1


@pytest.mark.parametrize(
    "snippet",
    [
        "open(p)",
        "open(p, 'rb')",
        "p.open()",
        "s.replace('a', 'b')",
        "p.read_text()",
        "from . import dataset as ds\nds.write_text(p, 't')",
    ],
)
def test_guard_passes_reads_and_string_replace(snippet):
    assert write_sites(snippet) == []
