"""Each stage's name is spelled once in the package: as the first argument of its Stage row.

Producers in missing-input messages, manifest file names, deferral messages
and CLI summaries all take the name from pipeline.STAGES. A string constant
equal to a stage name anywhere else would be a second spelling that can
drift from the table.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import figqa
from figqa.pipeline import STAGE_FUNCTIONS

PACKAGE = Path(figqa.__file__).parent


def _row_names(tree: ast.AST) -> list[ast.Constant]:
    """The first argument of each Stage(...) call in tree."""
    return [
        node.args[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Stage"
        and node.args
    ]


def stray_names(source: str) -> list[tuple[int, str]]:
    """(line, name) for each stage-name constant in source outside a Stage row's first argument."""
    tree = ast.parse(source)
    declared = {id(node) for node in _row_names(tree)}
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and node.value in STAGE_FUNCTIONS
        and id(node) not in declared
    ]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_stage_names_are_spelled_only_in_stage_rows(name):
    assert stray_names((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_each_stage_row_is_declared_once():
    names = [
        node.value
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _row_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert names == list(STAGE_FUNCTIONS)


@pytest.mark.parametrize(
    "snippet",
    [
        "m['stage'] == 'stats'",
        "_require_file(path, 'prepare')",
        "STAGE_FUNCTIONS = {'verify': stage_verify}",
        "Stage(name, 'annotate')",
        "paid = ('generate',)",
        "COMMANDS = (*STAGE_ORDER, 'evaluate')",
    ],
)
def test_guard_sees_a_stray_stage_name(snippet):
    assert len(stray_names(snippet)) == 1


@pytest.mark.parametrize(
    "snippet",
    [
        "Stage('extract', stage_extract, ('figure_contexts.jsonl',), False, str)",
        "'run the verify stage first'",
        "'evaluated'",
    ],
)
def test_guard_passes_row_names_and_longer_strings(snippet):
    assert stray_names(snippet) == []
