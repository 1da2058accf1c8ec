"""Each pipeline.Stage row declares every run-directory file its body touches.

Stage.__call__ checks the row's reads before the body runs and hashes them
into the rerun key, so a file a body spells but its row leaves out would be
read unchecked and could change without the stage running again. Only
evaluate, which is not a row, checks its own input.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from figqa import pipeline
from figqa.pipeline import STAGES

from test_endpoint_boundary import callers

SOURCE = Path(pipeline.__file__).read_text(encoding="utf-8")
FILE_NAME = re.compile(r"[\w.]+\.jsonl?")


def spelled_files(source: str, function: str) -> set[str]:
    """The string constants in function's body that are whole run-directory file names."""
    body = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    return {
        node.value
        for node in ast.walk(body)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and FILE_NAME.fullmatch(node.value)
    }


@pytest.mark.parametrize("stage", STAGES, ids=lambda stage: stage.name)
def test_body_spells_exactly_the_files_its_row_declares(stage):
    declared = (set(stage.reads) | set(stage.writes)) - {f"manifest_{stage.name}.json"}
    assert spelled_files(SOURCE, stage.run.__name__) == declared


def test_guard_sees_a_file_the_row_leaves_out():
    source = 'def body(cfg):\n    read(out / "a.jsonl")\n    write(out / "b.json", f"{x}.jsonl")\n'
    assert spelled_files(source, "body") == {"a.jsonl", "b.json"}


def test_only_the_stage_runner_and_evaluate_check_an_input_file():
    assert sorted(callers(SOURCE, "_require_file")) == ["Stage.__call__", "stage_evaluate"]


@pytest.mark.parametrize("stage", STAGES, ids=lambda stage: stage.name)
def test_a_missing_read_names_its_producer_before_the_body_runs(stage, tmp_path):
    ran = []
    row = pipeline.Stage(
        stage.name, lambda *args: ran.append(args) or {}, stage.reads, stage.writes, (), (), str
    )
    for missing in stage.reads:
        for name in stage.reads:
            if name != missing:
                (tmp_path / name).write_text("", encoding="utf-8")
        (tmp_path / missing).unlink(missing_ok=True)
        producer = next(s.name for s in STAGES if missing in s.writes)
        with pytest.raises(pipeline.UpstreamInputError, match=f"run the {producer} stage first"):
            row(pipeline.RunConfig(output=str(tmp_path)))
    assert ran == []
