"""README's reference tables list exactly what the code declares.

The config-key table, the endpoint-key sentence, the exit-code table, the
stage table and the list of output files are written by hand; these guards
fail when a field, an exit code or a stage's input, template or output is
added, renamed or removed without them. The example configs must load and
resolve as README says.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import fields
from pathlib import Path

import yaml

from figqa import cli
from figqa.gateway import ModelEndpointConfig
from figqa.pipeline import ROLE_DEFAULTS, STAGES, RunConfig, open_endpoints

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _table(intro: str) -> list[list[str]]:
    """The cells of each body row of the table that follows the line intro."""
    lines = README.split(intro + "\n", 1)[1].lstrip("\n").splitlines()
    rows = []
    for line in lines[2:]:  # past the header and its separator
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    return rows


def _first_column(intro: str) -> list[str]:
    """The first cell of each body row of the table that follows the line intro."""
    return [row[0].strip("`") for row in _table(intro)]


def test_readme_tables_match_config_fields_and_exit_codes():
    keys = _first_column("The config file takes these keys and no others:")
    assert keys == [f.name for f in fields(RunConfig)]

    sentence = re.search(r"An endpoint entry takes only (.*?), and `endpoints`", README, re.S)
    endpoint_keys = re.findall(r"`(\w+)`", sentence.group(1))
    assert sorted(endpoint_keys) == sorted(
        f.name for f in fields(ModelEndpointConfig) if f.name != "role"
    )

    codes = [int(code) for code in _first_column("Exit codes:")]
    exits = [value for name, value in vars(cli).items() if name.startswith("EXIT_")]
    assert sorted(codes) == sorted([0, *exits])


def _reads(stage) -> tuple[str, ...]:
    """A row's reads; for a resolver, the file names its source spells, in order."""
    if callable(stage.reads):
        return tuple(re.findall(r'"([\w.]+\.jsonl?)"', inspect.getsource(stage.reads)))
    return stage.reads


def test_readme_stage_table_lists_each_rows_reads_and_templates():
    table = _table("run-directory files the stage reads and the prompt templates it renders:")
    cells = [tuple(tuple(re.findall(r"`([\w.]+)`", cell)) for cell in row) for row in table]
    assert cells == [((stage.name,), _reads(stage), stage.templates) for stage in STAGES]


def test_readme_outputs_name_every_file_the_stages_write():
    paragraph = README.split("### Outputs\n", 1)[1].lstrip("\n").split("\n\n")[0]
    manifests = {f"manifest_{stage.name}.json" for stage in STAGES}
    written = {name for stage in STAGES for name in stage.writes} - manifests
    named = set(re.findall(r"`([\w<>]+\.(?:jsonl?|txt))`", paragraph)) - {"manifest_<stage>.json"}
    assert named == written

    without = re.search(r"from each stage but (.*?)\.", paragraph, re.S).group(1)
    assert re.findall(r"`(\w+)`", without) == [
        stage.name for stage in STAGES if f"manifest_{stage.name}.json" not in stage.writes
    ]


def _yaml_block(intro: str) -> dict:
    """The YAML block that follows the line intro."""
    block = README.split(intro + "\n\n```yaml\n", 1)[1].split("```", 1)[0]
    return yaml.safe_load(block)


def test_readme_example_config_names_the_model_of_every_slot():
    # No live request carries a built-in mock model name, and only text and vision sample.
    data = _yaml_block("Write a YAML config:")
    named = {entry["model_name"] for entry in data["endpoints"].values()}
    with open_endpoints(RunConfig.from_dict(data), tuple(ROLE_DEFAULTS)) as endpoints:
        for name, endpoint in endpoints.items():
            assert endpoint.config.model_name in named, name
            greedy = name not in ("text", "vision")
            assert (endpoint.config.temperature == 0) == greedy, name


def test_readme_evaluate_only_config_builds_its_eval_slot():
    data = _yaml_block("Evaluating another model on a finished dataset needs only its `eval` entry:")
    with open_endpoints(RunConfig.from_dict(data), ("eval",)) as endpoints:
        assert endpoints["eval"].config.model_name == data["endpoints"]["eval"]["model_name"]
