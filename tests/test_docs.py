"""README's reference tables list exactly what the code declares.

The config-key table, the endpoint-key sentence, the exit-code table and
the list of output files are written by hand; these guards fail when a
field, an exit code or a stage's output is added, renamed or removed
without them.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from figqa import cli
from figqa.gateway import ModelEndpointConfig
from figqa.pipeline import STAGES, RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _first_column(intro: str) -> list[str]:
    """The first cell of each body row of the table that follows the line intro."""
    lines = README.split(intro + "\n", 1)[1].lstrip("\n").splitlines()
    cells = []
    for line in lines[2:]:  # past the header and its separator
        if not line.startswith("|"):
            break
        cells.append(line.split("|")[1].strip().strip("`"))
    return cells


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


def test_readme_outputs_name_every_file_the_stages_write():
    paragraph = README.split("### Outputs\n", 1)[1].lstrip("\n").split("\n\n")[0]
    by_stages = paragraph.split("`figqa evaluate`")[0]
    manifests = {f"manifest_{stage.name}.json" for stage in STAGES}
    written = {name for stage in STAGES for name in stage.writes} - manifests
    named = set(re.findall(r"`([\w<>]+\.jsonl?)`", by_stages)) - {"manifest_<stage>.json"}
    assert named == written

    without = re.search(r"from each stage but (.*?)\.", by_stages, re.S).group(1)
    assert re.findall(r"`(\w+)`", without) == [
        stage.name for stage in STAGES if f"manifest_{stage.name}.json" not in stage.writes
    ]
