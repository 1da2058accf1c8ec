"""README's reference tables list exactly what the code declares.

The config-key table, the endpoint-key sentence and the exit-code table
are written by hand; this guard fails when a field or an exit code is
added, renamed or removed without them.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from figqa import cli
from figqa.gateway import ModelEndpointConfig
from figqa.pipeline import RunConfig

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
