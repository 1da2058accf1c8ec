"""Every byte the package sends crosses the network in transport.py.

transport.py owns the sockets, TLS and what a base_url means. Any other
module that imported socket, ssl or urllib would be a second, unreviewed
path to the network or a second reading of a URL. transport.py itself
imports no figqa module but errors, so nothing above it (a request
filter, the retry loop, the prompts) can reach into a socket.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import figqa

PACKAGE = Path(figqa.__file__).parent
TRANSPORT = "transport.py"
NETWORK_MODULES = {"socket", "ssl", "urllib"}


def imported_modules(source: str) -> list[tuple[int, str]]:
    """(line, module) for each import in source; a relative import's module is figqa.<name>."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.append((node.lineno, node.module))
            elif node.module is not None:  # from .errors import X
                found.append((node.lineno, f"figqa.{node.module}"))
            else:  # from . import dataset
                found += [(node.lineno, f"figqa.{alias.name}") for alias in node.names]
    return found


def network_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each import of socket, ssl or urllib in source."""
    return [
        (line, module)
        for line, module in imported_modules(source)
        if module.split(".")[0] in NETWORK_MODULES
    ]


def figqa_imports(source: str) -> set[str]:
    """The figqa modules source imports, by their names in the package."""
    return {
        module.split(".")[1]
        for _, module in imported_modules(source)
        if module.split(".")[0] == "figqa" and "." in module
    }


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != TRANSPORT)
)
def test_no_module_but_transport_imports_the_network(name):
    assert network_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_transport_holds_the_network():
    found = {module for _, module in network_imports((PACKAGE / TRANSPORT).read_text("utf-8"))}
    assert {"socket", "ssl", "urllib.parse"} <= found


def test_transport_imports_no_figqa_module_but_errors():
    assert figqa_imports((PACKAGE / TRANSPORT).read_text(encoding="utf-8")) == {"errors"}


@pytest.mark.parametrize(
    "snippet",
    [
        "import socket",
        "import ssl as tls",
        "import os, socket",
        "from socket import create_connection",
        "import urllib.parse",
        "from urllib import parse",
        "def f():\n    import ssl",
    ],
)
def test_guard_sees_each_kind_of_network_import(snippet):
    assert len(network_imports(snippet)) == 1


@pytest.mark.parametrize(
    "snippet", ["import socketserver", "import sslkeylog", "from .ssl_notes import x", "import os"]
)
def test_guard_passes_other_modules(snippet):
    assert network_imports(snippet) == []


@pytest.mark.parametrize(
    "snippet, modules",
    [
        ("from .errors import ConfigError", {"errors"}),
        ("from . import gateway", {"gateway"}),
        ("from .gateway import Request", {"gateway"}),
        ("from figqa.dataset import write_jsonl", {"dataset"}),
        ("import figqa.pipeline", {"pipeline"}),
        ("import figqa", set()),
        ("import json", set()),
    ],
)
def test_figqa_import_guard_names_each_module(snippet, modules):
    assert figqa_imports(snippet) == modules
