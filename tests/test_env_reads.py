"""The package reads one environment variable: the endpoint's credential.

HttpEndpoint._api_key reads the variable a config's api_key_env names.
Any other os.environ or os.getenv read would be a setting that no config
file, CLI option or README table declares.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import figqa

PACKAGE = Path(figqa.__file__).parent
ALLOWED = ("gateway.py", "HttpEndpoint._api_key")
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def env_reads(source: str) -> list[tuple[int, str]]:
    """(line, enclosing class and function names) for each environment read in source."""
    reads = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENV_NAMES
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in ENV_NAMES for alias in node.names)
        ):
            reads.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return reads


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_environment_read_outside_the_credential_lookup(name):
    reads = env_reads((PACKAGE / name).read_text(encoding="utf-8"))
    assert [(line, scope) for line, scope in reads if (name, scope) != ALLOWED] == []


def test_the_credential_lookup_reads_the_environment():
    name, scope = ALLOWED
    reads = env_reads((PACKAGE / name).read_text(encoding="utf-8"))
    assert [s for _, s in reads] == [scope]


@pytest.mark.parametrize(
    "snippet",
    [
        "os.environ.get('X')",
        "os.environ['X']",
        "'X' in os.environ",
        "os.getenv('X')",
        "os.environb[b'X']",
        "from os import environ",
        "from os import getenv as g",
    ],
)
def test_guard_sees_each_kind_of_read(snippet):
    assert len(env_reads(snippet)) == 1


def test_guard_names_the_enclosing_function():
    source = "class A:\n    def f(self):\n        return os.environ.get('X')\n"
    assert env_reads(source) == [(3, "A.f")]


@pytest.mark.parametrize("snippet", ["os.path.join(a, b)", "environ.get('X')", "env = {}"])
def test_guard_passes_other_names(snippet):
    assert env_reads(snippet) == []
