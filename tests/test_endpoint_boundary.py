"""Every model call of the package crosses one boundary: gateway.Endpoint.complete.

It refuses an image on a text slot and names the request by its digest,
and its senders (the HTTP post, the mock script) only answer. A second
complete() in the package, a second caller of request_digest or a second
copy of the vision check would be a second boundary that can drift from
the first.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import figqa

PACKAGE = Path(figqa.__file__).parent
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def methods(source: str, name: str) -> list[str]:
    """The class of each method called name in source."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == name
    ]


def callers(source: str, callee: str) -> list[str]:
    """The dotted class and function names around each call of callee in source."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == callee:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_the_gateway_endpoint_defines_complete():
    defined = {name: methods(source, "complete") for name, source in SOURCES.items()}
    assert {name: found for name, found in defined.items() if found} == {
        "gateway.py": ["Endpoint"]
    }


def test_request_digest_is_called_only_by_the_request():
    calls = {name: callers(source, "request_digest") for name, source in SOURCES.items()}
    assert {name: found for name, found in calls.items() if found} == {
        "gateway.py": ["Request.digest"]
    }


def test_the_vision_check_is_written_once():
    assert sum(source.count("cannot accept an image") for source in SOURCES.values()) == 1


@pytest.mark.parametrize(
    "snippet, expected",
    [
        ("request_digest(c, p)", [""]),
        ("gateway.request_digest(c, p)", [""]),
        ("def f():\n    return [request_digest(c, p)]", ["f"]),
        ("class A:\n    def f(self):\n        g(request_digest(c, p))", ["A.f"]),
        ("request_digest", []),
    ],
)
def test_callers_sees_each_call(snippet, expected):
    assert callers(snippet, "request_digest") == expected


def test_methods_sees_only_methods():
    source = "def complete(): pass\nclass A:\n    def complete(self): pass\n"
    assert methods(source, "complete") == ["A"]
