"""Shared fakes and factories for the unit tests.

StubEndpoint consumes responses strictly in call order, which keeps
single-function tests independent of prompt wording. An item that is an
Exception instance is raised instead of returned; a callable handler takes
priority over the queue. FakePost stands in for the transport under an
HttpEndpoint.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

from figqa.dataset import VerifiedRecord
from figqa.generation import QACandidate


class FakeResponse:
    """One reply: a status, headers keyed by lower-cased name, as Connections.post gives
    them, and the payload as a JSON body (bytes are sent as given)."""

    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self.body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.headers = {name.lower(): value for name, value in (headers or {}).items()}


class FakePost:
    """A post(body, headers) transport: records each request (its raw body, the body
    parsed, its headers), serves a queue of FakeResponse or Exception items."""

    def __init__(self, queue):
        self.queue = list(queue)
        self.posts = []

    def __call__(self, body, headers):
        self.posts.append({"body": body, "json": json.loads(body), "headers": headers})
        item = self.queue.pop(0)
        if isinstance(item, Exception):
            raise item
        return item.status_code, item.headers, item.body


def record_file_reads(monkeypatch) -> list:
    """The paths read through Path.read_bytes from now on, in call order."""
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or read_bytes(path))
    return reads


def ok_response(text: str) -> FakeResponse:
    return FakeResponse(200, {"choices": [{"message": {"content": text}}]})


class StubEndpoint:
    def __init__(self, role="text", responses=(), temperature=1.0, handler=None, model_name=None):
        self.config = SimpleNamespace(
            role=role,
            model_name=model_name or f"stub-{role}",
            temperature=temperature,
        )
        self.responses = list(responses)
        self.handler = handler
        self.calls: list[tuple[str, str | None]] = []

    def complete(self, prompt: str, image_ref: str | None = None):
        self.calls.append((prompt, image_ref))
        if self.handler is not None:
            result = self.handler(prompt, image_ref)
        elif self.responses:
            result = self.responses.pop(0)
        else:
            raise AssertionError("stub endpoint exhausted")
        if isinstance(result, Exception):
            raise result
        return result, f"stub-{len(self.calls)}"


def make_candidate(**overrides) -> QACandidate:
    fields = dict(
        key="2000.00001:f0:c0",
        arxiv_id="2000.00001",
        figure_index=0,
        claim_ordinal=0,
        question="What trend does the curve follow?",
        options=["It rises", "It falls", "It is flat", "It oscillates"],
        correct_index=0,
        caption="A curve over time.",
        figure_image_ref="images/x.png",
        primary_category="cs.LG",
        claim_text="The figure shows the curve rises.",
        option_permutation=[0, 1, 2, 3],
        context_digest="d" * 64,
    )
    fields.update(overrides)
    return QACandidate(**fields)


def make_record(**overrides) -> VerifiedRecord:
    fields = dict(
        key="2000.00001:f0:c0",
        arxiv_id="2000.00001",
        primary_category="cs.LG",
        figure_index=0,
        figure_image_ref="images/x.png",
        caption="A curve over time.",
        question="What trend does the curve follow?",
        options=["It rises", "It falls", "It is flat", "It oscillates"],
        correct_index=0,
        reasoning="The curve climbs steadily across the plot.",
        figure_type=None,
        question_type=None,
        provenance={},
    )
    fields.update(overrides)
    return VerifiedRecord(**fields)
