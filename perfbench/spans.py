"""In-memory spans around figqa's public layer entry points, installed from outside.

Tracer.patch() swaps the module attributes the pipeline calls through
(pipeline.clean_paper, verification.run_cascade, dataset.read_dataset, ...)
for timing wrappers and restores them on exit. Endpoints are wrapped by the
caller and passed into the stages. A span records name, start, end, parent,
thread and the key of the item it serves; children inherit the key, so all
spans of one candidate share it. Nothing here is imported by figqa.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from figqa import dataset, pipeline, verification


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Span | None
    thread: int
    key: str | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.root: Span | None = None  # parent for spans opened on pool threads
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, key: str | None = None, root: bool = False):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if key is None and parent is not None:
            key = parent.key
        s = Span(name, time.perf_counter(), parent, threading.get_ident(), key)
        with self._lock:
            self.spans.append(s)
        stack.append(s)
        if root:
            self.root = s
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            if root:
                self.root = None

    def wrap(self, name: str, fn, key_of=None, attrs_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, key_of(*args) if key_of else None) as s:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    s.attrs.update(attrs_of(result, *args))
                return result

        return wrapper

    @contextlib.contextmanager
    def patch(self):
        """Install the layer wrappers for the duration of the block."""
        log_init = verification.VerdictLog.__init__
        log_append = verification.VerdictLog.append
        targets = [
            (pipeline, "clean_paper", "latex_prep.clean_paper", None,
             lambda r, raw, *a: {"bytes": len(raw.latex_source.encode("utf-8"))}),
            (pipeline, "build_figure_contexts", "figure_context.build_figure_contexts", None,
             lambda r, clean, raw, *a: {"figures": len(raw.figure_caption_pairs), "contexts": len(r[0])}),
            (pipeline, "extract_claims", "generation.extract_claims",
             lambda ctx, *a: f"{ctx.arxiv_id}:f{ctx.figure_index}", lambda r, *a: {"claims": len(r)}),
            (pipeline, "generate_qa", "generation.generate_qa",
             lambda claim, *a: claim.key, lambda r, *a: {"declined": not hasattr(r, "question")}),
            (verification, "run_cascade", "verification.run_cascade",
             lambda cand, *a: cand.key, lambda r, *a: {"verdicts": len(r.verdicts)}),
            (dataset, "annotate_taxonomy", "dataset.annotate_taxonomy",
             lambda rec, *a: rec.key, lambda r, *a: {"labeled": r is not None}),
            (dataset, "read_dataset", "dataset.read_dataset", None, None),
            (dataset, "write_dataset", "dataset.write_dataset", None, None),
            (pipeline, "replay_verdicts", "replay.replay_verdicts", None, None),
            (pipeline, "evaluate", "eval_harness.evaluate", None,
             lambda r, ep, records, *a: {"items": len(records)}),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in targets]
        try:
            for module, attr, name, key_of, attrs_of in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr), key_of, attrs_of))
            verification.VerdictLog.__init__ = self.wrap("verification.VerdictLog.load", log_init)
            verification.VerdictLog.append = self.wrap("verification.VerdictLog.append", log_append)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            verification.VerdictLog.__init__ = log_init
            verification.VerdictLog.append = log_append


class TracedEndpoint:
    """An endpoint whose complete() calls are gateway spans."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.config = inner.config
        self.tracer = tracer

    @property
    def role(self) -> str:
        return self.inner.role

    def complete(self, prompt: str, image_ref: str | None = None):
        with self.tracer.span("gateway.complete") as s:
            s.attrs.update(model=self.config.model_name, temperature=self.config.temperature,
                           prompt=prompt, image_ref=image_ref)
            return self.inner.complete(prompt, image_ref)


def write_jsonl(spans: list[Span], path: Path) -> None:
    """One JSON line per span; parent is the parent's line index. Prompts are left out."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            row = {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)),
                "thread": s.thread,
                "key": s.key,
                "attrs": {k: v for k, v in s.attrs.items() if k != "prompt"},
            }
            fh.write(json.dumps(row) + "\n")


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it its children cover (their union)."""
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c.start):
        s, e = max(c.start, span.start), min(c.end, span.end)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered
