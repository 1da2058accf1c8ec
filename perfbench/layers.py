"""Per-layer metrics of one traced pipeline run, derived from its spans.

Each metric names the layer (figqa module) whose entry points the spans
wrap. Times are from the client's clock; idle and in-flight figures are the
fake endpoint's view of the same window.
"""

from __future__ import annotations

import hashlib
import statistics
from collections import defaultdict
from pathlib import Path

import world
from spans import Span, self_time

STAGES = ("prepare", "extract", "generate", "verify", "annotate", "stats")
MODEL_STAGES = ("generate", "verify", "annotate", "evaluate")
FILTERS = ("SourceConsistency", "VisualDependenceText", "VisualDependenceVision", "VisionConsistency")

# name -> unit, in report order; the list BENCHMARK.json's per_layer mirrors.
UNITS = {
    **{f"pipeline.stage_s.{s}": "s" for s in STAGES},
    "pipeline.self_s": "s",
    "latex_prep.clean_ms_p50": "ms",
    "latex_prep.clean_ms_p99": "ms",
    "latex_prep.mb_per_s": "MB/s",
    "figure_context.bind_ms_p50": "ms",
    "figure_context.bind_ms_p99": "ms",
    "figure_context.ms_per_figure": "ms",
    "figure_context.bound_share": "ratio",
    "generation.claim_ms_p50": "ms",
    "generation.qa_ms_p50": "ms",
    "generation.self_ms_per_call": "ms",
    "generation.claims_per_figure": "count",
    "generation.declined_share": "ratio",
    "generation.repeat_share": "ratio",
    "gateway.calls.text": "count",
    "gateway.calls.vision": "count",
    "gateway.call_ms_p50": "ms",
    "gateway.call_ms_p99": "ms",
    "gateway.overhead_ms_p50": "ms",
    "gateway.overhead_ms_p99": "ms",
    "gateway.request_kb_p50": "KB",
    "gateway.attempts_per_call": "count",
    "gateway.connections_opened": "count",
    "gateway.max_inflight": "count",
    "gateway.idle_share": "ratio",
    "verification.cascade_ms_p50": "ms",
    "verification.cascade_ms_p99": "ms",
    "verification.self_ms_per_candidate": "ms",
    "verification.calls_per_candidate": "count",
    "verification.candidates_per_s": "1/s",
    **{f"verification.pass_rate.{f}": "ratio" for f in FILTERS},
    "verification.log_append_ms_p50": "ms",
    "verification.log_append_ms_p99": "ms",
    "verification.log_load_ms": "ms",
    "verification.reused_share": "ratio",
    "dataset.annotate_ms_p50": "ms",
    "dataset.annotate_calls_per_record": "count",
    "dataset.unlabeled_share": "ratio",
    "dataset.write_ms": "ms",
    "dataset.read_ms": "ms",
    "replay.ms": "ms",
    "replay.verdicts_per_s": "1/s",
    "eval_harness.items_per_s": "1/s",
    "eval_harness.calls_per_item": "count",
    "eval_harness.self_ms_per_item": "ms",
    "trace.overhead_s": "s",
}


def pct(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    spans: list[Span],
    windows: dict[str, dict],
    log_rows: list[dict],
    text_ms: float,
    vision_ms: float,
) -> dict[str, float]:
    """windows maps each stage and "timed" to its fake-side deltas and wall time;
    text_ms and vision_ms are the fake's median injected latencies."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def ms(name: str) -> list[float]:
        return [s.duration * 1000 for s in by_name[name]]

    def calls_under(group: list[Span]) -> int:
        return sum(1 for s in group for c in children[id(s)] if c.name == "gateway.complete")

    def self_s(group: list[Span]) -> float:
        return sum(self_time(s, children[id(s)]) for s in group)

    m: dict[str, float] = {}
    stage_spans = {s.name.rsplit(".", 1)[1]: s for s in spans if s.name.startswith("pipeline.stage.")}
    for stage in STAGES:
        m[f"pipeline.stage_s.{stage}"] = stage_spans[stage].duration
    m["pipeline.self_s"] = self_s([stage_spans[s] for s in STAGES])

    clean = by_name["latex_prep.clean_paper"]
    m["latex_prep.clean_ms_p50"] = pct(ms("latex_prep.clean_paper"), 50)
    m["latex_prep.clean_ms_p99"] = pct(ms("latex_prep.clean_paper"), 99)
    m["latex_prep.mb_per_s"] = _ratio(sum(s.attrs["bytes"] for s in clean) / 1e6, sum(s.duration for s in clean))

    bind = by_name["figure_context.build_figure_contexts"]
    figures = sum(s.attrs["figures"] for s in bind)
    m["figure_context.bind_ms_p50"] = pct(ms("figure_context.build_figure_contexts"), 50)
    m["figure_context.bind_ms_p99"] = pct(ms("figure_context.build_figure_contexts"), 99)
    m["figure_context.ms_per_figure"] = _ratio(sum(s.duration for s in bind) * 1000, figures)
    m["figure_context.bound_share"] = _ratio(sum(s.attrs["contexts"] for s in bind), figures)

    claim = by_name["generation.extract_claims"]
    qa = by_name["generation.generate_qa"]
    gen = claim + qa
    m["generation.claim_ms_p50"] = pct(ms("generation.extract_claims"), 50)
    m["generation.qa_ms_p50"] = pct(ms("generation.generate_qa"), 50)
    m["generation.self_ms_per_call"] = _ratio(self_s(gen) * 1000, len(gen))
    m["generation.claims_per_figure"] = _ratio(sum(s.attrs["claims"] for s in claim), len(claim))
    m["generation.declined_share"] = _ratio(sum(s.attrs["declined"] for s in qa), len(qa))
    m["generation.repeat_share"] = _ratio(calls_under(gen) - len(gen), len(gen))

    calls = by_name["gateway.complete"]
    image_sha: dict[str, str] = {}
    overhead = []
    for s in calls:
        ref = s.attrs["image_ref"]
        if ref and ref not in image_sha:
            image_sha[ref] = hashlib.sha256(Path(ref).read_bytes()).hexdigest()
        injected = world.injected_latency_s(
            s.attrs["model"], s.attrs["temperature"], s.attrs["prompt"],
            image_sha.get(ref, ""), text_ms, vision_ms,
        )
        overhead.append((s.duration - injected) * 1000)
    timed = windows["timed"]
    model_wall = sum(windows[st]["wall_s"] for st in MODEL_STAGES)
    model_busy = sum(windows[st]["busy_s"] for st in MODEL_STAGES)
    m["gateway.calls.text"] = sum(1 for s in calls if s.attrs["model"].endswith("-text"))
    m["gateway.calls.vision"] = sum(1 for s in calls if s.attrs["model"].endswith("-vision"))
    m["gateway.call_ms_p50"] = pct(ms("gateway.complete"), 50)
    m["gateway.call_ms_p99"] = pct(ms("gateway.complete"), 99)
    m["gateway.overhead_ms_p50"] = pct(overhead, 50)
    m["gateway.overhead_ms_p99"] = pct(overhead, 99)
    m["gateway.request_kb_p50"] = pct([b / 1024 for b in timed["request_bytes"]], 50)
    m["gateway.attempts_per_call"] = _ratio(timed["requests"], len(calls))
    m["gateway.connections_opened"] = timed["connections"]
    m["gateway.max_inflight"] = timed["max_inflight"]
    m["gateway.idle_share"] = 1 - _ratio(model_busy, model_wall)

    cascades = by_name["verification.run_cascade"]
    appends = by_name["verification.VerdictLog.append"]
    needed = sum(s.attrs["verdicts"] for s in cascades)
    m["verification.cascade_ms_p50"] = pct(ms("verification.run_cascade"), 50)
    m["verification.cascade_ms_p99"] = pct(ms("verification.run_cascade"), 99)
    m["verification.self_ms_per_candidate"] = _ratio(self_s(cascades) * 1000, len(cascades))
    m["verification.calls_per_candidate"] = _ratio(calls_under(cascades), len(cascades))
    m["verification.candidates_per_s"] = _ratio(len(cascades), stage_spans["verify"].duration)
    for f in FILTERS:
        rows = [r for r in log_rows if r["filter"] == f]
        m[f"verification.pass_rate.{f}"] = _ratio(sum(r["passed"] for r in rows), len(rows))
    m["verification.log_append_ms_p50"] = pct(ms("verification.VerdictLog.append"), 50)
    m["verification.log_append_ms_p99"] = pct(ms("verification.VerdictLog.append"), 99)
    m["verification.log_load_ms"] = sum(ms("verification.VerdictLog.load"))
    m["verification.reused_share"] = _ratio(needed - len(appends), needed)

    labels = by_name["dataset.annotate_taxonomy"]
    m["dataset.annotate_ms_p50"] = pct(ms("dataset.annotate_taxonomy"), 50)
    m["dataset.annotate_calls_per_record"] = _ratio(calls_under(labels), len(labels) / 2)
    m["dataset.unlabeled_share"] = _ratio(sum(not s.attrs["labeled"] for s in labels), len(labels))
    m["dataset.write_ms"] = pct(ms("dataset.write_dataset"), 50)
    m["dataset.read_ms"] = pct(ms("dataset.read_dataset"), 50)

    replay = by_name["replay.replay_verdicts"]
    m["replay.ms"] = sum(ms("replay.replay_verdicts"))
    m["replay.verdicts_per_s"] = _ratio(len(log_rows), sum(s.duration for s in replay))

    ev = by_name["eval_harness.evaluate"]
    items = sum(s.attrs["items"] for s in ev)
    m["eval_harness.items_per_s"] = _ratio(items, sum(s.duration for s in ev))
    m["eval_harness.calls_per_item"] = _ratio(calls_under(ev), items)
    m["eval_harness.self_ms_per_item"] = _ratio(self_s(ev) * 1000, items)
    return m
