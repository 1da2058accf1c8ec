"""Self-tests of the benchmark: fake determinism, generator determinism, tiny smoke runs.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import world  # noqa: E402
from fake_endpoint import FakeProcess  # noqa: E402
from figqa.gateway import HttpEndpoint, ModelEndpointConfig, load_templates, render_template  # noqa: E402


def _tiny(name: str) -> run.Workload:
    wl = run.WORKLOADS[name]
    shape = dataclasses.replace(
        wl.shape,
        papers=3,
        figures_per_paper=(2, 3, 4),
        paper_kb=(4, 8),
        bib_entries=4,
        image_kb=(2, 4),
    )
    return dataclasses.replace(wl, shape=shape, text_ms=0, vision_ms=0)


def _requests() -> list[tuple[str, str, str | None]]:
    """(model, prompt, image) triples covering every prompt kind the fake answers."""
    templates = load_templates()
    question = world.question_for("recall", "Heron-R7")
    options = "\n".join(
        f"{chr(65 + i)}. {o}" for i, o in enumerate([world.correct_option(question), *world.distractors(question)])
    )
    answer_vars = {"caption": "Recall of Heron.", "question": question, "options": options}
    fact = world.fact_sentence("recall", "Heron-R7")
    return [
        ("fake-text", render_template(templates["claim_extract"], {"context": fact, "label": "fig:1"}), None),
        ("fake-text", render_template(templates["qa_generate"], {
            "claim": fact.replace("We observe", "The figure shows"), "caption": "c", "context": fact}), None),
        ("fake-text", render_template(templates["source_check"], {**answer_vars, "context": fact}), None),
        ("fake-text", render_template(templates["visdep_check"], answer_vars), None),
        ("fake-vision", render_template(templates["visdep_check"], answer_vars), None),
        ("fake-vision", render_template(templates["vision_answer"], answer_vars), "IMAGE"),
        ("fake-vision", render_template(templates["figure_type_label"], answer_vars), "IMAGE"),
        ("fake-text", render_template(templates["question_type_label"], answer_vars), None),
        ("fake-vision", render_template(templates["eval_zero_shot"], answer_vars), "IMAGE"),
    ]


def test_fake_answers_do_not_depend_on_order_or_concurrency(tmp_path):
    image = tmp_path / "f.png"
    image.write_bytes(corpus._png(random.Random(0), 40_000))
    reqs = [(m, p, str(image) if i else None) for m, p, i in _requests()]
    fake = FakeProcess(text_ms=5, vision_ms=10)
    try:
        endpoints = {
            m: HttpEndpoint(ModelEndpointConfig(role="vision" if m.endswith("-vision") else "text",
                                                model_name=m, base_url=fake.base_url))
            for m in ("fake-text", "fake-vision")
        }
        seen: dict[int, list[tuple[str, float]]] = {i: [] for i in range(len(reqs))}
        lock = threading.Lock()

        def issue(order):
            for i in order:
                model, prompt, ref = reqs[i]
                t0 = time.perf_counter()
                text, _ = endpoints[model].complete(prompt, ref)
                with lock:
                    seen[i].append((text, time.perf_counter() - t0))

        threads = [threading.Thread(target=issue, args=(o,)) for o in
                   (range(len(reqs)), reversed(range(len(reqs))))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        issue(range(len(reqs)))
        stats = fake.stats()
    finally:
        fake.stop()
    assert fake.proc.returncode is not None
    assert stats["requests"] == 3 * len(reqs) and stats["errors"] == 0
    assert stats["max_inflight"] <= len(os.sched_getaffinity(0))
    image_sha = hashlib.sha256(image.read_bytes()).hexdigest()
    for i, (model, prompt, ref) in enumerate(reqs):
        texts = {text for text, _ in seen[i]}
        assert len(texts) == 1, (i, texts)
        injected = world.injected_latency_s(model, 1.0, prompt, image_sha if ref else "", 5, 10)
        assert all(elapsed >= injected for _, elapsed in seen[i])


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    shape = _tiny("corpus_heavy").shape

    def files(out: Path) -> dict[str, bytes]:
        corpus.generate(shape, 5, out)
        return {
            str(p.relative_to(out)): p.read_bytes().replace(str(out.resolve()).encode(), b"<out>")
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    first, second = files(tmp_path / "a"), files(tmp_path / "b")
    assert first == second
    other = tmp_path / "c"
    made = corpus.generate(shape, 6, other)
    assert (other / "corpus.jsonl").read_bytes() != (tmp_path / "a" / "corpus.jsonl").read_bytes()
    assert made["figures"] == sum(shape.figures_per_paper)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_smoke_run_passes_the_output_check(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    wl = _tiny(name)
    plain = run.run_iteration(wl, 3, tmp_path / "plain", traced=False, golden=None)
    traced = run.run_iteration(wl, 3, tmp_path / "traced", traced=True, golden=None)
    for result in (plain, traced):
        assert result["problems"] == []
        assert result["failed"] == 0 and result["attempted"] > 0
    assert plain["digests"] == traced["digests"]
    layers = traced["layers"]
    assert layers["gateway.attempts_per_call"] == 1.0
    if wl.crash:
        # The cut keeps whole candidates until half of all verdicts are kept,
        # so the reused share exceeds 0.5 by less than one candidate's verdicts.
        per_candidate = [s.attrs["verdicts"] for s in traced["spans"] if s.name == "verification.run_cascade"]
        one = max(per_candidate) / sum(per_candidate)
        assert 0.5 <= layers["verification.reused_share"] < 0.5 + one


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model_bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_runner_reports():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
