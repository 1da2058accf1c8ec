"""Acceptance gate: one test per shipping criterion.

Every test prints exactly one `criterion N (...): PASS/FAIL` line and
enforces the runtime budget stated for that criterion. Oracles live in
tests/oracles.py and the golden corpus in tests/data/extraction; nothing
here trusts the implementation it is checking.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

import test_extraction_corpus as extraction
import test_eval_harness as eval_fixture
from figqa.dataset import compute_funnel, read_dataset, read_rows, stratified_sample
from figqa.errors import RecursionLimitExceeded
from figqa.eval_harness import evaluate
from figqa.figure_context import levenshtein_distance, levenshtein_similarity
from figqa.gateway import load_templates
from figqa.latex_prep import clean_paper
from figqa.replay import replay_verdicts
from figqa.verification import CASCADE, TIE, FilterVerdict, apply_filter, majority_vote

from helpers import StubEndpoint, make_candidate, make_record
from oracles import (
    levenshtein_full_matrix,
    majority_oracle,
    proportional_allocation_oracle,
)

LETTERS = "ABCD"
CHOICES = ("A", "B", "C", "D", "None")
TEMPLATES = load_templates()


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(
            f"criterion {number} ({title}): FAIL "
            f"(took {elapsed:.2f}s, budget {budget_seconds:g}s)",
            flush=True,
        )
        pytest.fail(f"criterion {number} exceeded its {budget_seconds:g}s budget")
    print(f"criterion {number} ({title}): PASS ({elapsed:.2f}s)", flush=True)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def test_criterion_1_funnel_retention():
    with criterion(1, "funnel retention percentages", 1.0):
        stats = compute_funnel(
            papers=44_345,
            claims=680_877,
            qa_generated=261_116,
            after_text_filtering=55_372,
            after_vision_filtering=20_351,
        )
        assert stats.retention == {
            "claims": 100.0,
            "qa_generated": 38.4,
            "after_text_filtering": 8.1,
            "after_vision_filtering": 3.0,
        }


def test_criterion_2_edit_distance_against_oracle():
    with criterion(2, "edit distance vs full-matrix oracle", 5.0):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_similarity("kitten", "sitting") == 1 - 3 / 7

        rng = random.Random(987_123)
        alphabet = "abcdeXY .é"
        for _ in range(1000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert levenshtein_distance(a, b) == levenshtein_full_matrix(a, b), (a, b)


def test_criterion_3_majority_vote_and_retention_decisions():
    with criterion(3, "vote majority and retention decisions", 1.0):
        triples = list(itertools.product(CHOICES, repeat=3))
        assert len(triples) == 125
        for triple in triples:
            expected = majority_oracle(triple)
            assert majority_vote(list(triple)) == expected, triple
            assert expected == TIE or expected in LETTERS

        for index, letter in enumerate(LETTERS):
            candidate = make_candidate(correct_index=index)
            for triple in triples:
                endpoint = StubEndpoint(
                    role="vision",
                    responses=[f"<option>{s}</option>" for s in triple],
                )
                verdict = apply_filter(CASCADE[3], candidate, "ctx", endpoint, TEMPLATES)
                should_retain = majority_oracle(triple) == letter
                assert verdict.passed == should_retain, (letter, triple)


def test_criterion_4_extraction_goldens():
    with criterion(4, "extraction corpus goldens", 10.0):
        assert len(extraction.DOC_IDS) == 20
        for doc_id in extraction.BOUND_IDS:
            raw, _, contexts, discards = extraction.bind(doc_id)
            golden = extraction.GOLDENS[doc_id]
            got = [
                {f: getattr(ctx, f) for f in extraction.CONTEXT_FIELDS}
                for ctx in contexts
            ]
            assert got == golden["contexts"], doc_id
            assert [[i, r.kind.value] for i, r in discards] == golden["discards"], doc_id
            assert len(contexts) + len(discards) == len(raw.figure_caption_pairs), doc_id
        with pytest.raises(RecursionLimitExceeded):
            clean_paper(extraction.load_raw("d12"))


def test_criterion_5_pipeline_determinism_and_resume(e2e_bundle, run_cli, tmp_path):
    with criterion(5, "pipeline determinism and crash resume", 30.0):
        expect = e2e_bundle.expectations

        retained_bytes = set()
        for i in range(3):
            out = tmp_path / f"run{i}"
            config = e2e_bundle.make_config(out)
            proc = run_cli(["run", "--config", str(config)])
            assert proc.returncode == 0, proc.stderr
            retained_bytes.add((out / "retained.jsonl").read_bytes())
        assert len(retained_bytes) == 1

        out = tmp_path / "resumed"
        config = e2e_bundle.make_config(out)
        prep = run_cli(
            ["run", "--config", str(config),
             "--stage", "prepare", "--stage", "extract", "--stage", "generate"]
        )
        assert prep.returncode == 0, prep.stderr
        crash = run_cli(
            ["verify", "--config", str(config)],
            crash_after=expect["crash_after"],
        )
        assert crash.returncode == 70
        resume = run_cli(["verify", "--config", str(config)])
        assert resume.returncode == 0, resume.stderr

        assert (out / "retained.jsonl").read_bytes() == retained_bytes.pop()

        ledger = Counter(row["digest"] for row in read_jsonl(out / "mock_calls.jsonl"))
        scripted: Counter = Counter(expect["generate_digest_counts"])
        scripted.update(expect["verify_digest_counts"])
        assert ledger == scripted  # no duplicate work after the resume
        assert not set(ledger) & set(expect["forbidden_digests"])  # no calls past a short-circuit


def test_criterion_6_retention_replay(e2e_bundle, run_cli, tmp_path):
    with criterion(6, "independent retention replay", 5.0):
        config = e2e_bundle.make_config(tmp_path / "replay")
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "replay"

        cascade = (
            "SourceConsistency",
            "VisualDependenceText",
            "VisualDependenceVision",
            "VisionConsistency",
        )
        verdicts: dict[str, dict[str, bool]] = {}
        for row in read_jsonl(out / "verdict_log.jsonl"):
            verdicts.setdefault(row["candidate_key"], {})[row["filter"]] = row["passed"]
        conjunction = {
            key
            for key, passed in verdicts.items()
            if all(passed.get(name) is True for name in cascade)
        }
        retained_keys = {row["key"] for row in read_jsonl(out / "retained.jsonl")}
        assert retained_keys == conjunction
        assert len(verdicts) == e2e_bundle.expectations["candidates"]

        report = replay_verdicts(
            read_rows(out / "verdict_log.jsonl", FilterVerdict),
            read_dataset(out / "retained.jsonl"),
        )
        assert report.ok, report.problems
        assert report.candidates == len(verdicts)
        assert report.retained == len(retained_keys)


def test_criterion_7_stratified_allocation():
    with criterion(7, "stratified sampling allocation", 5.0):
        strata_sizes = {
            ("cs.LG", "Line Plot", "Descriptive"): 450,
            ("cs.LG", "Bar Chart", "Comparative"): 230,
            ("math.NA", "Line Plot", "Comparative"): 170,
            ("math.NA", "Heatmap", "Descriptive"): 90,
            ("physics.comp-ph", "Scatter Plot", "Reasoning"): 37,
            ("physics.comp-ph", "Bar Chart", "Reasoning"): 23,
        }
        assert sum(strata_sizes.values()) == 1000
        records = []
        for (domain, ftype, qtype), size in strata_sizes.items():
            for i in range(size):
                records.append(
                    make_record(
                        key=f"{domain}:{ftype}:{qtype}:{i}",
                        primary_category=domain,
                        figure_type=ftype,
                        question_type=qtype,
                    )
                )
        strata_keys = ("primary_category", "figure_type", "question_type")
        n = 137
        sample = stratified_sample(records, n, strata_keys, seed=13)

        assert len(sample) == n
        keys = [r.key for r in sample]
        assert len(set(keys)) == n
        assert set(keys) <= {r.key for r in records}

        got = Counter(
            (r.primary_category, r.figure_type, r.question_type) for r in sample
        )
        quotas = proportional_allocation_oracle(strata_sizes, n)
        assert dict(got) == {k: q for k, q in quotas.items() if q > 0}
        for key, size in strata_sizes.items():
            assert abs(got.get(key, 0) - n * size / 1000) <= 1, key


def test_criterion_8_evaluation_scoring():
    with criterion(8, "evaluation scoring and breakdown sums", 5.0):
        records = eval_fixture._records()
        endpoint = eval_fixture._scripted_endpoint()
        result = evaluate(endpoint, records, TEMPLATES)

        # Hand count over HAND_SET: the first six answers are correct.
        assert result.overall["correct"] == 6
        assert result.overall["total"] == 10
        assert result.overall["accuracy"] == 60.0
        assert result.unevaluated == 0

        for breakdown in (result.by_domain, result.by_figure_type, result.by_question_type):
            assert sum(slot["correct"] for slot in breakdown.values()) == 6
            assert sum(slot["total"] for slot in breakdown.values()) == 10


@pytest.mark.skipif(
    os.environ.get("FIGQA_LIVE_SMOKE") != "1",
    reason="live smoke disabled; set FIGQA_LIVE_SMOKE=1 and FIGQA_LIVE_CONFIG to run",
)
def test_criterion_9_live_endpoint_smoke():
    # Manual check against a real endpoint; never part of the normal suite.
    from figqa.gateway import HttpEndpoint
    from figqa.pipeline import RunConfig

    with criterion(9, "live endpoint smoke", 120.0):
        config_path = os.environ.get("FIGQA_LIVE_CONFIG")
        assert config_path, "FIGQA_LIVE_CONFIG must point at a config with live endpoints"
        cfg = RunConfig.from_yaml(config_path)
        endpoint = HttpEndpoint(cfg.endpoint_config("text"))
        text, _ = endpoint.complete("Reply with the single word: ready.")
        endpoint.close()
        assert text.strip()
