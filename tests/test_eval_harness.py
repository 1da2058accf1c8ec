"""Zero-shot evaluation: scoring, breakdown sums, and retry handling."""

from __future__ import annotations

import re

import pytest

from figqa.errors import EndpointUnavailable
from figqa.eval_harness import UNLABELED, accuracy_pct, evaluate, format_report
from figqa.gateway import HttpEndpoint, ModelEndpointConfig, load_templates

from helpers import FakePost, FakeResponse, StubEndpoint, make_record, ok_response

TEMPLATES = load_templates()

# Ten hand-labeled records across two domains, two figure types, and two
# question types. The scripted model answers the first six correctly and
# the last four wrongly or unusably, for a hand-counted 6/10.
HAND_SET = [
    # (key suffix, domain, figure_type, question_type, correct_index, scripted answer)
    (0, "cs.LG", "Line Plot", "Descriptive", 0, "<option>A</option>"),      # correct
    (1, "cs.LG", "Line Plot", "Descriptive", 1, "<option>B</option>"),      # correct
    (2, "cs.LG", "Bar Chart", "Comparative", 2, "<option>C</option>"),      # correct
    (3, "cs.LG", "Bar Chart", "Comparative", 3, "<option>D</option>"),      # correct
    (4, "math.NA", "Line Plot", "Descriptive", 0, "why not A. <option>A</option>"),  # correct
    (5, "math.NA", "Line Plot", "Comparative", 1, "<option>b.</option>"),   # correct
    (6, "math.NA", "Bar Chart", "Descriptive", 0, "<option>B</option>"),    # wrong letter
    (7, "math.NA", "Bar Chart", "Comparative", 1, "<option>None</option>"), # abstention
    (8, "cs.LG", "Line Plot", "Comparative", 2, "no tag anywhere"),         # unparseable
    (9, "math.NA", "Bar Chart", "Descriptive", 3, "<option>A</option>"),    # wrong letter
]


def _records():
    out = []
    for i, domain, ftype, qtype, correct, _ in HAND_SET:
        out.append(
            make_record(
                key=f"2000.{i:05d}:f0:c0",
                arxiv_id=f"2000.{i:05d}",
                primary_category=domain,
                figure_type=ftype,
                question_type=qtype,
                correct_index=correct,
            )
        )
    return out


def _eval_cfg(**kw):
    return ModelEndpointConfig(
        role="vision", model_name="live-eval", base_url="https://api.test/v1", temperature=0.0, **kw
    )


def _scripted_endpoint():
    responses = [row[5] for row in HAND_SET]
    return StubEndpoint(role="vision", temperature=0.0, responses=responses,
                        model_name="scripted-eval")


class TestAccuracyPct:
    def test_values(self):
        assert accuracy_pct(6, 10) == 60.0
        assert accuracy_pct(1, 3) == 33.33
        assert accuracy_pct(2, 3) == 66.67
        assert accuracy_pct(0, 7) == 0.0
        assert accuracy_pct(7, 7) == 100.0

    def test_half_up_at_second_decimal(self):
        assert accuracy_pct(1, 16) == 6.25
        assert accuracy_pct(1, 32) == 3.13  # 3.125 rounds up

    def test_empty_is_zero(self):
        assert accuracy_pct(0, 0) == 0.0


class TestEvaluate:
    def test_manual_count_reproduced(self):
        result = evaluate(_scripted_endpoint(), _records(), TEMPLATES)
        assert result.overall["correct"] == 6
        assert result.overall["total"] == 10
        assert result.overall["accuracy"] == 60.0
        assert result.unevaluated == 0
        assert result.model_name == "scripted-eval"

    def test_breakdowns_sum_to_overall(self):
        result = evaluate(_scripted_endpoint(), _records(), TEMPLATES)
        for breakdown in (result.by_domain, result.by_figure_type, result.by_question_type):
            assert sum(s["total"] for s in breakdown.values()) == result.overall["total"]
            assert sum(s["correct"] for s in breakdown.values()) == result.overall["correct"]

    def test_by_domain_counts(self):
        result = evaluate(_scripted_endpoint(), _records(), TEMPLATES)
        assert result.by_domain["cs.LG"] == {"correct": 4, "total": 5, "accuracy": 80.0}
        assert result.by_domain["math.NA"] == {"correct": 2, "total": 5, "accuracy": 40.0}

    def test_per_item_verdicts(self):
        result = evaluate(_scripted_endpoint(), _records(), TEMPLATES)
        verdicts = {item["key"]: item["correct"] for item in result.per_item}
        for i, *_rest in HAND_SET:
            assert verdicts[f"2000.{i:05d}:f0:c0"] is (i < 6)

    def test_unparseable_prediction_recorded_as_none(self):
        result = evaluate(_scripted_endpoint(), _records(), TEMPLATES)
        item = next(it for it in result.per_item if it["key"] == "2000.00008:f0:c0")
        assert item["predicted"] is None
        assert item["correct"] is False

    def test_abstention_counts_as_wrong(self):
        result = evaluate(_scripted_endpoint(), _records(), TEMPLATES)
        item = next(it for it in result.per_item if it["key"] == "2000.00007:f0:c0")
        assert item["predicted"] == "None"
        assert item["correct"] is False

    def test_pooled_result_equals_serial(self):
        records = _records()
        for i, record in enumerate(records):
            record.question = f"What does panel {i} show?"

        def answer(prompt, image_ref):
            return HAND_SET[int(re.search(r"panel (\d)", prompt).group(1))][5]

        results = [
            evaluate(
                StubEndpoint(role="vision", temperature=0.0, handler=answer), records, TEMPLATES,
                concurrency=concurrency,
            )
            for concurrency in (1, 4)
        ]
        assert results[0] == results[1]
        assert results[0].overall["correct"] == 6

    def test_temperature_guard(self):
        ep = StubEndpoint(role="vision", temperature=1.0)
        with pytest.raises(ValueError):
            evaluate(ep, _records(), TEMPLATES)

    def test_unlabeled_categories_grouped(self):
        records = [make_record(figure_type=None, question_type=None, primary_category="")]
        ep = StubEndpoint(role="vision", temperature=0.0, responses=["<option>A</option>"])
        result = evaluate(ep, records, TEMPLATES)
        assert result.by_domain == {UNLABELED: {"correct": 1, "total": 1, "accuracy": 100.0}}
        assert list(result.by_figure_type) == [UNLABELED]
        assert list(result.by_question_type) == [UNLABELED]

    def test_image_and_prompt_contents(self):
        records = [make_record(figure_image_ref="images/q.png")]
        ep = StubEndpoint(role="vision", temperature=0.0, responses=["<option>A</option>"])
        evaluate(ep, records, TEMPLATES)
        prompt, image = ep.calls[0]
        assert image == "images/q.png"
        assert records[0].question in prompt
        assert records[0].caption in prompt
        assert "A. It rises" in prompt

    def test_transport_failure_retries_then_excludes(self):
        # The endpoint's retries are the only ones: three posts, then the
        # item is excluded without being called again.
        record = make_record(figure_image_ref="https://host.test/x.png")
        transport = FakePost([FakeResponse(503)] * 4)
        ep = HttpEndpoint(_eval_cfg(max_retries=2), sleep=lambda s: None, post=transport)
        result = evaluate(ep, [record], TEMPLATES)
        assert len(transport.posts) == 3
        assert result.unevaluated == 1
        assert result.unevaluated_keys == [record.key]
        assert result.overall["total"] == 0
        assert result.overall["accuracy"] == 0.0
        assert result.by_domain == {}
        assert result.per_item == []

    def test_transport_failure_then_recovery(self):
        record = make_record(correct_index=0, figure_image_ref="https://host.test/x.png")
        transport = FakePost([ConnectionResetError("blip"), ok_response("<option>A</option>")])
        ep = HttpEndpoint(_eval_cfg(), sleep=lambda s: None, post=transport)
        result = evaluate(ep, [record], TEMPLATES)
        assert len(transport.posts) == 2
        assert result.unevaluated == 0
        assert result.overall["correct"] == 1

    def test_partial_outage_keeps_other_items(self):
        records = _records()[:3]
        # Make record identity visible to the handler through the question.
        for r in records:
            r.question = f"{r.arxiv_id} {r.question}"
            r.correct_index = 0

        def selective(prompt, image_ref):
            # Fail every request for the second record, answer others correctly.
            if "2000.00001" in prompt:
                raise EndpointUnavailable("down")
            return "<option>A</option>"

        ep = StubEndpoint(role="vision", temperature=0.0, handler=selective)
        result = evaluate(ep, records, TEMPLATES)
        assert result.unevaluated == 1
        assert result.unevaluated_keys == [records[1].key]
        assert result.overall["total"] == 2
        assert result.overall["correct"] == 2

    def test_failed_item_does_not_drop_an_answered_item_with_its_key(self):
        # Failed items are told by position: an answered record sharing the
        # failed one's key is still scored.
        records = [make_record(key="k", correct_index=0), make_record(key="k", correct_index=0)]
        ep = StubEndpoint(
            role="vision", temperature=0.0,
            responses=[EndpointUnavailable("down"), "<option>A</option>"],
        )
        result = evaluate(ep, records, TEMPLATES)
        assert result.unevaluated == 1
        assert result.unevaluated_keys == ["k"]
        assert result.overall == {"correct": 1, "total": 1, "accuracy": 100.0}
        assert result.per_item == [{"key": "k", "predicted": "A", "correct": True}]

    def test_empty_record_list(self):
        ep = StubEndpoint(role="vision", temperature=0.0)
        result = evaluate(ep, [], TEMPLATES)
        assert result.overall["total"] == 0
        assert result.overall["accuracy"] == 0.0


class TestFormatReport:
    def test_layout(self):
        result = evaluate(_scripted_endpoint(), _records(), TEMPLATES)
        report = format_report(result)
        lines = report.splitlines()
        assert lines[0] == "Model: scripted-eval"
        assert lines[1] == "Overall: 6/10 = 60.00%"
        assert lines[2] == "Unevaluated: 0"
        assert "By domain" in report
        assert "By figure type" in report
        assert "By question type" in report
        assert "cs.LG" in report and "math.NA" in report
        assert "80.00%" in report and "40.00%" in report

    def test_categories_sorted(self):
        result = evaluate(_scripted_endpoint(), _records(), TEMPLATES)
        report = format_report(result)
        domain_section = report.split("By domain")[1].split("By figure type")[0]
        idx_cs = domain_section.index("cs.LG")
        idx_math = domain_section.index("math.NA")
        assert idx_cs < idx_math
