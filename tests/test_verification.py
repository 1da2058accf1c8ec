"""Filter cascade semantics, vote counting, and the verdict log."""

from __future__ import annotations

import itertools
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import pytest

from figqa import replay
from figqa.errors import EndpointUnavailable, SchemaViolation
from figqa.gateway import (
    AMBIGUOUS,
    NONE_SIGNAL,
    HttpEndpoint,
    MockBackend,
    ModelEndpointConfig,
    format_options,
    load_templates,
    render_template,
    request_digest,
)
from figqa.verification import (
    CASCADE,
    CASCADE_ORDER,
    FILTER_SOURCE,
    FILTER_VISDEP_TEXT,
    FILTER_VISDEP_VISION,
    FILTER_VISION,
    TIE,
    FilterVerdict,
    VerdictLog,
    apply_filter,
    build_verified_record,
    majority_vote,
    run_cascade,
)

from helpers import FakePost, StubEndpoint, make_candidate, ok_response, record_file_reads
from oracles import majority_oracle

TEMPLATES = load_templates()

VOTE_ALPHABET = ("A", "B", "C", "D", NONE_SIGNAL)


def logged(log: VerdictLog) -> list[tuple[str, str]]:
    """The (candidate, filter) key of each line of the log's file, in file order."""
    rows = [json.loads(line) for line in log.path.read_text().splitlines()]
    return [(row["candidate_key"], row["filter"]) for row in rows]


def _opt(letter: str) -> str:
    return f"<option>{letter}</option>"


class TestMajorityVote:
    def test_exhaustive_against_counting_oracle(self):
        for triple in itertools.product(VOTE_ALPHABET, repeat=3):
            got = majority_vote(list(triple))
            want = majority_oracle(list(triple))
            assert got == want, triple

    def test_examples(self):
        assert majority_vote(["A", "A", "B"]) == "A"
        assert majority_vote(["A", "B", "A"]) == "A"
        assert majority_vote(["B", "A", "A"]) == "A"
        assert majority_vote(["C", "C", "C"]) == "C"
        assert majority_vote(["A", "B", "C"]) == TIE
        assert majority_vote(["None", "None", "A"]) == TIE
        assert majority_vote(["None", "None", "None"]) == TIE

    def test_abstentions_never_win(self):
        # Two or even three agreeing None-signals are still a Tie: only a
        # letter can form a majority.
        assert majority_vote([NONE_SIGNAL, NONE_SIGNAL, "B"]) == TIE

    @pytest.mark.parametrize("bad", [[], ["A"], ["A", "B"], ["A", "B", "C", "D"]])
    def test_wrong_arity(self, bad):
        with pytest.raises(ValueError):
            majority_vote(bad)

    def test_lowercase_normalized(self):
        assert majority_vote(["a", "a", "B"]) == "A"


class TestSourceConsistency:
    def test_pass_on_exact_correct_letter(self):
        cand = make_candidate(correct_index=2)
        ep = StubEndpoint(responses=[_opt("C")])
        v = apply_filter(CASCADE[0], cand, "context text", ep, TEMPLATES)
        assert v.passed is True
        assert v.filter == FILTER_SOURCE
        assert v.model_selection == "C"
        assert v.candidate_key == cand.key

    def test_fail_on_wrong_letter(self):
        cand = make_candidate(correct_index=0)
        v = apply_filter(
            CASCADE[0], cand, "ctx", StubEndpoint(responses=[_opt("B")]), TEMPLATES
        )
        assert v.passed is False

    def test_fail_on_abstention(self):
        cand = make_candidate(correct_index=0)
        v = apply_filter(
            CASCADE[0], cand, "ctx", StubEndpoint(responses=[_opt("None")]), TEMPLATES
        )
        assert v.passed is False
        assert v.model_selection == NONE_SIGNAL

    def test_fail_closed_on_missing_tag(self):
        cand = make_candidate(correct_index=0)
        v = apply_filter(
            CASCADE[0], cand, "ctx", StubEndpoint(responses=["I think the answer is A"]), TEMPLATES
        )
        assert v.passed is False
        assert v.model_selection == AMBIGUOUS

    def test_prompt_carries_context_not_caption(self):
        cand = make_candidate(caption="CAPTION-SENTINEL")
        ep = StubEndpoint(responses=[_opt("A")])
        apply_filter(CASCADE[0], cand, "CONTEXT-SENTINEL", ep, TEMPLATES)
        prompt = ep.calls[0][0]
        assert "CONTEXT-SENTINEL" in prompt
        assert "CAPTION-SENTINEL" not in prompt
        assert cand.question in prompt
        assert "A. It rises" in prompt


class TestVisualDependence:
    """The two no-figure stages, reached through run_cascade after a passing source check."""

    def _run(self, tmp_path, visdep_text, visdep_vision=None, context="ctx", **overrides):
        cand = make_candidate(correct_index=0, **overrides)
        text_ep, vision_ep = _cascade_endpoints(
            source=_opt("A"),
            visdep_text=visdep_text,
            visdep_vision=visdep_vision,
            votes=None if visdep_vision is None else [_opt("B")] * 3,
        )
        log = VerdictLog(tmp_path / "log.jsonl")
        outcome = run_cascade(cand, context, text_ep, vision_ep, TEMPLATES, log)
        return outcome.verdicts[1:3], text_ep, vision_ep

    def test_stage1_passes_when_model_fails(self, tmp_path):
        verdicts, _, _ = self._run(tmp_path, _opt("B"), _opt("None"))
        assert [v.filter for v in verdicts] == [FILTER_VISDEP_TEXT, FILTER_VISDEP_VISION]
        assert all(v.passed for v in verdicts)

    def test_stage2_skipped_when_stage1_identifies(self, tmp_path):
        verdicts, _, vision_ep = self._run(tmp_path, _opt("A"))  # vision stub would raise if touched
        assert [v.filter for v in verdicts] == [FILTER_VISDEP_TEXT]
        assert verdicts[0].passed is False
        assert vision_ep.calls == []

    def test_stage2_fails_when_vision_model_identifies_blind(self, tmp_path):
        verdicts, _, _ = self._run(tmp_path, _opt("None"), _opt("A"))
        assert verdicts[0].passed is True
        assert verdicts[1].passed is False

    def test_stage2_sends_no_image(self, tmp_path):
        _, _, vision_ep = self._run(
            tmp_path, _opt("B"), _opt("B"), figure_image_ref="images/real.png"
        )
        assert vision_ep.calls[0][1] is None

    def test_prompt_carries_caption_not_context(self, tmp_path):
        _, text_ep, vision_ep = self._run(
            tmp_path, _opt("B"), _opt("B"), context="CONTEXT-SENTINEL", caption="CAPTION-SENTINEL"
        )
        for prompt in (text_ep.calls[1][0], vision_ep.calls[0][0]):
            assert "CAPTION-SENTINEL" in prompt
            assert "CONTEXT-SENTINEL" not in prompt

    def test_ambiguous_counts_as_failure_to_identify(self, tmp_path):
        verdicts, _, _ = self._run(tmp_path, "no tag at all", _opt("C"))
        assert verdicts[0].passed is True
        assert verdicts[0].model_selection == AMBIGUOUS


class TestVisionConsistency:
    def test_two_of_three_majority_passes(self):
        cand = make_candidate(correct_index=1)
        responses = [
            "The bars clearly favor option B. " + _opt("B"),
            _opt("C"),
            "Agreed, B. " + _opt("B"),
        ]
        ep = StubEndpoint(role="vision", responses=responses)
        v = apply_filter(CASCADE[3], cand, "ctx", ep, TEMPLATES)
        assert v.passed is True
        assert v.selections == ["B", "C", "B"]
        assert v.majority == "B"
        assert v.agreeing_run_index == 0
        assert v.reasoning == responses[0]  # verbatim, untrimmed

    def test_reasoning_from_first_agreeing_run(self):
        cand = make_candidate(correct_index=0)
        responses = [_opt("C"), "first agreeing " + _opt("A"), "second " + _opt("A")]
        v = apply_filter(
            CASCADE[3], cand, "ctx", StubEndpoint(role="vision", responses=responses), TEMPLATES
        )
        assert v.agreeing_run_index == 1
        assert v.reasoning == responses[1]

    def test_majority_wrong_letter_fails(self):
        cand = make_candidate(correct_index=0)
        responses = [_opt("B"), _opt("B"), _opt("A")]
        v = apply_filter(
            CASCADE[3], cand, "ctx", StubEndpoint(role="vision", responses=responses), TEMPLATES
        )
        assert v.passed is False
        assert v.majority == "B"
        assert v.reasoning == responses[0]

    def test_three_way_tie_fails_with_no_reasoning(self):
        cand = make_candidate(correct_index=0)
        v = apply_filter(
            CASCADE[3],
            cand,
            "ctx",
            StubEndpoint(role="vision", responses=[_opt("A"), _opt("B"), _opt("C")]),
            TEMPLATES,
        )
        assert v.passed is False
        assert v.majority == TIE
        assert v.agreeing_run_index is None
        assert v.reasoning is None

    def test_abstention_majority_is_tie(self):
        cand = make_candidate(correct_index=0)
        v = apply_filter(
            CASCADE[3],
            cand,
            "ctx",
            StubEndpoint(role="vision", responses=[_opt("None"), _opt("None"), _opt("A")]),
            TEMPLATES,
        )
        assert v.passed is False
        assert v.majority == TIE
        assert v.selections == [NONE_SIGNAL, NONE_SIGNAL, "A"]

    def test_ambiguous_recorded_as_abstention(self):
        cand = make_candidate(correct_index=0)
        v = apply_filter(
            CASCADE[3],
            cand,
            "ctx",
            StubEndpoint(role="vision", responses=["no tag", _opt("A"), _opt("A")]),
            TEMPLATES,
        )
        assert v.selections == [NONE_SIGNAL, "A", "A"]
        assert v.passed is True
        assert v.agreeing_run_index == 1

    def test_votes_carry_the_figure(self):
        cand = make_candidate(figure_image_ref="images/fig7.png")
        ep = StubEndpoint(role="vision", responses=[_opt("A")] * 3)
        apply_filter(CASCADE[3], cand, "ctx", ep, TEMPLATES)
        assert [image for _, image in ep.calls] == ["images/fig7.png"] * 3

    def test_transport_error_propagates(self):
        cand = make_candidate()
        ep = StubEndpoint(
            role="vision",
            responses=[_opt("A"), EndpointUnavailable("down"), _opt("A")],
        )
        with pytest.raises(EndpointUnavailable):
            apply_filter(CASCADE[3], cand, "ctx", ep, TEMPLATES)

    @pytest.mark.parametrize("kind", ["mock", "http"])
    def test_transcript_ref_is_the_digest_of_the_vote_request(self, tmp_path, kind):
        image = tmp_path / "fig.png"
        image.write_bytes(b"\x89PNGfake")
        cand = make_candidate(figure_image_ref=str(image))
        cfg = ModelEndpointConfig(role="vision", model_name="v", base_url="https://api.test/v1")
        prompt = render_template(
            TEMPLATES["vision_answer"],
            {
                "question": cand.question,
                "options": format_options(cand.options),
                "caption": cand.caption,
            },
        )
        digest = request_digest(cfg, prompt, cand.figure_image_ref)
        if kind == "mock":
            ep = MockBackend({digest: _opt("A")}).endpoint(cfg)
        else:
            transport = FakePost([ok_response(_opt("A"))] * 3)
            ep = HttpEndpoint(cfg, sleep=lambda s: None, post=transport)
        v = apply_filter(CASCADE[3], cand, "ctx", ep, TEMPLATES)
        assert v.transcript_ref == digest
        if kind == "http":
            sent = [post["json"]["messages"][0]["content"][0]["text"] for post in transport.posts]
            assert sent == [prompt] * 3

    def test_votes_read_the_figure_once_and_post_three_identical_bodies(
        self, tmp_path, monkeypatch
    ):
        image = tmp_path / "fig.png"
        image.write_bytes(b"\x89PNGfake" * 100)
        reads = record_file_reads(monkeypatch)
        cfg = ModelEndpointConfig(role="vision", model_name="v", base_url="https://api.test/v1")
        transport = FakePost([ok_response(_opt("A"))] * 3)
        ep = HttpEndpoint(cfg, sleep=lambda s: None, post=transport)
        apply_filter(CASCADE[3], make_candidate(figure_image_ref=str(image)), "ctx", ep, TEMPLATES)
        assert reads == [image]
        bodies = [post["body"] for post in transport.posts]
        assert len(bodies) == 3 and bodies[0] == bodies[1] == bodies[2]


class TestVerdictLog:
    def _verdict(self, key="k1", filter_name=FILTER_SOURCE, passed=True):
        return FilterVerdict(
            candidate_key=key,
            filter=filter_name,
            passed=passed,
            model_selection="A",
            transcript_ref="t" * 64,
        )

    def test_append_get_has(self, tmp_path):
        log = VerdictLog(tmp_path / "log.jsonl")
        assert log.get("k1", FILTER_SOURCE) is None
        log.append(self._verdict())
        assert log.get("k1", FILTER_SOURCE).passed is True
        assert logged(log) == [("k1", FILTER_SOURCE)]

    def test_duplicate_append_raises(self, tmp_path):
        log = VerdictLog(tmp_path / "log.jsonl")
        log.append(self._verdict())
        with pytest.raises(ValueError):
            log.append(self._verdict(passed=False))

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = VerdictLog(path)
        log.append(self._verdict())
        log.append(self._verdict(filter_name=FILTER_VISION))
        fresh = VerdictLog(path)
        assert fresh.get("k1", FILTER_SOURCE).filter == FILTER_SOURCE
        assert fresh.get("k1", FILTER_VISION).filter == FILTER_VISION

    def test_torn_final_line_skipped(self, tmp_path, caplog):
        path = tmp_path / "log.jsonl"
        log = VerdictLog(path)
        log.append(self._verdict())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"candidate_key": "k2", "filter": "Sour')  # torn by a crash
        with caplog.at_level(logging.WARNING):
            fresh = VerdictLog(path)
        assert logged(fresh) == [("k1", FILTER_SOURCE)]
        assert fresh.get("k2", FILTER_SOURCE) is None
        assert any("torn" in r.message for r in caplog.records)
        fresh.append(self._verdict(key="k3"))  # lands on its own line, not on the fragment
        assert logged(VerdictLog(path)) == [("k1", FILTER_SOURCE), ("k3", FILTER_SOURCE)]

    def test_corrupt_line_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = json.dumps(asdict(self._verdict()))
        path.write_text(good + "\n{not json}\n" + good + "\n")
        with pytest.raises(SchemaViolation) as exc:
            VerdictLog(path)
        assert exc.value.line == 2

    def test_row_missing_a_field_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        row = asdict(self._verdict())
        del row["passed"]
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(SchemaViolation) as exc:
            VerdictLog(path)
        assert exc.value.field == "passed"
        assert "log.jsonl" in str(exc.value)

    def test_duplicate_line_first_wins(self, tmp_path, caplog):
        path = tmp_path / "log.jsonl"
        first = asdict(self._verdict(passed=True))
        second = asdict(self._verdict(passed=False))
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        with caplog.at_level(logging.WARNING):
            log = VerdictLog(path)
        assert log.get("k1", FILTER_SOURCE).passed is True
        log.sort_file()
        assert logged(log) == [("k1", FILTER_SOURCE)]

    def test_round_trip_preserves_voting_fields(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = VerdictLog(path)
        verdict = FilterVerdict(
            candidate_key="k1",
            filter=FILTER_VISION,
            passed=True,
            model_selection="A",
            transcript_ref="t" * 64,
            selections=["A", "A", "None"],
            majority="A",
            agreeing_run_index=0,
            reasoning="  spaced reasoning kept verbatim  ",
        )
        log.append(verdict)
        loaded = VerdictLog(path).get("k1", FILTER_VISION)
        assert loaded.selections == ["A", "A", "None"]
        assert loaded.reasoning == "  spaced reasoning kept verbatim  "
        assert loaded.agreeing_run_index == 0

    def test_sort_file_leaves_a_sorted_log_untouched(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = VerdictLog(path)
        for key in ("k1", "k2"):
            for name in CASCADE_ORDER[:2]:
                log.append(self._verdict(key=key, filter_name=name))
        before = path.read_bytes()
        log.sort_file()
        VerdictLog(path).sort_file()
        assert path.read_bytes() == before

    def test_sort_file_orders_by_candidate_then_cascade(self, tmp_path):
        path = tmp_path / "log.jsonl"
        expected = tmp_path / "expected.jsonl"
        in_order = [("k1", name) for name in CASCADE_ORDER] + [("k2", FILTER_SOURCE)]
        reference = VerdictLog(expected)
        for key, name in in_order:
            reference.append(self._verdict(key=key, filter_name=name))
        log = VerdictLog(path)
        for key, name in [in_order[i] for i in (4, 3, 0, 2, 1)]:
            log.append(self._verdict(key=key, filter_name=name))
        log.sort_file()
        assert path.read_bytes() == expected.read_bytes()
        assert not path.with_name("log.jsonl.tmp").exists()
        log.append(self._verdict(key="k0"))  # out of order again after the rewrite
        log.sort_file()
        assert path.read_text().splitlines()[0].startswith('{"candidate_key": "k0"')

    def test_sort_file_drops_a_duplicate_line_and_keeps_the_first(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first, second = (json.dumps(asdict(self._verdict(passed=p))) for p in (True, False))
        path.write_text(first + "\n" + second + "\n")
        VerdictLog(path).sort_file()
        assert path.read_text() == first + "\n"

    def test_out_of_order_file_is_sorted_on_load(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rows = [asdict(self._verdict(key=key)) for key in ("k2", "k1")]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        VerdictLog(path).sort_file()
        assert [json.loads(line)["candidate_key"] for line in path.read_text().splitlines()] == [
            "k1",
            "k2",
        ]

    def test_sort_file_of_an_empty_log_leaves_an_empty_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        VerdictLog(path).sort_file()
        assert path.read_bytes() == b""

    def test_concurrent_appends_lose_nothing(self, tmp_path):
        """Eight threads on at most a few cores, with a short switch interval."""
        path = tmp_path / "log.jsonl"
        log = VerdictLog(path)
        keys = [f"k{i:02d}" for i in range(50)]

        def record(key):
            for name in CASCADE_ORDER:
                log.append(self._verdict(key=key, filter_name=name))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(record, key) for key in keys]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        expected = [(key, name) for key in keys for name in CASCADE_ORDER]
        assert sorted(logged(log)) == sorted(expected)
        log.sort_file()
        assert logged(log) == expected
        fresh = VerdictLog(path)
        assert all(fresh.get(key, name) is not None for key, name in expected)


def _cascade_endpoints(source, visdep_text, visdep_vision=None, votes=None):
    text_responses = [source]
    if visdep_text is not None:
        text_responses.append(visdep_text)
    vision_responses = []
    if visdep_vision is not None:
        vision_responses.append(visdep_vision)
    if votes is not None:
        vision_responses.extend(votes)
    return (
        StubEndpoint(responses=text_responses),
        StubEndpoint(role="vision", responses=vision_responses),
    )


class TestRunCascade:
    def test_order_matches_replay(self):
        # Replay takes the order from CASCADE_ORDER and spells no filter name of its own.
        assert replay.CASCADE_ORDER is CASCADE_ORDER
        source = Path(replay.__file__).read_text(encoding="utf-8")
        assert [name for name in CASCADE_ORDER if name in source] == []

    def test_vote_transport_error_records_no_vision_verdict(self, tmp_path):
        cand = make_candidate(correct_index=0)
        text_ep, vision_ep = _cascade_endpoints(
            source=_opt("A"),
            visdep_text=_opt("None"),
            visdep_vision=_opt("B"),
            votes=[_opt("A"), EndpointUnavailable("down")],
        )
        log = VerdictLog(tmp_path / "log.jsonl")
        with pytest.raises(EndpointUnavailable):
            run_cascade(cand, "ctx", text_ep, vision_ep, TEMPLATES, log)
        assert logged(log) == [(cand.key, name) for name in CASCADE_ORDER[:3]]
        assert log.get(cand.key, FILTER_VISION) is None

    def test_full_pass_retained(self, tmp_path):
        cand = make_candidate(correct_index=0)
        text_ep, vision_ep = _cascade_endpoints(
            source=_opt("A"),
            visdep_text=_opt("None"),
            visdep_vision=_opt("B"),
            votes=["why " + _opt("A"), _opt("A"), _opt("C")],
        )
        log = VerdictLog(tmp_path / "log.jsonl")
        outcome = run_cascade(cand, "ctx", text_ep, vision_ep, TEMPLATES, log)
        assert all(v.passed for v in outcome.verdicts)
        assert [v.filter for v in outcome.verdicts] == list(CASCADE_ORDER)
        assert outcome.record is not None
        assert outcome.record.reasoning == "why " + _opt("A")
        assert outcome.record.provenance["verdict_keys"] == [
            f"{cand.key}|{stage}" for stage in CASCADE_ORDER
        ]
        assert logged(log) == [(cand.key, name) for name in CASCADE_ORDER]
        assert len(text_ep.calls) == 2
        assert len(vision_ep.calls) == 4

    def test_source_failure_short_circuits(self, tmp_path):
        cand = make_candidate(correct_index=0)
        text_ep, vision_ep = _cascade_endpoints(source=_opt("D"), visdep_text=None)
        log = VerdictLog(tmp_path / "log.jsonl")
        outcome = run_cascade(cand, "ctx", text_ep, vision_ep, TEMPLATES, log)
        assert outcome.record is None
        assert outcome.verdicts[-1].filter == FILTER_SOURCE
        assert len(outcome.verdicts) == 1
        assert logged(log) == [(cand.key, FILTER_SOURCE)]
        assert len(text_ep.calls) == 1
        assert vision_ep.calls == []

    def test_visdep_text_failure_stops_before_vision(self, tmp_path):
        cand = make_candidate(correct_index=0)
        text_ep, vision_ep = _cascade_endpoints(source=_opt("A"), visdep_text=_opt("A"))
        log = VerdictLog(tmp_path / "log.jsonl")
        outcome = run_cascade(cand, "ctx", text_ep, vision_ep, TEMPLATES, log)
        assert outcome.record is None
        assert outcome.verdicts[-1].filter == FILTER_VISDEP_TEXT
        assert logged(log) == [(cand.key, name) for name in CASCADE_ORDER[:2]]
        assert vision_ep.calls == []

    def test_visdep_vision_failure(self, tmp_path):
        cand = make_candidate(correct_index=0)
        text_ep, vision_ep = _cascade_endpoints(
            source=_opt("A"), visdep_text=_opt("B"), visdep_vision=_opt("A")
        )
        outcome = run_cascade(
            cand, "ctx", text_ep, vision_ep, TEMPLATES, VerdictLog(tmp_path / "log.jsonl")
        )
        assert outcome.record is None
        assert outcome.verdicts[-1].filter == FILTER_VISDEP_VISION
        assert len(vision_ep.calls) == 1

    def test_vision_tie_rejected(self, tmp_path):
        cand = make_candidate(correct_index=0)
        text_ep, vision_ep = _cascade_endpoints(
            source=_opt("A"),
            visdep_text=_opt("None"),
            visdep_vision=_opt("C"),
            votes=[_opt("A"), _opt("B"), _opt("C")],
        )
        outcome = run_cascade(
            cand, "ctx", text_ep, vision_ep, TEMPLATES, VerdictLog(tmp_path / "log.jsonl")
        )
        assert outcome.verdicts[-1].filter == FILTER_VISION
        assert outcome.record is None

    def test_logged_verdicts_reused_without_calls(self, tmp_path):
        cand = make_candidate(correct_index=0)
        log_path = tmp_path / "log.jsonl"
        text_ep, vision_ep = _cascade_endpoints(
            source=_opt("A"),
            visdep_text=_opt("None"),
            visdep_vision=_opt("B"),
            votes=["r " + _opt("A"), _opt("A"), _opt("B")],
        )
        first = run_cascade(cand, "ctx", text_ep, vision_ep, TEMPLATES, VerdictLog(log_path))
        assert first.record is not None

        # Fresh endpoints with no scripted responses: any call would raise.
        replayed = run_cascade(
            cand, "ctx", StubEndpoint(), StubEndpoint(role="vision"), TEMPLATES,
            VerdictLog(log_path),
        )
        assert replayed.record is not None
        assert replayed.record.reasoning == first.record.reasoning

    def test_partial_log_resumes_midway(self, tmp_path):
        cand = make_candidate(correct_index=0)
        log_path = tmp_path / "log.jsonl"
        log = VerdictLog(log_path)
        log.append(
            FilterVerdict(
                candidate_key=cand.key,
                filter=FILTER_SOURCE,
                passed=True,
                model_selection="A",
                transcript_ref="t" * 64,
            )
        )
        # Only the three remaining stages may call out.
        text_ep = StubEndpoint(responses=[_opt("None")])
        vision_ep = StubEndpoint(
            role="vision",
            responses=[_opt("B"), "r " + _opt("A"), _opt("A"), _opt("None")],
        )
        outcome = run_cascade(cand, "ctx", text_ep, vision_ep, TEMPLATES, VerdictLog(log_path))
        assert outcome.record is not None
        assert len(text_ep.calls) == 1
        assert len(vision_ep.calls) == 4


class TestBuildVerifiedRecord:
    def test_fields_copied(self):
        cand = make_candidate(correct_index=2)
        verdict = FilterVerdict(
            candidate_key=cand.key,
            filter=FILTER_VISION,
            passed=True,
            model_selection="C",
            transcript_ref="t" * 64,
            selections=["C", "C", "None"],
            majority="C",
            agreeing_run_index=0,
            reasoning="because the plot says so",
        )
        record = build_verified_record(cand, verdict)
        assert record.key == cand.key
        assert record.options == cand.options
        assert record.correct_index == 2
        assert record.reasoning == "because the plot says so"
        assert record.figure_type is None
        assert record.question_type is None
        assert record.provenance["claim_text"] == cand.claim_text
        assert record.provenance["context_digest"] == cand.context_digest
