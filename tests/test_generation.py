"""Claim extraction and QA candidate assembly."""

from __future__ import annotations

import random

import pytest

from figqa.errors import MalformedResponse
from figqa.figure_context import FigureContext
from figqa.generation import (
    AtomicClaim,
    Declined,
    QACandidate,
    claim_conforms,
    context_digest,
    derive_rng,
    extract_claims,
    generate_qa,
    parse_qa_response,
)

from helpers import StubEndpoint


def _ctx(**overrides) -> FigureContext:
    fields = dict(
        arxiv_id="2000.00001",
        primary_category="cs.LG",
        figure_index=0,
        figure_image_ref="images/x.png",
        caption="Accuracy over epochs.",
        label="fig:acc",
        context="As \\cref{fig:acc} shows, accuracy rises by 20%.",
        citing_paragraph_count=1,
    )
    fields.update(overrides)
    return FigureContext(**fields)


def _claim(**overrides) -> AtomicClaim:
    fields = dict(
        arxiv_id="2000.00001", figure_index=0, ordinal=0,
        text="The figure shows accuracy rises by 20%.",
    )
    fields.update(overrides)
    return AtomicClaim(**fields)


QA_OK = (
    "<QA>\n<Question>How much does accuracy rise?</Question>\n"
    "<Correct>By 20%</Correct>\n"
    "<Distractor>By 5%</Distractor>\n"
    "<Distractor>By 50%</Distractor>\n"
    "<Distractor>It falls</Distractor>\n</QA>"
)


class TestClaimConforms:
    @pytest.mark.parametrize(
        "text",
        [
            "The figure shows accuracy rising.",
            "the figure shows a trend.",
            "THE FIGURE SHOWS X.",
            "  The   figure\tshows y.",
        ],
    )
    def test_accepts(self, text):
        assert claim_conforms(text)

    @pytest.mark.parametrize(
        "text",
        [
            "Accuracy is high.",
            "This figure shows a trend.",
            "The figures show a trend.",
            "",
        ],
    )
    def test_rejects(self, text):
        assert not claim_conforms(text)


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(7, "k").random()
        b = derive_rng(7, "k").random()
        assert a == b

    def test_seed_and_key_both_matter(self):
        base = derive_rng(7, "k").random()
        assert derive_rng(8, "k").random() != base
        assert derive_rng(7, "k2").random() != base

    def test_independent_of_call_order(self):
        first = derive_rng(7, "a").random()
        derive_rng(7, "b").random()
        assert derive_rng(7, "a").random() == first

    def test_returns_random_instance(self):
        assert isinstance(derive_rng(0, "x"), random.Random)


class TestExtractClaims:
    def test_conforming_lines_kept_with_raw_ordinals(self):
        ep = StubEndpoint(responses=[
            "<Patterns>\n"
            "The figure shows A.\n"
            "Some chatter line.\n"
            "The figure shows B.\n"
            "</Patterns>"
        ])
        claims = extract_claims(_ctx(), ep, _templates())
        assert [(c.ordinal, c.text) for c in claims] == [
            (0, "The figure shows A."),
            (2, "The figure shows B."),
        ]
        assert claims[0].key == "2000.00001:f0:c0"
        assert claims[1].key == "2000.00001:f0:c2"

    def test_abstention_yields_no_claims(self):
        ep = StubEndpoint(responses=["None"])
        assert extract_claims(_ctx(), ep, _templates()) == []
        assert len(ep.calls) == 1

    def test_malformed_then_valid_retries_once(self):
        ep = StubEndpoint(responses=[
            "no tags here",
            "<Patterns>\nThe figure shows A.\n</Patterns>",
        ])
        claims = extract_claims(_ctx(), ep, _templates())
        assert [c.text for c in claims] == ["The figure shows A."]
        assert len(ep.calls) == 2

    def test_malformed_twice_gives_up(self):
        ep = StubEndpoint(responses=["junk", "more junk"])
        assert extract_claims(_ctx(), ep, _templates()) == []
        assert len(ep.calls) == 2

    def test_prompt_contains_context_and_label(self):
        ep = StubEndpoint(responses=["None"])
        ctx = _ctx(context="UNIQUE-CONTEXT-TOKEN", label="fig:tok")
        extract_claims(ctx, ep, _templates())
        prompt = ep.calls[0][0]
        assert "UNIQUE-CONTEXT-TOKEN" in prompt
        assert "fig:tok" in prompt

    def test_no_conforming_lines(self):
        ep = StubEndpoint(responses=["<Patterns>\nJust chatter.\n</Patterns>"])
        assert extract_claims(_ctx(), ep, _templates()) == []


class TestParseQaResponse:
    def test_well_formed(self):
        parsed = parse_qa_response(QA_OK)
        assert parsed["question"] == "How much does accuracy rise?"
        assert parsed["correct"] == "By 20%"
        assert parsed["distractors"] == ["By 5%", "By 50%", "It falls"]

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda s: s.replace("<Question>How much does accuracy rise?</Question>\n", ""),
            lambda s: s.replace("<Correct>By 20%</Correct>\n", ""),
            lambda s: s.replace("<Distractor>It falls</Distractor>\n", ""),
            lambda s: s + "\n<Question>another?</Question>",
            lambda s: s + "\n<Distractor>fourth</Distractor>",
        ],
    )
    def test_wrong_shape_raises(self, mutation):
        with pytest.raises(MalformedResponse):
            parse_qa_response(mutation(QA_OK))


class TestGenerateQa:
    def test_candidate_assembly(self):
        ep = StubEndpoint(responses=[QA_OK])
        cand = generate_qa(_claim(), _ctx(), ep, _templates(), seed=7)
        assert isinstance(cand, QACandidate)
        assert cand.key == "2000.00001:f0:c0"
        assert sorted(cand.options) == sorted(["By 20%", "By 5%", "By 50%", "It falls"])
        assert cand.options[cand.correct_index] == "By 20%"
        assert cand.correct_letter == chr(65 + cand.correct_index)
        assert cand.primary_category == "cs.LG"
        assert cand.caption == "Accuracy over epochs."
        assert cand.claim_text == _claim().text
        assert cand.context_digest == context_digest(_ctx().context)

    def test_permutation_recorded_consistently(self):
        ep = StubEndpoint(responses=[QA_OK])
        cand = generate_qa(_claim(), _ctx(), ep, _templates(), seed=7)
        slots = ["By 20%", "By 5%", "By 50%", "It falls"]
        assert cand.options == [slots[s] for s in cand.option_permutation]
        assert cand.option_permutation.index(0) == cand.correct_index
        assert sorted(cand.option_permutation) == [0, 1, 2, 3]

    def test_same_seed_same_shuffle(self):
        a = generate_qa(_claim(), _ctx(), StubEndpoint(responses=[QA_OK]), _templates(), seed=7)
        b = generate_qa(_claim(), _ctx(), StubEndpoint(responses=[QA_OK]), _templates(), seed=7)
        assert a.options == b.options
        assert a.correct_index == b.correct_index

    def test_shuffle_varies_across_claims(self):
        # With 24 permutations and 12 claims, at least two placements differ.
        indices = set()
        for ordinal in range(12):
            cand = generate_qa(
                _claim(ordinal=ordinal), _ctx(), StubEndpoint(responses=[QA_OK]),
                _templates(), seed=7,
            )
            indices.add(cand.correct_index)
        assert len(indices) > 1

    def test_bare_none_declines(self):
        ep = StubEndpoint(responses=["None."])
        got = generate_qa(_claim(), _ctx(), ep, _templates(), seed=7)
        assert isinstance(got, Declined)
        assert got.reason == "model_declined"
        assert got.claim_key == "2000.00001:f0:c0"
        assert len(ep.calls) == 1

    def test_malformed_retry_then_success(self):
        ep = StubEndpoint(responses=["garbled", QA_OK])
        got = generate_qa(_claim(), _ctx(), ep, _templates(), seed=7)
        assert isinstance(got, QACandidate)
        assert len(ep.calls) == 2

    def test_malformed_twice_declines(self):
        ep = StubEndpoint(responses=["garbled", "still garbled"])
        got = generate_qa(_claim(), _ctx(), ep, _templates(), seed=7)
        assert isinstance(got, Declined)
        assert got.reason == "malformed_qa"

    def test_duplicate_options_decline(self):
        dup = QA_OK.replace("<Distractor>By 5%</Distractor>", "<Distractor>By 20%</Distractor>")
        got = generate_qa(_claim(), _ctx(), StubEndpoint(responses=[dup]), _templates(), seed=7)
        assert isinstance(got, Declined)
        assert got.reason == "malformed_qa"
        assert got.detail == "options: must be pairwise distinct"

    def test_whitespace_variant_duplicates_decline(self):
        dup = QA_OK.replace("<Distractor>By 5%</Distractor>", "<Distractor>By  20%</Distractor>")
        got = generate_qa(_claim(), _ctx(), StubEndpoint(responses=[dup]), _templates(), seed=7)
        assert isinstance(got, Declined)

    def test_empty_question_declines(self):
        bad = QA_OK.replace("How much does accuracy rise?", "")
        got = generate_qa(_claim(), _ctx(), StubEndpoint(responses=[bad]), _templates(), seed=7)
        assert isinstance(got, Declined)
        assert (got.reason, got.detail) == ("malformed_qa", "question: must be non-empty")

    def test_prompt_contains_claim_caption_context(self):
        ep = StubEndpoint(responses=[QA_OK])
        generate_qa(_claim(), _ctx(), ep, _templates(), seed=7)
        prompt = ep.calls[0][0]
        assert _claim().text in prompt
        assert _ctx().caption in prompt
        assert _ctx().context in prompt


_TEMPLATES_CACHE = None


def _templates():
    global _TEMPLATES_CACHE
    if _TEMPLATES_CACHE is None:
        from figqa.gateway import load_templates

        _TEMPLATES_CACHE = load_templates()
    return _TEMPLATES_CACHE
