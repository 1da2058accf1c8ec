"""Cascaded verification filters and the append-only verdict log.

A candidate faces four recorded checks in fixed order: source consistency,
visual dependence (text stage then vision stage, both without the figure),
and vision consistency (three votes with the figure). The first failure
short-circuits the cascade; a candidate is retained iff every recorded
verdict passed. The log keeps exactly one verdict per (candidate, filter)
so crashed runs resume without repeating model calls.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .dataset import VerifiedRecord, append_jsonl, cut_torn_tail, read_rows, write_jsonl
from .errors import MalformedResponse
from .gateway import (
    AMBIGUOUS,
    NONE_SIGNAL,
    format_options,
    parse_option_tag,
    render_template,
)
from .generation import QACandidate

logger = logging.getLogger(__name__)

FILTER_SOURCE = "SourceConsistency"
FILTER_VISDEP_TEXT = "VisualDependenceText"
FILTER_VISDEP_VISION = "VisualDependenceVision"
FILTER_VISION = "VisionConsistency"
CASCADE_ORDER = (FILTER_SOURCE, FILTER_VISDEP_TEXT, FILTER_VISDEP_VISION, FILTER_VISION)

TIE = "Tie"
VOTE_COUNT = 3


@dataclass
class FilterVerdict:
    candidate_key: str
    filter: str
    passed: bool
    model_selection: str
    transcript_ref: str
    # Voting fields, populated for VisionConsistency only.
    selections: list[str] | None = None
    majority: str | None = None
    agreeing_run_index: int | None = None
    reasoning: str | None = None


_CASCADE_RANK = {name: i for i, name in enumerate(CASCADE_ORDER)}


def _file_order(key: tuple[str, str]) -> tuple[str, int, str]:
    """A verdict's place in a sorted log: by candidate, then by position in the cascade."""
    candidate_key, filter_name = key
    return candidate_key, _CASCADE_RANK.get(filter_name, len(CASCADE_ORDER)), filter_name


class VerdictLog:
    """File-backed append-only map of (candidate, filter) to verdict.

    Appends are lock-guarded, so pool workers share one log.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple[str, str], FilterVerdict] = {}
        self._lock = threading.Lock()
        if self.path.exists():
            cut_torn_tail(self.path)
            # The first verdict per key wins; a row that is not a verdict raises SchemaViolation.
            for verdict in read_rows(self.path, FilterVerdict):
                key = (verdict.candidate_key, verdict.filter)
                if key in self._entries:
                    logger.warning("verdict log %s: duplicate entry %s ignored", self.path, key)
                    continue
                self._entries[key] = verdict

    def get(self, candidate_key: str, filter_name: str) -> FilterVerdict | None:
        return self._entries.get((candidate_key, filter_name))

    def append(self, verdict: FilterVerdict) -> None:
        key = (verdict.candidate_key, verdict.filter)
        with self._lock:
            if key in self._entries:
                raise ValueError(f"verdict already recorded for {key}")
            append_jsonl(self.path, asdict(verdict))
            self._entries[key] = verdict

    def sort_file(self) -> None:
        """Atomically rewrite the file as one line per verdict in _file_order."""
        with self._lock:
            keys = sorted(self._entries, key=_file_order)
            write_jsonl(self.path, (asdict(self._entries[key]) for key in keys))

    def __len__(self) -> int:
        return len(self._entries)


def majority_vote(selections: list[str]) -> str:
    """The letter occurring at least twice among 3 selections, else Tie.

    None-signals (and anything else that is not a single letter) can never
    form a majority; three identical abstentions are still a Tie.
    """
    if len(selections) != VOTE_COUNT:
        raise ValueError(f"expected exactly {VOTE_COUNT} selections, got {len(selections)}")
    for letter in set(selections):
        if len(letter) == 1 and letter.isalpha() and selections.count(letter) >= 2:
            return letter.upper()
    return TIE


def _parse_selection(response: str, option_count: int) -> str:
    """Option parse with the fail-closed coercion: no tag counts as Ambiguous."""
    try:
        return parse_option_tag(response, option_count)
    except MalformedResponse:
        return AMBIGUOUS


def _render(template, candidate: QACandidate, **variables: str) -> str:
    """A check prompt: the candidate's question and options plus variables."""
    return render_template(
        template,
        {"question": candidate.question, "options": format_options(candidate.options), **variables},
    )


def check_source_consistency(
    candidate: QACandidate, context: str, text_endpoint, templates
) -> FilterVerdict:
    """Pass iff the text model uniquely recovers the correct answer from P."""
    prompt = _render(templates["source_check"], candidate, context=context)
    response, transcript = text_endpoint.complete(prompt)
    selection = _parse_selection(response, len(candidate.options))
    return FilterVerdict(
        candidate_key=candidate.key,
        filter=FILTER_SOURCE,
        passed=selection == candidate.correct_letter,
        model_selection=selection,
        transcript_ref=transcript.request_digest,
    )


def _visdep_stage(candidate: QACandidate, endpoint, templates, filter_name: str) -> FilterVerdict:
    """One visual-dependence stage: pass iff the model FAILS to identify A*.

    The prompt carries caption, question, and options but no figure, for the
    text stage and the vision stage alike.
    """
    prompt = _render(templates["visdep_check"], candidate, caption=candidate.caption)
    response, transcript = endpoint.complete(prompt)
    selection = _parse_selection(response, len(candidate.options))
    return FilterVerdict(
        candidate_key=candidate.key,
        filter=filter_name,
        passed=selection != candidate.correct_letter,
        model_selection=selection,
        transcript_ref=transcript.request_digest,
    )


def check_vision_consistency(candidate: QACandidate, vision_endpoint, templates) -> FilterVerdict:
    """Three independent answer-with-reasoning votes over (F, C, Q, O).

    A transport failure on any vote propagates before anything is recorded,
    so the triple is re-issued atomically on retry. Ambiguous parses are
    recorded as abstentions: they can never agree with a letter majority.
    """
    prompt = _render(templates["vision_answer"], candidate, caption=candidate.caption)
    responses = []
    digests = []
    for _ in range(VOTE_COUNT):
        response, transcript = vision_endpoint.complete(prompt, candidate.figure_image_ref)
        responses.append(response)
        digests.append(transcript.request_digest)

    selections = []
    for response in responses:
        selection = _parse_selection(response, len(candidate.options))
        selections.append(NONE_SIGNAL if selection == AMBIGUOUS else selection)

    majority = majority_vote(selections)
    agreeing_run_index = None
    reasoning = None
    if majority != TIE:
        agreeing_run_index = selections.index(majority)
        reasoning = responses[agreeing_run_index]  # verbatim, untrimmed

    return FilterVerdict(
        candidate_key=candidate.key,
        filter=FILTER_VISION,
        passed=majority == candidate.correct_letter,
        model_selection=majority,
        transcript_ref=digests[0],
        selections=selections,
        majority=majority,
        agreeing_run_index=agreeing_run_index,
        reasoning=reasoning,
    )


@dataclass
class CascadeOutcome:
    candidate_key: str
    status: str  # "retained" | "rejected"
    rejected_stage: str | None
    verdicts: list[FilterVerdict] = field(default_factory=list)
    record: VerifiedRecord | None = None


def build_verified_record(candidate: QACandidate, vision_verdict: FilterVerdict) -> VerifiedRecord:
    assert vision_verdict.reasoning is not None
    return VerifiedRecord(
        key=candidate.key,
        arxiv_id=candidate.arxiv_id,
        primary_category=candidate.primary_category,
        figure_index=candidate.figure_index,
        figure_image_ref=candidate.figure_image_ref,
        caption=candidate.caption,
        question=candidate.question,
        options=list(candidate.options),
        correct_index=candidate.correct_index,
        reasoning=vision_verdict.reasoning,
        figure_type=None,
        question_type=None,
        provenance={
            "claim_text": candidate.claim_text,
            "context_digest": candidate.context_digest,
            "verdict_keys": [f"{candidate.key}|{stage}" for stage in CASCADE_ORDER],
        },
    )


def run_cascade(
    candidate: QACandidate,
    context: str,
    text_endpoint,
    vision_endpoint,
    templates,
    log: VerdictLog,
) -> CascadeOutcome:
    """Apply the filters in order with short-circuit rejection.

    Already-logged verdicts are reused without new model calls, which is
    both the resume path and the no-duplicate-calls guarantee.
    """
    checks = {
        FILTER_SOURCE: lambda: check_source_consistency(
            candidate, context, text_endpoint, templates
        ),
        FILTER_VISDEP_TEXT: lambda: _visdep_stage(
            candidate, text_endpoint, templates, FILTER_VISDEP_TEXT
        ),
        FILTER_VISDEP_VISION: lambda: _visdep_stage(
            candidate, vision_endpoint, templates, FILTER_VISDEP_VISION
        ),
        FILTER_VISION: lambda: check_vision_consistency(candidate, vision_endpoint, templates),
    }
    assert tuple(checks) == CASCADE_ORDER
    verdicts: list[FilterVerdict] = []
    for filter_name, check in checks.items():
        verdict = log.get(candidate.key, filter_name)
        if verdict is None:
            verdict = check()
            log.append(verdict)
        verdicts.append(verdict)
        if not verdict.passed:
            return CascadeOutcome(candidate.key, "rejected", filter_name, verdicts)
    record = build_verified_record(candidate, verdicts[-1])
    return CascadeOutcome(candidate.key, "retained", None, verdicts, record)
