"""Cascaded verification filters and the append-only verdict log.

A candidate faces the four recorded checks of CASCADE in order: source
consistency, visual dependence (text stage then vision stage, both without
the figure), and vision consistency (three votes with the figure). The
first failure short-circuits the cascade; a candidate is retained iff every
recorded verdict passed. The log keeps exactly one verdict per (candidate,
filter) so crashed runs resume without repeating model calls.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from .dataset import VerifiedRecord, append_jsonl, cut_torn_tail, from_row, read_rows, write_jsonl
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

TIE = "Tie"
VOTE_COUNT = 3


@dataclass(frozen=True)
class Filter:
    """One cascade stage: its prompt, its endpoint, and what counts as a pass."""

    name: str
    template: str
    endpoint: str  # "text" or "vision"
    evidence: str  # the prompt variable beside question and options: "context" or "caption"
    pass_if_correct: bool = True  # False: pass iff the model FAILS to identify the answer
    votes: int = 1  # more than 1: every vote sees the figure, and a majority decides


# The visual-dependence stages see the caption but neither the figure nor
# the citing paragraphs, for the text and the vision model alike.
CASCADE = (
    Filter(FILTER_SOURCE, "source_check", "text", "context"),
    Filter(FILTER_VISDEP_TEXT, "visdep_check", "text", "caption", pass_if_correct=False),
    Filter(FILTER_VISDEP_VISION, "visdep_check", "vision", "caption", pass_if_correct=False),
    Filter(FILTER_VISION, "vision_answer", "vision", "caption", votes=VOTE_COUNT),
)
CASCADE_ORDER = tuple(step.name for step in CASCADE)


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

    def drop(self, keys) -> int:
        """Delete the verdicts of keys, (candidate, filter) pairs; rewrite the file; the count."""
        with self._lock:
            dropped = sum(self._entries.pop(key, None) is not None for key in keys)
        self.sort_file()
        return dropped

    def sort_file(self) -> None:
        """Atomically rewrite the file as one line per verdict in _file_order."""
        with self._lock:
            keys = sorted(self._entries, key=_file_order)
            write_jsonl(self.path, (asdict(self._entries[key]) for key in keys))


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


def _parse_selection(response: str) -> str:
    """Option parse with the fail-closed coercion: no tag counts as Ambiguous."""
    try:
        return parse_option_tag(response)
    except MalformedResponse:
        return AMBIGUOUS


def filter_request(
    step: Filter, candidate: QACandidate, context: str, templates
) -> tuple[str, str | None]:
    """The (prompt, image_ref) step sends about candidate; only a voting step sends the figure."""
    evidence = context if step.evidence == "context" else candidate.caption
    prompt = render_template(
        templates[step.template],
        {
            "question": candidate.question,
            "options": format_options(candidate.options),
            step.evidence: evidence,
        },
    )
    return prompt, candidate.figure_image_ref if step.votes > 1 else None


def apply_filter(
    step: Filter, candidate: QACandidate, context: str, endpoint, templates
) -> FilterVerdict:
    """One filter's verdict on candidate, asked of the endpoint step.endpoint names.

    Every vote is asked before any is parsed, so a transport failure on any
    vote propagates before anything is recorded and the votes are re-issued
    together when verify is rerun.
    """
    request = filter_request(step, candidate, context, templates)
    answers = [endpoint.complete(*request) for _ in range(step.votes)]
    selections = [_parse_selection(response) for response, _ in answers]
    tally = {}
    if step.votes == 1:
        selection = selections[0]
    else:
        # Ambiguous parses are abstentions: they can never agree with a letter majority.
        selections = [NONE_SIGNAL if s == AMBIGUOUS else s for s in selections]
        selection = majority_vote(selections)
        agreeing = None if selection == TIE else selections.index(selection)
        tally = {
            "selections": selections,
            "majority": selection,
            "agreeing_run_index": agreeing,
            "reasoning": None if agreeing is None else answers[agreeing][0],  # verbatim
        }
    return FilterVerdict(
        candidate_key=candidate.key,
        filter=step.name,
        passed=(selection == candidate.correct_letter) == step.pass_if_correct,
        model_selection=selection,
        transcript_ref=answers[0][1],
        **tally,
    )


@dataclass
class CascadeOutcome:
    """A candidate's verdicts; it was retained iff record is set, else verdicts[-1] rejected it."""

    verdicts: list[FilterVerdict]
    record: VerifiedRecord | None = None


def build_verified_record(candidate: QACandidate, vision_verdict: FilterVerdict) -> VerifiedRecord:
    """The record of a retained candidate: its own fields, the vote's reasoning, its provenance."""
    assert vision_verdict.reasoning is not None
    provenance = {
        "claim_text": candidate.claim_text,
        "context_digest": candidate.context_digest,
        "verdict_keys": [f"{candidate.key}|{stage}" for stage in CASCADE_ORDER],
    }
    return from_row(
        VerifiedRecord,
        {**asdict(candidate), "reasoning": vision_verdict.reasoning, "provenance": provenance},
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
    endpoints = {"text": text_endpoint, "vision": vision_endpoint}
    verdicts: list[FilterVerdict] = []
    for step in CASCADE:
        verdict = log.get(candidate.key, step.name)
        if verdict is None:
            verdict = apply_filter(step, candidate, context, endpoints[step.endpoint], templates)
            log.append(verdict)
        verdicts.append(verdict)
        if not verdict.passed:
            return CascadeOutcome(verdicts)
    return CascadeOutcome(verdicts, build_verified_record(candidate, verdicts[-1]))
