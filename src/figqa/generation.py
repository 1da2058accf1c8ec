"""Generation stage: atomic claims from figure context, then QA candidates.

Each figure context yields zero or more claims of the form "The figure
shows ..."; each claim yields at most one four-option question. The model
may decline either step, and malformed structure is declined rather than
repaired so no model output is ever silently mutated.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .dataset import OPTION_COUNT, check_question, normalize_ws
from .errors import MalformedResponse, SchemaViolation
from .figure_context import FigureContext
from .gateway import (
    OPTION_LETTERS, complete_parsed, is_bare_none, parse_patterns_block, render_template, tag_bodies
)

CLAIM_PREFIX = "the figure shows"


@dataclass
class AtomicClaim:
    arxiv_id: str
    figure_index: int
    ordinal: int  # position among the non-blank lines of the extraction's <Patterns> block
    text: str

    @property
    def figure_key(self) -> str:
        return f"{self.arxiv_id}:f{self.figure_index}"

    @property
    def key(self) -> str:
        return f"{self.figure_key}:c{self.ordinal}"


@dataclass
class QACandidate:
    key: str  # equals the source claim's key
    arxiv_id: str
    figure_index: int
    claim_ordinal: int
    question: str
    options: list[str]
    correct_index: int
    caption: str
    figure_image_ref: str
    primary_category: str
    claim_text: str
    option_permutation: list[int]  # position -> source slot (0 is the correct answer)
    context_digest: str

    @property
    def correct_letter(self) -> str:
        return OPTION_LETTERS[self.correct_index]


@dataclass
class Declined:
    claim_key: str
    reason: str  # "model_declined" | "malformed_qa"
    detail: str = ""


def claim_conforms(text: str) -> bool:
    """Prefix check, case-insensitive after whitespace normalization."""
    return normalize_ws(text).lower().startswith(CLAIM_PREFIX)


def derive_rng(seed: int, item_key: str) -> random.Random:
    """Per-item generator derived from the run seed; order-independent."""
    digest = hashlib.sha256(f"{seed}:{item_key}".encode("utf-8")).hexdigest()
    return random.Random(int(digest[:16], 16))


def context_digest(context: str) -> str:
    return hashlib.sha256(context.encode("utf-8")).hexdigest()


def extract_claims(ctx: FigureContext, endpoint, templates) -> list[AtomicClaim]:
    """Render claim_extract, call the text model, keep conforming claims.

    One retry on a structurally malformed response, then the figure simply
    contributes no claims. Blank lines are dropped before numbering, so an
    ordinal is a position among the <Patterns> block's non-blank lines, and
    filtered non-conforming lines leave gaps in the ordinals.
    """
    prompt = render_template(
        templates["claim_extract"], {"context": ctx.context, "label": ctx.label}
    )
    try:
        lines = complete_parsed(endpoint, prompt, parse_patterns_block)
    except MalformedResponse:
        return []
    if lines is None:
        return []
    return [
        AtomicClaim(
            arxiv_id=ctx.arxiv_id,
            figure_index=ctx.figure_index,
            ordinal=ordinal,
            text=line,
        )
        for ordinal, line in enumerate(lines)
        if claim_conforms(line)
    ]


def parse_qa_response(response: str) -> dict[str, object]:
    """Pull question/correct/distractors out of the XML-shaped response."""
    questions, corrects, distractors = (
        [body.strip() for body in tag_bodies(response, name)]
        for name in ("Question", "Correct", "Distractor")
    )
    if len(questions) != 1 or len(corrects) != 1 or len(distractors) != OPTION_COUNT - 1:
        raise MalformedResponse(
            f"expected 1 question, 1 correct, {OPTION_COUNT - 1} distractors; "
            f"got {len(questions)}/{len(corrects)}/{len(distractors)}"
        )
    return {"question": questions[0], "correct": corrects[0], "distractors": distractors}


def generate_qa(
    claim: AtomicClaim,
    ctx: FigureContext,
    endpoint,
    templates,
    seed: int,
) -> QACandidate | Declined:
    """Turn one claim into a candidate that passes check_question, or a typed decline.

    The correct answer's position is drawn from a seeded per-claim generator
    and the permutation is recorded, so runs are reproducible and the answer
    letter carries no signal.
    """
    prompt = render_template(
        templates["qa_generate"],
        {"claim": claim.text, "caption": ctx.caption, "context": ctx.context},
    )
    try:
        parsed = complete_parsed(
            endpoint, prompt, lambda r: None if is_bare_none(r) else parse_qa_response(r)
        )
    except MalformedResponse as exc:
        return Declined(claim.key, "malformed_qa", str(exc))
    if parsed is None:
        return Declined(claim.key, "model_declined", "model output None")

    slots = [parsed["correct"], *parsed["distractors"]]  # source slot 0 is the correct answer
    rng = derive_rng(seed, claim.key)
    permutation = list(range(OPTION_COUNT))
    rng.shuffle(permutation)
    candidate = QACandidate(
        key=claim.key,
        arxiv_id=claim.arxiv_id,
        figure_index=claim.figure_index,
        claim_ordinal=claim.ordinal,
        question=parsed["question"],
        options=[slots[s] for s in permutation],
        correct_index=permutation.index(0),
        caption=ctx.caption,
        figure_image_ref=ctx.figure_image_ref,
        primary_category=ctx.primary_category,
        claim_text=claim.text,
        option_permutation=permutation,
        context_digest=context_digest(ctx.context),
    )
    try:
        check_question(vars(candidate), 0)
    except SchemaViolation as exc:
        return Declined(claim.key, "malformed_qa", f"{exc.field}: {exc.detail}")
    return candidate
