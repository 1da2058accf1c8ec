"""Synthetic three-paper corpus with a fully scripted mock backend.

Every model response is hand-authored. The builder replays the real
extraction and generation code against a partial script to learn the exact
request digests the pipeline will issue, then scripts the verification,
annotation, and evaluation responses for them. Anything the pipeline asks
that is not in the script is a hard failure, so the script doubles as an
assertion that no unexpected model calls happen.

The hand-traced outcome:

  paper 2401.00001 (cs.LG), figure 0: three claim lines, the middle one
    non-conforming, so ordinals 0 and 2 survive. Candidate c0 passes every
    filter (votes correct/correct/None) and is the single retained record;
    candidate c2 fails SourceConsistency.
  paper 2401.00001, figure 1: the model abstains ("None"), no claims.
  paper 2401.00002 (math.NA), figure 0: one claim, QA generation declined.
  paper 2401.00002, figure 1: candidate fails VisualDependenceVision (the
    no-figure vision stage guesses the correct letter).
  paper 2401.00003 (physics.comp-ph), figure 0: candidate reaches voting
    but the three votes all differ, a tie, so VisionConsistency fails.
  paper 2401.00003, figure 1: the no-figure text stage answers correctly
    from the caption, so VisualDependenceText fails.

Funnel: 3 papers, 6 claims, 5 candidates, 2 after the text filters,
1 after the vision filter.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import yaml

from figqa.figure_context import build_figure_contexts
from figqa.gateway import (
    MockBackend,
    ModelEndpointConfig,
    format_options,
    load_templates,
    render_template,
    request_digest,
)
from figqa.generation import Declined, extract_claims, generate_qa
from figqa.latex_prep import RawPaper, clean_paper
from figqa.pipeline import ROLE_DEFAULTS

SEED = 7
CRASH_AFTER = 7  # completed verify calls before the injected hard exit

CATEGORIES = {
    "2401.00001": "cs.LG",
    "2401.00002": "math.NA",
    "2401.00003": "physics.comp-ph",
}

PAPER_SOURCES = {
    "2401.00001": r"""% Training dynamics study
\newcommand{\modelA}{AlphaNet}
\newcommand{\modelB}{BetaNet}
\documentclass{article}
\begin{document}

\section{Introduction}

We train \modelA{} and \modelB{} on the benchmark. % setup note

As shown in \cref{fig:acc}, accuracy rises by 20\% over training.

\begin{figure}
\centering
\includegraphics{images/p1f0.png}
\caption{Accuracy versus training epochs for \modelA{} and \modelB.}
\label{fig:acc}
\end{figure}

\cref{fig:acc} also shows that \modelA{} overtakes \modelB{} after epoch 10.

The loss curves in \ref{fig:loss} flatten late in training.

\begin{figure}
\centering
\includegraphics{images/p1f1.png}
\caption{Training loss curves.}
\label{fig:loss}
\end{figure}

\begin{thebibliography}{9}
\bibitem{x} A related study.
\end{thebibliography}

\end{document}
""",
    "2401.00002": r"""\def\solver{Newton iteration}
\documentclass{article}
\begin{document}

We sketch the \solver{} pipeline in \autoref{fig:flow}.

\begin{figure*}
\centering
\includegraphics{images/p2f0.png}
\caption{Workflow of the \solver{} pipeline.}
\label{fig:flow}
\end{figure*}

\autoref{fig:err} plots the approximation error against step size; the error decreases as the step size shrinks.

\begin{figure}
\centering
\includegraphics{images/p2f1.png}
\caption{Approximation error as a function of step size.}
\label{fig:err}
\end{figure}

\end{document}
""",
    "2401.00003": r"""\documentclass{article}
\begin{document}

The phase structure is summarized in \cref{fig:gap,fig:phase}. The energy gap closes near the critical point, and the phase boundary sits at temperature T=2.3.

\begin{figure}
\centering
\includegraphics{images/p3f0.png}
\caption{Energy gap near the critical point.}
\label{fig:gap}
\end{figure}

As \ref{fig:gap} makes clear, the gap closes near the critical point.

\begin{figure}
\centering
\includegraphics{images/p3f1.png}
\caption{Phase boundary in the temperature plane.}
\label{fig:phase}
\end{figure}

\end{document}
""",
}

CORPUS_ROWS = [
    {
        "arxiv_id": "2401.00001",
        "figure_index": 0,
        "image": "images/p1f0.png",
        "caption": "Accuracy versus training epochs for AlphaNet and BetaNet.",
    },
    {
        "arxiv_id": "2401.00001",
        "figure_index": 1,
        "image": "images/p1f1.png",
        "caption": "Training loss curves.",
    },
    {
        "arxiv_id": "2401.00002",
        "figure_index": 0,
        "image": "images/p2f0.png",
        "caption": "Workflow of the Newton iteration pipeline.",
    },
    {
        "arxiv_id": "2401.00002",
        "figure_index": 1,
        "image": "images/p2f1.png",
        "caption": "Approximation error as a function of step size.",
    },
    {
        "arxiv_id": "2401.00003",
        "figure_index": 0,
        "image": "images/p3f0.png",
        "caption": "Energy gap near the critical point.",
    },
    {
        "arxiv_id": "2401.00003",
        "figure_index": 1,
        "image": "images/p3f1.png",
        "caption": "Phase boundary in the temperature plane.",
    },
]

CLAIM_RESPONSES = {
    "2401.00001:f0": (
        "Here are the extracted statements.\n"
        "<Patterns>\n"
        "The figure shows accuracy rises by about 20% over training.\n"
        "Accuracy is high at the end of training.\n"
        "The figure shows AlphaNet overtakes BetaNet after epoch 10.\n"
        "</Patterns>"
    ),
    "2401.00001:f1": "None",
    "2401.00002:f0": (
        "<Patterns>\nThe figure shows the workflow of the Newton iteration pipeline.\n</Patterns>"
    ),
    "2401.00002:f1": (
        "<Patterns>\nThe figure shows the approximation error decreases as the step size shrinks.\n</Patterns>"
    ),
    "2401.00003:f0": (
        "<Patterns>\nThe figure shows the energy gap closes near the critical point.\n</Patterns>"
    ),
    "2401.00003:f1": (
        "<Patterns>\nThe figure shows the phase boundary sits at temperature T=2.3.\n</Patterns>"
    ),
}

QA_RESPONSES = {
    "2401.00001:f0:c0": (
        "<QA>\n"
        "<Question>By approximately how much does accuracy rise over the course of training?</Question>\n"
        "<Correct>About 20 percentage points</Correct>\n"
        "<Distractor>About 5 percentage points</Distractor>\n"
        "<Distractor>About 35 percentage points</Distractor>\n"
        "<Distractor>It stays flat</Distractor>\n"
        "</QA>"
    ),
    "2401.00001:f0:c2": (
        "<QA>\n"
        "<Question>After which epoch does AlphaNet overtake BetaNet?</Question>\n"
        "<Correct>Epoch 10</Correct>\n"
        "<Distractor>Epoch 2</Distractor>\n"
        "<Distractor>Epoch 25</Distractor>\n"
        "<Distractor>They never cross</Distractor>\n"
        "</QA>"
    ),
    "2401.00002:f0:c0": "None.",
    "2401.00002:f1:c0": (
        "<QA>\n"
        "<Question>How does the approximation error change as the step size shrinks?</Question>\n"
        "<Correct>It decreases</Correct>\n"
        "<Distractor>It increases</Distractor>\n"
        "<Distractor>It stays constant</Distractor>\n"
        "<Distractor>It oscillates without a clear trend</Distractor>\n"
        "</QA>"
    ),
    "2401.00003:f0:c0": (
        "<QA>\n"
        "<Question>What happens to the energy gap near the critical point?</Question>\n"
        "<Correct>It closes</Correct>\n"
        "<Distractor>It widens</Distractor>\n"
        "<Distractor>It stays unchanged</Distractor>\n"
        "<Distractor>It diverges</Distractor>\n"
        "</QA>"
    ),
    "2401.00003:f1:c0": (
        "<QA>\n"
        "<Question>At approximately which temperature does the phase boundary sit?</Question>\n"
        "<Correct>T = 2.3</Correct>\n"
        "<Distractor>T = 1.1</Distractor>\n"
        "<Distractor>T = 3.7</Distractor>\n"
        "<Distractor>T = 0.4</Distractor>\n"
        "</QA>"
    ),
}

CORRECT_TEXTS = {
    "2401.00001:f0:c0": "About 20 percentage points",
    "2401.00001:f0:c2": "Epoch 10",
    "2401.00002:f1:c0": "It decreases",
    "2401.00003:f0:c0": "It closes",
    "2401.00003:f1:c0": "T = 2.3",
}

# Filter plan per candidate. Stages beyond the first failure stay
# unscripted on purpose: reaching them raises UnscriptedRequest.
VERIFY_PLANS = {
    "2401.00001:f0:c0": {"source": "correct", "visdep_text": "none", "visdep_vision": "wrong", "votes": "retain"},
    "2401.00001:f0:c2": {"source": "wrong"},
    "2401.00002:f1:c0": {"source": "correct", "visdep_text": "none", "visdep_vision": "correct"},
    "2401.00003:f0:c0": {"source": "correct", "visdep_text": "wrong", "visdep_vision": "none", "votes": "tie"},
    "2401.00003:f1:c0": {"source": "correct", "visdep_text": "correct"},
}

RETAINED_KEY = "2401.00001:f0:c0"
FIGURE_TYPE_LABEL = "Line Plot"
QUESTION_TYPE_LABEL = "Descriptive"


def tiny_png(color: tuple[int, int, int]) -> bytes:
    """A valid 1x1 RGB PNG, composed chunk by chunk."""

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)
    raw = b"\x00" + bytes(color)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


def _digest(slot: dict, prompt: str, image_ref: str | None = None) -> str:
    return request_digest(ModelEndpointConfig(**slot), prompt, image_ref)


def _option_response(kind: str, correct: str) -> str:
    others = [c for c in "ABCD" if c != correct]
    if kind == "correct":
        return f"The material settles it. <option>{correct}</option>"
    if kind == "wrong":
        return f"<option>{others[0]}</option>"
    if kind == "none":
        return "<option>None</option>"
    raise ValueError(kind)


def _vote_responses(kind: str, correct: str) -> list[str]:
    others = [c for c in "ABCD" if c != correct]
    if kind == "retain":
        return [
            "The accuracy curves start near 62% and end near 82%, a gain of "
            f"about 20 percentage points. <option>{correct}</option>",
            "Reading the vertical axis, the rise across training is roughly "
            f"20 points. <option>{correct}</option>",
            "The figure is too noisy for me to decide. <option>None</option>",
        ]
    if kind == "tie":
        return [
            f"Looks like the gap closes. <option>{correct}</option>",
            f"<option>{others[0]}</option>",
            f"<option>{others[1]}</option>",
        ]
    raise ValueError(kind)


@dataclass
class CorpusBundle:
    root: Path
    corpus_path: Path
    latex_dir: Path
    images_dir: Path
    script_path: Path
    expectations: dict

    def make_config(self, output_dir: Path, **overrides) -> Path:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        data = {
            "output": str(output_dir),
            "corpus": str(self.corpus_path),
            "latex_cache": str(self.latex_dir),
            "seed": SEED,
            "mock_script": str(self.script_path),
        }
        data.update(overrides)
        path = output_dir / "config.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        return path


def build_corpus(root: Path) -> CorpusBundle:
    root = Path(root)
    latex_dir = root / "latex"
    images_dir = root / "images"
    latex_dir.mkdir(parents=True, exist_ok=True)
    images_dir.mkdir(parents=True, exist_ok=True)

    for arxiv_id, source in PAPER_SOURCES.items():
        (latex_dir / f"{arxiv_id}.tex").write_text(source, encoding="utf-8")
    palette = [(200, 30, 30), (30, 200, 30), (30, 30, 200), (200, 200, 30), (30, 200, 200), (200, 30, 200)]
    for row, color in zip(CORPUS_ROWS, palette):
        name = Path(row["image"]).name
        (images_dir / name).write_bytes(tiny_png(color))

    corpus_path = root / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for row in CORPUS_ROWS:
            full = dict(row)
            full["primary_category"] = CATEGORIES[row["arxiv_id"]]
            fh.write(json.dumps(full) + "\n")

    templates = load_templates()
    text_slot = ROLE_DEFAULTS["text"]
    vision_slot = ROLE_DEFAULTS["vision"]
    ann_vision_slot = ROLE_DEFAULTS["annotator_vision"]
    ann_text_slot = ROLE_DEFAULTS["annotator_text"]
    eval_slot = ROLE_DEFAULTS["eval"]

    # Rebuild figure contexts exactly as the pipeline will.
    contexts = {}
    for arxiv_id, source in PAPER_SOURCES.items():
        rows = [r for r in CORPUS_ROWS if r["arxiv_id"] == arxiv_id]
        raw = RawPaper(
            arxiv_id=arxiv_id,
            primary_category=CATEGORIES[arxiv_id],
            latex_source=source,
            figure_caption_pairs=[(r["image"], r["caption"]) for r in rows],
        )
        paragraphs = clean_paper(raw)
        found, discards = build_figure_contexts(
            paragraphs, raw, figure_indices=[r["figure_index"] for r in rows]
        )
        assert not discards, f"unexpected extraction discards for {arxiv_id}: {discards}"
        for ctx in found:
            contexts[f"{ctx.arxiv_id}:f{ctx.figure_index}"] = ctx
    assert len(contexts) == 6, sorted(contexts)

    script: dict[str, object] = {}
    generate_counter: Counter = Counter()

    for fig_key in sorted(contexts):
        ctx = contexts[fig_key]
        prompt = render_template(
            templates["claim_extract"], {"context": ctx.context, "label": ctx.label}
        )
        digest = _digest(text_slot, prompt)
        script[digest] = CLAIM_RESPONSES[fig_key]
        generate_counter[digest] += 1

    backend = MockBackend(dict(script))
    text_ep = backend.endpoint(ModelEndpointConfig(**text_slot))
    claims = []
    for fig_key in sorted(contexts):
        claims.extend(extract_claims(contexts[fig_key], text_ep, templates))
    assert sorted(c.key for c in claims) == sorted(QA_RESPONSES), sorted(
        c.key for c in claims
    )

    for claim in claims:
        ctx = contexts[claim.figure_key]
        prompt = render_template(
            templates["qa_generate"],
            {"claim": claim.text, "caption": ctx.caption, "context": ctx.context},
        )
        digest = _digest(text_slot, prompt)
        script[digest] = QA_RESPONSES[claim.key]
        generate_counter[digest] += 1

    backend = MockBackend(dict(script))
    text_ep = backend.endpoint(ModelEndpointConfig(**text_slot))
    candidates = {}
    declined = []
    for claim in claims:
        ctx = contexts[claim.figure_key]
        result = generate_qa(claim, ctx, text_ep, templates, SEED)
        if isinstance(result, Declined):
            declined.append(result)
        else:
            candidates[result.key] = result

    assert sorted(candidates) == sorted(VERIFY_PLANS), sorted(candidates)
    assert len(declined) == 1
    assert declined[0].claim_key == "2401.00002:f0:c0"
    assert declined[0].reason == "model_declined"
    for key, cand in candidates.items():
        assert cand.options[cand.correct_index] == CORRECT_TEXTS[key], key

    verify_counter: Counter = Counter()
    forbidden: set[str] = set()
    vote_digests: dict[str, str] = {}
    for key in sorted(candidates):
        cand = candidates[key]
        plan = VERIFY_PLANS[key]
        correct = cand.correct_letter
        options = format_options(cand.options)
        ctx = contexts[f"{cand.arxiv_id}:f{cand.figure_index}"]

        src_prompt = render_template(
            templates["source_check"],
            {"context": ctx.context, "question": cand.question, "options": options},
        )
        visdep_prompt = render_template(
            templates["visdep_check"],
            {"caption": cand.caption, "question": cand.question, "options": options},
        )
        vision_prompt = render_template(
            templates["vision_answer"],
            {"caption": cand.caption, "question": cand.question, "options": options},
        )
        stage_digests = {
            "source": _digest(text_slot, src_prompt),
            "visdep_text": _digest(text_slot, visdep_prompt),
            "visdep_vision": _digest(vision_slot, visdep_prompt, None),
            "votes": _digest(vision_slot, vision_prompt, cand.figure_image_ref),
        }
        for stage in ("source", "visdep_text", "visdep_vision"):
            if stage in plan:
                script[stage_digests[stage]] = _option_response(plan[stage], correct)
                verify_counter[stage_digests[stage]] += 1
            else:
                forbidden.add(stage_digests[stage])
        if "votes" in plan:
            script[stage_digests["votes"]] = _vote_responses(plan["votes"], correct)
            verify_counter[stage_digests["votes"]] += 3
            vote_digests[key] = stage_digests["votes"]
        else:
            forbidden.add(stage_digests["votes"])

    retained = candidates[RETAINED_KEY]
    retained_options = format_options(retained.options)
    annotate_counter: Counter = Counter()
    fig_prompt = render_template(
        templates["figure_type_label"], {"caption": retained.caption}
    )
    fig_digest = _digest(ann_vision_slot, fig_prompt, retained.figure_image_ref)
    script[fig_digest] = FIGURE_TYPE_LABEL
    annotate_counter[fig_digest] += 1
    q_prompt = render_template(
        templates["question_type_label"],
        {"question": retained.question, "options": retained_options},
    )
    q_digest = _digest(ann_text_slot, q_prompt)
    script[q_digest] = QUESTION_TYPE_LABEL
    annotate_counter[q_digest] += 1

    eval_prompt = render_template(
        templates["eval_zero_shot"],
        {
            "caption": retained.caption,
            "question": retained.question,
            "options": retained_options,
        },
    )
    eval_digest = _digest(eval_slot, eval_prompt, retained.figure_image_ref)
    script[eval_digest] = f"<option>{retained.correct_letter}</option>"

    script_path = root / "mock_script.json"
    script_path.write_text(json.dumps(script, indent=1), encoding="utf-8")

    retain_votes = _vote_responses("retain", retained.correct_letter)
    expectations = {
        "papers": 3,
        "figures": 6,
        "claims": 6,
        "claim_keys": sorted(QA_RESPONSES),
        "candidates": 5,
        "candidate_keys": sorted(VERIFY_PLANS),
        "declined": [{"claim_key": "2401.00002:f0:c0", "reason": "model_declined"}],
        "funnel_counts": {
            "papers": 3,
            "claims": 6,
            "qa_generated": 5,
            "after_text_filtering": 2,
            "after_vision_filtering": 1,
        },
        "retention": {
            "claims": 100.0,
            "qa_generated": 83.3,
            "after_text_filtering": 33.3,
            "after_vision_filtering": 16.7,
        },
        "rejected_by_stage": {
            "SourceConsistency": 1,
            "VisualDependenceText": 1,
            "VisualDependenceVision": 1,
            "VisionConsistency": 1,
        },
        "retained_key": RETAINED_KEY,
        "retained_question": retained.question,
        "retained_correct_text": CORRECT_TEXTS[RETAINED_KEY],
        "retained_correct_letter": retained.correct_letter,
        "retained_reasoning": retain_votes[0],
        "retained_selections": [
            retained.correct_letter,
            retained.correct_letter,
            "None",
        ],
        "figure_type": FIGURE_TYPE_LABEL,
        "question_type": QUESTION_TYPE_LABEL,
        "generate_calls": 12,
        "verify_calls": 18,
        "verdict_lines_total": 14,
        "crash_after": CRASH_AFTER,
        "verdicts_at_crash": 5,
        "resume_verify_calls": 11,
        "generate_digest_counts": dict(generate_counter),
        "verify_digest_counts": dict(verify_counter),
        "annotate_digest_counts": dict(annotate_counter),
        "evaluate_digest_counts": {eval_digest: 1},
        "vote_digests": vote_digests,
        "forbidden_digests": sorted(forbidden),
        "categories": dict(CATEGORIES),
    }
    assert sum(generate_counter.values()) == expectations["generate_calls"]
    assert sum(verify_counter.values()) == expectations["verify_calls"]
    assert sum(annotate_counter.values()) == 2  # one figure-type and one question-type label

    return CorpusBundle(
        root=root,
        corpus_path=corpus_path,
        latex_dir=latex_dir,
        images_dir=images_dir,
        script_path=script_path,
        expectations=expectations,
    )
