"""Generate-then-verify, end to end, on one scripted figure.

A tiny fake model plays every role so the demo runs offline: it extracts
two claims from the citing paragraphs, turns one into a four-option
question, then the candidate has to survive all four filters before it
becomes a dataset record. Every model response below is scripted, so you
can trace each verdict back to the exact string that produced it.

Run with: python3 demos/03_mock_pipeline_run.py
"""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

from figqa.dataset import annotate_taxonomy, compute_funnel
from figqa.figure_context import build_figure_contexts
from figqa.gateway import load_templates
from figqa.generation import extract_claims, generate_qa
from figqa.latex_prep import RawPaper, clean_paper
from figqa.verification import VerdictLog, run_cascade

SOURCE = r"""\documentclass{article}
\begin{document}

As \cref{fig:thr} shows, throughput roughly doubles once the cache warms
up, climbing from 40k to 80k requests per second.

\begin{figure}
\caption{Throughput during warmup.}
\label{fig:thr}
\end{figure}

\end{document}
"""


class ScriptedEndpoint:
    """Returns queued responses in order; the queue IS the model."""

    def __init__(self, role, responses, temperature=1.0):
        self.config = SimpleNamespace(
            role=role, model_name=f"scripted-{role}", temperature=temperature
        )
        self.queue = list(responses)

    def complete(self, prompt, image_ref=None):
        response = self.queue.pop(0)
        return response, "demo"


def main() -> None:
    templates = load_templates()

    raw = RawPaper(
        arxiv_id="demo.0003",
        primary_category="cs.PF",
        latex_source=SOURCE,
        figure_caption_pairs=[("images/thr.png", "Throughput during warmup.")],
    )
    paragraphs = clean_paper(raw)
    contexts, _ = build_figure_contexts(paragraphs, raw)
    ctx = contexts[0]
    print(f"bound figure {ctx.label}: {ctx.citing_paragraph_count} citing paragraph(s)\n")

    claim_endpoint = ScriptedEndpoint("text", [
        "<Patterns>\n"
        "The figure shows throughput doubles from 40k to 80k requests per second.\n"
        "Caching is generally a good idea.\n"  # non-conforming, dropped
        "</Patterns>",
    ])
    claims = extract_claims(ctx, claim_endpoint, templates)
    print(f"claims extracted: {len(claims)}")
    for claim in claims:
        print(f"  [{claim.ordinal}] {claim.text}")
    print()

    qa_endpoint = ScriptedEndpoint("text", [
        "<QA>\n"
        "<Question>How does throughput change once the cache warms up?</Question>\n"
        "<Correct>It roughly doubles</Correct>\n"
        "<Distractor>It halves</Distractor>\n"
        "<Distractor>It stays flat</Distractor>\n"
        "<Distractor>It drops to zero</Distractor>\n"
        "</QA>",
    ])
    candidate = generate_qa(claims[0], ctx, qa_endpoint, templates, seed=11)
    letter = "ABCD"[candidate.correct_index]
    print(f"candidate {candidate.key}: {candidate.question}")
    for i, option in enumerate(candidate.options):
        marker = " <- correct" if i == candidate.correct_index else ""
        print(f"  {'ABCD'[i]}. {option}{marker}")
    print()

    # Filter 1 must identify the correct letter from context alone.
    # Filters 2 and 3 must FAIL to identify it without/with the caption
    # but without the figure. The three vision votes need a 2-of-3
    # letter majority on the correct answer.
    text_endpoint = ScriptedEndpoint("text", [
        f"The context states it doubles. <option>{letter}</option>",
        "Without the figure I cannot tell. <option>None</option>",
    ])
    vision_endpoint = ScriptedEndpoint("vision", [
        "The caption alone does not say. <option>None</option>",
        f"The bars go from 40k to 80k, so it doubles. <option>{letter}</option>",
        f"Reading the y-axis, the rate doubles. <option>{letter}</option>",
        "<option>None</option>",
    ])

    with tempfile.TemporaryDirectory() as tmp:
        log = VerdictLog(Path(tmp) / "verdict_log.jsonl")
        outcome = run_cascade(candidate, ctx.context, text_endpoint,
                              vision_endpoint, templates, log)
        print("cascade outcome:", "retained" if outcome.record is not None else "rejected")
        for verdict in outcome.verdicts:
            print(f"  {verdict.filter:22s} passed={verdict.passed}")
        record = outcome.record
        assert record is not None

        annotator_vision = ScriptedEndpoint("vision", ["Bar Chart"], temperature=0.0)
        annotator_text = ScriptedEndpoint("text", ["Comparative"], temperature=0.0)
        record.figure_type = annotate_taxonomy(record, "figure_type",
                                               annotator_vision, templates)
        record.question_type = annotate_taxonomy(record, "question_type",
                                                 annotator_text, templates)

    print()
    print("verified record:")
    print(json.dumps(asdict(record), indent=2))

    print()
    stats = compute_funnel(papers=1, claims=1, qa_generated=1,
                           after_text_filtering=1, after_vision_filtering=1)
    print(stats.format_table())


if __name__ == "__main__":
    main()
