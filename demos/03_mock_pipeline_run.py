"""Generate-then-verify, end to end, on one scripted figure.

A tiny fake model plays every role so the demo runs offline: it extracts
three claims from the citing paragraphs, drops the one that does not
conform, turns the other two into four-option questions, and each
candidate has to survive all four filters before it becomes a dataset
record. The annotate stage then labels the two records: one figure-type
request for their shared figure, one question-type request per record.
Every model response below is scripted, so you can trace each verdict
back to the exact string that produced it.

Run with: python3 demos/03_mock_pipeline_run.py
"""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

from figqa.dataset import compute_funnel, read_dataset, write_dataset
from figqa.figure_context import build_figure_contexts
from figqa.gateway import load_templates
from figqa.generation import extract_claims, generate_qa
from figqa.latex_prep import RawPaper, clean_paper
from figqa.pipeline import RunConfig, stage_annotate
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
        "The figure shows throughput climbing from 40k to 80k during warmup.\n"
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
        "<QA>\n"
        "<Question>Where does throughput start before warmup?</Question>\n"
        "<Correct>At about 40k requests per second</Correct>\n"
        "<Distractor>At about 80k requests per second</Distractor>\n"
        "<Distractor>At zero</Distractor>\n"
        "<Distractor>At about 10k requests per second</Distractor>\n"
        "</QA>",
    ])
    candidates = [generate_qa(claim, ctx, qa_endpoint, templates, seed=11) for claim in claims]

    with tempfile.TemporaryDirectory() as tmp:
        log = VerdictLog(Path(tmp) / "verdict_log.jsonl")
        records = []
        for candidate in candidates:
            letter = "ABCD"[candidate.correct_index]
            print(f"candidate {candidate.key}: {candidate.question}")
            for i, option in enumerate(candidate.options):
                marker = " <- correct" if i == candidate.correct_index else ""
                print(f"  {'ABCD'[i]}. {option}{marker}")

            # Filter 1 must identify the correct letter from context alone.
            # Filters 2 and 3 must FAIL to identify it without/with the caption
            # but without the figure. The three vision votes need a 2-of-3
            # letter majority on the correct answer.
            text_endpoint = ScriptedEndpoint("text", [
                f"The context states it. <option>{letter}</option>",
                "Without the figure I cannot tell. <option>None</option>",
            ])
            vision_endpoint = ScriptedEndpoint("vision", [
                "The caption alone does not say. <option>None</option>",
                f"The bars go from 40k to 80k. <option>{letter}</option>",
                f"Reading the y-axis gives it. <option>{letter}</option>",
                "<option>None</option>",
            ])
            outcome = run_cascade(candidate, ctx.context, text_endpoint,
                                  vision_endpoint, templates, log)
            print("cascade outcome:", "retained" if outcome.record is not None else "rejected")
            for verdict in outcome.verdicts:
                print(f"  {verdict.filter:22s} passed={verdict.passed}")
            print()
            assert outcome.record is not None
            records.append(outcome.record)

        # The annotate stage itself: the vision annotator holds one answer, so
        # a second figure-type request for the same figure would fail here.
        write_dataset(records, Path(tmp) / "retained.jsonl")
        annotator_vision = ScriptedEndpoint("vision", ["Bar Chart"], temperature=0.0)
        annotator_text = ScriptedEndpoint("text", ["Comparative", "Descriptive"],
                                          temperature=0.0)
        stage_annotate(RunConfig(output=tmp), {"annotator_vision": annotator_vision,
                                               "annotator_text": annotator_text})
        records = read_dataset(Path(tmp) / "annotated.jsonl")
        print(f"annotate: {len(records)} records of one figure, "
              "1 figure-type request, 2 question-type requests")

    print()
    print("verified records:")
    for record in records:
        print(json.dumps(asdict(record), indent=2))

    print()
    stats = compute_funnel(papers=1, claims=len(claims), qa_generated=len(candidates),
                           after_text_filtering=len(records),
                           after_vision_filtering=len(records))
    print(stats.format_table())


if __name__ == "__main__":
    main()
