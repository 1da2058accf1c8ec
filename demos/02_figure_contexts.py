"""Bind corpus figure-caption pairs to their citing paragraphs.

The corpus supplies (image, caption) pairs; the LaTeX source supplies
figure environments and the prose around them. This demo shows one
successful binding, one ambiguity, and one orphan, plus the caption
normalization that makes the matching robust.

Run with: python3 demos/02_figure_contexts.py
"""

from figqa.figure_context import (
    build_figure_contexts,
    levenshtein_similarity,
    normalize_caption,
)
from figqa.latex_prep import RawPaper, clean_paper

SOURCE = r"""\documentclass{article}
\begin{document}

Accuracy climbs steadily, as \cref{fig:acc} shows.

\begin{figure}
\caption{\textbf{Accuracy} over $10^4$ training steps.}
\label{fig:acc}
\end{figure}

Later, \ref{fig:acc} is revisited when we discuss overfitting.

\begin{figure}
\caption{Loss landscape near the optimum.}
\label{fig:loss}
\end{figure}

\end{document}
"""

PAIRS = [
    ("images/acc.png", "Accuracy over 10^4 training steps."),
    ("images/loss.png", "Loss landscape near the optimum."),
    ("images/ghost.png", "A caption no environment comes close to."),
]


def main() -> None:
    raw = RawPaper(
        arxiv_id="demo.0002",
        primary_category="cs.LG",
        latex_source=SOURCE,
        figure_caption_pairs=PAIRS,
    )
    paragraphs = clean_paper(raw)

    print("=== caption normalization ===")
    fancy = r"\textbf{Accuracy} over $10^4$ training steps."
    print(f"  raw LaTeX : {fancy}")
    print(f"  normalized: {normalize_caption(fancy)}")
    sim = levenshtein_similarity(
        normalize_caption(fancy).lower(), PAIRS[0][1].lower()
    )
    print(f"  similarity to the corpus caption: {sim:.3f}")
    print()

    contexts, discards = build_figure_contexts(paragraphs, raw)

    print(f"=== {len(contexts)} bound, {len(discards)} discarded ===")
    for ctx in contexts:
        print(f"  figure {ctx.figure_index} ({ctx.figure_image_ref})")
        print(f"    label   : {ctx.label}")
        print(f"    cited by: {ctx.citing_paragraph_count} paragraph(s)")
        print(f"    context : {ctx.context[:70]}...")
    for index, reason in discards:
        print(f"  figure {index}: discarded as {reason.kind.value} ({reason.detail})")

    # fig:loss exists and matches, but no paragraph ever cites it, so it
    # cannot contribute a grounded context. The ghost caption matches
    # nothing at all. Both exits are recorded, never silently dropped.
    assert len(contexts) + len(discards) == len(PAIRS)


if __name__ == "__main__":
    main()
