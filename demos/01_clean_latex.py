"""Walk one LaTeX source through the cleanup chain.

Run with: python3 demos/01_clean_latex.py
"""

from figqa.latex_prep import RawPaper, clean_paper

SOURCE = r"""\documentclass{article}
% Preamble comments vanish entirely.
\newcommand{\sys}{FroggyDB}
\newcommand{\speedup}[1]{a #1 times speedup}
\begin{document}

\sys{} achieves \speedup{3} on the benchmark. % so does this remark
The gain persists at 95\% confidence.

\begin{verbatim}
percent signs survive in here: 100%
\end{verbatim}

\begin{thebibliography}{9}
\bibitem{x} A reference that the cleaned text never mentions.
\end{thebibliography}

\end{document}
"""


def main() -> None:
    raw = RawPaper(
        arxiv_id="demo.0001",
        primary_category="cs.DB",
        latex_source=SOURCE,
    )
    paragraphs = clean_paper(raw)

    print("=== original source ===")
    print(SOURCE)
    print("=== cleaned body ===")
    print("\n\n".join(paragraphs))
    print()
    print(f"=== {len(paragraphs)} paragraphs ===")
    for i, para in enumerate(paragraphs):
        preview = para if len(para) <= 72 else para[:69] + "..."
        print(f"  [{i}] {preview!r}")

    print()
    print("Things to notice:")
    print("  - both % comments are gone, the escaped 95\\% stayed")
    print("  - \\sys and \\speedup{3} were expanded in place")
    print("  - the verbatim block kept its literal % sign")
    print("  - the bibliography block disappeared")


if __name__ == "__main__":
    main()
