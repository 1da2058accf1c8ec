"""Seeded synthetic corpus: corpus.jsonl, latex_cache/<id>.tex and PNG figures.

The seed chooses the content; the shape parameters fix the amounts. Every
amount the pipeline's cost depends on (figures per paper, caption lengths
per paper, paper sizes, claims, claim fates, near-duplicate pairs, image
sizes) is drawn from an exact deck, shuffled by the seed, so two seeds give
different papers of the same total work. That keeps run-to-run spread down
to what the machine adds.
"""

from __future__ import annotations

import json
import random
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import world

WORDS = (
    "model layer gradient sample batch kernel signal sparse dense token vector "
    "estimate baseline variance spectrum operator cluster graph node edge weight "
    "network solver mesh residual domain boundary field flux energy entropy "
    "prior posterior likelihood policy reward agent state action memory cache "
    "thread queue latency budget schedule channel filter feature encoder decoder"
).split()
CATEGORIES = ("cs.LG", "cs.CV", "math.NA", "physics.comp-ph", "stat.ML", "eess.SP")
# Share of claims per fate (letters as in world.FATES), the same for every shape.
FATE_SHARES = (("D", 0.05), ("M", 0.05), ("S", 0.20), ("T", 0.20), ("V", 0.15), ("C", 0.07), ("R", 0.28))


@dataclass(frozen=True)
class Shape:
    """Amounts of one synthetic corpus. Each tuple is a deck of exact values."""

    papers: int
    figures_per_paper: tuple[int, ...]  # one entry per paper
    caption_chars: tuple[int, int]  # per paper, spread over this range, skewed short
    claims_per_figure: tuple[int, ...]  # cycled over all figures
    near_duplicate_share: float  # share of figures in near-duplicate caption pairs
    paper_kb: tuple[int, int]  # LaTeX size, evenly spaced over the papers
    macros_per_paper: int
    comment_share: float  # share of filler lines carrying a % comment
    bib_entries: int
    cite_share: float  # share of filler lines ending in a \cite
    image_kb: tuple[int, int]  # PNG size, evenly spaced over the figures


def _spaced(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)] if n else []


def _deck(shares: tuple[tuple[str, float], ...], n: int) -> list[str]:
    """n labels in the given shares, by largest remainder."""
    quotas = [(label, share * n) for label, share in shares]
    counts = {label: int(q) for label, q in quotas}
    rest = sorted(quotas, key=lambda lq: -(lq[1] - int(lq[1])))
    for label, _ in rest[: n - sum(counts.values())]:
        counts[label] += 1
    return [label for label, _ in shares for _ in range(counts[label])]


def _words(rng: random.Random, chars: int) -> str:
    out: list[str] = []
    size = -1
    while size < chars:
        w = rng.choice(WORDS)
        out.append(w)
        size += len(w) + 1
    return " ".join(out)


def _caption(rng: random.Random, chars: int, sysname: str) -> tuple[str, str]:
    """(plain corpus caption, LaTeX caption) of about `chars` characters."""
    words = _words(rng, chars - len(sysname) - 1).split()
    words[0] = words[0].capitalize()
    pos = rng.randrange(1, len(words)) if len(words) > 1 else 0
    plain = words[:pos] + [sysname] + words[pos:]
    latex = words[:pos] + ["\\sysname{}"] + words[pos:]
    emph = rng.randrange(len(latex))
    if latex[emph] != "\\sysname{}":
        latex[emph] = f"\\emph{{{latex[emph]}}}"
    return " ".join(plain) + ".", " ".join(latex) + "."


def _near_duplicate(rng: random.Random, caption: str) -> str:
    """The caption with about 3% of its letters replaced: similarity stays above 0.9."""
    chars = list(caption)
    letters = [i for i, c in enumerate(chars) if c.isalpha() and c.islower()]
    for i in rng.sample(letters, max(1, len(chars) * 3 // 100)):
        chars[i] = "x" if chars[i] != "x" else "y"
    return "".join(chars)


def _filler(
    rng: random.Random, shape: Shape, target: int, bib_keys: list[str], names: list[str]
) -> str:
    """One paragraph of prose with citations, inline math, macros and comments."""
    lines = []
    size = 0
    while size < target:
        line = _words(rng, rng.randint(50, 90)).capitalize()
        if rng.random() < shape.cite_share and bib_keys:
            line += f" \\cite{{{rng.choice(bib_keys)}}}"
        if rng.random() < 0.2:
            line += f" with $x_{{{rng.randint(1, 9)}}} \\in \\R$"
        if rng.random() < 0.1:
            line += " \\eg \\norm{w}"
        if names and rng.random() < 0.3:
            line += f" as \\{rng.choice(names)}{{}}"
        line += "."
        if rng.random() < shape.comment_share:
            line += f" % {_words(rng, 30)}"
        lines.append(line)
        size += len(line) + 1
    return "\n".join(lines)


def _png(rng: random.Random, nbytes: int) -> bytes:
    """A valid RGB PNG of about nbytes: noise rows compress to their own size."""
    width = 256
    height = max(1, nbytes // (width * 3))
    raw = b"".join(b"\x00" + rng.randbytes(width * 3) for _ in range(height))

    def chunk(kind: bytes, data: bytes) -> bytes:
        body = kind + data
        return struct.pack(">I", len(data)) + body + struct.pack(">I", zlib.crc32(body))

    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 1))
        + chunk(b"IEND", b"")
    )


def generate(shape: Shape, seed: int, out: Path) -> dict:
    """Write the corpus under `out`; returns its paths and amounts."""
    rng = random.Random(f"corpus|{seed}")
    out = out.resolve()
    latex_dir = out / "latex_cache"
    image_dir = out / "images"
    latex_dir.mkdir(parents=True, exist_ok=True)
    image_dir.mkdir(parents=True, exist_ok=True)

    fig_counts = list(shape.figures_per_paper)
    rng.shuffle(fig_counts)
    paper_sizes = _spaced(shape.paper_kb[0] * 1024, shape.paper_kb[1] * 1024, shape.papers)
    rng.shuffle(paper_sizes)
    total_figures = sum(fig_counts)
    claim_counts = [shape.claims_per_figure[i % len(shape.claims_per_figure)] for i in range(total_figures)]
    rng.shuffle(claim_counts)
    image_sizes = _spaced(shape.image_kb[0] * 1024, shape.image_kb[1] * 1024, total_figures)
    rng.shuffle(image_sizes)
    dup_pairs = round(shape.near_duplicate_share * total_figures / 2)
    dup_papers = [p for p, n in enumerate(fig_counts) if n >= 2]
    dup_at = set(rng.sample(dup_papers, min(dup_pairs, len(dup_papers))))
    # Near-duplicate figures are discarded in extract, so the fate deck covers
    # only the claims that reach the model; theirs are never asked about.
    first_figure = [sum(fig_counts[:p]) for p in range(len(fig_counts))]
    lost = {first_figure[p] + f for p in dup_at for f in (0, 1)}
    live = [n for i, n in enumerate(claim_counts) if i not in lost]
    fates = _deck(FATE_SHARES, sum(live))
    rng.shuffle(fates)

    rows = []
    fig_no = 0
    claim_no = 0
    for p, n_figs in enumerate(fig_counts):
        arxiv_id = f"24{seed % 100:02d}.{p:05d}"
        category = CATEGORIES[p % len(CATEGORIES)]
        sysname = rng.choice(world.STEMS)
        bib_keys = [f"ref{p}x{i}" for i in range(shape.bib_entries)]
        # Cubed quantiles: most captions are short, a few reach the top of the range.
        lo, hi = shape.caption_chars
        lengths = [round(lo + (hi - lo) * ((x - lo) / (hi - lo)) ** 3) for x in _spaced(lo, hi, n_figs)]
        rng.shuffle(lengths)
        if p in dup_at:
            # The pair shares the mean of its two lengths, so the paper's total
            # caption length, which sets its binding cost, does not move.
            pair = lengths[0] + lengths[1]
            lengths[0], lengths[1] = pair // 2, pair - pair // 2
        captions = [_caption(rng, n, sysname) for n in lengths]
        if p in dup_at:
            plain = _near_duplicate(rng, captions[0][0])
            captions[1] = (plain, plain)

        figure_blocks = []
        for f, (plain, latex_caption) in enumerate(captions):
            label = f"fig:{p}-{f}"
            facts = []
            for _ in range(claim_counts[fig_no]):
                fate = "R" if fig_no in lost else fates.pop()
                method = f"{rng.choice(world.STEMS)}-{fate}{claim_no}"
                facts.append(world.fact_sentence(rng.choice(world.METRICS), method))
                claim_no += 1
            env = (
                "\\begin{figure}[t]\n\\centering\n"
                f"\\includegraphics[width=\\linewidth]{{figs/{label}.pdf}}\n"
                f"\\caption{{{latex_caption}}}\n\\label{{{label}}}\n\\end{{figure}}"
            )
            cite = f"As shown in Figure~\\ref{{{label}}}, " + _words(rng, 40) + ".\n" + "\n".join(facts)
            figure_blocks.append((env, cite))
            image = image_dir / f"{arxiv_id}_{f}.png"
            image.write_bytes(_png(rng, int(image_sizes[fig_no])))
            rows.append(
                {
                    "arxiv_id": arxiv_id,
                    "primary_category": category,
                    "figure_index": f,
                    "image": str(image),
                    "caption": plain,
                }
            )
            fig_no += 1

        macros = [
            f"\\newcommand{{\\sysname}}{{{sysname}}}",
            "\\newcommand{\\R}{\\mathbb{R}}",
            "\\newcommand{\\norm}[1]{\\left\\lVert #1 \\right\\rVert}",
            "\\def\\eg{e.g.\\ }",
        ]
        names = [f"term{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(shape.macros_per_paper)]
        macros += [f"\\newcommand{{\\{n}}}{{{_words(rng, 20)}}}" for n in names]
        bib = "\n".join(
            f"\\bibitem{{{k}}} {_words(rng, 60).title()}. Proc. {rng.choice(WORDS)}, {rng.randint(1990, 2024)}."
            for k in bib_keys
        )
        fixed = sum(len(e) + len(c) for e, c in figure_blocks) + len(bib) + 400
        n_filler = max(2, len(figure_blocks) * 2)
        per_filler = max(200, int((paper_sizes[p] - fixed) / n_filler))
        body = []
        for i in range(n_filler):
            if i == n_filler // 2:
                body.append(f"\\section{{{_words(rng, 20).title()}}}")
            body.append(_filler(rng, shape, per_filler, bib_keys, names))
            if i % 2 == 1 and figure_blocks:
                env, cite = figure_blocks.pop(0)
                body += [env, cite]
        for env, cite in figure_blocks:
            body += [env, cite]
        tex = "\n\n".join(
            [
                "% generated paper\n\\documentclass{article}\n" + "\n".join(macros),
                "\\begin{document}",
                *body,
                "\\begin{thebibliography}{99}\n" + bib + "\n\\end{thebibliography}",
                "\\end{document}",
            ]
        )
        (latex_dir / f"{arxiv_id}.tex").write_text(tex + "\n", encoding="utf-8")

    corpus = out / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return {
        "corpus": str(corpus),
        "latex_cache": str(latex_dir),
        "figures": total_figures,
    }
