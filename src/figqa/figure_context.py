"""Bind figure-caption pairs to LaTeX figure environments and collect context.

For each figure supplied by the corpus we locate its \\begin{figure} block by
caption similarity, pull its labels, and gather every paragraph that cites
one of those labels. Figures that cannot be bound are discarded with a typed
reason so per-paper accounting stays exact.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .latex_prep import PARAGRAPH_SEPARATOR, CleanPaper, RawPaper, read_brace_group

CAPTION_MATCH_THRESHOLD = 0.9
CITATION_COMMANDS = ("ref", "cref", "autoref")
_CITATION_RE = re.compile(r"\\(?:" + "|".join(CITATION_COMMANDS) + r")\*?\s*\{([^{}]*)\}")


class DiscardKind(str, enum.Enum):
    EMPTY_CAPTION = "EmptyCaption"
    NO_ENVIRONMENT_MATCH = "NoEnvironmentMatch"
    AMBIGUOUS_MATCH = "AmbiguousMatch"
    NO_LABEL = "NoLabel"
    NO_CITING_PARAGRAPH = "NoCitingParagraph"


@dataclass
class DiscardReason:
    kind: DiscardKind
    detail: str = ""


@dataclass
class FigureEnvironment:
    span: tuple[int, int]
    caption_raw: str
    caption_normalized: str
    labels: list[str] = field(default_factory=list)
    outer_labels: list[str] = field(default_factory=list)


@dataclass
class FigureContext:
    arxiv_id: str
    figure_index: int
    figure_image_ref: str
    caption: str
    label: str
    context: str
    citing_paragraph_count: int
    latex_caption: str = ""


_FIGURE_ENV_RE = re.compile(
    r"\\begin\{figure\*?\}.*?\\end\{figure\*?\}", re.DOTALL
)
_SUBFIGURE_ENV_RE = re.compile(
    r"\\begin\{subfigure\}.*?\\end\{subfigure\}", re.DOTALL
)
_CAPTION_CMD_RE = re.compile(r"\\caption\s*(?:\[[^\]]*\])?\s*(?=\{)")
_LABEL_RE = re.compile(r"\\label\s*\{([^{}]*)\}")


def levenshtein_distance(a: str, b: str) -> int:
    """Unit-cost edit distance, two-row DP over Unicode scalars."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cost = 0 if ca == cb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - d(a,b)/max(|a|,|b|); 1.0 when both strings are empty."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b))


_ESCAPED_CHAR_RE = re.compile(r"\\([%&_#${}])")
_CITE_RE = re.compile(r"\\[cC]ite[a-zA-Z]*\*?\s*(?:\[[^\]]*\])*\s*\{[^{}]*\}")
_REF_RE = re.compile(r"\\(?:ref|cref|Cref|autoref|eqref|pageref)\*?\s*\{[^{}]*\}")
_GRAPHICS_RE = re.compile(r"\\includegraphics\*?\s*(?:\[[^\]]*\])?\s*\{[^{}]*\}")
_ARG_COMMAND_RE = re.compile(r"\\[A-Za-z@]+\*?\s*(?:\[[^\]]*\])?\{([^{}]*)\}")
_BARE_COMMAND_RE = re.compile(r"\\[A-Za-z@]+\*?")
_MATH_DELIM_RE = re.compile(r"(?<!\\)\$\$?|\\[\(\)\[\]]")


def normalize_caption(caption_latex: str) -> str:
    """Convert a LaTeX caption to plain text, best effort, never raising.

    Citations become the fixed placeholder '<cit.>', reference commands are
    dropped, formatting commands keep their argument text, math delimiters
    are dropped with the content kept literally, and whitespace collapses.
    """
    s = caption_latex
    s = re.sub(r"\\\\", " ", s)
    s = _LABEL_RE.sub("", s)
    s = _CITE_RE.sub("<cit.>", s)
    s = _REF_RE.sub("", s)
    s = _GRAPHICS_RE.sub("", s)
    s = _MATH_DELIM_RE.sub("", s)
    # Unwrap braced commands innermost-first; bounded in case of weird input.
    for _ in range(20):
        s, n = _ARG_COMMAND_RE.subn(r"\1", s)
        if n == 0:
            break
    s = _ESCAPED_CHAR_RE.sub(r"\1", s)
    s = re.sub(r"\\[,;:!]", " ", s)
    s = _BARE_COMMAND_RE.sub("", s)
    s = s.replace("~", " ")
    s = s.replace("{", "").replace("}", "")
    return re.sub(r"\s+", " ", s).strip()


def _comparison_form(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip().lower()


def find_figure_environments(body: str) -> list[FigureEnvironment]:
    """Locate figure/figure* environments and pull captions and labels."""
    envs = []
    for m in _FIGURE_ENV_RE.finditer(body):
        span_text = m.group(0)
        caption_raw = ""
        cap_m = _CAPTION_CMD_RE.search(span_text)
        if cap_m:
            group = read_brace_group(span_text, cap_m.end())
            if group is not None:
                caption_raw = group[0]
        sub_spans = [sm.span() for sm in _SUBFIGURE_ENV_RE.finditer(span_text)]
        labels = []
        outer_labels = []
        for lm in _LABEL_RE.finditer(span_text):
            labels.append(lm.group(1))
            inside_sub = any(s <= lm.start() < e for s, e in sub_spans)
            if not inside_sub:
                outer_labels.append(lm.group(1))
        envs.append(
            FigureEnvironment(
                span=m.span(),
                caption_raw=caption_raw,
                caption_normalized=normalize_caption(caption_raw),
                labels=labels,
                outer_labels=outer_labels,
            )
        )
    return envs


def match_caption_to_environment(
    corpus_caption: str,
    environments: list[FigureEnvironment],
) -> FigureEnvironment | DiscardReason:
    """Return the unique environment whose caption clears CAPTION_MATCH_THRESHOLD."""
    target = _comparison_form(corpus_caption)
    hits = []
    best = 0.0
    for i, env in enumerate(environments):
        sim = levenshtein_similarity(target, _comparison_form(env.caption_normalized))
        best = max(best, sim)
        if sim >= CAPTION_MATCH_THRESHOLD:
            hits.append((i, sim))
    if not hits:
        return DiscardReason(
            DiscardKind.NO_ENVIRONMENT_MATCH,
            f"best similarity {best:.3f} below threshold {CAPTION_MATCH_THRESHOLD}",
        )
    if len(hits) > 1:
        idxs = ", ".join(str(i) for i, _ in hits)
        return DiscardReason(
            DiscardKind.AMBIGUOUS_MATCH,
            f"caption matches environments [{idxs}] at or above {CAPTION_MATCH_THRESHOLD}",
        )
    return environments[hits[0][0]]


def find_citing_paragraphs(
    label: str | list[str],
    paragraphs: list[str],
    skip_indices: frozenset[int] = frozenset(),
) -> list[str]:
    """Paragraphs citing the label(s) via CITATION_COMMANDS, exact-key match.

    Multi-key references like \\cref{fig:a,fig:b} count when any key equals
    a target label. skip_indices excludes paragraphs by position (used to
    drop the paragraph holding the figure environment itself).
    """
    targets = {label} if isinstance(label, str) else set(label)
    hits = []
    for i, para in enumerate(paragraphs):
        if i in skip_indices:
            continue
        for m in _CITATION_RE.finditer(para):
            keys = {k.strip() for k in m.group(1).split(",")}
            if keys & targets:
                hits.append(para)
                break
    return hits


def _paragraph_spans(paragraphs: list[str]) -> list[tuple[int, int]]:
    spans = []
    pos = 0
    for p in paragraphs:
        spans.append((pos, pos + len(p)))
        pos += len(p) + len(PARAGRAPH_SEPARATOR)
    return spans


def build_figure_contexts(
    clean: CleanPaper,
    raw: RawPaper,
    figure_indices: list[int] | None = None,
) -> tuple[list[FigureContext], list[tuple[int, DiscardReason]]]:
    """Bind every corpus figure to an environment and its citing paragraphs.

    Every input pair lands in exactly one of the two output lists. Figures
    matched to the same environment are all discarded as ambiguous.
    """
    envs = find_figure_environments(clean.body)
    para_spans = _paragraph_spans(clean.paragraphs)
    pairs = raw.figure_caption_pairs
    if figure_indices is None:
        figure_indices = list(range(len(pairs)))

    matched: dict[int, FigureEnvironment] = {}
    discards: dict[int, DiscardReason] = {}
    for pos, (_, caption) in enumerate(pairs):
        if not caption.strip():
            discards[pos] = DiscardReason(DiscardKind.EMPTY_CAPTION, "empty corpus caption")
            continue
        result = match_caption_to_environment(caption, envs)
        if isinstance(result, DiscardReason):
            discards[pos] = result
        else:
            matched[pos] = result

    # Two corpus figures claiming one environment cannot be told apart.
    by_env: dict[int, list[int]] = {}
    for pos, env in matched.items():
        by_env.setdefault(id(env), []).append(pos)
    for positions in by_env.values():
        if len(positions) > 1:
            for pos in positions:
                discards[pos] = DiscardReason(
                    DiscardKind.AMBIGUOUS_MATCH,
                    f"environment matched by {len(positions)} corpus figures",
                )
                del matched[pos]

    contexts = []
    for pos in sorted(matched):
        env = matched[pos]
        image_ref, caption = pairs[pos]
        labels = env.labels
        if not labels:
            discards[pos] = DiscardReason(DiscardKind.NO_LABEL, "no \\label in environment")
            continue
        skip = frozenset(
            i
            for i, (s, e) in enumerate(para_spans)
            if s < env.span[1] and env.span[0] < e
        )
        citing = find_citing_paragraphs(labels, clean.paragraphs, skip)
        if not citing:
            discards[pos] = DiscardReason(
                DiscardKind.NO_CITING_PARAGRAPH,
                f"labels {labels} never cited outside the environment",
            )
            continue
        resolved = env.outer_labels[0] if env.outer_labels else labels[0]
        contexts.append(
            FigureContext(
                arxiv_id=clean.arxiv_id,
                figure_index=figure_indices[pos],
                figure_image_ref=image_ref,
                caption=caption,
                label=resolved,
                context=PARAGRAPH_SEPARATOR.join(citing),
                citing_paragraph_count=len(citing),
                latex_caption=env.caption_raw,
            )
        )
    discard_list = [(figure_indices[pos], discards[pos]) for pos in sorted(discards)]
    return contexts, discard_list
