"""Bind figure-caption pairs to LaTeX figure environments and collect context.

For each figure supplied by the corpus we locate its figure environment by
caption similarity, pull its labels, and gather every paragraph that cites
one of those labels. Figures that cannot be bound are discarded with a typed
reason so per-paper accounting stays exact.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .latex_prep import PARAGRAPH_SEPARATOR, RawPaper, environment_spans, in_spans, read_brace_group

CAPTION_MATCH_THRESHOLD = 0.9
CITATION_COMMANDS = ("ref", "cref", "Cref", "autoref")
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
    # What binding compares corpus captions against, computed once per environment.
    compared: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.compared = _comparison_form(self.caption_normalized)


@dataclass
class FigureContext:
    arxiv_id: str
    primary_category: str
    figure_index: int
    figure_image_ref: str
    caption: str
    label: str
    context: str
    citing_paragraph_count: int
    latex_caption: str = ""


_CAPTION_CMD_RE = re.compile(r"\\caption\s*(?:\[[^\]]*\])?\s*(?=\{)")
_LABEL_RE = re.compile(r"\\label\s*\{([^{}]*)\}")


def levenshtein_distance(a: str, b: str) -> int:
    """Unit-cost edit distance over Unicode scalars, exact.

    Myers' bit-vector recurrence in Hyyrö's form for the global distance
    (G. Myers, JACM 1999; H. Hyyrö, 2001): bit i of pv/mv says whether
    D[i+1][j] - D[i][j] is +1/-1 for the current column j, one int as wide
    as the shorter string, so each character of the longer string costs a
    fixed handful of int operations instead of one DP row.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for ch in b:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    top = bit >> 1
    pv, mv, score = mask, 0, len(b)
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # Row 0 is D[0][j] = j, so a +1 enters at the bottom of every column.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - d(a,b)/max(|a|,|b|); 1.0 when both strings are empty."""
    return _similarity(levenshtein_distance(a, b), len(a), len(b))


def _similarity(distance: int, la: int, lb: int) -> float:
    # The one expression for a similarity and for its length bound (distance
    # |la - lb|): division and subtraction round monotonically, so a distance
    # of at least |la - lb| gives sim <= bound in floats too.
    longest = max(la, lb)
    return 1.0 - distance / longest if longest else 1.0


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
    for start, end in environment_spans(body, ("figure",)):
        span_text = body[start:end]
        caption_raw = ""
        cap_m = _CAPTION_CMD_RE.search(span_text)
        if cap_m:
            group = read_brace_group(span_text, cap_m.end())
            if group is not None:
                caption_raw = group[0]
        sub_spans = environment_spans(span_text, ("subfigure",))
        labels = [(m[1], in_spans(sub_spans, m.start())) for m in _LABEL_RE.finditer(span_text)]
        envs.append(
            FigureEnvironment(
                span=(start, end),
                caption_raw=caption_raw,
                caption_normalized=normalize_caption(caption_raw),
                labels=[label for label, _ in labels],
                outer_labels=[label for label, inside in labels if not inside],
            )
        )
    return envs


def match_caption_to_environment(
    corpus_caption: str,
    environments: list[FigureEnvironment],
) -> FigureEnvironment | DiscardReason:
    """Return the unique environment whose caption clears CAPTION_MATCH_THRESHOLD.

    An edit distance is at least the length difference, so a similarity is at
    most 1 - |la - lb| / max(la, lb), the length filter of approximate string
    matching (Ukkonen, Inf. & Control 1985). Environments are scored in
    descending bound order until a bound can neither reach the threshold nor
    raise the best similarity seen, so the result and its detail text are
    those of scoring every environment.
    """
    target = _comparison_form(corpus_caption)
    la = len(target)
    ranked = sorted(
        ((_similarity(abs(la - len(env.compared)), la, len(env.compared)), i)
         for i, env in enumerate(environments)),
        reverse=True,
    )
    hits = []
    best = 0.0
    for bound, i in ranked:
        if bound < CAPTION_MATCH_THRESHOLD and bound <= best:
            break
        sim = levenshtein_similarity(target, environments[i].compared)
        best = max(best, sim)
        if sim >= CAPTION_MATCH_THRESHOLD:
            hits.append(i)
    hits.sort()
    if not hits:
        return DiscardReason(
            DiscardKind.NO_ENVIRONMENT_MATCH,
            f"best similarity {best:.3f} below threshold {CAPTION_MATCH_THRESHOLD}",
        )
    if len(hits) > 1:
        idxs = ", ".join(str(i) for i in hits)
        return DiscardReason(
            DiscardKind.AMBIGUOUS_MATCH,
            f"caption matches environments [{idxs}] at or above {CAPTION_MATCH_THRESHOLD}",
        )
    return environments[hits[0]]


def find_citing_paragraphs(
    labels: list[str],
    paragraphs: list[str],
    skip_indices: frozenset[int] = frozenset(),
) -> list[str]:
    """Paragraphs citing any of the labels via CITATION_COMMANDS, exact-key match.

    Multi-key references like \\cref{fig:a,fig:b} count when any key equals
    one of the labels. skip_indices excludes paragraphs by position (used to
    drop the paragraph holding the figure environment itself).
    """
    targets = set(labels)
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
    paragraphs: list[str],
    raw: RawPaper,
    figure_indices: list[int] | None = None,
) -> tuple[list[FigureContext], list[tuple[int, DiscardReason]]]:
    """Bind every corpus figure to an environment and its citing paragraphs.

    Every input pair lands in exactly one of the two output lists. Figures
    matched to the same environment are all discarded as ambiguous.
    """
    envs = find_figure_environments(PARAGRAPH_SEPARATOR.join(paragraphs))
    para_spans = _paragraph_spans(paragraphs)
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
        citing = find_citing_paragraphs(labels, paragraphs, skip)
        if not citing:
            discards[pos] = DiscardReason(
                DiscardKind.NO_CITING_PARAGRAPH,
                f"labels {labels} never cited outside the environment",
            )
            continue
        resolved = env.outer_labels[0] if env.outer_labels else labels[0]
        contexts.append(
            FigureContext(
                arxiv_id=raw.arxiv_id,
                primary_category=raw.primary_category,
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
