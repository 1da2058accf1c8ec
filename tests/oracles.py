"""Independent reference implementations used to cross-check the package.

These deliberately use the most naive correct algorithm available (full
DP matrices, explicit counting, direct quota arithmetic) and share no code
with the implementations under test.
"""

from __future__ import annotations

import re
from fractions import Fraction

# The result types only: match_full_scan builds what the binder returns.
from figqa.figure_context import DiscardKind, DiscardReason


def levenshtein_full_matrix(a: str, b: str) -> int:
    """Classic full-table edit distance, no rolling rows."""
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            substitution = table[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1)
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1, substitution)
    return table[-1][-1]


def similarity_from_distance(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein_full_matrix(a, b) / max(len(a), len(b))


def match_full_scan(corpus_caption: str, environments: list):
    """Score every environment against the caption, with no pruning.

    The comparison form (whitespace runs to one space, trimmed, lower case),
    the 0.9 threshold and both detail texts are restated here.
    """
    def compared(text: str) -> str:
        return " ".join(text.split()).lower()

    target = compared(corpus_caption)
    scores = [
        similarity_from_distance(target, compared(env.caption_normalized))
        for env in environments
    ]
    hits = [i for i, score in enumerate(scores) if score >= 0.9]
    if len(hits) == 1:
        return environments[hits[0]]
    if hits:
        return DiscardReason(
            DiscardKind.AMBIGUOUS_MATCH, f"caption matches environments {hits} at or above 0.9"
        )
    best = max(scores, default=0.0)
    return DiscardReason(
        DiscardKind.NO_ENVIRONMENT_MATCH, f"best similarity {best:.3f} below threshold 0.9"
    )


def majority_oracle(selections: tuple[str, str, str]) -> str:
    """Count occurrences outright; a letter needs at least two votes."""
    counts: dict[str, int] = {}
    for s in selections:
        counts[s] = counts.get(s, 0) + 1
    winners = [
        s for s, c in counts.items() if c >= 2 and len(s) == 1 and s.isalpha()
    ]
    assert len(winners) <= 1
    return winners[0] if winners else "Tie"


def proportional_allocation_oracle(sizes: dict, n: int) -> dict:
    """Largest-remainder quotas computed with exact rationals."""
    total = sum(sizes.values())
    assert 0 <= n <= total
    quotas = {key: Fraction(n * size, total) for key, size in sizes.items()}
    alloc = {key: int(q) for key, q in quotas.items()}  # Fraction floors toward zero
    leftover = n - sum(alloc.values())
    by_remainder = sorted(
        sizes, key=lambda key: (-(quotas[key] - alloc[key]), key)
    )
    for key in by_remainder[:leftover]:
        alloc[key] += 1
    return alloc


def strip_comment_lines_oracle(text: str) -> str:
    """Cut each line at the first '%' preceded by an even run of backslashes."""
    lines = []
    for line in text.split("\n"):
        for i, ch in enumerate(line):
            run = len(line[:i]) - len(line[:i].rstrip("\\"))
            if ch == "%" and run % 2 == 0:
                line = line[:i]
                break
        lines.append(line)
    return "\n".join(lines)


# The LaTeX extent rules as they stood before latex_prep.environment_spans:
# lazy DOTALL regexes that rescan to the end for each unclosed begin.
# Only figure* is starred; subfigure* and thebibliography* are not environments.
FIGURE_ENV_RE = re.compile(r"\\begin\{figure\*?\}.*?\\end\{figure\*?\}", re.DOTALL)
SUBFIGURE_ENV_RE = re.compile(r"\\begin\{subfigure\}.*?\\end\{subfigure\}", re.DOTALL)
BIB_ENV_RE = re.compile(r"\\begin\{thebibliography\}.*?\\end\{thebibliography\}", re.DOTALL)
OPAQUE_ENV_RE = re.compile(r"\\begin\{(verbatim|lstlisting)\*?\}.*?\\end\{\1\*?\}", re.DOTALL)


def spans_oracle(pattern: re.Pattern, text: str) -> list[tuple[int, int]]:
    return [m.span() for m in pattern.finditer(text)]


def figure_labels_oracle(body: str) -> list[tuple[tuple[int, int], list[str], list[str]]]:
    """Each figure environment's span, its labels, and the labels outside its subfigures."""
    envs = []
    for m in FIGURE_ENV_RE.finditer(body):
        sub_spans = spans_oracle(SUBFIGURE_ENV_RE, m[0])
        labels = [(lm[1], lm.start()) for lm in re.finditer(r"\\label\s*\{([^{}]*)\}", m[0])]
        outer = [label for label, at in labels if not any(s <= at < e for s, e in sub_spans)]
        envs.append((m.span(), [label for label, _ in labels], outer))
    return envs


def strip_bibliography_oracle(latex: str) -> str:
    text = BIB_ENV_RE.sub("", latex)
    return re.sub(r"\\(?:bibliography\{[^{}]*\}|printbibliography\b)", "", text)


def brace_group_oracle(text: str, pos: int) -> tuple[str, int] | None:
    """One balanced {...} group at pos, scanned afresh; a backslash escapes the next char."""
    if pos >= len(text) or text[pos] != "{":
        return None
    depth, i = 0, pos
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            i += 2
            continue
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return text[pos + 1 : i], i + 1
        i += 1
    return None


# The definition heads before the linear-time regexes: an arity may hold any
# text, and \def's parameters sit between two runs of whitespace.
_NEWCOMMAND_HEAD = re.compile(
    r"\\(?:re)?newcommand\*?(?=[ \t\n]*(?P<brace>\{\s*)?\\(?P<name>[A-Za-z@]+)(?(brace)\s*\})"
    r"[ \t\n]*(?:\[(?P<arity>[^\]]*)\][ \t\n]*)?(?P<body>\{))"
)
_DEF_HEAD = re.compile(r"\\def(?=\\(?P<name>[A-Za-z@]+)\s*(?P<params>(?:#\d)*)\s*(?P<body>\{))")


def _oracle_arity(m: re.Match) -> int | None:
    if "params" in m.re.groupindex:
        digits = [int(d) for d in m["params"][1::2]]
        return len(digits) if digits == list(range(1, len(digits) + 1)) else None
    spec = "0" if m["arity"] is None else m["arity"].strip()
    return int(spec) if spec.isdecimal() else None


class OracleLimit(Exception):
    """expand_macros_oracle gave up: too many passes, or the text grew too far."""


def expand_macros_oracle(latex: str, depth_limit: int = 32, growth_limit: int = 16) -> str:
    """Macro expansion with a fresh brace scan for every definition and argument.

    Every definition's body is read; the last one of a name wins (every
    \\newcommand before any \\def). The winners' bodies adding up to more than
    growth_limit times the input, a pass growing the text past that, or more
    than depth_limit passes raise OracleLimit.
    """
    limit = growth_limit * len(latex)

    def opaque(text: str, pos: int) -> bool:
        return any(s <= pos < e for s, e in spans_oracle(OPAQUE_ENV_RE, text))

    table: dict[str, tuple[int, str]] = {}
    cut: list[tuple[int, int]] = []
    for head in (_NEWCOMMAND_HEAD, _DEF_HEAD):
        for m in head.finditer(latex):
            group = brace_group_oracle(latex, m.start("body"))
            if opaque(latex, m.start()) or _oracle_arity(m) is None or group is None:
                continue
            table[m["name"]] = (_oracle_arity(m), group[0])
            cut.append((m.start(), group[1]))
    if sum(len(body) for _, body in table.values()) > limit:
        raise OracleLimit
    text, pos = "", 0
    for start, end in sorted(cut):
        if start >= pos:
            text, pos = text + latex[pos:start], end
    text += latex[pos:]
    if not table:
        return text
    uses = re.compile(r"\\(" + "|".join(table) + r")(?![A-Za-z@])")
    for _ in range(depth_limit + 1):
        out, pos, count = "", 0, 0
        for m in uses.finditer(text):
            if m.start() < pos or opaque(text, m.start()):
                continue
            nargs, body = table[m[1]]
            argpos = m.end()
            for i in range(1, nargs + 1):
                while argpos < len(text) and text[argpos] in " \t\n":
                    argpos += 1
                group = brace_group_oracle(text, argpos)
                if group is None:
                    break
                body, argpos = body.replace(f"#{i}", group[0]), group[1]
            else:
                out, pos, count = out + text[pos : m.start()] + body, argpos, count + 1
                if len(out) > limit:
                    raise OracleLimit
        text = out + text[pos:]
        if len(text) > limit:
            raise OracleLimit
        if count == 0:
            return text
    raise OracleLimit
