"""Independent reference implementations used to cross-check the package.

These deliberately use the most naive correct algorithm available (full
DP matrices, explicit counting, direct quota arithmetic) and share no code
with the implementations under test.
"""

from __future__ import annotations

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
