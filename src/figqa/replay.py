"""Independent consistency replay over the verdict log.

Re-derives the retained set from raw log lines and checks it against the
written dataset: retention must equal the conjunction of all recorded
verdicts, cascade order must short-circuit, and every retained record's
reasoning must come from the vote that agrees with the majority. This
deliberately re-reads the files from scratch instead of reusing the
cascade implementation; only the JSONL reader is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .dataset import read_jsonl

_CASCADE = (
    "SourceConsistency",
    "VisualDependenceText",
    "VisualDependenceVision",
    "VisionConsistency",
)
_VISION = "VisionConsistency"


@dataclass
class ReplayReport:
    ok: bool
    candidates: int
    retained: int
    problems: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "consistent" if self.ok else "INCONSISTENT"
        lines = [
            f"verdict replay: {status} "
            f"({self.candidates} candidates, {self.retained} retained)"
        ]
        lines.extend(f"  problem: {p}" for p in self.problems)
        return "\n".join(lines)


def replay_verdicts(verdict_log_path: str | Path, retained_path: str | Path) -> ReplayReport:
    """Check conjunction retention and vote/reasoning coupling from raw files."""
    problems: list[str] = []
    log_rows = read_jsonl(verdict_log_path)
    retained_rows = read_jsonl(retained_path)

    by_candidate: dict[str, dict[str, dict]] = {}
    seen: set[tuple[str, str]] = set()
    for row in log_rows:
        pair = (row["candidate_key"], row["filter"])
        if pair in seen:
            problems.append(f"duplicate verdict for {pair}")
            continue
        seen.add(pair)
        by_candidate.setdefault(row["candidate_key"], {})[row["filter"]] = row

    # Cascade shape: the recorded filters must be a prefix of the fixed
    # order, with every verdict before the last one a pass.
    for key, verdicts in by_candidate.items():
        recorded = [f for f in _CASCADE if f in verdicts]
        if len(recorded) != len(verdicts):
            problems.append(f"{key}: unknown filter names {set(verdicts) - set(_CASCADE)}")
            continue
        if recorded != list(_CASCADE[: len(recorded)]):
            problems.append(f"{key}: filters {recorded} are not a cascade prefix")
        for name in recorded[:-1]:
            if not verdicts[name]["passed"]:
                problems.append(
                    f"{key}: {name} failed but a later filter was still recorded"
                )

    full_pass = {
        key
        for key, verdicts in by_candidate.items()
        if all(f in verdicts and verdicts[f]["passed"] for f in _CASCADE)
    }
    retained_keys = {row["key"] for row in retained_rows}
    if len(retained_keys) != len(retained_rows):
        problems.append("retained dataset contains duplicate keys")
    for key in sorted(retained_keys - full_pass):
        problems.append(f"{key}: retained without a fully passing verdict chain")
    for key in sorted(full_pass - retained_keys):
        problems.append(f"{key}: all verdicts passed but record is missing")

    for row in retained_rows:
        verdicts = by_candidate.get(row["key"], {})
        vision = verdicts.get(_VISION)
        if vision is None:
            continue  # already reported via set difference
        correct_letter = chr(65 + row["correct_index"])
        selections = vision.get("selections") or []
        majority = vision.get("majority")
        idx = vision.get("agreeing_run_index")
        if len(selections) != 3:
            problems.append(f"{row['key']}: vision verdict has {len(selections)} selections")
            continue
        if majority != correct_letter:
            problems.append(
                f"{row['key']}: majority {majority!r} != correct letter {correct_letter!r}"
            )
        if selections.count(majority) < 2:
            problems.append(f"{row['key']}: majority {majority!r} lacks two votes")
        if idx is None or not 0 <= idx < 3 or selections[idx] != majority:
            problems.append(f"{row['key']}: agreeing_run_index {idx!r} does not match majority")
        if not vision.get("reasoning"):
            problems.append(f"{row['key']}: retained without stored reasoning")
        elif vision["reasoning"] != row["reasoning"]:
            problems.append(f"{row['key']}: record reasoning differs from agreeing vote response")

    return ReplayReport(
        ok=not problems,
        candidates=len(by_candidate),
        retained=len(retained_rows),
        problems=problems,
    )
