"""Independent consistency check of the verdict log against the retained dataset.

Re-derives the retained set from the logged verdicts and checks it against
the written records: retention must equal the conjunction of all recorded
verdicts, cascade order must short-circuit, a retained record's verdicts must
answer its own requests, and its reasoning must come from the vote that agrees
with the majority. The check takes the rows and request digests the caller
gives and never reads a file; it shares the filter names, their order and the
vote count with the cascade, never its logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dataset import VerifiedRecord
from .verification import CASCADE_ORDER, FILTER_VISION, VOTE_COUNT, FilterVerdict


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


def replay_verdicts(
    verdicts: list[FilterVerdict],
    records: list[VerifiedRecord],
    requests: dict[str, dict[str, str]],
) -> ReplayReport:
    """Check retention, the requests and vote/reasoning coupling over the given rows.

    requests maps a retained record's key to its request digest per filter name.
    """
    problems: list[str] = []
    by_candidate: dict[str, dict[str, FilterVerdict]] = {}
    seen: set[tuple[str, str]] = set()
    for verdict in verdicts:
        pair = (verdict.candidate_key, verdict.filter)
        if pair in seen:
            problems.append(f"duplicate verdict for {pair}")
            continue
        seen.add(pair)
        by_candidate.setdefault(verdict.candidate_key, {})[verdict.filter] = verdict

    # Cascade shape: the recorded filters must be a prefix of the fixed
    # order, with every verdict before the last one a pass.
    for key, logged in by_candidate.items():
        recorded = [f for f in CASCADE_ORDER if f in logged]
        if len(recorded) != len(logged):
            problems.append(f"{key}: unknown filter names {set(logged) - set(CASCADE_ORDER)}")
            continue
        if recorded != list(CASCADE_ORDER[: len(recorded)]):
            problems.append(f"{key}: filters {recorded} are not a cascade prefix")
        for name in recorded[:-1]:
            if not logged[name].passed:
                problems.append(
                    f"{key}: {name} failed but a later filter was still recorded"
                )

    full_pass = {
        key
        for key, logged in by_candidate.items()
        if all(f in logged and logged[f].passed for f in CASCADE_ORDER)
    }
    retained_keys = {record.key for record in records}
    if len(retained_keys) != len(records):
        problems.append("retained dataset contains duplicate keys")
    for key in sorted(retained_keys - full_pass):
        problems.append(f"{key}: retained without a fully passing verdict chain")
    for key in sorted(full_pass - retained_keys):
        problems.append(f"{key}: all verdicts passed but record is missing")

    for record in records:
        expected = requests.get(record.key)
        if expected is None:
            problems.append(f"{record.key}: no figure context has the record's context_digest")
        for name, verdict in by_candidate.get(record.key, {}).items():
            if expected is not None and verdict.transcript_ref != expected.get(name):
                problems.append(f"{record.key}: {name} verdict answered another request")
        vision = by_candidate.get(record.key, {}).get(FILTER_VISION)
        if vision is None:
            continue  # already reported via set difference
        correct_letter = record.correct_letter
        selections = vision.selections or []
        majority = vision.majority
        idx = vision.agreeing_run_index
        if len(selections) != VOTE_COUNT:
            problems.append(f"{record.key}: vision verdict has {len(selections)} selections")
            continue
        if majority != correct_letter:
            problems.append(
                f"{record.key}: majority {majority!r} != correct letter {correct_letter!r}"
            )
        if selections.count(majority) < 2:
            problems.append(f"{record.key}: majority {majority!r} lacks two votes")
        if idx is None or not 0 <= idx < VOTE_COUNT or selections[idx] != majority:
            problems.append(f"{record.key}: agreeing_run_index {idx!r} does not match majority")
        if not vision.reasoning:
            problems.append(f"{record.key}: retained without stored reasoning")
        elif vision.reasoning != record.reasoning:
            problems.append(f"{record.key}: record reasoning differs from agreeing vote response")

    return ReplayReport(
        ok=not problems,
        candidates=len(by_candidate),
        retained=len(records),
        problems=problems,
    )
