"""Output checks run after every timed pipeline run, and the digests of its outputs.

Each check returns problem strings; an empty list means the run's outputs
are correct. Digests replace the absolute corpus directory with a marker so
they compare across checkouts and work directories.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import world

VISION_FILTER = "VisionConsistency"
VOTES = 3
# Where a candidate of each fate must end up (world.FATES); D and M never become candidates.
FATE_OUTCOME = {
    "S": "SourceConsistency",
    "T": "VisualDependenceText",
    "V": "VisualDependenceVision",
    "C": VISION_FILTER,
    "R": "retained",
}


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def output_digests(run_dir: Path, corpus_dir: Path) -> dict[str, str]:
    """sha256 of retained, annotated, the sorted verdict log and eval_summary.

    The vote verdict's transcript_ref hashes the image path, so it is left
    out of the verdict-log digest; every other field is kept.
    """

    def sha(text: str) -> str:
        return hashlib.sha256(text.replace(str(corpus_dir), "<corpus>").encode("utf-8")).hexdigest()

    rows = []
    for row in read_jsonl(run_dir / "verdict_log.jsonl"):
        if row["filter"] == VISION_FILTER:
            row.pop("transcript_ref")
        rows.append(json.dumps(row, sort_keys=True, ensure_ascii=False))
    return {
        "retained.jsonl": sha((run_dir / "retained.jsonl").read_text(encoding="utf-8")),
        "annotated.jsonl": sha((run_dir / "annotated.jsonl").read_text(encoding="utf-8")),
        "verdict_log.sorted": sha("\n".join(sorted(rows))),
        "eval_summary.json": sha((run_dir / "eval_summary.json").read_text(encoding="utf-8")),
    }


def expected_verify_requests(log_rows: list[dict], prelogged: set[str]) -> int:
    """Model requests verify must make: one per verdict, three per vote verdict,
    none for a candidate whose verdicts were already in the log."""
    return sum(
        VOTES if row["filter"] == VISION_FILTER else 1
        for row in log_rows
        if row["candidate_key"] not in prelogged
    )


def check_run(
    run_dir: Path,
    *,
    client_calls: int,
    fake_requests: int,
    verify_requests: int,
    prelogged: set[str],
) -> list[str]:
    problems = []
    stats = json.loads((run_dir / "stats.json").read_text(encoding="utf-8"))
    if not stats["replay"]["ok"]:
        problems.append(f"verdict replay failed: {stats['replay']['problems'][:3]}")

    figures_in = Counter()
    for paper in read_jsonl(run_dir / "papers_clean.jsonl"):
        figures_in[paper["arxiv_id"]] += len(paper["figures"])
    figures_out = Counter(r["arxiv_id"] for r in read_jsonl(run_dir / "figure_contexts.jsonl"))
    figures_out.update(r["arxiv_id"] for r in read_jsonl(run_dir / "discards.jsonl"))
    if figures_in != figures_out:
        problems.append("extract lost or duplicated figures: per-paper conservation broken")

    funnel = stats["funnel"] or {}
    chain = [funnel.get(k, 0) for k in ("claims", "qa_generated", "after_text_filtering", "after_vision_filtering")]
    if not chain[0] or chain != sorted(chain, reverse=True):
        problems.append(f"funnel not monotone: {chain}")

    if fake_requests != client_calls:
        problems.append(f"fake saw {fake_requests} requests for {client_calls} client calls")

    log_rows = read_jsonl(run_dir / "verdict_log.jsonl")
    needed = expected_verify_requests(log_rows, prelogged)
    if verify_requests != needed:
        problems.append(f"verify made {verify_requests} requests, its verdicts need {needed}")

    expected = Counter()
    for candidate in read_jsonl(run_dir / "candidates.jsonl"):
        parsed = world.parse_question(candidate["question"])
        expected[FATE_OUTCOME.get(world.fate_of(parsed[1]), "unexpected") if parsed else "unparsed"] += 1
    verify = json.loads((run_dir / "manifest_verify.json").read_text(encoding="utf-8"))
    outcomes = Counter(verify["rejected_by_stage"])
    outcomes["retained"] = verify["retained"]
    if +outcomes != +expected:
        problems.append(f"verify outcomes {dict(outcomes)} differ from the scripted fates {dict(expected)}")

    for record in read_jsonl(run_dir / "retained.jsonl"):
        if record["options"][record["correct_index"]] != world.correct_option(record["question"]):
            problems.append(f"{record['key']}: correct_index is not the fake's correct option")
    return problems
