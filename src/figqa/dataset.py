"""Dataset assembly: verified records, funnel stats, taxonomy, sampling, IO.

Records are line-delimited JSON with a stable field order so runs are
byte-comparable. Funnel percentages follow the published-table presentation
(half-up at two decimals, then half-up at one).
"""

from __future__ import annotations

import json
import logging
import random
import re
from dataclasses import asdict, dataclass, field, fields
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

from .errors import InvalidFunnel, MalformedResponse, SchemaViolation
from .gateway import complete_parsed, format_options, render_template

logger = logging.getLogger(__name__)

FIGURE_TYPES = (
    "Line Plot",
    "Composite",
    "Diagram",
    "Scatter Plot",
    "Bar Chart",
    "Heatmap",
    "Graph",
    "Box Plot",
    "Other",
    "Illustration",
    "Photo",
    "Pie Chart",
)

QUESTION_TYPES = (
    "Relational",
    "Comparative",
    "Descriptive",
    "Compositional",
    "Structural",
)

OPTION_COUNT = 4


@dataclass
class VerifiedRecord:
    key: str
    arxiv_id: str
    primary_category: str
    figure_index: int
    figure_image_ref: str
    caption: str
    question: str
    options: list[str]
    correct_index: int
    reasoning: str
    figure_type: str | None = None
    question_type: str | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def correct_letter(self) -> str:
        return chr(65 + self.correct_index)


# Serialization order for record fields; reads validate against this set.
RECORD_FIELDS = tuple(f.name for f in fields(VerifiedRecord))


@dataclass
class FunnelStats:
    papers: int
    claims: int
    qa_generated: int
    after_text_filtering: int
    after_vision_filtering: int
    retention: dict[str, float]

    def format_table(self) -> str:
        rows = [
            ("Papers", self.papers, None),
            ("Claims extracted", self.claims, self.retention["claims"]),
            ("QA pairs generated", self.qa_generated, self.retention["qa_generated"]),
            (
                "After text-based filtering",
                self.after_text_filtering,
                self.retention["after_text_filtering"],
            ),
            (
                "After vision-based filtering",
                self.after_vision_filtering,
                self.retention["after_vision_filtering"],
            ),
        ]
        lines = [f"{'Stage':<28} {'Count':>10} {'Retention':>10}"]
        for name, count, pct in rows:
            pct_text = "-" if pct is None else f"{pct:.1f}%"
            lines.append(f"{name:<28} {count:>10,} {pct_text:>10}")
        return "\n".join(lines)


def _round_published(numerator: int, denominator: int) -> float:
    """Percentage rounding as presented in the published funnel table.

    Quantize half-up at two decimals first, then at one. The two-step rule
    matters at values like 38.3499...%, which present as 38.4%.
    """
    exact = Decimal(100 * numerator) / Decimal(denominator)
    two = exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    one = two.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return float(one)


def compute_funnel(
    papers: int,
    claims: int,
    qa_generated: int,
    after_text_filtering: int,
    after_vision_filtering: int,
) -> FunnelStats:
    """Per-stage counts with retention percentages relative to claims."""
    counts = {
        "papers": papers,
        "claims": claims,
        "qa_generated": qa_generated,
        "after_text_filtering": after_text_filtering,
        "after_vision_filtering": after_vision_filtering,
    }
    for name, value in counts.items():
        if not isinstance(value, int) or value < 0:
            raise InvalidFunnel(f"{name} must be a non-negative integer, got {value!r}")
    if claims <= 0:
        raise InvalidFunnel("claims must be positive")
    chain = [claims, qa_generated, after_text_filtering, after_vision_filtering]
    names = ["claims", "qa_generated", "after_text_filtering", "after_vision_filtering"]
    for i in range(1, len(chain)):
        if chain[i] > chain[i - 1]:
            raise InvalidFunnel(
                f"{names[i]} ({chain[i]}) exceeds {names[i - 1]} ({chain[i - 1]})"
            )
    retention = {name: _round_published(count, claims) for name, count in zip(names, chain)}
    return FunnelStats(**counts, retention=retention)


_TAG_STRIP_RE = re.compile(r"</?[A-Za-z][^>]*>")


def _parse_category(response: str, vocabulary: tuple[str, ...]) -> str:
    """Map a model response onto the closed vocabulary.

    The first non-empty line is the answer; anything off-vocabulary raises
    MalformedResponse.
    """
    text = _TAG_STRIP_RE.sub(" ", response)
    for line in text.splitlines():
        token = line.strip().strip(".,:;!\"'` ")
        if not token:
            continue
        lowered = " ".join(token.split()).lower()
        for category in vocabulary:
            if lowered == category.lower():
                return category
        break
    raise MalformedResponse("first line is not a category of the closed vocabulary")


def annotate_taxonomy(record: VerifiedRecord, kind: str, endpoint, templates) -> str | None:
    """Label one record with a closed-vocabulary category.

    Off-vocabulary responses get one retry, then the record stays unlabeled.
    Transport errors propagate so the caller can defer the record.
    """
    if kind == "figure_type":
        vocabulary, image_ref = FIGURE_TYPES, record.figure_image_ref
        prompt = render_template(templates["figure_type_label"], {"caption": record.caption})
    elif kind == "question_type":
        vocabulary, image_ref = QUESTION_TYPES, None
        prompt = render_template(
            templates["question_type_label"],
            {"question": record.question, "options": format_options(record.options)},
        )
    else:
        raise ValueError(f"unknown taxonomy kind: {kind}")
    try:
        return complete_parsed(
            endpoint, prompt, lambda r: _parse_category(r, vocabulary), image_ref
        )
    except MalformedResponse:
        logger.warning("record %s left unlabeled for %s", record.key, kind)
        return None


def stratified_sample(
    records: list[VerifiedRecord],
    n: int,
    strata_keys: tuple[str, ...],
    seed: int,
) -> list[VerifiedRecord]:
    """Proportional largest-remainder sample, seeded within-stratum draws.

    Callers must exclude unlabeled records first; a missing stratum value
    here is an error, not a silent skip.
    """
    if n > len(records):
        raise ValueError(f"cannot sample {n} from {len(records)} records")
    strata: dict[tuple, list[VerifiedRecord]] = {}
    for record in records:
        key = tuple(getattr(record, k) for k in strata_keys)
        if any(v is None for v in key):
            raise ValueError(
                f"record {record.key} is unlabeled on {strata_keys}; filter before sampling"
            )
        strata.setdefault(key, []).append(record)

    total = len(records)
    ordered = sorted(strata.keys())
    base: dict[tuple, int] = {}
    remainders: list[tuple] = []
    for key in ordered:
        quota = Decimal(n * len(strata[key])) / Decimal(total)
        floor = int(quota)
        base[key] = floor
        remainders.append((quota - floor, key))
    leftover = n - sum(base.values())
    # Largest remainder first; ties broken by stratum key for determinism.
    for _, key in sorted(remainders, key=lambda rk: (-rk[0], rk[1]))[:leftover]:
        base[key] += 1

    # Defensive spill: proportional allocation cannot exceed a stratum's
    # population when n <= total, but guard and log rather than overdraw.
    overfull = [k for k in ordered if base[k] > len(strata[k])]
    if overfull:
        logger.warning("InsufficientStratum: reallocating from %s", overfull)
        for key in overfull:
            excess = base[key] - len(strata[key])
            base[key] -= excess
            for other in sorted(ordered, key=lambda k: -len(strata[k])):
                if excess == 0:
                    break
                spare = len(strata[other]) - base[other]
                take = min(spare, excess)
                base[other] += take
                excess -= take

    rng = random.Random(seed)
    sample: list[VerifiedRecord] = []
    for key in ordered:
        members = strata[key]
        take = base[key]
        if take == 0:
            continue
        picked = rng.sample(range(len(members)), take)
        sample.extend(members[i] for i in sorted(picked))
    return sample


def _json_object(text: str, path: str | Path, line_no: int) -> dict:
    """text, starting on line line_no of path, parsed as one JSON object.

    Anything else (a truncated write, say) raises SchemaViolation naming the
    file and line.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        detail = f"invalid JSON in {path}: {exc.msg} (column {exc.colno})"
        raise SchemaViolation(line_no + exc.lineno - 1, "<line>", detail) from exc
    if not isinstance(data, dict):
        raise SchemaViolation(line_no, "<line>", f"expected JSON object in {path}")
    return data


def read_jsonl(path: str | Path, check=None) -> list[dict]:
    """Every JSON object in a line-delimited file, blank lines skipped.

    A line that is not a JSON object (a truncated write, say) raises
    SchemaViolation naming the file and line; check(row, line_no), when
    given, validates each row the same way.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            row = _json_object(line, path, line_no)
            if check is not None:
                check(row, line_no)
            rows.append(row)
    return rows


def row_keys_check(cls, *extra: str):
    """A read_jsonl check: each row holds exactly cls's fields plus extra."""
    names = {f.name for f in fields(cls)} | set(extra)

    def check(row: dict, line_no: int) -> None:
        missing = sorted(names - row.keys())
        if missing:
            raise SchemaViolation(line_no, missing[0], f"missing {cls.__name__} field")
        unknown = sorted(row.keys() - names)
        if unknown:
            raise SchemaViolation(line_no, unknown[0], f"unknown {cls.__name__} field")

    return check


def read_json(path: str | Path) -> dict:
    """The JSON object a file holds (a manifest, say), checked like read_jsonl's lines."""
    with open(path, encoding="utf-8") as fh:
        return _json_object(fh.read(), path, 1)


def write_jsonl(path: str | Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    """Pretty, key-sorted JSON for manifests and summaries."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def write_dataset(records: list[VerifiedRecord], path: str | Path) -> None:
    write_jsonl(path, (asdict(record) for record in records))


_FIELD_TYPES = {
    "key": str,
    "arxiv_id": str,
    "primary_category": str,
    "figure_index": int,
    "figure_image_ref": str,
    "caption": str,
    "question": str,
    "correct_index": int,
    "reasoning": str,
}


def _validate_record_dict(data: dict, line_no: int) -> None:
    for name in RECORD_FIELDS:
        if name not in data:
            raise SchemaViolation(line_no, name, "missing field")
    for name, expected in _FIELD_TYPES.items():
        value = data[name]
        if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
            raise SchemaViolation(line_no, name, f"expected {expected.__name__}")
    for name in ("key", "arxiv_id", "caption", "question", "reasoning"):
        if not data[name]:
            raise SchemaViolation(line_no, name, "must be non-empty")
    options = data["options"]
    if not isinstance(options, list) or len(options) != OPTION_COUNT:
        raise SchemaViolation(line_no, "options", f"expected list of {OPTION_COUNT}")
    if not all(isinstance(o, str) for o in options):
        raise SchemaViolation(line_no, "options", "options must be strings")
    normalized = [" ".join(o.split()) for o in options]
    if len(set(normalized)) != OPTION_COUNT:
        raise SchemaViolation(line_no, "options", "options must be pairwise distinct")
    if not 0 <= data["correct_index"] < OPTION_COUNT:
        raise SchemaViolation(line_no, "correct_index", "out of range")
    if data["figure_type"] is not None and data["figure_type"] not in FIGURE_TYPES:
        raise SchemaViolation(line_no, "figure_type", f"unknown category {data['figure_type']!r}")
    if data["question_type"] is not None and data["question_type"] not in QUESTION_TYPES:
        raise SchemaViolation(
            line_no, "question_type", f"unknown category {data['question_type']!r}"
        )
    if not isinstance(data["provenance"], dict):
        raise SchemaViolation(line_no, "provenance", "expected object")


def read_dataset(path: str | Path) -> list[VerifiedRecord]:
    return [
        VerifiedRecord(**{name: row[name] for name in RECORD_FIELDS})
        for row in read_jsonl(path, _validate_record_dict)
    ]
