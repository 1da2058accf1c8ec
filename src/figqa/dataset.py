"""Dataset assembly: verified records, funnel stats, taxonomy, sampling, IO.

Records are line-delimited JSON with a stable field order so runs are
byte-comparable. This module is the one place figqa writes files: whole
files are replaced atomically, logs grow by fsynced appends, and a lock
file keeps one writer per run directory. Funnel percentages follow the
published-table presentation (half-up at two decimals, then half-up at
one).
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import logging
import os
import random
import re
from dataclasses import MISSING, asdict, dataclass, field, fields
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .errors import InvalidFunnel, MalformedResponse, RunDirectoryLocked, SchemaViolation
from .gateway import OPTION_LETTERS, complete_parsed, format_options, render_template

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

OPTION_COUNT = len(OPTION_LETTERS)


def normalize_ws(text: str) -> str:
    return " ".join(text.split())


def check_question(row: dict, line_no: int) -> None:
    """Reject a type-checked draft, candidate or record row that is not a valid question.

    Question, caption and each of exactly OPTION_COUNT pairwise distinct options are
    non-empty after normalize_ws, and correct_index points at one of the options.
    """
    for name in ("question", "caption"):
        if not normalize_ws(row[name]):
            raise SchemaViolation(line_no, name, "must be non-empty")
    options = [normalize_ws(option) for option in row["options"]]
    if len(options) != OPTION_COUNT:
        raise SchemaViolation(line_no, "options", f"expected {OPTION_COUNT} options")
    if "" in options:
        raise SchemaViolation(line_no, "options", "must be non-empty")
    if len(set(options)) != OPTION_COUNT:
        raise SchemaViolation(line_no, "options", "must be pairwise distinct")
    if not 0 <= row["correct_index"] < OPTION_COUNT:
        raise SchemaViolation(line_no, "correct_index", "out of range")


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
        return OPTION_LETTERS[self.correct_index]


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

    Off-vocabulary responses get one retry, then None: the record stays
    unlabeled, and the caller reports which records that leaves. Transport
    errors propagate so the caller can defer the record.
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

    # Exact integer quotas: n * |stratum| = floor * len(records) + remainder.
    ordered = sorted(strata.keys())
    base: dict[tuple, int] = {}
    remainders: list[tuple] = []
    for key in ordered:
        base[key], remainder = divmod(n * len(strata[key]), len(records))
        remainders.append((-remainder, key))
    # Largest remainder first; ties broken by stratum key for determinism.
    for _, key in sorted(remainders)[: n - sum(base.values())]:
        base[key] += 1

    rng = random.Random(seed)
    sample: list[VerifiedRecord] = []
    for key in ordered:
        members = strata[key]
        picked = rng.sample(range(len(members)), base[key])
        sample.extend(members[i] for i in sorted(picked))
    return sample


def _utf8(data: bytes, path: str | Path, line_no: int) -> str:
    """data, starting on line line_no of path, decoded as UTF-8.

    Bytes that are not UTF-8 raise SchemaViolation naming the file and line.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = line_no + data.count(b"\n", 0, exc.start)
        raise SchemaViolation(line, "<line>", f"not UTF-8 in {path}") from exc


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

    A line that is not UTF-8 or not a JSON object (a truncated write, say)
    raises SchemaViolation naming the file and line; check(row, line_no), when
    given, validates each row, and its SchemaViolation gains the file name.
    """
    rows = []
    with open(path, "rb") as fh:
        for line_no, data in enumerate(fh, 1):
            line = _utf8(data, path, line_no).strip()
            if not line:
                continue
            row = _json_object(line, path, line_no)
            if check is not None:
                try:
                    check(row, line_no)
                except SchemaViolation as exc:
                    raise SchemaViolation(line_no, exc.field, f"{exc.detail} in {path}") from None
            rows.append(row)
    return rows


def _accepts(tp):
    """A predicate for JSON values of annotation tp, resolved once per field.

    Types match exactly, so a bool is not an int; a float field also takes an int.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        first, rest = _accepts(args[0]), _accepts(Union[args[1:]])
        return lambda v: first(v) or rest(v)
    if origin is list:
        item = _accepts(args[0])
        return lambda v: type(v) is list and all(map(item, v))
    if origin is dict:
        key, value = map(_accepts, args)
        return lambda v: type(v) is dict and all(key(k) and value(x) for k, x in v.items())
    kinds = (int, float) if tp is float else (tp,)
    return lambda v: type(v) in kinds


def row_check(cls, closed: bool = False):
    """A read_jsonl check built from cls's declaration.

    A field without a default is required. A present value must match its
    annotation: a bool is not an int, an int is a valid float, list[X]
    checks each item and X | None admits null. Keys cls does not declare
    are ignored, or rejected when closed.
    """
    hints = get_type_hints(cls)
    spec = []
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        spec.append((f.name, required, _accepts(hints[f.name]), f.type))
    names = {name for name, *_ in spec}

    def check(row: dict, line_no: int) -> None:
        for name, required, ok, expected in spec:
            if name in row:
                if not ok(row[name]):
                    raise SchemaViolation(line_no, name, f"expected {expected}")
            elif required:
                raise SchemaViolation(line_no, name, f"missing {cls.__name__} field")
        if closed and not row.keys() <= names:
            unknown = next(key for key in row if key not in names)
            raise SchemaViolation(line_no, unknown, f"unknown {cls.__name__} field")

    return check


def from_row(cls, row: dict):
    """cls built from the row's values for cls's own fields; other keys are ignored."""
    return cls(**{f.name: row[f.name] for f in fields(cls) if f.name in row})


def read_rows(path: str | Path, cls, rule=None) -> list:
    """path's rows as cls objects; each passes row_check(cls), then rule(row, line_no) if given."""
    typed = row_check(cls)

    def check(row: dict, line_no: int) -> None:
        typed(row, line_no)
        if rule is not None:
            rule(row, line_no)

    return [from_row(cls, row) for row in read_jsonl(path, check)]


def read_json(path: str | Path) -> dict:
    """The JSON object a file holds (a manifest, say), checked like read_jsonl's lines."""
    with open(path, "rb") as fh:
        return _json_object(_utf8(fh.read(), path, 1), path, 1)


def file_sha256(path: str | Path) -> str | None:
    """The sha256 of path's bytes, or None when there is no file there."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 14), b""):
                digest.update(block)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


def _replace(path: str | Path, write) -> None:
    """Durably replace path with what write(fh) writes to a text file.

    The text goes to a temp file beside path, which is fsynced and renamed
    over path, and then the directory is fsynced, so a crash leaves either
    the old file or the new one. On error the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Make the names directory holds durable: a new or renamed file survives a power loss."""
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _line(row: dict) -> str:
    return json.dumps(row, ensure_ascii=False) + "\n"


def write_jsonl(path: str | Path, rows) -> None:
    """One JSON line per row, written atomically."""
    _replace(path, lambda fh: fh.writelines(map(_line, rows)))


def write_json(path: str | Path, payload: dict) -> None:
    """Pretty, key-sorted JSON for manifests and summaries, written atomically."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def write_text(path: str | Path, text: str) -> None:
    """text as the whole of path, written atomically."""
    _replace(path, lambda fh: fh.write(text))


def append_jsonl(path: str | Path, row: dict) -> None:
    """Durably append one JSON line: it is fsynced before this returns, and so is
    the directory when this append creates the file."""
    created = not os.path.exists(path)
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(_line(row))
        fh.flush()
        os.fsync(fh.fileno())
    if created:
        _fsync_directory(Path(path).parent)


LOCK_FILE = ".figqa.lock"


@contextlib.contextmanager
def run_directory_lock(directory: str | Path):
    """Hold an exclusive lock on directory's lock file, which it creates, for the with block.

    The file names the holder's process id. While one open of it holds the
    lock, in this process or another, a second raises RunDirectoryLocked
    naming that process, without waiting.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fd = os.open(directory / LOCK_FILE, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.pread(fd, 32, 0).decode("ascii", "replace").strip() or "unknown"
            raise RunDirectoryLocked(
                f"{directory} is in use by another figqa process (pid {holder})"
            ) from None
        os.ftruncate(fd, 0)
        os.pwrite(fd, f"{os.getpid()}\n".encode("ascii"), 0)
        yield
    finally:
        os.close(fd)


def cut_torn_tail(path: str | Path) -> None:
    """Durably drop a final line that a crash left without its newline.

    Appending after it would glue the next row onto the fragment, and that
    row would then be lost to every later read.
    """
    with open(path, "rb+") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        keep = fh.read().rfind(b"\n") + 1
        logger.warning("%s: cutting torn final line", path)
        fh.truncate(keep)
        fh.flush()
        os.fsync(fh.fileno())


def write_dataset(records: list[VerifiedRecord], path: str | Path) -> None:
    write_jsonl(path, (asdict(record) for record in records))


def _check_record(row: dict, line_no: int) -> None:
    check_question(row, line_no)
    for name in ("key", "arxiv_id", "reasoning"):
        if not row[name]:
            raise SchemaViolation(line_no, name, "must be non-empty")
    for name, vocabulary in (("figure_type", FIGURE_TYPES), ("question_type", QUESTION_TYPES)):
        if row.get(name) is not None and row[name] not in vocabulary:
            raise SchemaViolation(line_no, name, f"unknown category {row[name]!r}")


def read_dataset(path: str | Path) -> list[VerifiedRecord]:
    return read_rows(path, VerifiedRecord, _check_record)
