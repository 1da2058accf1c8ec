"""Resumable batch pipeline: staged files, manifests, and endpoint wiring.

Stage files are the only inter-stage interface. Each stage reads its
predecessor's output, writes line-delimited records plus a manifest, and is
deterministic given identical inputs and seed under mock backends. STAGES
declares the stages once: their order, every run-directory file each reads
and writes, the endpoint slots each calls, the templates each renders, and
each one's summary line. Its last row, evaluate, runs only when named. A
stage that calls endpoints records in its manifest the sha256 of each file
it read and wrote, of the templates it renders and of the mock script; run
again while those and the config digest of its slots are unchanged, it
returns that manifest and makes no call, unless it left items unevaluated.
Verify also reuses each logged verdict whose request is unchanged, so a run
that crashed inside it resumes without duplicate calls; one that answered
another request is asked again, with every later verdict of its candidate.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import random
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from . import dataset as ds
from . import verification as vf
from .errors import (
    ConfigError,
    EndpointUnavailable,
    ImageUnreadable,
    RecursionLimitExceeded,
    SchemaViolation,
    UpstreamInputError,
)
from .eval_harness import evaluate, format_report
from .figure_context import FigureContext, build_figure_contexts
from .gateway import (
    HttpEndpoint,
    MockBackend,
    ModelEndpointConfig,
    Request,
    TokenBucket,
    load_templates,
    map_items,
)
from .generation import (
    AtomicClaim,
    Declined,
    QACandidate,
    context_digest,
    extract_claims,
    generate_qa,
)
from .latex_prep import RawPaper, clean_paper
from .replay import replay_verdicts

logger = logging.getLogger(__name__)

# Endpoint slots and their built-in defaults. In every mode a slot takes every key but temperature
# that its base slot (the one its role names) sets, then its own entry's keys on top.
ROLE_DEFAULTS: dict[str, dict] = {
    "text": {"role": "text", "model_name": "mock-text", "temperature": 1.0},
    "vision": {"role": "vision", "model_name": "mock-vision", "temperature": 1.0},
    "annotator_text": {
        "role": "text",
        "model_name": "mock-annotator-text",
        "temperature": 0.0,
    },
    "annotator_vision": {
        "role": "vision",
        "model_name": "mock-annotator-vision",
        "temperature": 0.0,
    },
    "eval": {"role": "vision", "model_name": "mock-eval", "temperature": 0.0},
}


@dataclass
class RunConfig:
    output: str
    corpus: str | None = None
    latex_cache: str | None = None
    prompts: str | None = None
    seed: int = 42
    concurrency: int = 1
    unevaluated_threshold: int = 0
    mock_script: str | None = None
    eval_dataset: str | None = None
    endpoints: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self):
        _check_config(CONFIG_CHECK, vars(self), "config")
        unknown = sorted(self.endpoints.keys() - ROLE_DEFAULTS.keys())
        if unknown:
            raise ConfigError(f"unknown endpoint slots: {unknown}")
        self._resolved: dict[str, ModelEndpointConfig] = {}
        for name, defaults in ROLE_DEFAULTS.items():
            if "role" in self.endpoints.get(name, {}):  # fixed per slot
                raise ConfigError(f"endpoints.{name}.role: unknown endpoint key")
            values = {**defaults, **self._given(name)}
            _check_config(ENDPOINT_CHECK, values, f"endpoints.{name}")
            try:
                self._resolved[name] = ModelEndpointConfig(**values)
            except ConfigError as exc:
                raise ConfigError(f"endpoints.{name}.{exc}") from None
        if self.concurrency < 1:
            raise ConfigError("concurrency must be at least 1")
        if self.unevaluated_threshold < 0:
            raise ConfigError("unevaluated_threshold must be at least 0")
        if self._resolved["eval"].temperature != 0:
            raise ConfigError("endpoints.eval.temperature must be 0: evaluation is greedy")

    def config_digest(self, slots: tuple[str, ...]) -> str:
        """Hash of the seed and the named slots' settings that can change a request or its answer.

        Paths, concurrency and the transport settings in TRANSPORT_KEYS are left out on purpose.
        """
        payload = {
            "seed": self.seed,
            "endpoints": {
                name: {
                    k: v for k, v in asdict(self._resolved[name]).items()
                    if k not in TRANSPORT_KEYS
                }
                for name in slots
            },
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()

    def _given(self, name: str) -> dict:
        """The keys the config sets for a slot: its base slot's but temperature, then its own."""
        base = self.endpoints.get(ROLE_DEFAULTS[name]["role"], {})
        inherited = {k: v for k, v in base.items() if k != "temperature"}
        return {**inherited, **self.endpoints.get(name, {})}

    def endpoint_config(self, name: str) -> ModelEndpointConfig:
        return self._resolved[name]

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if not data.get("output"):
            raise ConfigError("an output directory is required (--output or the config's output)")
        return cls(**data)

    @classmethod
    def from_yaml(cls, path: str | Path, overrides: dict | None = None) -> "RunConfig":
        """The config file's mapping, updated with overrides, as one RunConfig."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a mapping")
        return cls.from_dict({**data, **(overrides or {})})


# Endpoint settings that change how a request is sent, never what it asks or what comes back.
TRANSPORT_KEYS = frozenset({"api_key_env", "timeout", "max_retries", "requests_per_minute"})
CONFIG_CHECK = ds.row_check(RunConfig)
ENDPOINT_CHECK = ds.row_check(ModelEndpointConfig, closed=True)


def _check_config(check, values: dict, where: str) -> None:
    """check (a dataset.row_check) applied to config values; a problem is a ConfigError."""
    try:
        check(values, 0)
    except SchemaViolation as exc:
        raise ConfigError(f"{where}.{exc.field}: {exc.detail}") from None


def build_endpoints(cfg: RunConfig, slots: tuple[str, ...] = tuple(ROLE_DEFAULTS)) -> dict:
    """The named endpoint slots (default: all five), mock or HTTP.

    A live slot takes its base_url and model_name from the config, never a built-in mock name.
    """
    if cfg.mock_script:
        backend = MockBackend.from_file(
            cfg.mock_script,
            ledger=functools.partial(ds.append_jsonl, Path(cfg.output) / "mock_calls.jsonl"),
        )
        return {name: backend.endpoint(cfg.endpoint_config(name)) for name in slots}
    # Slots that inherit one address and limit share one bucket, so the
    # configured requests_per_minute caps their combined rate.
    buckets: dict[tuple, TokenBucket] = {}
    endpoints = {}
    for name in slots:
        missing = [key for key in ("base_url", "model_name") if not cfg._given(name).get(key)]
        if missing:
            raise ConfigError(
                f"endpoints.{name}: a live run needs {' and '.join(missing)}, from this slot's "
                "entry or its base slot's"
            )
        config = cfg.endpoint_config(name)
        bucket = None
        if config.requests_per_minute:
            address = (config.base_url, config.api_key_env, config.requests_per_minute)
            bucket = buckets.setdefault(address, TokenBucket(config.requests_per_minute))
        endpoints[name] = HttpEndpoint(config, bucket=bucket)
    return endpoints


@contextlib.contextmanager
def open_endpoints(cfg: RunConfig, slots: tuple[str, ...]):
    """build_endpoints(cfg, slots) for the with block, which closes them."""
    endpoints = build_endpoints(cfg, slots) if slots else {}
    try:
        yield endpoints
    finally:
        for endpoint in endpoints.values():
            endpoint.close()


# ---------------------------------------------------------------------------
# Corpus input


@dataclass
class CorpusRow:
    arxiv_id: str
    primary_category: str
    figure_index: int
    image: str
    caption: str


def load_corpus(path: str | Path) -> list[CorpusRow]:
    """Read and validate the figure-caption corpus."""
    path = Path(path)
    if not path.is_file():
        raise UpstreamInputError(f"corpus file not found: {path}")
    seen: set[tuple[str, int]] = set()

    def check(data: dict, line_no: int) -> None:
        if not data["arxiv_id"]:
            raise SchemaViolation(line_no, "arxiv_id", "must be non-empty")
        if data["figure_index"] < 0:
            raise SchemaViolation(line_no, "figure_index", "must be non-negative")
        pair = (data["arxiv_id"], data["figure_index"])
        if pair in seen:
            raise SchemaViolation(line_no, "figure_index", f"duplicate figure {pair}")
        seen.add(pair)

    return ds.read_rows(path, CorpusRow, check)


@dataclass
class PreparedFigure:
    """One entry of a PreparedPaper's figures: a corpus row without its paper fields."""

    figure_index: int
    image: str
    caption: str


@dataclass
class PreparedPaper:
    """One papers_clean.jsonl row: a cleaned paper and its corpus figures."""

    arxiv_id: str
    primary_category: str
    paragraphs: list[str]
    figures: list[dict]  # PreparedFigure rows


FIGURE_ROW = ds.row_check(PreparedFigure)


def _check_figures(row: dict, line_no: int) -> None:
    for figure in row["figures"]:
        FIGURE_ROW(figure, line_no)


def _require_file(path: Path) -> Path:
    """path, or an UpstreamInputError naming the stage whose writes hold its name."""
    if not path.is_file():
        producer = next(stage.name for stage in STAGES if path.name in stage.writes)
        raise UpstreamInputError(f"missing {path.name}; run the {producer} stage first")
    return path


def _run_paid(fn, items: list, cfg: RunConfig, noun: str) -> list:
    """map_items(fn, items) results, or EndpointUnavailable if any item failed.

    Writing then would replace the stage's files with a partial set, so the
    stage writes nothing and is rerun once the endpoint is back.
    """
    results = map_items(fn, items, cfg.concurrency)
    failed = sum(isinstance(result, EndpointUnavailable) for result in results)
    if failed:
        raise EndpointUnavailable(f"{failed} of {len(items)} {noun} deferred")
    return results


# ---------------------------------------------------------------------------
# Stages


def stage_prepare(cfg: RunConfig) -> dict:
    """Clean each paper's LaTeX and bind it to its figure-caption rows."""
    if not cfg.corpus or not cfg.latex_cache:
        raise ConfigError("prepare needs corpus and latex_cache paths")
    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = load_corpus(cfg.corpus)
    papers: dict[str, list[CorpusRow]] = {}
    for row in rows:
        papers.setdefault(row.arxiv_id, []).append(row)

    # The paper pool is shuffled once per run seed, so the order is
    # deterministic for a given seed.
    ids = sorted(papers)
    random.Random(cfg.seed).shuffle(ids)

    cache = Path(cfg.latex_cache)
    prepared_rows: list[dict] = []
    skipped: list[dict] = []
    for arxiv_id in ids:
        fig_rows = sorted(papers[arxiv_id], key=lambda r: r.figure_index)
        tex_path = cache / f"{arxiv_id}.tex"
        if not tex_path.is_file():
            skipped.append({"arxiv_id": arxiv_id, "reason": "missing_latex_source"})
            continue
        try:
            latex_source = tex_path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            skipped.append({"arxiv_id": arxiv_id, "reason": "latex_not_utf8"})
            continue
        raw = RawPaper(
            arxiv_id=arxiv_id,
            primary_category=fig_rows[0].primary_category,
            latex_source=latex_source,
        )
        try:
            paragraphs = clean_paper(raw)
        except RecursionLimitExceeded:
            skipped.append({"arxiv_id": arxiv_id, "reason": "macro_recursion_limit"})
            continue
        figures = [asdict(PreparedFigure(r.figure_index, r.image, r.caption)) for r in fig_rows]
        paper = PreparedPaper(arxiv_id, raw.primary_category, paragraphs, figures)
        prepared_rows.append(asdict(paper))
    ds.write_jsonl(out_dir / "papers_clean.jsonl", prepared_rows)
    return dict(
        papers_in=len(papers), papers_prepared=len(prepared_rows), skipped=skipped, seed=cfg.seed
    )


def stage_extract(cfg: RunConfig) -> dict:
    """Bind figures to environments and collect citing paragraphs."""
    out_dir = Path(cfg.output)
    papers = ds.read_rows(out_dir / "papers_clean.jsonl", PreparedPaper, _check_figures)

    context_rows: list[dict] = []
    discard_rows: list[dict] = []
    figures_in = 0
    for paper in papers:
        figures = [ds.from_row(PreparedFigure, f) for f in paper.figures]
        raw = RawPaper(
            arxiv_id=paper.arxiv_id,
            primary_category=paper.primary_category,
            latex_source="",
            figure_caption_pairs=[(f.image, f.caption) for f in figures],
        )
        indices = [f.figure_index for f in figures]
        figures_in += len(indices)
        contexts, discards = build_figure_contexts(paper.paragraphs, raw, figure_indices=indices)
        if len(contexts) + len(discards) != len(indices):
            raise AssertionError(
                f"conservation violated for {paper.arxiv_id}: "
                f"{len(contexts)}+{len(discards)} != {len(indices)}"
            )
        context_rows.extend(asdict(ctx) for ctx in contexts)
        discard_rows.extend(
            dict(arxiv_id=paper.arxiv_id, figure_index=i, kind=r.kind.value, detail=r.detail)
            for i, r in discards
        )
    ds.write_jsonl(out_dir / "figure_contexts.jsonl", context_rows)
    ds.write_jsonl(out_dir / "discards.jsonl", discard_rows)
    return dict(
        papers=len(papers), figures_in=figures_in, contexts=len(context_rows),
        discards=Counter(row["kind"] for row in discard_rows),
    )


def stage_generate(cfg: RunConfig, endpoints: dict) -> dict:
    """Extract claims per figure, then one QA candidate per claim.

    Two passes, one model request per paid item: claim extraction per
    context, then one QA draft per (claim, context) pair.
    """
    out_dir = Path(cfg.output)
    contexts = ds.read_rows(out_dir / "figure_contexts.jsonl", FigureContext)
    templates = load_templates(cfg.prompts)
    text_ep = endpoints["text"]

    claim_lists = _run_paid(
        lambda ctx: extract_claims(ctx, text_ep, templates), contexts, cfg, "contexts"
    )
    pairs = [(claim, ctx) for ctx, claims in zip(contexts, claim_lists) for claim in claims]
    results = _run_paid(
        lambda pair: generate_qa(*pair, text_ep, templates, cfg.seed),
        pairs, cfg, "claims",
    )

    claim_rows = [{"key": claim.key, **asdict(claim)} for claim, _ in pairs]
    candidate_rows = [asdict(r) for r in results if not isinstance(r, Declined)]
    declined_rows = [asdict(r) for r in results if isinstance(r, Declined)]
    distinct_texts = {(claim.arxiv_id, ds.normalize_ws(claim.text).lower()) for claim, _ in pairs}
    duplicate_claims = len(pairs) - len(distinct_texts)
    ds.write_jsonl(out_dir / "claims.jsonl", claim_rows)
    ds.write_jsonl(out_dir / "candidates.jsonl", candidate_rows)
    ds.write_jsonl(out_dir / "declined.jsonl", declined_rows)
    return dict(
        contexts=len(contexts), claims=len(pairs), candidates=len(candidate_rows),
        declined=len(declined_rows), duplicate_claim_texts=duplicate_claims,
    )


def _contexts_by_digest(path: Path) -> dict[str, str]:
    """Each figure context's text, keyed by the context_digest generate stamps on a candidate,
    so a context changed or removed since generate is never paired with its candidates."""
    return {context_digest(ctx.context): ctx.context for ctx in ds.read_rows(path, FigureContext)}


def stage_verify(cfg: RunConfig, endpoints: dict) -> dict:
    """Run the filter cascade over all candidates, resumably."""
    out_dir = Path(cfg.output)
    candidates = sorted(
        ds.read_rows(out_dir / "candidates.jsonl", QACandidate, ds.check_question),
        key=lambda c: c.key,
    )
    contexts = _contexts_by_digest(out_dir / "figure_contexts.jsonl")
    templates = load_templates(cfg.prompts)
    log = vf.VerdictLog(out_dir / "verdict_log.jsonl")

    seen: set[str] = set()
    stale = []  # (candidate, filter) of each logged verdict to ask again
    for candidate in candidates:
        if candidate.context_digest not in contexts:
            raise UpstreamInputError(
                f"candidate {candidate.key}: its figure context is gone or changed "
                "since generate; rerun generate"
            )
        # Two workers must never run one candidate's cascade at once.
        if candidate.key in seen:
            raise UpstreamInputError(f"candidate {candidate.key} appears twice")
        seen.add(candidate.key)
        # A logged verdict is reused only for the request it answered. The first that
        # answered another is asked again, with the candidate's later verdicts.
        context = contexts[candidate.context_digest]
        for i, step in enumerate(vf.CASCADE):
            verdict = log.get(candidate.key, step.name)
            if verdict is None:
                continue
            request = vf.filter_request(step, candidate, context, templates)
            if verdict.transcript_ref != Request(endpoints[step.endpoint].config, *request).digest:
                stale += [(candidate.key, later.name) for later in vf.CASCADE[i:]]
                break
    if stale:
        dropped = log.drop(stale)
        logger.warning("verify: %d logged verdicts answered another request; asking again", dropped)

    def run_one(candidate: QACandidate):
        context = contexts[candidate.context_digest]
        try:
            return vf.run_cascade(
                candidate, context, endpoints["text"], endpoints["vision"], templates, log
            )
        except ImageUnreadable as exc:
            return exc

    try:
        outcomes = _run_paid(run_one, candidates, cfg, "candidates")
    finally:
        # Workers append verdicts as they finish; leave the log in (candidate, cascade) order.
        log.sort_file()

    cascaded = [o for o in outcomes if not isinstance(o, ImageUnreadable)]
    retained = [o.record for o in cascaded if o.record is not None]
    rejected_by_stage = Counter(o.verdicts[-1].filter for o in cascaded if o.record is None)
    discarded = [
        {"key": candidate.key, "reason": str(outcome)}
        for candidate, outcome in zip(candidates, outcomes)
        if isinstance(outcome, ImageUnreadable)
    ]

    # Candidates are sorted by key and outcomes come back in item order, so retained is too.
    ds.write_dataset(retained, out_dir / "retained.jsonl")
    ds.write_jsonl(out_dir / "verify_discards.jsonl", discarded)
    return dict(
        candidates=len(candidates), retained=len(retained), rejected_by_stage=rejected_by_stage,
        discarded=len(discarded),
        deferred=0,  # always 0 (a deferral writes nothing); kept only for perfbench/run.py
    )


def stage_annotate(cfg: RunConfig, endpoints: dict) -> dict:
    """Add closed-vocabulary figure-type and question-type labels.

    Figure type is a property of the figure: it is asked once per distinct
    (figure_image_ref, caption), with the figure's first record, and copied to
    each record of that figure. Question type is asked once per record.
    """
    out_dir = Path(cfg.output)
    records = ds.read_dataset(out_dir / "retained.jsonl")
    templates = load_templates(cfg.prompts)

    figures: dict[tuple[str, str], list[ds.VerifiedRecord]] = {}
    for record in records:
        figures.setdefault((record.figure_image_ref, record.caption), []).append(record)
    # One paid item per label, (the records it labels, kind, endpoint), all in one pool pass.
    labels = [(group, "figure_type", endpoints["annotator_vision"]) for group in figures.values()]
    labels += [([record], "question_type", endpoints["annotator_text"]) for record in records]

    def ask(label) -> str | None:
        group, kind, endpoint = label
        return ds.annotate_taxonomy(group[0], kind, endpoint, templates)

    values = _run_paid(ask, labels, cfg, "labels")
    for (group, kind, _), value in zip(labels, values):
        for record in group:
            setattr(record, kind, value)
        if value is None and kind == "figure_type":
            logger.warning(
                "figure %s left unlabeled for figure_type: %d of its records stay unlabeled",
                group[0].figure_image_ref, len(group),
            )
        elif value is None:
            logger.warning("record %s left unlabeled for question_type", group[0].key)
    ds.write_dataset(records, out_dir / "annotated.jsonl")
    return dict(
        records=len(records),
        figure_type_labeled=sum(1 for r in records if r.figure_type is not None),
        question_type_labeled=sum(1 for r in records if r.question_type is not None),
        deferred_calls=0,  # always 0 (a deferral writes nothing); kept only for perfbench/run.py
    )


def _evaluate_reads(cfg: RunConfig) -> tuple[str, ...]:
    """The dataset evaluate scores: eval_dataset, made absolute, else annotated, else retained."""
    if cfg.eval_dataset:
        dataset_path = Path(cfg.eval_dataset)
        if not dataset_path.is_file():
            raise UpstreamInputError(f"evaluation dataset not found: {dataset_path}")
        return (str(dataset_path.absolute()),)
    annotated = Path(cfg.output) / "annotated.jsonl"
    return (annotated.name if annotated.is_file() else "retained.jsonl",)


def stage_evaluate(cfg: RunConfig, endpoints: dict) -> dict:
    """Zero-shot evaluation of the configured model over the dataset."""
    out_dir = Path(cfg.output)
    dataset_path = out_dir / _evaluate_reads(cfg)[0]
    records = ds.read_dataset(dataset_path)
    templates = load_templates(cfg.prompts)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = evaluate(endpoints["eval"], records, templates, concurrency=cfg.concurrency)
    ds.write_json(out_dir / "eval_summary.json", asdict(result))
    report = format_report(result)
    ds.write_text(out_dir / "eval_report.txt", report + "\n")
    return {
        "dataset": str(dataset_path),
        "evaluated": result.overall["total"],
        "unevaluated": result.unevaluated,
        "overall_accuracy": result.overall["accuracy"],
        "report": report,
    }


def stage_stats(cfg: RunConfig) -> dict:
    """Funnel accounting plus an independent verdict-log replay."""
    out_dir = Path(cfg.output)
    prepare_manifest = ds.read_json(out_dir / "manifest_prepare.json")
    papers = prepare_manifest.get("papers_prepared")
    if type(papers) is not int:
        raise UpstreamInputError("manifest_prepare.json: papers_prepared must be an integer")
    # Typed like verify reads them, so a row verify refuses is not counted here.
    claims = len(ds.read_rows(out_dir / "claims.jsonl", AtomicClaim))
    candidates = len(ds.read_rows(out_dir / "candidates.jsonl", QACandidate, ds.check_question))
    verdicts = ds.read_rows(out_dir / "verdict_log.jsonl", vf.FilterVerdict)
    records = ds.read_dataset(out_dir / "retained.jsonl")
    after_text = sum(1 for v in verdicts if v.filter == vf.FILTER_VISDEP_VISION and v.passed)

    funnel = None
    table = "funnel unavailable: no claims were extracted"
    if claims > 0:
        stats = ds.compute_funnel(
            papers=papers,
            claims=claims,
            qa_generated=candidates,
            after_text_filtering=after_text,
            after_vision_filtering=len(records),
        )
        funnel = asdict(stats)
        table = stats.format_table()

    # A verdict judged a retained record only if it answered the request its filter makes now.
    contexts = _contexts_by_digest(out_dir / "figure_contexts.jsonl")
    templates = load_templates(cfg.prompts)
    requests = {
        record.key: {
            step.name: Request(cfg.endpoint_config(step.endpoint),
                               *vf.filter_request(step, record, context, templates)).digest
            for step in vf.CASCADE
        }
        for record in records
        if (context := contexts.get(record.provenance.get("context_digest"))) is not None
    }
    report = replay_verdicts(verdicts, records, requests)
    discards = ds.read_json(out_dir / "manifest_extract.json").get("discards")
    if not isinstance(discards, dict) or any(type(n) is not int for n in discards.values()):
        raise UpstreamInputError("manifest_extract.json: discards must map each kind to an integer")
    payload = {
        "funnel": funnel,
        "replay": {"ok": report.ok, "problems": report.problems},
        "extraction_discards": discards,
        "config_digest": cfg.config_digest(tuple(ROLE_DEFAULTS)),
    }
    ds.write_json(out_dir / "stats.json", payload)
    return {
        "funnel": funnel,
        "replay_ok": report.ok,
        "table": table,
        "replay_summary": report.summary(),
    }


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: its body, every run-directory file it reads and writes, the slots
    it calls, the templates it renders, and its summary.

    reads is a tuple, or a resolver that gives one from the config; a name in it may be an
    absolute path. Every file in reads must exist before the body runs; a body that calls
    slots also takes the endpoints. The manifest is the body's counts under the stage name;
    a row that writes manifest_<name>.json writes it last. A row that calls slots keys its
    manifest by the config digest of those slots and the digests of its reads, templates and
    outputs, and returns that manifest without running the body while they are all unchanged
    and it left no item unevaluated.
    """

    name: str
    run: Callable[..., dict]
    reads: tuple[str, ...] | Callable[[RunConfig], tuple[str, ...]]
    writes: tuple[str, ...]
    slots: tuple[str, ...]
    templates: tuple[str, ...]
    summary: Callable[[dict], str]

    def __call__(self, cfg: RunConfig, endpoints: dict | None = None) -> dict:
        path = Path(cfg.output) / f"manifest_{self.name}.json"
        reads = self.reads(cfg) if callable(self.reads) else self.reads
        key = {"config_digest": cfg.config_digest(self.slots)}
        if self.slots:
            key["inputs"] = self._input_digests(cfg, reads)
            stored = _stored_manifest(path)
            unchanged = all(stored.get(k) == v for k, v in key.items())
            # Items a run left unevaluated are asked again, so its manifest is never reused.
            unchanged = unchanged and not stored.get("unevaluated")
            if unchanged and stored.get("outputs") == self._output_digests(cfg):
                logger.info("%s not run: config, inputs and outputs match %s", self.name, path.name)
                return stored
        for name in reads:
            _require_file(path.parent / name)
        try:
            counts = self.run(cfg, endpoints) if self.slots else self.run(cfg)
        except EndpointUnavailable as exc:
            raise EndpointUnavailable(f"{exc}; no {self.name} output written") from None
        manifest = {"stage": self.name, **counts}
        if path.name in self.writes:
            manifest.update(key)
            if self.slots:
                manifest["outputs"] = self._output_digests(cfg)
            ds.write_json(path, manifest)
        return manifest

    def _input_digests(self, cfg: RunConfig, reads: tuple[str, ...]) -> dict:
        """sha256 of each file the body reads, of the templates it renders, and of the mock script.

        All templates load here, so a bad one exits before the skip; only the row's are hashed.
        """
        out_dir = Path(cfg.output)
        digests = {name: ds.file_sha256(out_dir / name) for name in reads}
        loaded = load_templates(cfg.prompts)
        bodies = {name: loaded[name].body for name in self.templates}
        digests["templates"] = hashlib.sha256(
            json.dumps(bodies, sort_keys=True).encode("utf-8")
        ).hexdigest()
        if cfg.mock_script:
            digests["mock_script"] = ds.file_sha256(cfg.mock_script)
        return digests

    def _output_digests(self, cfg: RunConfig) -> dict:
        """sha256 of each file the body writes (None for one that is missing)."""
        out_dir = Path(cfg.output)
        manifest = f"manifest_{self.name}.json"
        return {name: ds.file_sha256(out_dir / name) for name in self.writes if name != manifest}


def _stored_manifest(path: Path) -> dict:
    """The manifest at path, or {} when it is missing or cannot be parsed."""
    try:
        return ds.read_json(path)
    except (OSError, SchemaViolation):
        return {}


_CASCADE_TEMPLATES = tuple(dict.fromkeys(step.template for step in vf.CASCADE))
STAGES = (
    Stage("prepare", stage_prepare, (), ("papers_clean.jsonl", "manifest_prepare.json"), (), (),
          lambda m: f"prepared {m['papers_prepared']} of {m['papers_in']} papers "
                    f"({len(m['skipped'])} skipped)"),
    Stage("extract", stage_extract, ("papers_clean.jsonl",),
          ("figure_contexts.jsonl", "discards.jsonl", "manifest_extract.json"), (), (),
          lambda m: f"extracted {m['contexts']} contexts from {m['figures_in']} figures "
                    f"(discards: {json.dumps(m['discards'], sort_keys=True)})"),
    Stage("generate", stage_generate, ("figure_contexts.jsonl",),
          ("claims.jsonl", "candidates.jsonl", "declined.jsonl", "manifest_generate.json"),
          ("text",), ("claim_extract", "qa_generate"),
          lambda m: f"generated {m['candidates']} candidates from {m['claims']} claims "
                    f"({m['declined']} declined)"),
    Stage("verify", stage_verify, ("candidates.jsonl", "figure_contexts.jsonl"),
          ("verdict_log.jsonl", "retained.jsonl", "verify_discards.jsonl", "manifest_verify.json"),
          ("text", "vision"), _CASCADE_TEMPLATES,
          lambda m: f"retained {m['retained']} of {m['candidates']} candidates "
                    f"(rejected: {json.dumps(m['rejected_by_stage'], sort_keys=True)})"),
    Stage("annotate", stage_annotate, ("retained.jsonl",),
          ("annotated.jsonl", "manifest_annotate.json"), ("annotator_text", "annotator_vision"),
          ("figure_type_label", "question_type_label"),
          lambda m: f"annotated {m['records']} records (figure type {m['figure_type_labeled']}, "
                    f"question type {m['question_type_labeled']})"),
    Stage("stats", stage_stats, ("manifest_prepare.json", "claims.jsonl", "candidates.jsonl",
                                 "verdict_log.jsonl", "retained.jsonl", "manifest_extract.json",
                                 "figure_contexts.jsonl"),
          ("stats.json",), (), _CASCADE_TEMPLATES,
          lambda m: f"{m['table']}\n{m['replay_summary']}"),
    Stage("evaluate", stage_evaluate, _evaluate_reads,
          ("eval_summary.json", "eval_report.txt", "manifest_evaluate.json"), ("eval",),
          ("eval_zero_shot",), lambda m: m["report"]),
)
STAGE_FUNCTIONS = {stage.name: stage for stage in STAGES}
STAGE_ORDER = tuple(STAGE_FUNCTIONS)[:-1]  # what `figqa run` runs: every row but the last, evaluate


def run_stages(cfg: RunConfig, stages: list[str] | None = None) -> list[dict]:
    """Run the named stages (default: STAGE_ORDER) in canonical order; return their manifests."""
    selected = stages or STAGE_ORDER
    unknown = [s for s in selected if s not in STAGE_FUNCTIONS]
    if unknown:
        raise ConfigError(f"unknown stages: {unknown}")
    rows = [stage for stage in STAGES if stage.name in selected]
    slots = tuple(dict.fromkeys(slot for stage in rows for slot in stage.slots))
    with open_endpoints(cfg, slots) as endpoints:
        return [stage(cfg, endpoints) for stage in rows]
