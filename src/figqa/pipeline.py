"""Resumable batch pipeline: staged files, manifests, and endpoint wiring.

Stage files are the only inter-stage interface. Each stage reads its
predecessor's output, writes line-delimited records plus a manifest, and is
deterministic given identical inputs and seed under mock backends. The
verify stage additionally skips already-verdicted items via the verdict
log, which is what makes crashed runs resumable without duplicate calls.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import random
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
    TokenBucket,
    load_templates,
    map_rounds,
    pool_map,
)
from .generation import Declined, QACandidate, extract_claims, generate_qa, normalize_ws
from .latex_prep import PARAGRAPH_SEPARATOR, CleanPaper, RawPaper, clean_paper
from .replay import replay_verdicts

logger = logging.getLogger(__name__)

CRASH_AFTER_ENV = "FIGQA_MOCK_CRASH_AFTER"

STAGE_ORDER = ("prepare", "extract", "generate", "verify", "annotate", "stats")

# Endpoint roles and their built-in defaults (used directly in mock mode;
# merged under the config file's endpoint entries otherwise).
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
        for name in ROLE_DEFAULTS:
            if "role" in self.endpoints.get(name, {}):  # fixed per slot
                raise ConfigError(f"endpoints.{name}.role: unknown endpoint key")
            _check_config(ENDPOINT_CHECK, self._endpoint_dict(name), f"endpoints.{name}")
            try:
                self.endpoint_config(name)
            except ConfigError as exc:
                raise ConfigError(f"endpoints.{name}.{exc}") from None
        if self.concurrency < 1:
            raise ConfigError("concurrency must be at least 1")
        if self._endpoint_dict("eval")["temperature"] != 0:
            raise ConfigError("endpoints.eval.temperature must be 0: evaluation is greedy")

    def config_digest(self) -> str:
        """Hash of behavior-relevant settings (paths excluded on purpose)."""
        payload = {
            "seed": self.seed,
            "endpoints": {
                name: {
                    k: v
                    for k, v in sorted(self._endpoint_dict(name).items())
                    if k != "api_key_env"
                }
                for name in ROLE_DEFAULTS
            },
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def _endpoint_dict(self, name: str) -> dict:
        merged = dict(ROLE_DEFAULTS[name])
        # Annotator/eval roles inherit the base vision/text endpoint address.
        base_role = merged["role"]
        if not self.mock_script and base_role in self.endpoints:
            inherited = {
                k: v
                for k, v in self.endpoints[base_role].items()
                if k in ("base_url", "api_key_env", "requests_per_minute", "timeout", "max_retries")
            }
            merged.update(inherited)
        merged.update(self.endpoints.get(name, {}))
        return merged

    def endpoint_config(self, name: str) -> ModelEndpointConfig:
        return ModelEndpointConfig(**self._endpoint_dict(name))

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
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must be a mapping")
        return cls.from_dict({**data, **(overrides or {})})


CONFIG_CHECK = ds.row_check(RunConfig)
ENDPOINT_CHECK = ds.row_check(ModelEndpointConfig, closed=True)


def _check_config(check, values: dict, where: str) -> None:
    """check (a dataset.row_check) applied to config values; a problem is a ConfigError."""
    try:
        check(values, 0)
    except SchemaViolation as exc:
        raise ConfigError(f"{where}.{exc.field}: {exc.detail}") from None


def build_endpoints(cfg: RunConfig) -> dict[str, object]:
    """Instantiate all five endpoint slots, mock or HTTP."""
    if cfg.mock_script:
        crash_after = None
        raw = os.environ.get(CRASH_AFTER_ENV)
        if raw:
            crash_after = int(raw)
        backend = MockBackend.from_file(
            cfg.mock_script,
            ledger=functools.partial(ds.append_jsonl, Path(cfg.output) / "mock_calls.jsonl"),
            crash_after=crash_after,
        )
        return {name: backend.endpoint(cfg.endpoint_config(name)) for name in ROLE_DEFAULTS}
    for required in ("text", "vision"):
        if required not in cfg.endpoints or not cfg.endpoints[required].get("base_url"):
            raise ConfigError(
                f"live runs need an endpoints.{required} entry with a base_url"
            )
    # Slots that inherit one address and limit share one bucket, so the
    # configured requests_per_minute caps their combined rate.
    buckets: dict[tuple, TokenBucket] = {}
    endpoints = {}
    for name in ROLE_DEFAULTS:
        config = cfg.endpoint_config(name)
        bucket = None
        if config.requests_per_minute:
            address = (config.base_url, config.api_key_env, config.requests_per_minute)
            bucket = buckets.setdefault(address, TokenBucket(config.requests_per_minute))
        endpoints[name] = HttpEndpoint(config, bucket=bucket)
    return endpoints


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
    typed = ds.row_check(CorpusRow)

    def check(data: dict, line_no: int) -> None:
        typed(data, line_no)
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


PAPER_ROW = ds.row_check(PreparedPaper)
FIGURE_ROW = ds.row_check(PreparedFigure)


def _check_paper_row(row: dict, line_no: int) -> None:
    PAPER_ROW(row, line_no)
    for figure in row["figures"]:
        FIGURE_ROW(figure, line_no)


# A context row is a FigureContext plus its paper's category.
CONTEXT_ROW = ds.row_check(FigureContext, primary_category=str)


def _require_file(path: Path, producer: str) -> Path:
    if not path.is_file():
        raise UpstreamInputError(f"missing {path.name}; run the {producer} stage first")
    return path


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
        raw = RawPaper(
            arxiv_id=arxiv_id,
            primary_category=fig_rows[0].primary_category,
            latex_source=tex_path.read_text(encoding="utf-8"),
            figure_caption_pairs=[(r.image, r.caption) for r in fig_rows],
        )
        try:
            clean = clean_paper(raw)
        except RecursionLimitExceeded:
            skipped.append({"arxiv_id": arxiv_id, "reason": "macro_recursion_limit"})
            continue
        figures = [asdict(PreparedFigure(r.figure_index, r.image, r.caption)) for r in fig_rows]
        paper = PreparedPaper(arxiv_id, raw.primary_category, clean.paragraphs, figures)
        prepared_rows.append(asdict(paper))
    ds.write_jsonl(out_dir / "papers_clean.jsonl", prepared_rows)
    manifest = {
        "stage": "prepare",
        "papers_in": len(papers),
        "papers_prepared": len(prepared_rows),
        "skipped": skipped,
        "seed": cfg.seed,
        "config_digest": cfg.config_digest(),
    }
    ds.write_json(out_dir / "manifest_prepare.json", manifest)
    return manifest


def stage_extract(cfg: RunConfig) -> dict:
    """Bind figures to environments and collect citing paragraphs."""
    out_dir = Path(cfg.output)
    papers = ds.read_rows(
        _require_file(out_dir / "papers_clean.jsonl", "prepare"), PreparedPaper, _check_paper_row
    )

    context_rows: list[dict] = []
    discard_rows: list[dict] = []
    discard_counts: dict[str, int] = {}
    figures_in = 0
    for paper in papers:
        figures = [ds.from_row(PreparedFigure, f) for f in paper.figures]
        clean = CleanPaper(
            arxiv_id=paper.arxiv_id,
            body=PARAGRAPH_SEPARATOR.join(paper.paragraphs),
            paragraphs=paper.paragraphs,
        )
        raw = RawPaper(
            arxiv_id=paper.arxiv_id,
            primary_category=paper.primary_category,
            latex_source="",
            figure_caption_pairs=[(f.image, f.caption) for f in figures],
        )
        indices = [f.figure_index for f in figures]
        figures_in += len(indices)
        contexts, discards = build_figure_contexts(clean, raw, figure_indices=indices)
        if len(contexts) + len(discards) != len(indices):
            raise AssertionError(
                f"conservation violated for {paper.arxiv_id}: "
                f"{len(contexts)}+{len(discards)} != {len(indices)}"
            )
        context_rows.extend(
            {"arxiv_id": ctx.arxiv_id, "primary_category": paper.primary_category, **asdict(ctx)}
            for ctx in contexts
        )
        for figure_index, reason in discards:
            discard_counts[reason.kind.value] = discard_counts.get(reason.kind.value, 0) + 1
            discard_rows.append(
                {
                    "arxiv_id": paper.arxiv_id,
                    "figure_index": figure_index,
                    "kind": reason.kind.value,
                    "detail": reason.detail,
                }
            )
    ds.write_jsonl(out_dir / "figure_contexts.jsonl", context_rows)
    ds.write_jsonl(out_dir / "discards.jsonl", discard_rows)
    manifest = {
        "stage": "extract",
        "papers": len(papers),
        "figures_in": figures_in,
        "contexts": len(context_rows),
        "discards": discard_counts,
        "config_digest": cfg.config_digest(),
    }
    ds.write_json(out_dir / "manifest_extract.json", manifest)
    return manifest


def stage_generate(cfg: RunConfig, endpoints: dict | None = None) -> dict:
    """Extract claims per figure, then one QA candidate per claim."""
    out_dir = Path(cfg.output)
    rows = ds.read_jsonl(_require_file(out_dir / "figure_contexts.jsonl", "extract"), CONTEXT_ROW)
    endpoints = endpoints or build_endpoints(cfg)
    templates = load_templates(cfg.prompts)
    text_ep = endpoints["text"]

    def process(row: dict):
        category = row["primary_category"]
        ctx = ds.from_row(FigureContext, row)
        claims = extract_claims(ctx, text_ep, templates)
        results = [
            generate_qa(claim, ctx, text_ep, templates, cfg.seed, primary_category=category)
            for claim in claims
        ]
        return claims, results

    outputs = pool_map(process, rows, cfg.concurrency)

    claim_rows: list[dict] = []
    candidate_rows: list[dict] = []
    declined_rows: list[dict] = []
    text_seen: dict[tuple[str, str], int] = {}
    for (claims, results) in outputs:
        for claim in claims:
            claim_rows.append({"key": claim.key, **asdict(claim)})
            norm = (claim.arxiv_id, normalize_ws(claim.text).lower())
            text_seen[norm] = text_seen.get(norm, 0) + 1
        for result in results:
            if isinstance(result, Declined):
                declined_rows.append(asdict(result))
            else:
                candidate_rows.append(asdict(result))
    duplicate_claims = sum(count - 1 for count in text_seen.values() if count > 1)
    ds.write_jsonl(out_dir / "claims.jsonl", claim_rows)
    ds.write_jsonl(out_dir / "candidates.jsonl", candidate_rows)
    ds.write_jsonl(out_dir / "declined.jsonl", declined_rows)
    manifest = {
        "stage": "generate",
        "contexts": len(rows),
        "claims": len(claim_rows),
        "candidates": len(candidate_rows),
        "declined": len(declined_rows),
        "duplicate_claim_texts": duplicate_claims,
        "config_digest": cfg.config_digest(),
    }
    ds.write_json(out_dir / "manifest_generate.json", manifest)
    return manifest


def stage_verify(cfg: RunConfig, endpoints: dict | None = None) -> dict:
    """Run the filter cascade over all candidates, resumably."""
    out_dir = Path(cfg.output)
    candidates = sorted(
        ds.read_rows(_require_file(out_dir / "candidates.jsonl", "generate"), QACandidate),
        key=lambda c: c.key,
    )
    context_rows = ds.read_jsonl(
        _require_file(out_dir / "figure_contexts.jsonl", "extract"), CONTEXT_ROW
    )
    contexts = {
        f"{row['arxiv_id']}:f{row['figure_index']}": row["context"] for row in context_rows
    }
    endpoints = endpoints or build_endpoints(cfg)
    templates = load_templates(cfg.prompts)
    log = vf.VerdictLog(out_dir / "verdict_log.jsonl")

    seen: set[str] = set()
    for candidate in candidates:
        figure_key = f"{candidate.arxiv_id}:f{candidate.figure_index}"
        if figure_key not in contexts:
            raise UpstreamInputError(
                f"candidate {candidate.key} has no figure context {figure_key}"
            )
        # Two workers must never run one candidate's cascade at once.
        if candidate.key in seen:
            raise UpstreamInputError(f"candidate {candidate.key} appears twice")
        seen.add(candidate.key)

    def run_one(candidate: QACandidate):
        context = contexts[f"{candidate.arxiv_id}:f{candidate.figure_index}"]
        try:
            return vf.run_cascade(
                candidate, context, endpoints["text"], endpoints["vision"], templates, log
            )
        except EndpointUnavailable as exc:
            logger.warning("deferring %s: %s", candidate.key, exc)
            raise
        except ImageUnreadable as exc:
            return exc

    done, deferred = map_rounds(run_one, candidates, cfg.concurrency)
    # Workers append verdicts as they finish; leave the log in (candidate, cascade) order.
    log.sort_file()

    retained: list = []
    rejected_by_stage: dict[str, int] = {}
    discarded: list[dict] = []
    for candidate, outcome in done:
        if isinstance(outcome, ImageUnreadable):
            discarded.append({"key": candidate.key, "reason": str(outcome)})
        elif outcome.status == "retained":
            retained.append(outcome.record)
        else:
            rejected_by_stage[outcome.rejected_stage] = (
                rejected_by_stage.get(outcome.rejected_stage, 0) + 1
            )

    retained.sort(key=lambda r: r.key)
    ds.write_dataset(retained, out_dir / "retained.jsonl")
    ds.write_jsonl(out_dir / "verify_discards.jsonl", discarded)
    manifest = {
        "stage": "verify",
        "candidates": len(candidates),
        "processed": len(done),
        "retained": len(retained),
        "rejected_by_stage": dict(sorted(rejected_by_stage.items())),
        "discarded": len(discarded),
        "deferred": len(deferred),
        "config_digest": cfg.config_digest(),
    }
    ds.write_json(out_dir / "manifest_verify.json", manifest)
    return manifest


def stage_annotate(cfg: RunConfig, endpoints: dict | None = None) -> dict:
    """Add closed-vocabulary figure-type and question-type labels."""
    out_dir = Path(cfg.output)
    records = ds.read_dataset(_require_file(out_dir / "retained.jsonl", "verify"))
    endpoints = endpoints or build_endpoints(cfg)
    templates = load_templates(cfg.prompts)

    def label(record: ds.VerifiedRecord) -> int:
        """Both labels of one record, set in place; the number of deferred calls."""
        deferred = 0
        for kind, slot in (("figure_type", "annotator_vision"), ("question_type", "annotator_text")):
            try:
                setattr(record, kind, ds.annotate_taxonomy(record, kind, endpoints[slot], templates))
            except EndpointUnavailable:
                deferred += 1
        return deferred

    deferred = sum(pool_map(label, records, cfg.concurrency))
    ds.write_dataset(records, out_dir / "annotated.jsonl")
    manifest = {
        "stage": "annotate",
        "records": len(records),
        "figure_type_labeled": sum(1 for r in records if r.figure_type is not None),
        "question_type_labeled": sum(1 for r in records if r.question_type is not None),
        "deferred_calls": deferred,
        "config_digest": cfg.config_digest(),
    }
    ds.write_json(out_dir / "manifest_annotate.json", manifest)
    return manifest


def stage_evaluate(cfg: RunConfig, endpoints: dict | None = None) -> dict:
    """Zero-shot evaluation of the configured model over the dataset."""
    out_dir = Path(cfg.output)
    if cfg.eval_dataset:
        dataset_path = Path(cfg.eval_dataset)
        if not dataset_path.is_file():
            raise UpstreamInputError(f"evaluation dataset not found: {dataset_path}")
    else:
        annotated = out_dir / "annotated.jsonl"
        dataset_path = annotated if annotated.is_file() else out_dir / "retained.jsonl"
        _require_file(dataset_path, "verify")
    records = ds.read_dataset(dataset_path)
    endpoints = endpoints or build_endpoints(cfg)
    templates = load_templates(cfg.prompts)
    result = evaluate(endpoints["eval"], records, templates, concurrency=cfg.concurrency)
    ds.write_json(out_dir / "eval_summary.json", result.to_json_dict())
    report = format_report(result)
    ds.write_text(out_dir / "eval_report.txt", report + "\n")
    return {
        "stage": "evaluate",
        "dataset": str(dataset_path),
        "evaluated": result.overall_total,
        "unevaluated": result.unevaluated,
        "overall_accuracy": result.overall_accuracy,
        "report": report,
    }


def stage_stats(cfg: RunConfig) -> dict:
    """Funnel accounting plus an independent verdict-log replay."""
    out_dir = Path(cfg.output)
    prepare_manifest = ds.read_json(_require_file(out_dir / "manifest_prepare.json", "prepare"))
    claims = len(ds.read_jsonl(_require_file(out_dir / "claims.jsonl", "generate")))
    candidates = len(ds.read_jsonl(_require_file(out_dir / "candidates.jsonl", "generate")))
    log_path = _require_file(out_dir / "verdict_log.jsonl", "verify")
    retained_path = _require_file(out_dir / "retained.jsonl", "verify")
    after_text = sum(
        1
        for verdict in ds.read_rows(log_path, vf.FilterVerdict)
        if verdict.filter == vf.FILTER_VISDEP_VISION and verdict.passed
    )
    retained = len(ds.read_jsonl(retained_path))

    funnel = None
    table = "funnel unavailable: no claims were extracted"
    if claims > 0:
        stats = ds.compute_funnel(
            papers=prepare_manifest["papers_prepared"],
            claims=claims,
            qa_generated=candidates,
            after_text_filtering=after_text,
            after_vision_filtering=retained,
        )
        funnel = asdict(stats)
        table = stats.format_table()

    report = replay_verdicts(log_path, retained_path)
    extract_manifest_path = out_dir / "manifest_extract.json"
    discards = {}
    if extract_manifest_path.is_file():
        discards = ds.read_json(extract_manifest_path).get("discards", {})
    payload = {
        "funnel": funnel,
        "replay": {"ok": report.ok, "problems": report.problems},
        "extraction_discards": discards,
        "config_digest": cfg.config_digest(),
    }
    ds.write_json(out_dir / "stats.json", payload)
    return {
        "stage": "stats",
        "funnel": funnel,
        "replay_ok": report.ok,
        "table": table,
        "replay_summary": report.summary(),
    }


STAGE_FUNCTIONS = {
    "prepare": stage_prepare,
    "extract": stage_extract,
    "generate": stage_generate,
    "verify": stage_verify,
    "annotate": stage_annotate,
    "stats": stage_stats,
}


def run_stages(cfg: RunConfig, stages: list[str] | None = None) -> list[dict]:
    """Run the named stages (default: all) in canonical order."""
    selected = list(STAGE_ORDER) if not stages else stages
    unknown = [s for s in selected if s not in STAGE_FUNCTIONS]
    if unknown:
        raise ConfigError(f"unknown stages: {unknown}")
    ordered = [s for s in STAGE_ORDER if s in selected]
    endpoints = None
    manifests = []
    for name in ordered:
        fn = STAGE_FUNCTIONS[name]
        if name in ("generate", "verify", "annotate"):
            if endpoints is None:
                endpoints = build_endpoints(cfg)
            manifests.append(fn(cfg, endpoints))
        else:
            manifests.append(fn(cfg))
    return manifests
