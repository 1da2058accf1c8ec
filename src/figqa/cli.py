"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 evaluation over the unevaluated threshold,
2 configuration error (a mistyped or out-of-range value, an unknown key or
endpoint slot, a prompt template naming an unknown variable, or a request
the mock script has no response for), 3 upstream-input error (a missing,
truncated or corrupt input file or row, an unreadable figure image, stage
files whose funnel counts are inconsistent, or a failed verdict replay),
4 endpoint auth error, 5 endpoint unavailable after every retry, or a
request it refused (rerun the stage), 6 file-system error (an output path
that cannot be created or written, say). Every file a stage writes is
replaced atomically, so a failed or killed stage leaves the old file or
the new one, never a half-written one.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .errors import (
    AuthError,
    ConfigError,
    EndpointUnavailable,
    ImageUnreadable,
    InvalidFunnel,
    MissingVariable,
    SchemaViolation,
    UnscriptedRequest,
    UpstreamInputError,
)
from .pipeline import STAGE_ORDER, RunConfig, run_stages
from . import pipeline

EXIT_EVAL_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_UPSTREAM = 3
EXIT_AUTH = 4
EXIT_UNAVAILABLE = 5
EXIT_FILE = 6


def _build_config(config_path: str | None, overrides: dict) -> RunConfig:
    """The config file (if any) with the command-line options that were given on top."""
    given = {key: value for key, value in overrides.items() if value is not None}
    if config_path:
        return RunConfig.from_yaml(config_path, given)
    return RunConfig.from_dict(given)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, MissingVariable, UnscriptedRequest) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (UpstreamInputError, SchemaViolation, ImageUnreadable, InvalidFunnel) as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(EXIT_UPSTREAM)
        except AuthError as exc:
            click.echo(f"auth error: {exc}", err=True)
            sys.exit(EXIT_AUTH)
        except EndpointUnavailable as exc:
            click.echo(f"endpoint unavailable; rerun the stage: {exc}", err=True)
            sys.exit(EXIT_UNAVAILABLE)
        except OSError as exc:
            click.echo(f"file error: {exc}", err=True)
            sys.exit(EXIT_FILE)

    return wrapper


def _common_options(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="YAML run configuration."),
        click.option("--output", type=click.Path(), default=None,
                     help="Run output directory."),
        click.option("--corpus", type=click.Path(), default=None,
                     help="Figure-caption corpus (JSONL)."),
        click.option("--latex-cache", type=click.Path(), default=None,
                     help="Directory of <arxiv_id>.tex sources."),
        click.option("--prompts", type=click.Path(), default=None,
                     help="Prompt template directory (default: packaged)."),
        click.option("--seed", type=int, default=None, help="Run seed."),
        click.option("--concurrency", type=int, default=None,
                     help="Worker threads for generate, verify, annotate and evaluate "
                          "(default 1); outputs are the same at any value."),
        click.option("--mock", "mock_script", type=click.Path(), default=None,
                     help="Mock-backend script (JSON digest map)."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group(help="Generate and verify multiple-choice QA about scientific figures.")
def main():
    pass


@main.command(help="Clean LaTeX sources and bind figure-caption rows.")
@_common_options
@_handle_errors
def prepare(config_path, **params):
    manifest = pipeline.stage_prepare(_build_config(config_path, params))
    click.echo(
        f"prepared {manifest['papers_prepared']} of {manifest['papers_in']} papers "
        f"({len(manifest['skipped'])} skipped)"
    )


@main.command(help="Extract figure contexts and typed discards.")
@_common_options
@_handle_errors
def extract(config_path, **params):
    manifest = pipeline.stage_extract(_build_config(config_path, params))
    click.echo(
        f"extracted {manifest['contexts']} contexts from {manifest['figures_in']} figures "
        f"(discards: {json.dumps(manifest['discards'], sort_keys=True)})"
    )


@main.command(help="Extract claims and generate QA candidates.")
@_common_options
@_handle_errors
def generate(config_path, **params):
    manifest = pipeline.stage_generate(_build_config(config_path, params))
    click.echo(
        f"generated {manifest['candidates']} candidates from {manifest['claims']} claims "
        f"({manifest['declined']} declined)"
    )


@main.command(help="Run the verification filter cascade.")
@_common_options
@_handle_errors
def verify(config_path, **params):
    manifest = pipeline.stage_verify(_build_config(config_path, params))
    click.echo(
        f"retained {manifest['retained']} of {manifest['candidates']} candidates "
        f"(rejected: {json.dumps(manifest['rejected_by_stage'], sort_keys=True)})"
    )


@main.command(help="Annotate figure-type and question-type labels.")
@_common_options
@_handle_errors
def annotate(config_path, **params):
    manifest = pipeline.stage_annotate(_build_config(config_path, params))
    click.echo(
        f"annotated {manifest['records']} records "
        f"(figure type {manifest['figure_type_labeled']}, "
        f"question type {manifest['question_type_labeled']})"
    )


@main.command(help="Zero-shot evaluation over a verified dataset.")
@_common_options
@click.option("--dataset", "eval_dataset", type=click.Path(), default=None,
              help="Dataset to evaluate (default: annotated, then retained).")
@click.option("--unevaluated-threshold", type=int, default=None,
              help="Fail when more than this many items stay unevaluated.")
@_handle_errors
def evaluate(config_path, **params):
    cfg = _build_config(config_path, params)
    summary = pipeline.stage_evaluate(cfg)
    click.echo(summary["report"])
    if summary["unevaluated"] > cfg.unevaluated_threshold:
        click.echo(
            f"unevaluated items ({summary['unevaluated']}) exceed threshold "
            f"({cfg.unevaluated_threshold})",
            err=True,
        )
        sys.exit(EXIT_EVAL_THRESHOLD)


@main.command(help="Funnel statistics plus verdict-log replay.")
@_common_options
@_handle_errors
def stats(config_path, **params):
    summary = pipeline.stage_stats(_build_config(config_path, params))
    click.echo(summary["table"])
    click.echo(summary["replay_summary"])
    if not summary["replay_ok"]:
        sys.exit(EXIT_UPSTREAM)


@main.command(name="run", help="Run multiple stages in order (default: all).")
@_common_options
@click.option("--stage", "stages", multiple=True,
              type=click.Choice(STAGE_ORDER), help="Stage to run; repeatable.")
@_handle_errors
def run_command(config_path, stages, **params):
    cfg = _build_config(config_path, params)
    manifests = run_stages(cfg, list(stages) or None)
    for manifest in manifests:
        name = manifest.get("stage", "?")
        if name == "stats":
            click.echo(manifest["table"])
            click.echo(manifest["replay_summary"])
        else:
            click.echo(f"stage {name}: done")


if __name__ == "__main__":
    main()
