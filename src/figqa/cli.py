"""Command-line interface: `run`, one subcommand per pipeline stage, and `evaluate`.

`figqa <stage>` is `figqa run --stage <stage>`: both print each stage's
summary line and share one exit-code map.

Exit codes: 0 success, 1 evaluation over the unevaluated threshold, 2
configuration error (a mistyped or out-of-range value, an unknown key or
endpoint slot, a config file or prompt template that is not UTF-8, a prompt
template naming an unknown variable, a mock script that cannot be read, is
not JSON or maps a digest to anything but a string or a list of strings, or
a request the mock script has no response for), 3 upstream-input error (a
missing, truncated, corrupt or non-UTF-8 input file or row, a candidate or
record that is not a valid four-option question, an unreadable figure image,
a candidate whose figure context changed since generate, stage files whose
funnel counts are inconsistent, or a failed verdict replay under `stats` or
`run`), 4 endpoint auth error, 5 endpoint unavailable after its max_retries
retries, or a request it refused (rerun the stage; generate, verify and
annotate write nothing while any item is deferred), 6 file-system error (an
output path that cannot be created or written, say), 7 internal error (any
other exception, reported as one line naming its type and the innermost
frame that raised it). Every file a stage writes is replaced atomically, so
a failed or killed stage leaves the old file or the new one, never a
half-written one.
"""

from __future__ import annotations

import functools
import os
import sys
import traceback

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
from .pipeline import STAGE_FUNCTIONS, STAGE_ORDER, STAGES, RunConfig, run_stages
from . import pipeline

EXIT_EVAL_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_UPSTREAM = 3
EXIT_AUTH = 4
EXIT_UNAVAILABLE = 5
EXIT_FILE = 6
EXIT_INTERNAL = 7


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
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise  # click's own control flow; Exit and Abort are RuntimeErrors
        except Exception as exc:
            message = " ".join(str(exc).split())
            frame = traceback.extract_tb(exc.__traceback__, limit=-1)[0]
            where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
            click.echo(f"internal error: {type(exc).__name__}: {message} (at {where})", err=True)
            sys.exit(EXIT_INTERNAL)

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


def _run(config_path, stages, **params):
    """Run the stages in canonical order and print each one's summary line.

    Exits 3 when the stats stage's verdict replay is inconsistent.
    """
    manifests = run_stages(_build_config(config_path, params), list(stages) or None)
    for manifest in manifests:
        click.echo(STAGE_FUNCTIONS[manifest["stage"]].summary(manifest))
    if any(m.get("replay_ok") is False for m in manifests):
        sys.exit(EXIT_UPSTREAM)


main.command(name="run", help="Run multiple stages in order (default: all).")(
    _common_options(
        click.option("--stage", "stages", multiple=True, type=click.Choice(STAGE_ORDER),
                     help="Stage to run; repeatable.")(_handle_errors(_run))
    )
)

# `figqa <stage>` is `figqa run --stage <stage>`.
for _stage in STAGES:
    main.command(name=_stage.name, help=_stage.run.__doc__.splitlines()[0])(
        _common_options(_handle_errors(functools.partial(_run, stages=[_stage.name])))
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
    summary = pipeline.stage_evaluate(cfg, pipeline.build_endpoints(cfg))
    click.echo(summary["report"])
    if summary["unevaluated"] > cfg.unevaluated_threshold:
        click.echo(
            f"unevaluated items ({summary['unevaluated']}) exceed threshold "
            f"({cfg.unevaluated_threshold})",
            err=True,
        )
        sys.exit(EXIT_EVAL_THRESHOLD)


if __name__ == "__main__":
    main()
