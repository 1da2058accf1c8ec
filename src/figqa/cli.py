"""Command-line interface: `run`, and one subcommand per `pipeline.STAGES` row.

`figqa <stage>` is `figqa run --stage <stage>`: both print each stage's
summary line and share one exit-code map, the EXIT_* codes below. README's
exit-code table says what each code means. Every command holds its output
directory's lock while it runs, so one run directory has one writer.
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
    RunDirectoryLocked,
    SchemaViolation,
    UnscriptedRequest,
    UpstreamInputError,
)
from .dataset import run_directory_lock
from .pipeline import STAGE_FUNCTIONS, STAGES, RunConfig, run_stages

EXIT_EVAL_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_UPSTREAM = 3
EXIT_AUTH = 4
EXIT_UNAVAILABLE = 5
EXIT_FILE = 6
EXIT_INTERNAL = 7
EXIT_LOCKED = 8


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
        except RunDirectoryLocked as exc:
            click.echo(f"output directory locked: {exc}", err=True)
            sys.exit(EXIT_LOCKED)
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
        click.option("--dataset", "eval_dataset", type=click.Path(), default=None,
                     help="Dataset to evaluate (default: annotated, then retained)."),
        click.option("--unevaluated-threshold", type=int, default=None,
                     help="Fail when more than this many items stay unevaluated."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group(help="Generate and verify multiple-choice QA about scientific figures.")
def main():
    pass


def _run(config_path, stages, **params):
    """Run the stages in canonical order and print each one's summary line.

    Exits 3 when the stats stage's verdict replay is inconsistent, and 1 when more items stay
    unevaluated than the threshold allows.
    """
    cfg = _build_config(config_path, params)
    with run_directory_lock(cfg.output):
        manifests = run_stages(cfg, list(stages) or None)
    for manifest in manifests:
        click.echo(STAGE_FUNCTIONS[manifest["stage"]].summary(manifest))
    if any(m.get("replay_ok") is False for m in manifests):
        sys.exit(EXIT_UPSTREAM)
    unevaluated = sum(m.get("unevaluated", 0) for m in manifests)
    if unevaluated > cfg.unevaluated_threshold:
        click.echo(
            f"unevaluated items ({unevaluated}) exceed threshold ({cfg.unevaluated_threshold})",
            err=True,
        )
        sys.exit(EXIT_EVAL_THRESHOLD)


main.command(name="run", help="Run stages in order (default: every stage but evaluate).")(
    _common_options(
        click.option("--stage", "stages", multiple=True, type=click.Choice(tuple(STAGE_FUNCTIONS)),
                     help="Stage to run; repeatable.")(_handle_errors(_run))
    )
)

# `figqa <stage>` is `figqa run --stage <stage>`.
for _stage in STAGES:
    main.command(name=_stage.name, help=_stage.run.__doc__.splitlines()[0])(
        _common_options(_handle_errors(functools.partial(_run, stages=[_stage.name])))
    )


if __name__ == "__main__":
    main()
