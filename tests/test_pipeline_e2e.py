"""Whole-pipeline runs against the scripted three-paper corpus.

These tests drive the installed CLI in subprocesses, the way a user
would, and assert on the artifacts left behind: the retained dataset,
the verdict log, the call ledger, the funnel, and the exit codes.
"""

import hashlib
import json
import os
import resource
import shutil
import socket
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from click.testing import CliRunner

from figqa import pipeline
from figqa.cli import EXIT_LOCKED, main
from figqa.dataset import (
    FIGURE_TYPES,
    QUESTION_TYPES,
    annotate_taxonomy,
    run_directory_lock,
    write_dataset,
)
from figqa.errors import EndpointUnavailable, ImageUnreadable
from figqa.gateway import Endpoint, HttpEndpoint, format_options, render_template, request_digest
from figqa.pipeline import (
    ROLE_DEFAULTS,
    STAGE_ORDER,
    RunConfig,
    build_endpoints,
    stage_annotate,
    stage_generate,
    stage_verify,
)
from figqa.verification import VOTE_COUNT

from e2e_corpus import SEED
from helpers import StubEndpoint, make_record, ok_response
from loopback import Loopback, ScriptAnswers

LETTERS = "ABCD"

BYTE_STABLE_ARTIFACTS = [
    "figure_contexts.jsonl",
    "claims.jsonl",
    "candidates.jsonl",
    "verdict_log.jsonl",
    "retained.jsonl",
    "annotated.jsonl",
    "stats.json",
]

# sha256 of the run's record-bearing artifacts on the scripted corpus. Image
# refs are relative, so these do not depend on where the corpus lives.
# stats.json and the manifests are left out: they carry config_digest.
PINNED_SHA256 = {
    "figure_contexts.jsonl": "887d8246e6f508d263abf25c4333319530eaef5526023e791bf5575eb4b53ebc",
    "claims.jsonl": "b6c121726073b5e9f8cadfe3ab7ce86806e95699f6fcc33c18bd34d67aab9bd5",
    "candidates.jsonl": "7319a148237e8d54f7a1a666237e405a1b586748280d28c00a892bb2da107545",
    "declined.jsonl": "2970bcd4cde5acd313f00cdfc49ed9f17d88371a5146c4b9c429c60f12f82227",
    "verdict_log.jsonl": "b04c1e7502e04259751a73ede9f7aa620420c9c8b9900552f8e57eb63b81d472",
    "retained.jsonl": "ef01e7d327493b2219157d57404727168bcb48481dd21ce0768dc613bdfb2dc2",
    "annotated.jsonl": "04aa1302d8f5533c14659760a44a148efea3aef26a38637d74e092ff6dd99179",
}

# eval_summary.json of `figqa evaluate` after the full run. It carries no
# config_digest, so its bytes are pinned like the record files.
EVAL_SUMMARY_SHA256 = "0bcc9ff3241fbd94d49844918d4692d7dccabd2bc75b07872391e4d42bdfb2dc"

MANIFEST_KEYS = {
    "prepare": {"config_digest", "papers_in", "papers_prepared", "seed", "skipped", "stage"},
    "extract": {"config_digest", "contexts", "discards", "figures_in", "papers", "stage"},
    "generate": {
        "candidates", "claims", "config_digest", "contexts", "declined",
        "duplicate_claim_texts", "inputs", "outputs", "stage",
    },
    "verify": {
        "candidates", "config_digest", "deferred", "discarded", "inputs", "outputs",
        "rejected_by_stage", "retained", "stage",
    },
    "annotate": {
        "config_digest", "deferred_calls", "figure_type_labeled", "inputs", "outputs",
        "question_type_labeled", "records", "stage",
    },
}


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def artifact_digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_SHA256}


def ledger_digests(out: Path) -> Counter:
    return Counter(row["digest"] for row in read_jsonl(out / "mock_calls.jsonl"))


def scripted_call_counter(expect: dict, *phases: str) -> Counter:
    total: Counter = Counter()
    for phase in phases:
        total.update(expect[f"{phase}_digest_counts"])
    return total


@pytest.fixture(scope="module")
def full_run(e2e_bundle, run_cli, tmp_path_factory):
    out = tmp_path_factory.mktemp("full_run")
    config = e2e_bundle.make_config(out)
    proc = run_cli(["run", "--config", str(config)])
    assert proc.returncode == 0, proc.stderr
    return SimpleNamespace(out=out, config=config, proc=proc, expect=e2e_bundle.expectations)


class TestFullRun:
    def test_leaves_no_temp_files(self, full_run):
        assert list(full_run.out.rglob("*.tmp")) == []

    def test_reports_every_stage_and_a_consistent_replay(self, full_run):
        for line in (
            "prepared 3 of 3 papers (0 skipped)",
            "extracted 6 contexts from 6 figures (discards: {})",
            "generated 5 candidates from 6 claims (1 declined)",
            "retained 1 of 5 candidates (rejected: ",
            "annotated 1 records (figure type 1, question type 1)",
            "verdict replay: consistent (5 candidates, 1 retained)",
        ):
            assert line in full_run.proc.stdout
        assert "INCONSISTENT" not in full_run.proc.stdout

    def test_retained_dataset_has_exactly_the_traced_record(self, full_run):
        expect = full_run.expect
        rows = read_jsonl(full_run.out / "retained.jsonl")
        assert len(rows) == 1
        row = rows[0]
        assert row["key"] == expect["retained_key"]
        assert row["question"] == expect["retained_question"]
        assert row["options"][row["correct_index"]] == expect["retained_correct_text"]
        assert LETTERS[row["correct_index"]] == expect["retained_correct_letter"]
        assert row["reasoning"] == expect["retained_reasoning"]
        assert row["arxiv_id"] == expect["retained_key"].split(":")[0]
        assert row["primary_category"] == expect["categories"][row["arxiv_id"]]
        assert row["figure_type"] is None
        assert row["question_type"] is None

    def test_retained_provenance_chains_back_to_the_claim(self, full_run):
        row = read_jsonl(full_run.out / "retained.jsonl")[0]
        prov = row["provenance"]
        assert set(prov) == {"claim_text", "context_digest", "verdict_keys"}
        assert len(prov["verdict_keys"]) == 4
        assert all(k.startswith(row["key"]) for k in prov["verdict_keys"])
        assert len(prov["context_digest"]) == 64

    def test_annotation_adds_labels_without_touching_anything_else(self, full_run):
        expect = full_run.expect
        retained = read_jsonl(full_run.out / "retained.jsonl")[0]
        annotated = read_jsonl(full_run.out / "annotated.jsonl")
        assert len(annotated) == 1
        row = annotated[0]
        assert row["figure_type"] == expect["figure_type"]
        assert row["question_type"] == expect["question_type"]
        stripped = {k: v for k, v in row.items() if k not in ("figure_type", "question_type")}
        base = {k: v for k, v in retained.items() if k not in ("figure_type", "question_type")}
        assert stripped == base

    def test_funnel_counts_and_retention(self, full_run):
        expect = full_run.expect
        stats = json.loads((full_run.out / "stats.json").read_text(encoding="utf-8"))
        funnel = stats["funnel"]
        for name, count in expect["funnel_counts"].items():
            assert funnel[name] == count, name
        assert funnel["retention"] == expect["retention"]
        assert stats["replay"] == {"ok": True, "problems": []}

    def test_each_filter_rejected_exactly_one_candidate(self, full_run):
        manifest = json.loads(
            (full_run.out / "manifest_verify.json").read_text(encoding="utf-8")
        )
        assert manifest["rejected_by_stage"] == full_run.expect["rejected_by_stage"]
        assert manifest["candidates"] == full_run.expect["candidates"]
        assert manifest["retained"] == 1

    def test_verdict_log_is_complete(self, full_run):
        expect = full_run.expect
        rows = read_jsonl(full_run.out / "verdict_log.jsonl")
        assert len(rows) == expect["verdict_lines_total"]
        retained_rows = [r for r in rows if r["candidate_key"] == expect["retained_key"]]
        assert len(retained_rows) == 4
        assert all(r["passed"] for r in retained_rows)

    def test_ledger_is_exactly_the_scripted_traffic(self, full_run):
        expect = full_run.expect
        got = ledger_digests(full_run.out)
        want = scripted_call_counter(expect, "generate", "verify", "annotate")
        assert got == want
        assert sum(got.values()) == (
            expect["generate_calls"] + expect["verify_calls"]
            + sum(expect["annotate_digest_counts"].values())
        )

    def test_no_call_ever_reaches_a_short_circuited_stage(self, full_run):
        got = set(ledger_digests(full_run.out))
        forbidden = set(full_run.expect["forbidden_digests"])
        assert not got & forbidden

    @pytest.mark.parametrize("stage", sorted(MANIFEST_KEYS))
    def test_manifest_has_exactly_its_keys(self, full_run, stage):
        path = full_run.out / f"manifest_{stage}.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert set(manifest) == MANIFEST_KEYS[stage]
        assert manifest["stage"] == stage

    def test_declined_claims_are_recorded_with_reasons(self, full_run):
        declined = read_jsonl(full_run.out / "declined.jsonl")
        got = [{"claim_key": row["claim_key"], "reason": row["reason"]} for row in declined]
        assert got == full_run.expect["declined"]


class TestDeterminism:
    def test_artifacts_match_pinned_digests(self, full_run):
        assert artifact_digests(full_run.out) == PINNED_SHA256

    def test_pooled_generate_matches_pinned_digests(self, e2e_bundle, run_cli, tmp_path):
        config = e2e_bundle.make_config(tmp_path, concurrency=4)
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr
        assert artifact_digests(tmp_path) == PINNED_SHA256

    def test_three_runs_are_byte_identical(self, e2e_bundle, run_cli, tmp_path):
        contents: dict[str, set[bytes]] = {name: set() for name in BYTE_STABLE_ARTIFACTS}
        for i in range(3):
            out = tmp_path / f"run{i}"
            config = e2e_bundle.make_config(out)
            proc = run_cli(["run", "--config", str(config)])
            assert proc.returncode == 0, proc.stderr
            for name in BYTE_STABLE_ARTIFACTS:
                contents[name].add((out / name).read_bytes())
        for name, variants in contents.items():
            assert len(variants) == 1, f"{name} differed across runs"

    @pytest.mark.parametrize("stage", STAGE_ORDER)
    def test_stage_subcommand_equals_run_with_that_stage(
        self, full_run, e2e_bundle, run_cli, tmp_path, stage
    ):
        procs = []
        for args in ([stage], ["run", "--stage", stage]):
            out = tmp_path / args[0]
            shutil.copytree(full_run.out, out)
            # Without its manifest a paid stage runs its body instead of being skipped.
            (out / f"manifest_{stage}.json").unlink(missing_ok=True)
            procs.append(run_cli([*args, "--config", str(e2e_bundle.make_config(out))]))
        single, run = procs
        assert single.returncode == run.returncode == 0, (single.stderr, run.stderr)
        assert single.stdout == run.stdout
        assert single.stdout.strip()

    def test_stage_by_stage_run_equals_single_run(self, full_run, e2e_bundle, run_cli, tmp_path):
        out = tmp_path / "staged"
        config = e2e_bundle.make_config(out)
        for stage in ("prepare", "extract", "generate", "verify", "annotate", "stats"):
            proc = run_cli([stage, "--config", str(config)])
            assert proc.returncode == 0, (stage, proc.stderr)
        for name in BYTE_STABLE_ARTIFACTS:
            assert (out / name).read_bytes() == (full_run.out / name).read_bytes(), name


@pytest.fixture(scope="module")
def crash_resume(e2e_bundle, run_cli, tmp_path_factory):
    expect = e2e_bundle.expectations
    out = tmp_path_factory.mktemp("crash_resume")
    config = e2e_bundle.make_config(out)
    prep = run_cli(
        ["run", "--config", str(config),
         "--stage", "prepare", "--stage", "extract", "--stage", "generate"]
    )
    assert prep.returncode == 0, prep.stderr

    crash = run_cli(
        ["verify", "--config", str(config)],
        crash_after=expect["crash_after"],
    )
    mid_verdicts = read_jsonl(out / "verdict_log.jsonl")
    mid_ledger = read_jsonl(out / "mock_calls.jsonl")

    resume = run_cli(["verify", "--config", str(config)])
    return SimpleNamespace(
        out=out,
        expect=expect,
        crash=crash,
        resume=resume,
        mid_verdicts=mid_verdicts,
        mid_ledger=mid_ledger,
    )


class TestCrashAndResume:
    def test_crash_exits_with_the_dedicated_code(self, crash_resume):
        assert crash_resume.crash.returncode == 70

    def test_progress_before_the_crash_was_fsynced(self, crash_resume):
        expect = crash_resume.expect
        assert len(crash_resume.mid_verdicts) == expect["verdicts_at_crash"]
        verify_rows = [r for r in crash_resume.mid_ledger if r["model"] != "mock-text"
                       or r["digest"] in expect["verify_digest_counts"]]
        assert len(crash_resume.mid_ledger) == (
            expect["generate_calls"] + expect["crash_after"]
        )
        assert verify_rows  # the crash happened mid-verify, not before it

    def test_resume_completes_without_repeating_finished_calls(self, crash_resume):
        expect = crash_resume.expect
        assert crash_resume.resume.returncode == 0, crash_resume.resume.stderr
        final_ledger = read_jsonl(crash_resume.out / "mock_calls.jsonl")
        new_calls = len(final_ledger) - len(crash_resume.mid_ledger)
        assert new_calls == expect["resume_verify_calls"]
        got = Counter(row["digest"] for row in final_ledger)
        assert got == scripted_call_counter(expect, "generate", "verify")

    def test_resumed_output_matches_an_uninterrupted_run(self, crash_resume, full_run):
        for name in ("verdict_log.jsonl", "retained.jsonl"):
            assert (crash_resume.out / name).read_bytes() == (full_run.out / name).read_bytes()
        verdicts = read_jsonl(crash_resume.out / "verdict_log.jsonl")
        assert len(verdicts) == crash_resume.expect["verdict_lines_total"]

    def test_torn_log_tail_is_cut_before_resuming(self, full_run, e2e_bundle, run_cli, tmp_path):
        out = tmp_path / "torn_log"
        shutil.copytree(full_run.out, out)
        config = e2e_bundle.make_config(out)
        log = out / "verdict_log.jsonl"
        log.write_bytes(log.read_bytes()[:-10])  # a crash tore the last append
        for stage in ("verify", "stats"):
            proc = run_cli([stage, "--config", str(config)])
            assert proc.returncode == 0, (stage, proc.stderr)
        assert all(isinstance(row, dict) for row in read_jsonl(log))
        for name in ("verdict_log.jsonl", "retained.jsonl"):
            assert (out / name).read_bytes() == (full_run.out / name).read_bytes(), name


@pytest.fixture(scope="module")
def pooled_crash_resume(e2e_bundle, run_cli, tmp_path_factory):
    """crash_resume at concurrency 4, followed by annotate."""
    expect = e2e_bundle.expectations
    out = tmp_path_factory.mktemp("pooled_crash_resume")
    config = e2e_bundle.make_config(out, concurrency=4)
    prep = run_cli(
        ["run", "--config", str(config),
         "--stage", "prepare", "--stage", "extract", "--stage", "generate"]
    )
    assert prep.returncode == 0, prep.stderr
    crash = run_cli(
        ["verify", "--config", str(config)],
        crash_after=expect["crash_after"],
    )
    mid_ledger = read_jsonl(out / "mock_calls.jsonl")
    resume = run_cli(["verify", "--config", str(config)])
    resumed_ledger = read_jsonl(out / "mock_calls.jsonl")
    annotate = run_cli(["annotate", "--config", str(config)])
    return SimpleNamespace(
        out=out,
        expect=expect,
        procs=(crash, resume, annotate),
        mid_ledger=mid_ledger,
        resumed_ledger=resumed_ledger,
    )


class TestPooledCrashAndResume:
    def test_exit_codes(self, pooled_crash_resume):
        crash, resume, annotate = pooled_crash_resume.procs
        assert crash.returncode == 70, crash.stderr
        assert resume.returncode == 0, resume.stderr
        assert annotate.returncode == 0, annotate.stderr

    def test_artifacts_match_pinned_digests(self, pooled_crash_resume):
        assert artifact_digests(pooled_crash_resume.out) == PINNED_SHA256

    def test_resume_repeats_at_most_the_in_flight_checks(self, pooled_crash_resume):
        expect = pooled_crash_resume.expect
        mid_calls = len(pooled_crash_resume.mid_ledger)
        assert mid_calls == expect["generate_calls"] + expect["crash_after"]
        got = Counter(row["digest"] for row in pooled_crash_resume.resumed_ledger)
        want = scripted_call_counter(expect, "generate", "verify")
        assert not want - got  # every scripted call was made
        repeated = sum((got - want).values())
        # A crash loses the calls of checks whose verdicts were not yet logged:
        # at most one check per worker, and only two candidates reach the votes.
        assert repeated == sum(got.values()) - sum(want.values())
        assert repeated <= 3 * VOTE_COUNT


class TestCrashInEveryPaidStage:
    """Generate, annotate and evaluate each crash at one model call and are rerun.

    The operator reruns the crashed command, then the commands after it.
    Until these stages resume from a log of their own, the rerun repays the
    crashed stage in full: every call it made before the crash is paid again.
    """

    COMMANDS = (*STAGE_ORDER, "evaluate")

    @pytest.mark.parametrize(
        "stage, crash_after",
        # generate extracts claims from 6 contexts before its QA pass, so call 9 is inside it.
        [("generate", 8), ("annotate", 1), ("evaluate", 0)],
        ids=["generate-mid-qa-pass", "annotate-after-first-label", "evaluate-at-first-item"],
    )
    def test_rerun_repays_the_crashed_stage_and_matches_pinned_digests(
        self, full_run, e2e_bundle, run_cli, tmp_path, stage, crash_after
    ):
        out = tmp_path / stage
        shutil.copytree(full_run.out, out)
        config = str(e2e_bundle.make_config(out))
        commands = self.COMMANDS[self.COMMANDS.index(stage):]
        outputs = [name for s in pipeline.STAGES if s.name in commands for name in s.writes]
        outputs += ["eval_summary.json", "eval_report.txt"]
        for name in outputs:
            (out / name).unlink(missing_ok=True)
        (out / "mock_calls.jsonl").write_text("", encoding="utf-8")
        stage_calls = scripted_call_counter(full_run.expect, stage)

        crash = run_cli([stage, "--config", config], crash_after=crash_after)
        assert crash.returncode == 70, crash.stderr
        assert [name for name in outputs if (out / name).exists()] == []
        at_crash = ledger_digests(out)
        assert sum(at_crash.values()) == crash_after
        assert not at_crash - stage_calls

        for command in commands:
            proc = run_cli([command, "--config", config])
            assert proc.returncode == 0, (command, proc.stderr)
            if command == stage:
                assert ledger_digests(out) == at_crash + stage_calls  # repaid in full
        assert artifact_digests(out) == PINNED_SHA256
        summary = (out / "eval_summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == EVAL_SUMMARY_SHA256


def _rewrite_rows(path: Path, edit) -> dict:
    rows = read_jsonl(path)
    edit(rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return {}


def _copied_prompts(prompts: Path, templates) -> Path:
    prompts.mkdir()
    for name, template in templates.items():
        (prompts / f"{name}.txt").write_text(template.body, encoding="utf-8")
    return prompts


def _edited_prompts(out: Path, templates) -> dict:
    prompts = _copied_prompts(out.parent / "prompts", templates)
    (prompts / "claim_extract.txt").write_text(
        templates["claim_extract"].body + "\nBe brief.\n", encoding="utf-8"
    )
    return {"prompts": str(prompts)}


def _redumped_script(out: Path, e2e_bundle) -> dict:
    script = out.parent / "script.json"
    entries = json.loads(e2e_bundle.script_path.read_text(encoding="utf-8"))
    script.write_text(json.dumps(entries, indent=2), encoding="utf-8")  # the bundle's has 1
    return {"mock_script": str(script)}


def _strip_digests(out: Path, stage: str) -> dict:
    path = out / f"manifest_{stage}.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["inputs"], manifest["outputs"]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return {}


def _unlink(out: Path, name: str) -> dict:
    (out / name).unlink()
    return {}


# Each change a paid stage must not be skipped over: (stage, change, outcome).
# change(out, e2e_bundle, templates) edits the finished run in out and returns
# config overrides. "paid" means the stage made every one of its scripted calls
# again; "unscripted" that its changed requests reached the mock script.
RERUN_CAUSES = {
    "edited-input-row": (
        "annotate",
        lambda out, bundle, templates: _rewrite_rows(
            out / "retained.jsonl", lambda rows: rows[0]["provenance"].update(claim_text="Edited.")
        ),
        "paid",
    ),
    "changed-template": (
        "generate", lambda out, bundle, templates: _edited_prompts(out, templates), "unscripted"
    ),
    "changed-seed": ("generate", lambda out, bundle, templates: {"seed": SEED + 1}, "paid"),
    "different-script-bytes": (
        "annotate", lambda out, bundle, templates: _redumped_script(out, bundle), "paid"
    ),
    "edited-output": (
        "generate",
        lambda out, bundle, templates: _rewrite_rows(
            out / "claims.jsonl", lambda rows: rows[0].update(text="An edited claim.")
        ),
        "paid",
    ),
    "deleted-output": (
        "verify", lambda out, bundle, templates: _unlink(out, "verdict_log.jsonl"), "paid"
    ),
    "deleted-manifest": (
        "annotate", lambda out, bundle, templates: _unlink(out, "manifest_annotate.json"), "paid"
    ),
    "manifest-without-digests": (
        "generate", lambda out, bundle, templates: _strip_digests(out, "generate"), "paid"
    ),
    "changed-text-temperature": (
        "generate",
        lambda out, bundle, templates: {"endpoints": {"text": {"temperature": 0.5}}},
        "unscripted",
    ),
}

# Settings that cannot change a request of run's stages or its answer: the eval
# slot's model (evaluate is not one of them) and every slot's timeout.
UNUSED_OR_TRANSPORT_SETTINGS = {
    "endpoints": {
        **{slot: {"timeout": 5.0} for slot in pipeline.ROLE_DEFAULTS},
        "eval": {"model_name": "another-eval-model", "timeout": 5.0},
    }
}


class TestRerunSkip:
    """A paid stage whose config, inputs and outputs match its manifest is not run again."""

    def test_second_run_makes_no_model_call(self, full_run, e2e_bundle, run_cli, tmp_path):
        out = tmp_path / "again"
        shutil.copytree(full_run.out, out)
        ledger = (out / "mock_calls.jsonl").read_bytes()
        proc = run_cli(["run", "--config", str(e2e_bundle.make_config(out))])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == full_run.proc.stdout
        assert (out / "mock_calls.jsonl").read_bytes() == ledger
        assert artifact_digests(out) == PINNED_SHA256

    def test_same_templates_and_script_at_other_paths_are_still_unchanged(
        self, full_run, e2e_bundle, run_cli, tmp_path, templates
    ):
        out = tmp_path / "moved"
        shutil.copytree(full_run.out, out)
        prompts = _copied_prompts(tmp_path / "prompts", templates)
        script = tmp_path / "script.json"
        shutil.copy(e2e_bundle.script_path, script)
        config = e2e_bundle.make_config(out, prompts=str(prompts), mock_script=str(script))
        ledger = (out / "mock_calls.jsonl").read_bytes()
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr
        assert (out / "mock_calls.jsonl").read_bytes() == ledger

    def test_settings_no_stage_request_depends_on_pay_for_nothing(
        self, full_run, e2e_bundle, run_cli, tmp_path, templates
    ):
        out = tmp_path / "retimed"
        shutil.copytree(full_run.out, out)
        ledger = (out / "mock_calls.jsonl").read_bytes()
        # Only evaluate renders the eval template, and evaluate is not one of run's stages.
        prompts = _copied_prompts(tmp_path / "prompts", templates)
        (prompts / "eval_zero_shot.txt").write_text(
            templates["eval_zero_shot"].body + "\nBe brief.\n", encoding="utf-8"
        )
        config = e2e_bundle.make_config(out, prompts=str(prompts), **UNUSED_OR_TRANSPORT_SETTINGS)
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr
        assert (out / "mock_calls.jsonl").read_bytes() == ledger
        assert artifact_digests(out) == PINNED_SHA256

    def test_config_digest_covers_the_seed_and_the_named_slots_request_settings(self, tmp_path):
        def digest(slots, seed=SEED, **endpoints):
            return RunConfig(output=str(tmp_path), seed=seed, endpoints=endpoints).config_digest(
                slots
            )

        text = digest(("text",))
        transport = {"timeout": 5.0, "max_retries": 0, "requests_per_minute": 60,
                     "api_key_env": "TEXT_KEY"}
        assert digest(("text",), text=transport) == text
        assert digest(("text",), vision={"model_name": "v"}, eval={"model_name": "e"}) == text
        assert digest(("text",), annotator_text={"temperature": 0.5}) == text
        for changed in ({"temperature": 0.5}, {"model_name": "m"},
                        {"base_url": "http://127.0.0.1:9/v1"}):
            assert digest(("text",), text=changed) != text, changed
        assert digest(("text",), seed=SEED + 1) != text
        # annotator_text inherits text's model, so its digest follows it.
        assert digest(("annotator_text",), text={"model_name": "m"}) != digest(("annotator_text",))
        assert digest(()) != digest((), seed=SEED + 1)

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_run_after_a_verify_crash_does_not_pay_for_generate_again(
        self, e2e_bundle, run_cli, tmp_path, concurrency
    ):
        expect = e2e_bundle.expectations
        out = tmp_path / "run"
        config = str(e2e_bundle.make_config(out, concurrency=concurrency))
        prep = run_cli(
            ["run", "--config", config, "--stage", "prepare", "--stage", "extract",
             "--stage", "generate"]
        )
        assert prep.returncode == 0, prep.stderr
        crash = run_cli(["verify", "--config", config], crash_after=expect["crash_after"])
        assert crash.returncode == 70, crash.stderr
        at_crash = ledger_digests(out)

        rerun = run_cli(["run", "--config", config])
        assert rerun.returncode == 0, rerun.stderr
        assert "generated 5 candidates from 6 claims (1 declined)" in rerun.stdout
        got = ledger_digests(out)
        generate = scripted_call_counter(expect, "generate")
        assert not (got - at_crash) & generate  # no generate digest was paid twice
        assert Counter({digest: got[digest] for digest in generate}) == generate
        want = scripted_call_counter(expect, "generate", "verify", "annotate")
        if concurrency == 1:
            assert got == want
            new_calls = sum((got - at_crash).values())
            assert new_calls == expect["resume_verify_calls"] + sum(
                expect["annotate_digest_counts"].values()
            )
        else:
            # As in TestPooledCrashAndResume: only checks in flight at the crash repeat.
            assert not want - got
            assert set(got - want) <= set(expect["verify_digest_counts"])
            assert sum((got - want).values()) <= 3 * VOTE_COUNT
        assert artifact_digests(out) == PINNED_SHA256

    @pytest.mark.parametrize("cause", sorted(RERUN_CAUSES))
    def test_change_makes_the_stage_run_again(
        self, full_run, e2e_bundle, run_cli, tmp_path, templates, cause
    ):
        stage, change, outcome = RERUN_CAUSES[cause]
        out = tmp_path / "run"
        shutil.copytree(full_run.out, out)
        overrides = change(out, e2e_bundle, templates)
        before = ledger_digests(out)
        proc = run_cli([stage, "--config", str(e2e_bundle.make_config(out, **overrides))])
        if outcome == "unscripted":
            assert proc.returncode == 2
            assert "no scripted response" in proc.stderr
        else:
            assert proc.returncode == 0, proc.stderr
            assert ledger_digests(out) == before + scripted_call_counter(full_run.expect, stage)
            manifest = json.loads((out / f"manifest_{stage}.json").read_text(encoding="utf-8"))
            assert {"inputs", "outputs"} <= set(manifest)

    def test_stage_runs_again_after_a_deferral(self, full_run, e2e_bundle, tmp_path):
        out = tmp_path / "deferred"
        shutil.copytree(full_run.out, out)
        (out / "verdict_log.jsonl").unlink()
        (out / "mock_calls.jsonl").write_text("", encoding="utf-8")
        manifest = (out / "manifest_verify.json").read_bytes()
        verify = pipeline.STAGE_FUNCTIONS["verify"]
        cfg = RunConfig.from_yaml(e2e_bundle.make_config(out))
        endpoints = build_endpoints(cfg)
        endpoints["vision"] = flaky_votes(endpoints["vision"], full_run.expect["retained_question"])
        with pytest.raises(EndpointUnavailable, match="no verify output written"):
            verify(cfg, endpoints)  # the CLI exits 5 here
        assert (out / "manifest_verify.json").read_bytes() == manifest
        assert verify(cfg, build_endpoints(cfg))["retained"] == 1
        assert ledger_digests(out) == scripted_call_counter(full_run.expect, "verify")
        for name in ("verdict_log.jsonl", "retained.jsonl", "manifest_verify.json"):
            assert (out / name).read_bytes() == (full_run.out / name).read_bytes(), name


class RecordingTemplates(dict):
    """A template mapping that records each name looked up in it."""

    def __init__(self, templates):
        super().__init__(templates)
        self.used: set[str] = set()

    def __getitem__(self, name):
        self.used.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize(
    "stage", [stage for stage in pipeline.STAGES if stage.slots], ids=lambda stage: stage.name
)
def test_paid_body_renders_exactly_its_rows_templates(
    full_run, e2e_bundle, tmp_path, monkeypatch, templates, stage
):
    out = tmp_path / "run"
    shutil.copytree(full_run.out, out)
    (out / "verdict_log.jsonl").unlink()  # so verify asks every filter of the retained candidate
    recording = RecordingTemplates(templates)
    monkeypatch.setattr(pipeline, "load_templates", lambda prompts=None: recording)
    cfg = RunConfig.from_yaml(e2e_bundle.make_config(out))
    with pipeline.open_endpoints(cfg, stage.slots) as endpoints:
        stage.run(cfg, endpoints)
    assert recording.used == set(stage.templates)


def flaky_votes(inner, question: str) -> Endpoint:
    """inner as a vision endpoint whose first vote call for one question fails in transport."""
    failed = False
    lock = threading.Lock()

    def send(request):
        nonlocal failed
        if request.image_ref is not None and question in request.prompt:
            with lock:
                fail, failed = not failed, True
            if fail:
                raise EndpointUnavailable("scripted outage")
        return inner.send(request)

    return Endpoint(inner.config, send)


class LostResponse:
    """A post(body, headers) transport that answers text requests from a mock endpoint.

    It loses its first response to a prompt holding `marker`: the request
    reaches the mock, so the mock ledger records it, and then fails in
    transport.
    """

    def __init__(self, inner, marker: str):
        self.inner = inner
        self.marker = marker
        self.lost = False
        self._lock = threading.Lock()

    def __call__(self, body, headers):
        prompt = json.loads(body)["messages"][0]["content"]
        text, _ = self.inner.complete(prompt)
        if self.marker in prompt:
            with self._lock:
                lose, self.lost = not self.lost, True
            if lose:
                raise ConnectionResetError("response lost")
        reply = ok_response(text)
        return reply.status_code, reply.headers, reply.body


def lossy_http(endpoints: dict, slot: str, marker: str) -> LostResponse:
    """Put slot's mock endpoint behind an HttpEndpoint whose transport loses one response."""
    transport = LostResponse(endpoints[slot], marker)
    endpoints[slot] = HttpEndpoint(endpoints[slot].config, sleep=lambda s: None, post=transport)
    return transport


def unreachable(inner, marker: str) -> Endpoint:
    """inner as an endpoint whose requests holding `marker` fail before they are sent."""

    def send(request):
        if marker in request.prompt:
            raise EndpointUnavailable("scripted outage")
        return inner.send(request)

    return Endpoint(inner.config, send)


def unreadable_images(inner) -> Endpoint:
    """inner as a vision endpoint that cannot read any figure image."""

    def send(request):
        if request.image_ref is not None:
            raise ImageUnreadable(f"cannot read image {request.image_ref}")
        return inner.send(request)

    return Endpoint(inner.config, send)


class TestTransportRounds:
    """The endpoint retries a request lost in transport, and only that request.

    An item whose request still fails is deferred: the stage writes nothing,
    and the next round, a rerun of the stage, completes it.
    """

    @staticmethod
    def _stage_config(full_run, e2e_bundle, out: Path, concurrency: int, *inputs: str):
        out.mkdir(exist_ok=True)
        for name in inputs:
            shutil.copy(full_run.out / name, out / name)
        cfg = RunConfig.from_yaml(e2e_bundle.make_config(out, concurrency=concurrency))
        return cfg, build_endpoints(cfg)

    @classmethod
    def _verify_with_a_failed_vote(cls, full_run, e2e_bundle, out: Path, concurrency: int):
        cfg, endpoints = cls._stage_config(
            full_run, e2e_bundle, out, concurrency, "candidates.jsonl", "figure_contexts.jsonl"
        )
        question = full_run.expect["retained_question"]
        endpoints["vision"] = flaky_votes(endpoints["vision"], question)
        with pytest.raises(EndpointUnavailable) as exc:
            stage_verify(cfg, endpoints)
        assert f"1 of {full_run.expect['candidates']} candidates deferred" in str(exc.value)

    def test_context_whose_call_failed_is_generated_in_a_later_round(
        self, full_run, e2e_bundle, tmp_path
    ):
        contexts = read_jsonl(full_run.out / "figure_contexts.jsonl")
        for concurrency in (1, 4):
            out = tmp_path / f"c{concurrency}"
            cfg, endpoints = self._stage_config(
                full_run, e2e_bundle, out, concurrency, "figure_contexts.jsonl"
            )
            endpoints["text"] = unreachable(endpoints["text"], contexts[0]["context"])
            with pytest.raises(EndpointUnavailable) as exc:
                stage_generate(cfg, endpoints)
            assert f"1 of {len(contexts)} contexts deferred" in str(exc.value)
            assert not (out / "manifest_generate.json").exists()
            cfg, endpoints = self._stage_config(full_run, e2e_bundle, out, concurrency)
            stage_generate(cfg, endpoints)
            for name in ("claims.jsonl", "candidates.jsonl", "declined.jsonl"):
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == PINNED_SHA256[name]

    @staticmethod
    def _second_qa_request(full_run, cfg, templates) -> tuple[str, str]:
        """The text of the second claim of 2401.00001:f0 and the digest of its QA request."""
        figure = ("2401.00001", 0)
        claim = [
            row for row in read_jsonl(full_run.out / "claims.jsonl")
            if (row["arxiv_id"], row["figure_index"]) == figure
        ][1]
        (ctx,) = [
            row for row in read_jsonl(full_run.out / "figure_contexts.jsonl")
            if (row["arxiv_id"], row["figure_index"]) == figure
        ]
        prompt = render_template(
            templates["qa_generate"],
            {"claim": claim["text"], "caption": ctx["caption"], "context": ctx["context"]},
        )
        return claim["text"], request_digest(cfg.endpoint_config("text"), prompt)

    def test_lost_qa_response_is_the_only_request_paid_again(
        self, full_run, e2e_bundle, tmp_path, templates
    ):
        for concurrency in (1, 4):
            out = tmp_path / f"c{concurrency}"
            cfg, endpoints = self._stage_config(
                full_run, e2e_bundle, out, concurrency, "figure_contexts.jsonl"
            )
            claim_text, digest = self._second_qa_request(full_run, cfg, templates)
            transport = lossy_http(endpoints, "text", claim_text)
            stage_generate(cfg, endpoints)
            assert transport.lost
            got = ledger_digests(out)
            assert got == scripted_call_counter(full_run.expect, "generate") + Counter({digest: 1})
            assert sum(got.values()) == full_run.expect["generate_calls"] + 1
            for name in ("claims.jsonl", "candidates.jsonl", "declined.jsonl"):
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == PINNED_SHA256[name]

    def test_claim_failing_every_round_leaves_generate_unwritten(
        self, full_run, e2e_bundle, tmp_path, templates
    ):
        for concurrency in (1, 4):
            out = tmp_path / f"c{concurrency}"
            cfg, endpoints = self._stage_config(
                full_run, e2e_bundle, out, concurrency, "figure_contexts.jsonl"
            )
            claim_text, digest = self._second_qa_request(full_run, cfg, templates)
            endpoints["text"] = unreachable(endpoints["text"], claim_text)
            with pytest.raises(EndpointUnavailable) as exc:
                stage_generate(cfg, endpoints)
            assert f"1 of {full_run.expect['claims']} claims deferred" in str(exc.value)
            for name in ("claims.jsonl", "candidates.jsonl", "declined.jsonl",
                         "manifest_generate.json"):
                assert not (out / name).exists(), name
            # Every other request, the context's claim extraction included, was paid once.
            want = scripted_call_counter(full_run.expect, "generate") - Counter({digest: 1})
            assert ledger_digests(out) == want

    def test_label_whose_call_failed_is_the_only_one_paid_again(
        self, full_run, e2e_bundle, tmp_path
    ):
        question = full_run.expect["retained_question"]
        for concurrency in (1, 4):
            out = tmp_path / f"c{concurrency}"
            cfg, endpoints = self._stage_config(
                full_run, e2e_bundle, out, concurrency, "retained.jsonl"
            )
            transport = lossy_http(endpoints, "annotator_text", question)
            manifest = stage_annotate(cfg, endpoints)
            assert transport.lost
            assert manifest["question_type_labeled"] == manifest["figure_type_labeled"] == 1
            assert (out / "annotated.jsonl").read_bytes() == (
                full_run.out / "annotated.jsonl"
            ).read_bytes()
            got = ledger_digests(out)
            want = scripted_call_counter(full_run.expect, "annotate")
            (repeated,) = [digest for digest, count in got.items() if count > 1]
            assert got == want + Counter({repeated: 1})
            rows = read_jsonl(out / "mock_calls.jsonl")
            assert {row["model"] for row in rows if row["digest"] == repeated} == {
                "mock-annotator-text"
            }

    def test_deferred_candidate_is_retained_in_the_next_round(self, full_run, e2e_bundle, tmp_path):
        for concurrency in (1, 4):
            out = tmp_path / f"c{concurrency}"
            self._verify_with_a_failed_vote(full_run, e2e_bundle, out, concurrency)
            cfg, endpoints = self._stage_config(full_run, e2e_bundle, out, concurrency)
            manifest = stage_verify(cfg, endpoints)
            assert manifest["deferred"] == 0
            assert manifest["retained"] == 1
            # The rerun resumed from the log: across both rounds, every verify
            # request was paid once (the failed vote never reached the mock).
            assert ledger_digests(out) == scripted_call_counter(full_run.expect, "verify")
            # The deferred candidate sorts first, so its round-2 verdicts were
            # appended last; the log is left in (candidate, cascade) order.
            for name in ("verdict_log.jsonl", "retained.jsonl"):
                assert (out / name).read_bytes() == (full_run.out / name).read_bytes(), name

    def test_candidate_failing_every_round_stays_deferred(self, full_run, e2e_bundle, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(full_run.out / "retained.jsonl", out / "retained.jsonl")
        # One failed vote request defers its candidate: the runner calls no item twice.
        self._verify_with_a_failed_vote(full_run, e2e_bundle, out, 4)
        # No verify output is written: retained.jsonl keeps its old bytes.
        retained = (full_run.out / "retained.jsonl").read_bytes()
        assert (out / "retained.jsonl").read_bytes() == retained
        assert not (out / "verify_discards.jsonl").exists()
        assert not (out / "manifest_verify.json").exists()
        # retained == 0: the deferred candidate is the one the full run
        # retained, and it never reached a VisionConsistency verdict.
        (deferred_key,) = [row["key"] for row in read_jsonl(full_run.out / "retained.jsonl")]
        log = read_jsonl(out / "verdict_log.jsonl")
        deferred_filters = [r["filter"] for r in log if r["candidate_key"] == deferred_key]
        assert "VisionConsistency" not in deferred_filters
        # The other candidates' cascades finished, with the full run's verdicts.
        full_log = read_jsonl(full_run.out / "verdict_log.jsonl")
        others = [r for r in full_log if r["candidate_key"] != deferred_key]
        assert [r for r in log if r["candidate_key"] != deferred_key] == others


# Hand-made retained records: the (figure_image_ref, caption) of each of three.
FIGURE_SETS = {
    # Two figures; the first has two records.
    "two-figures": [("images/a.png", "Loss over training."), ("images/a.png", "Loss over training."),
                    ("images/b.png", "Accuracy per model.")],
    # One image under two captions: two figures.
    "shared-image": [("images/c.png", "Left: loss."), ("images/c.png", "Left: loss."),
                     ("images/c.png", "Right: accuracy.")],
    # One caption on two images: two figures.
    "shared-caption": [("images/d.png", "Results."), ("images/d.png", "Results."),
                       ("images/e.png", "Results.")],
}
QUESTIONS = ("Which run converges first?", "Where does the loss plateau?", "Which model wins?")


def _pure_label(vocabulary):
    """A handler answering each (prompt, image) with a fixed category of vocabulary."""
    def answer(prompt: str, image_ref: str | None) -> str:
        digest = hashlib.sha256(f"{image_ref}\x1f{prompt}".encode("utf-8")).digest()
        return vocabulary[digest[0] % len(vocabulary)]

    return answer


def _pure_annotators() -> dict:
    return {
        "annotator_vision": StubEndpoint("vision", handler=_pure_label(FIGURE_TYPES)),
        "annotator_text": StubEndpoint("text", handler=_pure_label(QUESTION_TYPES)),
    }


DISCARD_SOURCES = {
    "2500.00001": r"""\documentclass{article}
\begin{document}

As \ref{fig:loss} shows, the loss flattens late in training.

\begin{figure}
\includegraphics{images/a.png}
\caption{Training loss curves.}
\label{fig:loss}
\end{figure}

\end{document}
""",
    "2500.00002": r"""\documentclass{article}
\begin{document}
No figures here.
\end{document}
""",
}
# The first paper has a figure that binds, an empty caption and a caption no environment
# holds; the second has only a blank caption.
DISCARD_CORPUS = [
    ("2500.00001", 0, "Training loss curves."),
    ("2500.00001", 1, ""),
    ("2500.00001", 2, "Throughput of every model on each cluster size."),
    ("2500.00002", 0, "   "),
]


class TestExtractDiscards:
    """Extract writes a discards.jsonl row for each figure it cannot bind; stats counts them."""

    def test_unbound_figures_are_written_counted_and_conserved(self, tmp_path, templates):
        latex = tmp_path / "latex"
        latex.mkdir()
        for arxiv_id, source in DISCARD_SOURCES.items():
            (latex / f"{arxiv_id}.tex").write_text(source, encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"arxiv_id": arxiv_id, "primary_category": "cs.LG", "figure_index": index,
                        "image": f"images/{arxiv_id}_{index}.png", "caption": caption}) + "\n"
            for arxiv_id, index, caption in DISCARD_CORPUS
        ), encoding="utf-8")
        script = tmp_path / "script.json"
        cfg = RunConfig(output=str(tmp_path / "run"), corpus=str(corpus), latex_cache=str(latex),
                        mock_script=str(script))
        pipeline.run_stages(cfg, ["prepare", "extract"])

        out = Path(cfg.output)
        discards = read_jsonl(out / "discards.jsonl")
        assert sorted(discards, key=lambda d: (d["arxiv_id"], d["figure_index"])) == [
            {"arxiv_id": "2500.00001", "figure_index": 1, "kind": "EmptyCaption",
             "detail": "empty corpus caption"},
            {"arxiv_id": "2500.00001", "figure_index": 2, "kind": "NoEnvironmentMatch",
             "detail": "best similarity 0.234 below threshold 0.9"},
            {"arxiv_id": "2500.00002", "figure_index": 0, "kind": "EmptyCaption",
             "detail": "empty corpus caption"},
        ]
        contexts = read_jsonl(out / "figure_contexts.jsonl")
        assert [(c["arxiv_id"], c["figure_index"]) for c in contexts] == [("2500.00001", 0)]
        manifest = json.loads((out / "manifest_extract.json").read_text(encoding="utf-8"))
        assert manifest["discards"] == {"EmptyCaption": 2, "NoEnvironmentMatch": 1}
        assert (manifest["figures_in"], manifest["contexts"]) == (4, 1)
        for arxiv_id in DISCARD_SOURCES:
            bound = sum(c["arxiv_id"] == arxiv_id for c in contexts)
            unbound = sum(d["arxiv_id"] == arxiv_id for d in discards)
            assert bound + unbound == sum(row[0] == arxiv_id for row in DISCARD_CORPUS)

        # The one bound figure yields no claim, so the paid stages ask nothing more.
        (context,) = contexts
        prompt = render_template(
            templates["claim_extract"], {"context": context["context"], "label": context["label"]}
        )
        script.write_text(
            json.dumps({request_digest(cfg.endpoint_config("text"), prompt): "None"}),
            encoding="utf-8",
        )
        pipeline.run_stages(cfg, ["generate", "verify", "annotate", "stats"])
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert stats["extraction_discards"] == manifest["discards"]
        assert stats["funnel"] is None


class TestAnnotateLabelsEachFigureOnce:
    """Annotate asks one figure-type request per (figure_image_ref, caption) and
    one question-type request per record, and copies a figure's type to each of
    its records."""

    @staticmethod
    def _retained(out: Path, name: str = "two-figures") -> list:
        out.mkdir(parents=True, exist_ok=True)
        records = [
            make_record(key=f"2000.00001:f0:c{i}", figure_image_ref=image, caption=caption,
                        question=question)
            for i, ((image, caption), question) in enumerate(zip(FIGURE_SETS[name], QUESTIONS))
        ]
        write_dataset(records, out / "retained.jsonl")
        return records

    def test_one_figure_type_request_per_figure_and_one_question_type_per_record(
        self, tmp_path
    ):
        for concurrency in (1, 4):
            out = tmp_path / f"c{concurrency}"
            self._retained(out)
            endpoints = _pure_annotators()
            cfg = RunConfig(output=str(out), concurrency=concurrency)
            manifest = stage_annotate(cfg, endpoints)
            figure_calls = endpoints["annotator_vision"].calls
            assert sorted(image for _, image in figure_calls) == ["images/a.png", "images/b.png"]
            assert len(endpoints["annotator_text"].calls) == 3
            assert manifest["figure_type_labeled"] == manifest["question_type_labeled"] == 3

    @pytest.mark.parametrize("name", sorted(FIGURE_SETS))
    def test_annotated_equals_labeling_every_record_on_its_own(self, tmp_path, templates, name):
        out = tmp_path / "run"
        records = self._retained(out, name)
        endpoints = _pure_annotators()
        stage_annotate(RunConfig(output=str(out)), endpoints)
        # The oracle labels each record by itself, with the same pure endpoints.
        oracle = _pure_annotators()
        for record in records:
            record.figure_type = annotate_taxonomy(
                record, "figure_type", oracle["annotator_vision"], templates
            )
            record.question_type = annotate_taxonomy(
                record, "question_type", oracle["annotator_text"], templates
            )
        write_dataset(records, tmp_path / "oracle.jsonl")
        assert (out / "annotated.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
        # The same labels, minus each figure's repeated figure-type request.
        oracle_figure_calls = oracle["annotator_vision"].calls
        assert endpoints["annotator_vision"].calls == list(dict.fromkeys(oracle_figure_calls))
        assert endpoints["annotator_text"].calls == oracle["annotator_text"].calls

    def test_records_of_one_figure_get_its_first_scripted_answer(self, tmp_path, templates):
        out = tmp_path / "run"
        records = self._retained(out)
        script = tmp_path / "script.json"
        cfg = RunConfig(output=str(out), mock_script=str(script))
        vision = cfg.endpoint_config("annotator_vision")
        text = cfg.endpoint_config("annotator_text")
        entries = {}
        for record, figure_answers in zip(records, (["Bar Chart", "Heatmap"], None, "Line Plot")):
            if figure_answers is not None:
                caption = {"caption": record.caption}
                prompt = render_template(templates["figure_type_label"], caption)
                entries[request_digest(vision, prompt, record.figure_image_ref)] = figure_answers
            prompt = render_template(
                templates["question_type_label"],
                {"question": record.question, "options": format_options(record.options)},
            )
            entries[request_digest(text, prompt)] = "Descriptive"
        script.write_text(json.dumps(entries), encoding="utf-8")
        with pipeline.open_endpoints(cfg, ("annotator_text", "annotator_vision")) as endpoints:
            stage_annotate(cfg, endpoints)
        rows = read_jsonl(out / "annotated.jsonl")
        assert [row["figure_type"] for row in rows] == ["Bar Chart", "Bar Chart", "Line Plot"]
        assert [row["question_type"] for row in rows] == ["Descriptive"] * 3
        assert sum(ledger_digests(out).values()) == 5

    def test_off_vocabulary_figure_costs_two_requests_and_leaves_its_records_unlabeled(
        self, tmp_path, caplog
    ):
        out = tmp_path / "run"
        self._retained(out)
        endpoints = _pure_annotators()
        label = endpoints["annotator_vision"].handler
        endpoints["annotator_vision"].handler = lambda prompt, image: (
            "A sketch" if image == "images/a.png" else label(prompt, image)
        )
        with caplog.at_level("WARNING", logger="figqa"):
            manifest = stage_annotate(RunConfig(output=str(out)), endpoints)
        images = [image for _, image in endpoints["annotator_vision"].calls]
        assert sorted(images) == ["images/a.png", "images/a.png", "images/b.png"]
        rows = read_jsonl(out / "annotated.jsonl")
        assert [row["figure_type"] is None for row in rows] == [True, True, False]
        assert manifest["figure_type_labeled"] == 1
        assert [r.getMessage() for r in caplog.records] == [
            "figure images/a.png left unlabeled for figure_type: 2 of its records stay unlabeled"
        ]

    def test_off_vocabulary_question_type_costs_two_requests_and_leaves_its_record_unlabeled(
        self, tmp_path, caplog
    ):
        out = tmp_path / "run"
        self._retained(out)
        endpoints = _pure_annotators()
        label = endpoints["annotator_text"].handler
        endpoints["annotator_text"].handler = lambda prompt, image: (
            "A riddle" if QUESTIONS[0] in prompt else label(prompt, image)
        )
        with caplog.at_level("WARNING", logger="figqa"):
            manifest = stage_annotate(RunConfig(output=str(out)), endpoints)
        asked = [QUESTIONS[0] in prompt for prompt, _ in endpoints["annotator_text"].calls]
        assert sorted(asked) == [False, False, True, True]
        rows = read_jsonl(out / "annotated.jsonl")
        assert [row["question_type"] is None for row in rows] == [True, False, False]
        assert [row["figure_type"] is None for row in rows] == [False] * 3
        assert manifest["question_type_labeled"] == 2
        assert [r.getMessage() for r in caplog.records] == [
            "record 2000.00001:f0:c0 left unlabeled for question_type"
        ]

    def test_failing_figure_item_exits_5_and_writes_nothing(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        records = self._retained(out)
        endpoints = _pure_annotators()
        vision = endpoints["annotator_vision"]
        endpoints["annotator_vision"] = unreachable(vision, records[0].caption)
        monkeypatch.setattr(pipeline, "build_endpoints", lambda cfg, slots: endpoints)
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"output": str(out)}), encoding="utf-8")
        result = CliRunner().invoke(main, ["annotate", "--config", str(config)])
        assert result.exit_code == 5, result.output
        assert "1 of 5 labels deferred; no annotate output written" in result.stderr
        assert not (out / "annotated.jsonl").exists()
        assert not (out / "manifest_annotate.json").exists()
        assert len(endpoints["annotator_text"].calls) == 3


@pytest.fixture(scope="module")
def eval_dir(e2e_bundle, run_cli, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval_run")
    config = e2e_bundle.make_config(out)
    proc = run_cli(["run", "--config", str(config)])
    assert proc.returncode == 0, proc.stderr
    return SimpleNamespace(out=out, config=config)


class TestEvaluateCommand:
    def test_scores_the_annotated_dataset(self, eval_dir, run_cli, e2e_bundle):
        proc = run_cli(["evaluate", "--config", str(eval_dir.config)])
        assert proc.returncode == 0, proc.stderr
        assert "Model: mock-eval" in proc.stdout
        assert "Overall: 1/1 = 100.00%" in proc.stdout
        assert "Unevaluated: 0" in proc.stdout
        expect = e2e_bundle.expectations
        assert expect["figure_type"] in proc.stdout
        assert expect["question_type"] in proc.stdout

    def test_summary_bytes_are_pinned(self, eval_dir, run_cli):
        proc = run_cli(["evaluate", "--config", str(eval_dir.config)])
        assert proc.returncode == 0, proc.stderr
        summary = (eval_dir.out / "eval_summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == EVAL_SUMMARY_SHA256

    def test_dataset_option_scores_the_given_file(self, eval_dir, run_cli, tmp_path):
        dataset = tmp_path / "elsewhere.jsonl"
        shutil.copy(eval_dir.out / "retained.jsonl", dataset)
        out = tmp_path / "out"
        proc = run_cli(
            ["evaluate", "--config", str(eval_dir.config), "--output", str(out),
             "--dataset", str(dataset)]
        )
        assert proc.returncode == 0, proc.stderr
        assert "Overall: 1/1 = 100.00%" in proc.stdout
        assert "unlabeled" in proc.stdout  # retained.jsonl carries no labels
        summary = json.loads((out / "eval_summary.json").read_text(encoding="utf-8"))
        assert [row["key"] for row in summary["per_item"]] == [
            row["key"] for row in read_jsonl(dataset)
        ]

    def test_dataset_option_naming_a_missing_file_is_an_input_error(
        self, eval_dir, run_cli, tmp_path
    ):
        missing = tmp_path / "nope.jsonl"
        proc = run_cli(["evaluate", "--config", str(eval_dir.config), "--dataset", str(missing)])
        assert proc.returncode == 3
        assert proc.stderr == f"input error: evaluation dataset not found: {missing}\n"

    def test_threshold_gate_fails_the_run(self, eval_dir, e2e_bundle, run_cli, tmp_path):
        # Image refs are relative to the corpus root; the copy names each image absolutely.
        rows = read_jsonl(eval_dir.out / "annotated.jsonl")
        for row in rows:
            row["figure_image_ref"] = str(e2e_bundle.root / row["figure_image_ref"])
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        # A local port that is bound but not listening refuses the one request,
        # so the item stays unevaluated, above the default threshold 0.
        with socket.socket() as refusing:
            refusing.bind(("127.0.0.1", 0))
            eval_slot = {
                "base_url": f"http://127.0.0.1:{refusing.getsockname()[1]}/v1",
                "model_name": "m", "max_retries": 0,
            }
            config = tmp_path / "live.yaml"
            config.write_text(yaml.safe_dump({
                "output": str(tmp_path / "out"), "eval_dataset": str(dataset),
                "endpoints": {"eval": eval_slot},
            }))
            proc = run_cli(["evaluate", "--config", str(config)])
        assert proc.returncode == 1
        assert "Unevaluated: 1" in proc.stdout
        assert "exceed threshold" in proc.stderr


def _set(rows_name: str, index: int, field: str, value):
    def edit(files):
        files[rows_name][index][field] = value
    return edit


# One corrupting edit of the full run's verdict log or retained dataset per
# replay check, and the problem it must raise. Log rows 0-3 are the retained
# candidate's four verdicts, row 4 is the SourceConsistency rejection, and
# rows 8-11 are the candidate that reached the votes and tied.
REPLAY_EDITS = {
    "duplicate-verdict": (lambda f: f["log"].append(dict(f["log"][4])), "duplicate verdict for"),
    "unknown-filter": (_set("log", 4, "filter", "NoSuchFilter"), "unknown filter names"),
    "non-prefix-cascade": (lambda f: f["log"].pop(9), "are not a cascade prefix"),
    "failed-then-later": (
        _set("log", 8, "passed", False),
        "SourceConsistency failed but a later filter was still recorded",
    ),
    "duplicate-retained-key": (
        lambda f: f["retained"].append(dict(f["retained"][0])),
        "retained dataset contains duplicate keys",
    ),
    "retained-without-full-chain": (
        _set("log", 3, "passed", False), "retained without a fully passing verdict chain"
    ),
    "vote-count": (_set("log", 3, "selections", ["C", "C"]), "vision verdict has 2 selections"),
    "majority-not-correct-letter": (
        _set("retained", 0, "correct_index", 1), "majority 'C' != correct letter 'B'"
    ),
    "majority-without-two-votes": (
        _set("log", 3, "selections", ["C", "A", "None"]), "majority 'C' lacks two votes"
    ),
    "agreeing-index": (
        _set("log", 3, "agreeing_run_index", 2), "agreeing_run_index 2 does not match majority"
    ),
    "reasoning-missing": (_set("log", 3, "reasoning", None), "retained without stored reasoning"),
    "reasoning-differs": (
        _set("retained", 0, "reasoning", "Edited."),
        "record reasoning differs from agreeing vote response",
    ),
    "retained-without-vision-verdict": (
        lambda f: f["log"].pop(3), "retained without a fully passing verdict chain"
    ),
    "short-votes-with-index-past-them": (
        lambda f: f["log"][3].update(selections=["C", "C"], agreeing_run_index=2),
        "vision verdict has 2 selections",
    ),
    "failed-then-one-later": (
        _set("log", 2, "passed", False),
        "VisualDependenceVision failed but a later filter was still recorded",
    ),
}


class TestLiveRunOverLoopback:
    """`figqa run` and `evaluate` against a live endpoint that answers from the mock script."""

    KEY = "sk-loopback-0123456789abcdef"

    @pytest.mark.parametrize(
        "replies, faults",
        [((), 0), (("ok", "drop", "ok", "unavailable"), 2)],
        ids=["clean", "dropped-keep-alive-and-503"],
    )
    def test_outputs_equal_the_mock_run(
        self, full_run, e2e_bundle, tmp_path, monkeypatch, replies, faults
    ):
        # The second post finds the first one's connection dropped and is sent
        # again; a later post is answered 503 with Retry-After: 0 and retried.
        monkeypatch.chdir(e2e_bundle.root)  # image refs are relative to the corpus root
        monkeypatch.setenv("FIGQA_E2E_KEY", self.KEY)
        answers = ScriptAnswers(e2e_bundle.script_path, e2e_bundle.root)
        out = tmp_path / "live"
        with Loopback(replies, answer=answers) as server:
            slots = {name: {"model_name": row["model_name"]} for name, row in ROLE_DEFAULTS.items()}
            for name in ("text", "vision"):
                slots[name].update(base_url=server.base_url, api_key_env="FIGQA_E2E_KEY")
            config = e2e_bundle.make_config(out, mock_script=None, endpoints=slots)
            for command in ("run", "evaluate"):
                result = CliRunner().invoke(main, [command, "--config", str(config)])
                assert result.exit_code == 0, result.output
        assert server.errors == []
        assert artifact_digests(out) == PINNED_SHA256
        summary = (out / "eval_summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == EVAL_SUMMARY_SHA256
        log = (out / "verdict_log.jsonl").read_bytes()
        assert log == (full_run.out / "verdict_log.jsonl").read_bytes()

        phases = ("generate", "verify", "annotate", "evaluate")
        expected = scripted_call_counter(full_run.expect, *phases)
        assert Counter(row["digest"] for row in answers.calls) == expected
        assert len(server.received) == len(answers.calls) + faults
        authorizations = {r["headers"].get("Authorization") for r in server.received}
        assert authorizations == {f"Bearer {self.KEY}"}
        for path in out.rglob("*"):
            if path.is_file():
                assert self.KEY.encode() not in path.read_bytes(), path


class TestOneWriterPerRunDirectory:
    @pytest.mark.parametrize("command", ["run", "generate", "evaluate"])
    def test_a_command_on_a_locked_directory_exits_8_naming_the_holder(
        self, e2e_bundle, tmp_path, command
    ):
        out = tmp_path / "out"
        config = e2e_bundle.make_config(out)
        with run_directory_lock(out):
            result = CliRunner().invoke(main, [command, "--config", str(config)])
        assert result.exit_code == EXIT_LOCKED == 8, result.output
        assert result.stderr == (
            f"output directory locked: {out} is in use by another figqa process "
            f"(pid {os.getpid()})\n"
        )
        assert not (out / "mock_calls.jsonl").exists()
        # The lock ends with the command that held it.
        result = CliRunner().invoke(main, ["prepare", "--config", str(config)])
        assert result.exit_code == 0, result.output

    def test_a_second_process_pays_for_no_call(self, e2e_bundle, run_cli, tmp_path):
        out = tmp_path / "out"
        config = e2e_bundle.make_config(out)
        with run_directory_lock(out):
            proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 8, proc.stderr
        assert f"(pid {os.getpid()})" in proc.stderr
        assert not (out / "mock_calls.jsonl").exists()
        assert not (out / "papers_clean.jsonl").exists()


class TestReplayChecks:
    @pytest.mark.parametrize("case", sorted(REPLAY_EDITS))
    def test_each_check_names_its_problem_under_stats(self, full_run, e2e_bundle, tmp_path, case):
        edit, problem = REPLAY_EDITS[case]
        out = tmp_path / case
        shutil.copytree(full_run.out, out)
        paths = {"log": out / "verdict_log.jsonl", "retained": out / "retained.jsonl"}
        files = {name: read_jsonl(path) for name, path in paths.items()}
        assert files["log"][3]["filter"] == "VisionConsistency"
        assert files["log"][3]["majority"] == "C" and files["retained"][0]["correct_index"] == 2
        edit(files)
        for name, path in paths.items():
            path.write_text("".join(json.dumps(r) + "\n" for r in files[name]), encoding="utf-8")
        pipeline.stage_stats(RunConfig.from_yaml(e2e_bundle.make_config(out)))
        replay = json.loads((out / "stats.json").read_text(encoding="utf-8"))["replay"]
        assert replay["ok"] is False
        assert any(problem in p for p in replay["problems"]), replay["problems"]

    def test_stats_parses_the_log_and_the_dataset_once_each(
        self, full_run, e2e_bundle, tmp_path, monkeypatch
    ):
        out = tmp_path / "once"
        shutil.copytree(full_run.out, out)
        reads = Counter()
        read_jsonl = pipeline.ds.read_jsonl

        def counting(path, *args, **kwargs):
            reads[Path(path).name] += 1
            return read_jsonl(path, *args, **kwargs)

        # Patched in every figqa module that binds the reader, so a call through any is counted.
        for name, module in list(sys.modules.items()):
            if name.startswith("figqa") and vars(module).get("read_jsonl") is read_jsonl:
                monkeypatch.setattr(module, "read_jsonl", counting)
        manifest = pipeline.stage_stats(RunConfig.from_yaml(e2e_bundle.make_config(out)))
        assert manifest["replay_ok"] is True
        assert (reads["verdict_log.jsonl"], reads["retained.jsonl"]) == (1, 1)


class TestExitCodes:
    def test_unknown_config_key(self, run_cli, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"output": str(tmp_path), "bogus": 1}))
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 2
        assert "unknown config keys" in proc.stderr

    def test_missing_output_key(self, run_cli, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"seed": 1}))
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 2
        assert "output" in proc.stderr

    def test_output_option_completes_a_config_without_output(
        self, full_run, e2e_bundle, run_cli, tmp_path
    ):
        out = tmp_path / "run"
        shutil.copytree(full_run.out, out)
        data = yaml.safe_load(e2e_bundle.make_config(tmp_path / "unused").read_text())
        del data["output"]
        config = tmp_path / "no_output.yaml"
        config.write_text(yaml.safe_dump(data))
        proc = run_cli(["stats", "--config", str(config), "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "verdict replay: consistent" in proc.stdout

    def test_cli_runs_from_another_directory(self, full_run, e2e_bundle, run_cli, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(full_run.out, out)
        proc = run_cli(["stats", "--config", str(e2e_bundle.make_config(out))], cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "verdict replay: consistent" in proc.stdout

    def test_output_under_a_regular_file_is_a_file_error(self, e2e_bundle, run_cli, tmp_path):
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory", encoding="utf-8")
        config = e2e_bundle.make_config(tmp_path / "unused")
        proc = run_cli(["prepare", "--config", str(config), "--output", str(blocker / "sub")])
        assert proc.returncode == 6
        assert "file error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_duplicate_candidate_is_an_input_error(self, full_run, e2e_bundle, run_cli, tmp_path):
        out = tmp_path / "duplicate"
        shutil.copytree(full_run.out, out)
        config = e2e_bundle.make_config(out, concurrency=4)
        path = out / "candidates.jsonl"
        path.write_text(path.read_text() + path.read_text().splitlines(keepends=True)[0])
        proc = run_cli(["verify", "--config", str(config)])
        assert proc.returncode == 3
        assert "appears twice" in proc.stderr

    @pytest.mark.parametrize(
        "field, change",
        [
            ("options", lambda options: [options[0], *options[:3]]),
            ("options", lambda options: options[:3]),
            ("options", lambda options: options[:1]),
            ("question", lambda _: " \t "),
            ("correct_index", lambda _: 4),
        ],
        ids=["duplicate-options", "three-options", "one-option", "blank-question", "index-4"],
    )
    @pytest.mark.parametrize("command", ["verify", "stats"])
    def test_candidate_that_is_not_a_valid_question_is_an_input_error(
        self, full_run, e2e_bundle, run_cli, tmp_path, field, change, command
    ):
        """Stats counts the candidates verify would run, so it refuses what verify refuses."""
        out = tmp_path / "bad_candidate"
        shutil.copytree(full_run.out, out)
        path = out / "candidates.jsonl"
        rows = read_jsonl(path)
        (row,) = [r for r in rows if r["key"] == full_run.expect["retained_key"]]
        row[field] = change(row[field])
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        kept = {
            name: (out / name).read_bytes()
            for name in ("mock_calls.jsonl", "retained.jsonl", "stats.json")
        }
        proc = run_cli([command, "--config", str(e2e_bundle.make_config(out))])
        assert proc.returncode == 3, proc.stderr
        assert "candidates.jsonl" in proc.stderr and f"field {field!r}" in proc.stderr
        assert "Traceback" not in proc.stderr
        for name, content in kept.items():
            assert (out / name).read_bytes() == content, name

    @pytest.mark.parametrize(
        "command, removed, producer",
        [
            ("extract", ["papers_clean.jsonl"], "prepare"),
            ("generate", ["figure_contexts.jsonl"], "extract"),
            ("verify", ["candidates.jsonl"], "generate"),
            ("verify", ["figure_contexts.jsonl"], "extract"),
            ("annotate", ["retained.jsonl"], "verify"),
            ("stats", ["manifest_prepare.json"], "prepare"),
            ("stats", ["manifest_extract.json"], "extract"),
            ("stats", ["claims.jsonl"], "generate"),
            ("stats", ["candidates.jsonl"], "generate"),
            ("stats", ["verdict_log.jsonl"], "verify"),
            ("stats", ["retained.jsonl"], "verify"),
            ("evaluate", ["annotated.jsonl", "retained.jsonl"], "verify"),
        ],
        ids=["extract-papers_clean", "generate-figure_contexts", "verify-candidates",
             "verify-figure_contexts", "annotate-retained", "stats-manifest_prepare",
             "stats-manifest_extract", "stats-claims", "stats-candidates", "stats-verdict_log", "stats-retained",
             "evaluate-no-dataset"],
    )
    def test_missing_input_names_producer(
        self, full_run, e2e_bundle, run_cli, tmp_path, command, removed, producer
    ):
        out = tmp_path / "missing_input"
        shutil.copytree(full_run.out, out)
        for name in removed:
            (out / name).unlink()
        proc = run_cli([command, "--config", str(e2e_bundle.make_config(out))])
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == f"input error: missing {removed[-1]}; run the {producer} stage first\n"

    @pytest.mark.parametrize(
        "command", [["stats"], ["run", "--stage", "stats"]], ids=["stats", "run"]
    )
    def test_tampered_dataset_fails_replay(self, full_run, e2e_bundle, run_cli, tmp_path, command):
        out = tmp_path / "tampered"
        shutil.copytree(full_run.out, out)
        config = e2e_bundle.make_config(out)
        (out / "retained.jsonl").write_text("", encoding="utf-8")
        proc = run_cli([*command, "--config", str(config)])
        assert proc.returncode == 3
        assert "INCONSISTENT" in proc.stdout

    def test_candidate_whose_context_changed_is_an_input_error(
        self, full_run, e2e_bundle, run_cli, tmp_path
    ):
        out = tmp_path / "changed_context"
        shutil.copytree(full_run.out, out)
        config = e2e_bundle.make_config(out)
        key = full_run.expect["retained_key"]
        figure_key = key.rsplit(":", 1)[0]
        path = out / "figure_contexts.jsonl"
        rows = read_jsonl(path)
        (row,) = [r for r in rows if f"{r['arxiv_id']}:f{r['figure_index']}" == figure_key]
        row["context"] += " A sentence added after generate."
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        kept = {
            name: (out / name).read_bytes() for name in ("retained.jsonl", "manifest_verify.json")
        }
        proc = run_cli(["verify", "--config", str(config)])
        assert proc.returncode == 3
        assert key in proc.stderr and "rerun generate" in proc.stderr
        assert "Traceback" not in proc.stderr
        for name, content in kept.items():
            assert (out / name).read_bytes() == content, name

    @pytest.mark.parametrize("change", ["swapped-question", "edited-filter-template"])
    def test_logged_verdict_for_another_request_is_an_input_error(
        self, full_run, e2e_bundle, run_cli, tmp_path, templates, change
    ):
        out = tmp_path / "stale_verdicts"
        shutil.copytree(full_run.out, out)
        key = full_run.expect["retained_key"]
        overrides = {}
        if change == "swapped-question":  # same options and correct letter, another question
            _rewrite_rows(
                out / "candidates.jsonl",
                lambda rows: next(row for row in rows if row["key"] == key).update(
                    question="Which setting gives the lowest loss at the end?"
                ),
            )
        else:
            prompts = _copied_prompts(tmp_path / "prompts", templates)
            (prompts / "source_check.txt").write_text(
                templates["source_check"].body + "\nAnswer carefully.\n", encoding="utf-8"
            )
            overrides["prompts"] = str(prompts)
        kept = {
            name: (out / name).read_bytes()
            for name in ("retained.jsonl", "verdict_log.jsonl", "manifest_verify.json")
        }
        ledger = (out / "mock_calls.jsonl").read_bytes()
        proc = run_cli(["verify", "--config", str(e2e_bundle.make_config(out, **overrides))])
        assert proc.returncode == 3, proc.stderr
        assert key in proc.stderr and "SourceConsistency" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert (out / "mock_calls.jsonl").read_bytes() == ledger
        for name, content in kept.items():
            assert (out / name).read_bytes() == content, name

    @pytest.mark.parametrize(
        "stage, artifact",
        [
            ("verify", "candidates.jsonl"),
            ("stats", "verdict_log.jsonl"),
            ("stats", "manifest_prepare.json"),
        ],
    )
    def test_torn_stage_file_is_an_input_error(
        self, full_run, e2e_bundle, run_cli, tmp_path, stage, artifact
    ):
        out = tmp_path / "torn"
        shutil.copytree(full_run.out, out)
        config = e2e_bundle.make_config(out)
        path = out / artifact
        path.write_bytes(path.read_bytes()[:-10])  # cut inside the last line
        proc = run_cli([stage, "--config", str(config)])
        assert proc.returncode == 3
        assert artifact in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "stage, artifact, where, key",
        [
            ("verify", "candidates.jsonl", (), "context_digest"),
            ("verify", "verdict_log.jsonl", (), "passed"),
            ("stats", "verdict_log.jsonl", (), "passed"),
            ("extract", "papers_clean.jsonl", (), "figures"),
            ("extract", "papers_clean.jsonl", ("figures", 0), "image"),
            ("stats", "retained.jsonl", (), "key"),
        ],
        ids=["verify-candidates", "verify-verdict_log", "stats-verdict_log", "extract-papers_clean",
             "extract-papers_clean-figure", "stats-retained"],
    )
    def test_row_missing_a_field_is_an_input_error(
        self, full_run, e2e_bundle, run_cli, tmp_path, stage, artifact, where, key
    ):
        out = tmp_path / "short_row"
        shutil.copytree(full_run.out, out)
        config = e2e_bundle.make_config(out)
        path = out / artifact
        rows = read_jsonl(path)
        row = rows[0]
        for step in where:
            row = row[step]
        del row[key]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        proc = run_cli([stage, "--config", str(config)])
        assert proc.returncode == 3
        assert key in proc.stderr and artifact in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_extract_manifest_whose_discard_count_is_not_an_integer_is_an_input_error(
        self, full_run, e2e_bundle, run_cli, tmp_path
    ):
        out = tmp_path / "bad_discards"
        shutil.copytree(full_run.out, out)
        path = out / "manifest_extract.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["discards"] = {"NoLabel": "1"}
        path.write_text(json.dumps(manifest), encoding="utf-8")
        proc = run_cli(["stats", "--config", str(e2e_bundle.make_config(out))])
        assert proc.returncode == 3
        assert "manifest_extract.json" in proc.stderr and "discards" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_prepare_manifest_without_its_paper_count_is_an_input_error(
        self, full_run, e2e_bundle, run_cli, tmp_path
    ):
        out = tmp_path / "short_manifest"
        shutil.copytree(full_run.out, out)
        path = out / "manifest_prepare.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["papers_prepared"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        proc = run_cli(["stats", "--config", str(e2e_bundle.make_config(out))])
        assert proc.returncode == 3
        assert "manifest_prepare.json" in proc.stderr and "papers_prepared" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unexpected_exception_is_an_internal_error(
        self, full_run, e2e_bundle, tmp_path, monkeypatch
    ):
        out = tmp_path / "internal"
        shutil.copytree(full_run.out, out)

        def broken_replay(*args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(pipeline, "replay_verdicts", broken_replay)
        result = CliRunner().invoke(
            main, ["stats", "--config", str(e2e_bundle.make_config(out))]
        )
        assert result.exit_code == 7
        where = f"test_pipeline_e2e.py:{broken_replay.__code__.co_firstlineno + 1} in broken_replay"
        assert result.stderr.splitlines() == [
            f"internal error: ZeroDivisionError: division by zero (at {where})"
        ]
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"endpoints": {"text": {"modle_name": "m"}}}, "modle_name"),
            ({"endpoints": {"text": {"temperature": "1"}}}, "temperature"),
            ({"endpoints": {"eval": {"temperature": 0.5}}}, "temperature"),
            ({"endpoints": {"txt": {"model_name": "m"}}}, "txt"),
            ({"seed": True}, "seed"),
            ({"threshold": "0.9"}, "threshold"),
            ({"endpoints": {"text": {"max_retries": -1}}}, "endpoints.text.max_retries"),
            ({"endpoints": {"vision": {"timeout": 0}}}, "endpoints.vision.timeout"),
            ({"endpoints": {"vision": {"timeout": float("nan")}}}, "endpoints.vision.timeout"),
            ({"endpoints": {"vision": {"timeout": float("inf")}}}, "endpoints.vision.timeout"),
            ({"endpoints": {"text": {"timeout": 1e12}}}, "endpoints.text.timeout"),
            ({"unevaluated_threshold": -1}, "unevaluated_threshold"),
            ({"endpoints": {"eval": {"requests_per_minute": 0}}},
             "endpoints.eval.requests_per_minute"),
            ({"endpoints": {"text": {"role": "vision"}}}, "endpoints.text.role"),
            ({"endpoints": {"text": {"base_url": "localhost:8000/v1"}}}, "endpoints.text.base_url"),
            ({"concurrency": 0}, "concurrency"),
        ],
        ids=["unknown-endpoint-key", "string-temperature", "eval-temperature",
             "unknown-slot", "bool-seed", "string-threshold", "negative-max-retries",
             "zero-timeout", "nan-timeout", "inf-timeout", "overflow-timeout",
             "negative-unevaluated-threshold", "zero-requests-per-minute", "role-key",
             "scheme-less-base-url", "zero-concurrency"],
    )
    def test_bad_config_value_is_a_config_error(
        self, e2e_bundle, run_cli, tmp_path, overrides, named
    ):
        config = e2e_bundle.make_config(tmp_path / "bad_config", **overrides)
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 2
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text, command, named",
        [
            (None, "run", "cannot read config {config}"),
            ("output: [unclosed\n", "run", "invalid YAML in {config}"),
            ("- output\n", "run", "config {config} must be a mapping"),
            ("output: {output}\n", "prepare", "corpus"),
            ("output: {output}\ncorpus: corpus.jsonl\n", "prepare", "latex_cache"),
        ],
        ids=["missing-file", "invalid-yaml", "not-a-mapping", "prepare-without-corpus",
             "prepare-without-latex-cache"],
    )
    def test_config_that_cannot_be_loaded_is_a_config_error(self, tmp_path, text, command, named):
        config, output = tmp_path / "config.yaml", tmp_path / "out"
        if text is not None:
            config.write_text(text.format(output=output), encoding="utf-8")
        result = CliRunner().invoke(main, [command, "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert named.format(config=config) in result.stderr
        assert "Traceback" not in result.stderr
        assert not (output / "papers_clean.jsonl").exists()

    def test_unknown_template_variable_is_a_config_error(
        self, full_run, e2e_bundle, run_cli, tmp_path, templates
    ):
        out = tmp_path / "prompts_run"
        shutil.copytree(full_run.out, out)
        prompts = tmp_path / "prompts"
        prompts.mkdir()
        for name, template in templates.items():
            (prompts / f"{name}.txt").write_text(template.body, encoding="utf-8")
        (prompts / "claim_extract.txt").write_text("{{no_such_variable}}", encoding="utf-8")
        config = e2e_bundle.make_config(out, prompts=str(prompts))
        proc = run_cli(["generate", "--config", str(config)])
        assert proc.returncode == 2
        assert "no_such_variable" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_qa_template_variable_exits_before_any_call(
        self, full_run, e2e_bundle, run_cli, tmp_path, templates
    ):
        # qa_generate is rendered only after every claim extraction is paid for.
        out = tmp_path / "qa_prompt_run"
        shutil.copytree(full_run.out, out)
        calls_before = len(read_jsonl(out / "mock_calls.jsonl"))
        prompts = tmp_path / "prompts"
        prompts.mkdir()
        for name, template in templates.items():
            (prompts / f"{name}.txt").write_text(template.body, encoding="utf-8")
        (prompts / "qa_generate.txt").write_text(
            templates["qa_generate"].body + "\n{{no_such_variable}}\n", encoding="utf-8"
        )
        config = e2e_bundle.make_config(out, prompts=str(prompts))
        proc = run_cli(["generate", "--config", str(config)])
        assert proc.returncode == 2
        assert len(read_jsonl(out / "mock_calls.jsonl")) == calls_before
        assert "qa_generate.txt" in proc.stderr
        assert "'no_such_variable'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_visdep_prompt_naming_the_context_is_a_config_error(
        self, full_run, e2e_bundle, run_cli, tmp_path, templates
    ):
        # The visual-dependence stages are never handed the citing paragraphs.
        out = tmp_path / "visdep_context"
        shutil.copytree(full_run.out, out)
        (out / "verdict_log.jsonl").unlink()
        prompts = tmp_path / "prompts"
        prompts.mkdir()
        for name, template in templates.items():
            (prompts / f"{name}.txt").write_text(template.body, encoding="utf-8")
        (prompts / "visdep_check.txt").write_text(
            templates["visdep_check"].body + "\n{{context}}\n", encoding="utf-8"
        )
        config = e2e_bundle.make_config(out, prompts=str(prompts))
        proc = run_cli(["verify", "--config", str(config)])
        assert proc.returncode == 2
        assert "'context'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unscripted_mock_request_is_a_config_error(
        self, full_run, e2e_bundle, run_cli, tmp_path
    ):
        out = tmp_path / "edited_context"
        shutil.copytree(full_run.out, out)
        path = out / "figure_contexts.jsonl"
        rows = read_jsonl(path)
        rows[0]["context"] += " An edited sentence."
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        proc = run_cli(["generate", "--config", str(e2e_bundle.make_config(out))])
        assert proc.returncode == 2
        assert "no scripted response" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_inconsistent_funnel_is_an_input_error(self, full_run, e2e_bundle, run_cli, tmp_path):
        out = tmp_path / "short_claims"
        shutil.copytree(full_run.out, out)
        path = out / "claims.jsonl"
        path.write_text(path.read_text().splitlines(keepends=True)[0], encoding="utf-8")
        proc = run_cli(["stats", "--config", str(e2e_bundle.make_config(out))])
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr

    @staticmethod
    def _live_config(e2e_bundle, out):
        """A config whose endpoints sit on a closed local port, with no retries."""
        endpoint = {"base_url": "http://127.0.0.1:9/v1", "model_name": "live", "max_retries": 0}
        return e2e_bundle.make_config(
            out, mock_script=None, endpoints={"text": dict(endpoint), "vision": dict(endpoint)}
        )

    def test_unavailable_endpoint_exits_5(self, full_run, e2e_bundle, run_cli, tmp_path):
        out = tmp_path / "closed_port"
        shutil.copytree(full_run.out, out)
        proc = run_cli(["generate", "--config", str(self._live_config(e2e_bundle, out))])
        assert proc.returncode == 5
        assert "rerun the stage" in proc.stderr and "no generate output written" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verify_with_the_endpoint_down_writes_no_outputs(
        self, full_run, e2e_bundle, run_cli, tmp_path
    ):
        out = tmp_path / "verify_down"
        shutil.copytree(full_run.out, out)
        (out / "verdict_log.jsonl").unlink()
        names = ("retained.jsonl", "verify_discards.jsonl", "manifest_verify.json")
        before = {name: (out / name).read_bytes() for name in names}
        proc = run_cli(["verify", "--config", str(self._live_config(e2e_bundle, out))])
        assert proc.returncode == 5, proc.stderr
        candidates = full_run.expect["candidates"]
        assert (
            f"{candidates} of {candidates} candidates deferred; no verify output written"
            in proc.stderr
        )
        assert "Traceback" not in proc.stderr
        assert {name: (out / name).read_bytes() for name in names} == before

    def test_annotate_with_the_endpoint_down_writes_no_outputs(
        self, full_run, e2e_bundle, run_cli, tmp_path
    ):
        out = tmp_path / "annotate_down"
        shutil.copytree(full_run.out, out)
        names = ("annotated.jsonl", "manifest_annotate.json")
        before = {name: (out / name).read_bytes() for name in names}
        # Absolute image refs, so the figure part is built and the post is made.
        rows = read_jsonl(out / "retained.jsonl")
        for row in rows:
            row["figure_image_ref"] = str(e2e_bundle.root / row["figure_image_ref"])
        (out / "retained.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        proc = run_cli(["annotate", "--config", str(self._live_config(e2e_bundle, out))])
        assert proc.returncode == 5, proc.stderr
        assert "2 of 2 labels deferred; no annotate output written" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert {name: (out / name).read_bytes() for name in names} == before

    def test_unreadable_image_in_verify_discards_the_candidate(
        self, full_run, e2e_bundle, tmp_path
    ):
        out = tmp_path / "unreadable_votes"
        shutil.copytree(full_run.out, out)
        (out / "verdict_log.jsonl").unlink()
        cfg = RunConfig.from_yaml(e2e_bundle.make_config(out))
        endpoints = build_endpoints(cfg)
        endpoints["vision"] = unreadable_images(endpoints["vision"])
        manifest = pipeline.STAGE_FUNCTIONS["verify"](cfg, endpoints)
        # The two candidates that reach the votes are the ones sent with their figure.
        voted = sorted(full_run.expect["vote_digests"])
        assert manifest["discarded"] == len(voted) == 2
        assert manifest["retained"] == 0
        discards = read_jsonl(out / "verify_discards.jsonl")
        assert [row["key"] for row in discards] == voted
        assert all("cannot read" in row["reason"] for row in discards)
        assert pipeline.STAGE_FUNCTIONS["stats"](cfg)["replay_ok"] is True

    @pytest.mark.parametrize("stage", ["annotate", "evaluate"])
    def test_unreadable_image_is_an_input_error(
        self, full_run, e2e_bundle, run_cli, tmp_path, stage
    ):
        out = tmp_path / "no_images"
        shutil.copytree(full_run.out, out)
        for name in ("retained.jsonl", "annotated.jsonl"):
            rows = read_jsonl(out / name)
            for row in rows:
                row["figure_image_ref"] = str(tmp_path / "missing.png")
            (out / name).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        proc = run_cli([stage, "--config", str(self._live_config(e2e_bundle, out))])
        assert proc.returncode == 3
        assert "image" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_latex_source_that_is_not_utf8_is_skipped(self, e2e_bundle, run_cli, tmp_path):
        latex = tmp_path / "latex"
        shutil.copytree(e2e_bundle.latex_dir, latex)
        bad = sorted(latex.glob("*.tex"))[0]
        bad.write_bytes(bad.read_bytes().replace(b"\\", b"\xe9\\", 1))
        out = tmp_path / "out"
        proc = run_cli(
            ["prepare", "--config", str(e2e_bundle.make_config(out, latex_cache=str(latex)))]
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest_prepare.json").read_text(encoding="utf-8"))
        assert manifest["skipped"] == [{"arxiv_id": bad.stem, "reason": "latex_not_utf8"}]
        assert manifest["papers_prepared"] == manifest["papers_in"] - 1

    def test_paper_without_latex_source_is_skipped(self, e2e_bundle, run_cli, tmp_path):
        latex = tmp_path / "latex"
        shutil.copytree(e2e_bundle.latex_dir, latex)
        gone = sorted(latex.glob("*.tex"))[0]
        gone.unlink()
        out = tmp_path / "out"
        proc = run_cli(
            ["prepare", "--config", str(e2e_bundle.make_config(out, latex_cache=str(latex)))]
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest_prepare.json").read_text(encoding="utf-8"))
        assert manifest["skipped"] == [{"arxiv_id": gone.stem, "reason": "missing_latex_source"}]
        assert manifest["papers_prepared"] == manifest["papers_in"] - 1

    @pytest.mark.parametrize(
        "field, edit, named",
        [
            ("arxiv_id", lambda rows: rows[1].update(arxiv_id=""), "must be non-empty"),
            ("figure_index", lambda rows: rows[1].update(figure_index=-1), "non-negative"),
            ("figure_index", lambda rows: rows.append(dict(rows[1])), "duplicate figure"),
        ],
        ids=["empty-arxiv-id", "negative-figure-index", "duplicate-figure"],
    )
    def test_corpus_row_breaking_a_rule_is_an_input_error(
        self, e2e_bundle, tmp_path, field, edit, named
    ):
        rows = read_jsonl(e2e_bundle.corpus_path)
        edit(rows)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        config = e2e_bundle.make_config(tmp_path / "out", corpus=str(corpus))
        result = CliRunner().invoke(main, ["prepare", "--config", str(config)])
        assert result.exit_code == 3
        assert "corpus.jsonl" in result.stderr and f"field {field!r}" in result.stderr
        assert named in result.stderr
        assert not (tmp_path / "out" / "papers_clean.jsonl").exists()

    def test_missing_corpus_is_an_input_error(self, e2e_bundle, tmp_path):
        corpus = tmp_path / "no_corpus.jsonl"
        config = e2e_bundle.make_config(tmp_path / "out", corpus=str(corpus))
        result = CliRunner().invoke(main, ["prepare", "--config", str(config)])
        assert result.exit_code == 3
        assert result.stderr == f"input error: corpus file not found: {corpus}\n"

    def test_runaway_macro_is_skipped_in_bounded_memory(self, e2e_bundle, tmp_path):
        # Under a 1 GiB address-space cap, each preamble would kill the run
        # with MemoryError unless expansion gave up as soon as its growth limit
        # is passed: the first doubles the text on every pass, the second
        # builds 1.2 G characters in its second pass, the third 1.8 G in the
        # arguments of a single use.
        preambles = [
            "\\newcommand{\\x}{\\x{}\\x{}}\n\\x\n",
            "\\def\\a{" + "\\b " * 20_000 + "}\\def\\b{" + "x" * 60_000 + "}\\a\n",
            "\\def\\a#1{" + "#1" * 30_000 + "}\\a{" + "x" * 60_000 + "}\n",
        ]
        rows = read_jsonl(e2e_bundle.corpus_path)
        runaway, other = sorted({row["arxiv_id"] for row in rows})[:2]
        corpus = tmp_path / "corpus.jsonl"
        kept = [row for row in rows if row["arxiv_id"] in (runaway, other)]
        corpus.write_text("".join(json.dumps(row) + "\n" for row in kept), encoding="utf-8")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        for case, preamble in enumerate(preambles):
            latex = tmp_path / f"latex{case}"
            latex.mkdir()
            for arxiv_id in (runaway, other):
                shutil.copy(e2e_bundle.latex_dir / f"{arxiv_id}.tex", latex)
            path = latex / f"{runaway}.tex"
            path.write_text(preamble + path.read_text(encoding="utf-8"), encoding="utf-8")
            out = tmp_path / f"out{case}"
            config = e2e_bundle.make_config(out, corpus=str(corpus), latex_cache=str(latex))
            proc = subprocess.run(
                [sys.executable, "-m", "figqa", "prepare", "--config", str(config)],
                capture_output=True,
                text=True,
                preexec_fn=cap_address_space,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((out / "manifest_prepare.json").read_text(encoding="utf-8"))
            assert manifest["skipped"] == [
                {"arxiv_id": runaway, "reason": "macro_recursion_limit"}
            ]
            assert manifest["papers_in"] == 2 and manifest["papers_prepared"] == 1
            prepared = read_jsonl(out / "papers_clean.jsonl")
            assert [row["arxiv_id"] for row in prepared] == [other]

    @pytest.mark.parametrize(
        "stage, artifact, line",
        [("verify", "candidates.jsonl", 2), ("stats", "manifest_prepare.json", 3)],
    )
    def test_input_that_is_not_utf8_is_an_input_error(
        self, full_run, e2e_bundle, run_cli, tmp_path, stage, artifact, line
    ):
        out = tmp_path / "latin1"
        shutil.copytree(full_run.out, out)
        path = out / artifact
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1].replace(b'"', b'"\xe9', 1)
        path.write_bytes(b"".join(lines))
        proc = run_cli([stage, "--config", str(e2e_bundle.make_config(out))])
        assert proc.returncode == 3
        assert f"line {line}:" in proc.stderr and artifact in proc.stderr
        assert "not UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_mock_script_that_is_not_json_is_a_config_error(
        self, full_run, e2e_bundle, run_cli, tmp_path
    ):
        out = tmp_path / "bad_script"
        shutil.copytree(full_run.out, out)
        script = tmp_path / "script.json"
        script.write_text("{not json", encoding="utf-8")
        config = e2e_bundle.make_config(out, mock_script=str(script))
        proc = run_cli(["annotate", "--config", str(config)])
        assert proc.returncode == 2
        assert "script.json" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_mock_script_is_a_config_error(self, full_run, run_cli, tmp_path):
        out = tmp_path / "missing_script"
        shutil.copytree(full_run.out, out)
        script = tmp_path / "nope.json"
        proc = run_cli(["generate", "--output", str(out), "--mock", str(script)])
        assert proc.returncode == 2
        assert str(script) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_config_that_is_not_utf8_is_a_config_error(self, e2e_bundle, run_cli, tmp_path):
        config = e2e_bundle.make_config(tmp_path / "latin1_config")
        config.write_bytes(config.read_bytes() + b"# caf\xe9\n")
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 2
        assert str(config) in proc.stderr and "not UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_template_that_is_not_utf8_is_a_config_error(
        self, full_run, e2e_bundle, run_cli, tmp_path, templates
    ):
        out = tmp_path / "latin1_prompts_run"
        shutil.copytree(full_run.out, out)
        prompts = tmp_path / "prompts"
        prompts.mkdir()
        for name, template in templates.items():
            (prompts / f"{name}.txt").write_text(template.body, encoding="utf-8")
        (prompts / "claim_extract.txt").write_bytes(b"caf\xe9 {{context}}")
        config = e2e_bundle.make_config(out, prompts=str(prompts))
        proc = run_cli(["generate", "--config", str(config)])
        assert proc.returncode == 2
        assert "claim_extract.txt" in proc.stderr and "not UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_credential_variable(self, e2e_bundle, run_cli, tmp_path):
        out = tmp_path / "live"
        endpoint = {
            "base_url": "http://127.0.0.1:9/v1", "model_name": "live",
            "api_key_env": "FIGQA_TEST_NO_SUCH_KEY",
        }
        config = e2e_bundle.make_config(
            out, mock_script=None, endpoints={"text": dict(endpoint), "vision": dict(endpoint)}
        )
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 4
        assert "FIGQA_TEST_NO_SUCH_KEY" in proc.stderr

    def test_credential_outside_printable_ascii_exits_4_unshown(
        self, e2e_bundle, run_cli, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("FIGQA_TEST_KEY", "sk-ключ")
        out = tmp_path / "live"
        endpoint = {
            "base_url": "http://127.0.0.1:9/v1", "model_name": "live",
            "api_key_env": "FIGQA_TEST_KEY",
        }
        config = e2e_bundle.make_config(
            out, mock_script=None, endpoints={"text": dict(endpoint), "vision": dict(endpoint)}
        )
        proc = run_cli(["run", "--config", str(config)])
        assert proc.returncode == 4
        assert "FIGQA_TEST_KEY" in proc.stderr
        assert "ключ" not in proc.stderr and "Traceback" not in proc.stderr

    def test_unknown_stage_is_a_usage_error(self, e2e_bundle, run_cli, tmp_path):
        config = e2e_bundle.make_config(tmp_path / "usage")
        proc = run_cli(["run", "--config", str(config), "--stage", "bogus"])
        assert proc.returncode == 2
