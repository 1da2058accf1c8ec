"""Offline benchmark of figqa's six stages plus evaluate against a loopback fake model.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus_heavy --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # the three workloads in turn

Each iteration generates the workload's corpus from the seed, starts the
fake endpoint (fake_endpoint.py) as a child process and, for crash_resume,
builds a crashed run directory: that is set-up. It then times the six
stages and evaluate, calling figqa.pipeline.stage_* directly with real
HttpEndpoints, and checks the outputs. Iterations repeat until --seconds is
spent; the report gives medians. With --trace 1, traced and untraced
iterations alternate and the report gives per-layer metrics instead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when an output check fails or the checkout holds no
figqa package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1

# Benchmark the checkout's own package, never an installed one.
if not (SRC / "figqa" / "__init__.py").is_file():
    sys.exit(f"perfbench: no figqa package under {SRC}")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
from corpus import Shape  # noqa: E402
from fake_endpoint import FakeProcess  # noqa: E402
from figqa import pipeline  # noqa: E402
from spans import TracedEndpoint, Tracer, write_jsonl  # noqa: E402

NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    text_ms: float
    vision_ms: float
    crash: bool = False


# Why each workload exists, and which layers it loads, is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus_heavy",
            Shape(
                papers=11,
                figures_per_paper=(3, 3, 4, 4, 5, 5, 6, 7, 8, 15, 17),
                caption_chars=(60, 300),
                claims_per_figure=(1,),
                near_duplicate_share=0.1,
                paper_kb=(30, 150),
                macros_per_paper=12,
                comment_share=0.15,
                bib_entries=40,
                cite_share=0.25,
                image_kb=(2, 4),
            ),
            # A few ms, so that evaluate_s is not a pure 40 ms CPU figure that
            # host noise alone moves by a quarter; extract still dominates.
            text_ms=2,
            vision_ms=4,
        ),
        Workload(
            "model_bound",
            Shape(
                papers=22,
                figures_per_paper=(1,) * 12 + (2,) * 10,
                caption_chars=(40, 90),
                claims_per_figure=(2, 3, 4),
                near_duplicate_share=0.0,
                paper_kb=(3, 6),
                macros_per_paper=3,
                comment_share=0.1,
                bib_entries=8,
                cite_share=0.25,
                image_kb=(50, 200),
            ),
            text_ms=10,
            vision_ms=20,
        ),
    )
}
WORKLOADS["crash_resume"] = Workload(
    "crash_resume",
    WORKLOADS["model_bound"].shape,
    text_ms=10,
    vision_ms=20,
    crash=True,
)

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "evaluate_s": "s",
    "cpu_s": "s",
    "calls_per_retained": "count",
    "peak_rss_mb": "MB",
}
DOWNSTREAM_OF_VERIFY = (
    "retained.jsonl",
    "verify_discards.jsonl",
    "manifest_verify.json",
    "annotated.jsonl",
    "manifest_annotate.json",
    "stats.json",
    "eval_summary.json",
    "eval_report.txt",
)


class CountedEndpoint:
    """Counts client-side calls so they can be matched with the fake's count."""

    def __init__(self, inner):
        self.inner = inner
        self.config = inner.config
        self.calls = 0
        self._lock = threading.Lock()

    @property
    def role(self) -> str:
        return self.inner.role

    def complete(self, prompt: str, image_ref: str | None = None):
        with self._lock:
            self.calls += 1
        return self.inner.complete(prompt, image_ref)


def make_config(seed: int, run_dir: Path, made: dict, base_url: str):
    return pipeline.RunConfig(
        output=str(run_dir),
        corpus=made["corpus"],
        latex_cache=made["latex_cache"],
        seed=seed,
        concurrency=NPROC,
        endpoints={
            "text": {"base_url": base_url, "model_name": "fake-text"},
            "vision": {"base_url": base_url, "model_name": "fake-vision"},
            "annotator_text": {"model_name": "fake-annotator-text"},
            "annotator_vision": {"model_name": "fake-annotator-vision"},
            "eval": {"model_name": "fake-eval-vision"},
        },
    )


def crash_run_dir(cfg) -> set[str]:
    """Run everything, then leave the directory as a crash halfway through verify.

    The verdict log keeps the verdicts of the first candidate keys in sorted
    order up to half of all verdicts, cut at line boundaries and chosen by
    key, not file position; every artifact from verify on is deleted.
    Returns the candidate keys whose verdicts were kept.
    """
    pipeline.run_stages(cfg)
    run_dir = Path(cfg.output)
    log = run_dir / "verdict_log.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    per_key: dict[str, int] = {}
    for line in lines:
        key = json.loads(line)["candidate_key"]
        per_key[key] = per_key.get(key, 0) + 1
    kept: set[str] = set()
    total = 0
    for key in sorted(per_key):
        if 2 * total >= len(lines):
            break
        kept.add(key)
        total += per_key[key]
    log.write_text(
        "".join(line for line in lines if json.loads(line)["candidate_key"] in kept), encoding="utf-8"
    )
    for name in DOWNSTREAM_OF_VERIFY:
        (run_dir / name).unlink(missing_ok=True)
    return kept


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _delta(before: dict, after: dict) -> dict:
    return {
        "requests": after["requests"] - before["requests"],
        "errors": after["errors"] - before["errors"],
        "connections": after["connections"] - before["connections"],
        "busy_s": after["busy_s"] - before["busy_s"],
        "request_bytes": after["request_bytes"][len(before["request_bytes"]):],
        "max_inflight": after["max_inflight"],
    }


def timed_part(cfg, endpoints: dict, fake, tracer) -> dict:
    """The six stages, then evaluate; wall, CPU and fake-side deltas per stage."""
    windows: dict[str, dict] = {}
    start = fake.stats()
    for name in (*pipeline.STAGE_ORDER, "evaluate"):
        fn = pipeline.stage_evaluate if name == "evaluate" else pipeline.STAGE_FUNCTIONS[name]
        args = (cfg, endpoints) if name in layers.MODEL_STAGES else (cfg,)
        # The peak in-flight count covers verify, annotate and evaluate, the
        # stages that issue one request at a time today; generate uses the pool.
        before = fake.stats(reset_peak=name == "verify")
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if tracer is None:
            fn(*args)
        else:
            with tracer.span(f"pipeline.stage.{name}", root=True):
                fn(*args)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        windows[name] = {**_delta(before, fake.stats()), "wall_s": wall, "cpu_s": cpu}
    windows["timed"] = _delta(start, fake.stats())
    return windows


def run_iteration(wl: Workload, seed: int, work: Path, traced: bool, golden: dict | None) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    made = corpus.generate(wl.shape, seed, work / "corpus")
    fake = FakeProcess(wl.text_ms, wl.vision_ms)
    try:
        cfg = make_config(seed, work / "run", made, fake.base_url)
        prelogged = crash_run_dir(cfg) if wl.crash else set()
        setup_s = time.perf_counter() - t0

        counted = {k: CountedEndpoint(ep) for k, ep in pipeline.build_endpoints(cfg).items()}
        tracer = Tracer() if traced else None
        if tracer is None:
            windows = timed_part(cfg, counted, fake, None)
        else:
            traced_eps = {k: TracedEndpoint(ep, tracer) for k, ep in counted.items()}
            with tracer.patch():
                windows = timed_part(cfg, traced_eps, fake, tracer)
    finally:
        fake.stop()

    run_dir = Path(cfg.output)
    client_calls = sum(ep.calls for ep in counted.values())
    problems = checks.check_run(
        run_dir,
        client_calls=client_calls,
        fake_requests=windows["timed"]["requests"],
        verify_requests=windows["verify"]["requests"],
        prelogged=prelogged,
    )
    digests = checks.output_digests(run_dir, Path(made["corpus"]).parent)
    if golden is not None and digests != golden:
        problems.append(f"output digests differ from {GOLDEN.name}: {digests}")

    manifests = {
        s: json.loads((run_dir / f"manifest_{s}.json").read_text(encoding="utf-8"))
        for s in ("verify", "annotate")
    }
    summary = json.loads((run_dir / "eval_summary.json").read_text(encoding="utf-8"))
    verify, annotate = manifests["verify"], manifests["annotate"]
    attempted = verify["candidates"] + 2 * annotate["records"] + summary["overall"]["total"] + summary["unevaluated"]
    failed = (
        verify["deferred"] + verify["discarded"] + annotate["deferred_calls"] + summary["unevaluated"]
        + windows["timed"]["errors"] + len(problems)
    )
    stages = pipeline.STAGE_ORDER
    result = {
        "setup_s": setup_s,
        "pipeline_s": sum(windows[s]["wall_s"] for s in stages),
        "evaluate_s": windows["evaluate"]["wall_s"],
        "cpu_s": sum(windows[s]["cpu_s"] for s in (*stages, "evaluate")),
        "calls_per_retained": windows["timed"]["requests"] / max(1, verify["retained"]),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
    }
    if tracer is not None:
        log_rows = checks.read_jsonl(run_dir / "verdict_log.jsonl")
        result["layers"] = layers.layer_metrics(tracer.spans, windows, log_rows, wl.text_ms, wl.vision_ms)
        result["spans"] = tracer.spans
    shutil.rmtree(work, ignore_errors=True)
    return result


def measure(wl: Workload, seed: int, seconds: float, trace: bool, golden: dict | None) -> dict:
    """Iterate until `seconds` is spent (at least one run, two when tracing).

    With tracing, the last traced iteration's spans are written to WORK.
    """
    work = WORK / f"{wl.name}-{os.getpid()}"
    runs: list[dict] = []
    spans = None
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(runs) % 2 == 1
            runs.append(run_iteration(wl, seed, work, traced, golden))
            spans = runs[-1].pop("spans", spans)
            elapsed = time.perf_counter() - start
            if trace and len(runs) < 2:
                continue
            if elapsed * (len(runs) + 1) / len(runs) > seconds:
                break
        if spans is not None:
            write_jsonl(spans, WORK / f"spans-{wl.name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return summarize(runs, trace)


def summarize(runs: list[dict], trace: bool) -> dict:
    def med(key: str, subset: list[dict]) -> float:
        return statistics.median(r[key] for r in subset)

    problems = [p for r in runs for p in r["problems"]]
    out = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "iterations": len(runs),
        "problems": problems,
        "digests": runs[0]["digests"],
        "samples": {k: [r[k] for r in runs] for k in ("setup_s", "pipeline_s", "evaluate_s", "cpu_s")},
    }
    if not trace:
        metrics = {k: med(k, runs) for k in END_TO_END if k != "peak_rss_mb"}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
        return out
    traced = [r for r in runs if "layers" in r]
    plain = [r for r in runs if "layers" not in r]
    values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    values["trace.overhead_s"] = med("pipeline_s", traced) - med("pipeline_s", plain)
    out["metrics"] = {k: {"value": values[k], "unit": u} for k, u in layers.UNITS.items()}
    return out


def report(name: str, seed: int, out: dict) -> None:
    print(f"# perfbench {name} seed={seed} iterations={out['iterations']}")
    for key, m in out["metrics"].items():
        print(f"{key:<48} {m['value']:>14.6g} {m['unit']}")
    share = out["failed"] / out["attempted"]
    print(f"{'failed_share':<48} {share:>14.6g} ratio ({out['failed']} of {out['attempted']})")
    for k, v in out["samples"].items():
        print(f"# {k} per iteration: {' '.join(f'{x:.4f}' for x in v)}")
    for k, v in out["digests"].items():
        print(f"# sha256 {k} {v}")
    for p in out["problems"]:
        print(f"# CHECK FAILED: {p}")


def run_all(args) -> int:
    """Each workload in its own process; exit 1 if any of them fails."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    logging.getLogger("figqa").setLevel(logging.ERROR)

    wl = WORKLOADS[args.workload]
    golden = None
    if args.seed == DEFAULT_SEED and GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(wl.name)
    out = measure(wl, args.seed, args.seconds, bool(args.trace), golden)
    report(wl.name, args.seed, out)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
