"""Endpoints, templates, digests, and response parsing."""

from __future__ import annotations

import base64
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from functools import partial
from pathlib import Path

import pytest
import requests

from figqa.dataset import append_jsonl
from figqa.errors import (
    AuthError,
    ConfigError,
    EndpointUnavailable,
    ImageUnreadable,
    MalformedResponse,
    MissingVariable,
    UnscriptedRequest,
)
from figqa.gateway import (
    AMBIGUOUS,
    NONE_SIGNAL,
    TEMPLATE_NAMES,
    HttpEndpoint,
    MockBackend,
    ModelEndpointConfig,
    PromptTemplate,
    TokenBucket,
    format_options,
    load_templates,
    map_items,
    parse_option_tag,
    parse_patterns_block,
    render_template,
    request_digest,
)
from figqa.pipeline import RunConfig, build_endpoints

from crash_launcher import CRASH_EXIT_CODE
from helpers import FakeResponse, FakeSession, ok_response


class TestRenderTemplate:
    def test_substitution(self):
        t = PromptTemplate("t", "Hello {{name}}, see {{thing}}.")
        assert render_template(t, {"name": "A", "thing": "B"}) == "Hello A, see B."

    def test_whitespace_inside_markers(self):
        t = PromptTemplate("t", "{{ name }}!")
        assert render_template(t, {"name": "x"}) == "x!"

    def test_missing_variable_raises_with_names(self):
        t = PromptTemplate("greet", "Hello {{name}}.")
        with pytest.raises(MissingVariable) as exc:
            render_template(t, {})
        assert "name" in str(exc.value)
        assert "greet" in str(exc.value)

    def test_extra_variables_ignored(self):
        t = PromptTemplate("t", "no markers")
        assert render_template(t, {"unused": "x"}) == "no markers"

    def test_repeated_marker(self):
        t = PromptTemplate("t", "{{x}} and {{x}}")
        assert render_template(t, {"x": "1"}) == "1 and 1"


class TestLoadTemplates:
    def test_packaged_default_complete(self, templates):
        assert set(templates) == set(TEMPLATE_NAMES)
        for name, t in templates.items():
            assert t.name == name
            assert t.body.strip()

    def test_directory_override(self, tmp_path):
        for name in TEMPLATE_NAMES:
            (tmp_path / f"{name}.txt").write_text(f"custom {name} {{{{x}}}}")
        loaded = load_templates(tmp_path)
        assert loaded["qa_generate"].body == "custom qa_generate {{x}}"

    def test_missing_file_is_config_error(self, tmp_path):
        (tmp_path / "claim_extract.txt").write_text("only one")
        with pytest.raises(ConfigError):
            load_templates(tmp_path)

    def test_expected_variables_present(self, templates):
        wanted = {
            "claim_extract": ("{{label}}", "{{context}}"),
            "qa_generate": ("{{caption}}", "{{context}}", "{{claim}}"),
            "source_check": ("{{context}}", "{{question}}", "{{options}}"),
            "visdep_check": ("{{caption}}", "{{question}}", "{{options}}"),
            "vision_answer": ("{{caption}}", "{{question}}", "{{options}}"),
            "figure_type_label": ("{{caption}}",),
            "question_type_label": ("{{question}}", "{{options}}"),
            "eval_zero_shot": ("{{caption}}", "{{question}}", "{{options}}"),
        }
        for name, markers in wanted.items():
            for marker in markers:
                assert marker in templates[name].body, (name, marker)


class TestFormatOptions:
    def test_four(self):
        assert format_options(["w", "x", "y", "z"]) == "A. w\nB. x\nC. y\nD. z"

    def test_two(self):
        assert format_options(["yes", "no"]) == "A. yes\nB. no"


class TestRequestDigest:
    def test_stable(self):
        a = request_digest("text", "m", 1.0, "p")
        assert a == request_digest("text", "m", 1.0, "p")
        assert len(a) == 64

    def test_components_distinguish(self):
        base = request_digest("text", "m", 1.0, "p")
        assert request_digest("vision", "m", 1.0, "p") != base
        assert request_digest("text", "n", 1.0, "p") != base
        assert request_digest("text", "m", 0.5, "p") != base
        assert request_digest("text", "m", 1.0, "q") != base
        assert request_digest("text", "m", 1.0, "p", "img.png") != base

    def test_temperature_formatting_canonical(self):
        # 1.0 and 1 must hash identically; trailing zeros carry no meaning.
        assert request_digest("text", "m", 1.0, "p") == request_digest("text", "m", 1, "p")
        assert request_digest("text", "m", 0.0, "p") == request_digest("text", "m", 0, "p")

    def test_none_image_equals_empty(self):
        assert request_digest("vision", "m", 1.0, "p", None) == request_digest(
            "vision", "m", 1.0, "p", ""
        )


class TestParsePatternsBlock:
    def test_basic(self):
        resp = "<Patterns>\nClaim one.\nClaim two.\n</Patterns>"
        assert parse_patterns_block(resp) == ["Claim one.", "Claim two."]

    def test_chatter_ignored(self):
        resp = "Sure! Here you go.\n<Patterns>\nOnly claim.\n</Patterns>\nHope that helps."
        assert parse_patterns_block(resp) == ["Only claim."]

    def test_blank_lines_dropped(self):
        resp = "<Patterns>\n\n  A.  \n\nB.\n</Patterns>"
        assert parse_patterns_block(resp) == ["A.", "B."]

    @pytest.mark.parametrize("resp", ["None", "none", "None.", "  None.  "])
    def test_bare_none_is_abstention(self, resp):
        assert parse_patterns_block(resp) is None

    def test_empty_tag_is_abstention(self):
        assert parse_patterns_block("<Patterns>\n</Patterns>") is None

    def test_tag_containing_only_none_is_abstention(self):
        assert parse_patterns_block("<Patterns>\nNone\n</Patterns>") is None

    def test_no_tag_raises(self):
        with pytest.raises(MalformedResponse):
            parse_patterns_block("here are some claims without tags")

    def test_case_insensitive_tag(self):
        assert parse_patterns_block("<patterns>x</patterns>") == ["x"]


class TestParseOptionTag:
    @pytest.mark.parametrize("letter", ["A", "B", "C", "D"])
    def test_round_trip(self, letter):
        assert parse_option_tag(f"<option>{letter}</option>", 4) == letter

    def test_lowercase_upcased(self):
        assert parse_option_tag("<option>b</option>", 4) == "B"

    @pytest.mark.parametrize(
        "body", ["B.", " B ", "(B)", "[B]", "B,", '"B"', "*B*", "B!"]
    )
    def test_punctuation_stripped(self, body):
        assert parse_option_tag(f"<option>{body}</option>", 4) == "B"

    @pytest.mark.parametrize("body", ["None", "none", "None.", " NONE "])
    def test_none_signal(self, body):
        assert parse_option_tag(f"<option>{body}</option>", 4) == NONE_SIGNAL

    def test_multi_character_ambiguous(self):
        assert parse_option_tag("<option>AB</option>", 4) == AMBIGUOUS
        assert parse_option_tag("<option>maybe C</option>", 4) == AMBIGUOUS

    def test_out_of_range_ambiguous(self):
        assert parse_option_tag("<option>E</option>", 4) == AMBIGUOUS
        assert parse_option_tag("<option>C</option>", 2) == AMBIGUOUS

    def test_multiple_agreeing_tags_ok(self):
        assert parse_option_tag("<option>C</option> so <option>C</option>", 4) == "C"

    def test_multiple_conflicting_tags_ambiguous(self):
        assert parse_option_tag("<option>A</option><option>B</option>", 4) == AMBIGUOUS

    def test_no_tag_raises(self):
        with pytest.raises(MalformedResponse):
            parse_option_tag("the answer is B", 4)

    def test_reasoning_before_tag(self):
        resp = "The curve rises steadily, so the answer is A.\n<option>A</option>"
        assert parse_option_tag(resp, 4) == "A"

    @pytest.mark.parametrize("count", [1, 0, 27, -3])
    def test_option_count_bounds(self, count):
        with pytest.raises(ValueError):
            parse_option_tag("<option>A</option>", count)

    def test_digit_token_ambiguous(self):
        assert parse_option_tag("<option>1</option>", 4) == AMBIGUOUS


class TestMockBackend:
    CFG = ModelEndpointConfig(role="text", model_name="m")

    def _digest(self, prompt):
        return request_digest("text", "m", 1.0, prompt)

    def test_string_entry_repeats(self):
        rows = []
        backend = MockBackend({self._digest("p"): "resp"}, ledger=rows.append)
        ep = backend.endpoint(self.CFG)
        for _ in range(3):
            text, transcript = ep.complete("p")
            assert text == "resp"
            assert transcript.request_digest == self._digest("p")
        assert [row["digest"] for row in rows] == [self._digest("p")] * 3

    def test_list_entry_sequential_then_exhausted(self):
        backend = MockBackend({self._digest("p"): ["one", "two"]})
        ep = backend.endpoint(self.CFG)
        assert ep.complete("p")[0] == "one"
        assert ep.complete("p")[0] == "two"
        with pytest.raises(UnscriptedRequest):
            ep.complete("p")

    def test_unscripted_digest_raises(self):
        ep = MockBackend({}).endpoint(self.CFG)
        with pytest.raises(UnscriptedRequest):
            ep.complete("anything")

    def test_ledger_rows(self, tmp_path):
        ledger = tmp_path / "calls.jsonl"
        backend = MockBackend({self._digest("p"): "r"}, ledger=partial(append_jsonl, ledger))
        vision_cfg = ModelEndpointConfig(role="vision", model_name="v")
        vdigest = request_digest("vision", "v", 1.0, "q", "img.png")
        backend.script[vdigest] = "vr"
        backend.endpoint(self.CFG).complete("p")
        backend.endpoint(vision_cfg).complete("q", "img.png")
        rows = [json.loads(l) for l in ledger.read_text().splitlines()]
        assert rows == [
            {"digest": self._digest("p"), "model": "m", "image": False},
            {"digest": vdigest, "model": "v", "image": True},
        ]

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({self._digest("p"): "r"}))
        backend = MockBackend.from_file(path)
        assert backend.endpoint(self.CFG).complete("p")[0] == "r"

    def test_from_file_non_object_is_config_error(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(["not", "a", "dict"]))
        with pytest.raises(ConfigError):
            MockBackend.from_file(path)

    @pytest.mark.parametrize("entry", [5, {"a": 1}, [None], ["ok", 7], None, True])
    def test_from_file_entry_that_is_not_text_is_config_error(self, tmp_path, entry):
        digest = self._digest("p")
        path = tmp_path / "script.json"
        path.write_text(json.dumps({self._digest("q"): ["fine"], digest: entry}))
        with pytest.raises(ConfigError, match=f"digest {digest[:16]}"):
            MockBackend.from_file(path)

    def test_text_endpoint_rejects_image(self):
        ep = MockBackend({}).endpoint(self.CFG)
        with pytest.raises(ValueError):
            ep.complete("p", "img.png")

    def _run_crashing(self, tmp_path, n: int, calls: str):
        """Run calls in a child process with crash_after(n) armed; return it and its ledger.

        os._exit would take the test runner down, so the crash happens in a child.
        """
        script = {self._digest("p"): "r"}
        program = textwrap.dedent(
            f"""
            import json
            import sys
            import threading
            from functools import partial
            sys.path.insert(0, {str(Path(__file__).parent)!r})
            from crash_launcher import crash_after
            from figqa.dataset import append_jsonl
            from figqa.gateway import MockBackend, ModelEndpointConfig
            crash_after({n})
            backend = MockBackend(
                json.loads({json.dumps(json.dumps(script))}),
                ledger=partial(append_jsonl, {str(tmp_path / "led.jsonl")!r}),
            )
            ep = backend.endpoint(ModelEndpointConfig(role="text", model_name="m"))
            """
        ) + textwrap.dedent(calls)
        proc = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True, timeout=60
        )
        return proc, (tmp_path / "led.jsonl").read_text().splitlines()

    def test_crash_after_hard_exits(self, tmp_path):
        proc, rows = self._run_crashing(
            tmp_path, 2,
            """
            ep.complete("p")
            ep.complete("p")
            ep.complete("p")  # call 3 must never complete
            print("UNREACHABLE")
            """,
        )
        assert proc.returncode == CRASH_EXIT_CODE == 70
        assert "UNREACHABLE" not in proc.stdout
        assert len(rows) == 2  # the crashed call is not ledgered

    def test_crash_after_ledgers_exactly_n_calls_across_threads(self, tmp_path):
        # Eight threads race for the calls under a short switch interval, and
        # still exactly n calls are ledgered when the process exits.
        proc, rows = self._run_crashing(
            tmp_path, 40,
            """
            sys.setswitchinterval(1e-6)
            def hammer():
                while True:
                    ep.complete("p")
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            print("UNREACHABLE")
            """,
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        assert "UNREACHABLE" not in proc.stdout
        assert len(rows) == 40


class TestRoleGuards:
    def test_complete_vision_allows_absent_image(self):
        cfg = ModelEndpointConfig(role="vision", model_name="v")
        digest = request_digest("vision", "v", 1.0, "p", None)
        ep = MockBackend({digest: "r"}).endpoint(cfg)
        assert ep.complete("p")[0] == "r"

    def test_endpoint_config_role_validated(self):
        with pytest.raises(ConfigError):
            ModelEndpointConfig(role="audio", model_name="m")


def _http_cfg(**kw):
    base = dict(role="text", model_name="live-model", base_url="https://api.example.test/v1")
    base.update(kw)
    return ModelEndpointConfig(**base)


class TestHttpEndpoint:
    def test_success_first_attempt(self):
        session = FakeSession([ok_response("hello")])
        ep = HttpEndpoint(_http_cfg(), sleep=lambda s: None, session=session)
        text, transcript = ep.complete("prompt")
        assert text == "hello"
        assert transcript.attempt_count == 1
        post = session.posts[0]
        assert post["url"] == "https://api.example.test/v1/chat/completions"
        assert post["json"]["model"] == "live-model"
        assert post["json"]["messages"] == [{"role": "user", "content": "prompt"}]
        assert "Authorization" not in post["headers"]

    def test_retry_then_success_with_backoff(self):
        sleeps = []
        session = FakeSession(
            [requests.ConnectionError("boom"), FakeResponse(500), ok_response("ok")]
        )
        ep = HttpEndpoint(_http_cfg(), sleep=sleeps.append, session=session)
        text, transcript = ep.complete("p")
        assert text == "ok"
        assert transcript.attempt_count == 3
        assert sleeps == [1, 2]

    def test_non_retryable_status_fails_on_the_first_response(self):
        sleeps = []
        session = FakeSession([FakeResponse(400)])
        ep = HttpEndpoint(_http_cfg(), sleep=sleeps.append, session=session)
        with pytest.raises(EndpointUnavailable) as exc:
            ep.complete("p")
        assert "HTTP 400" in str(exc.value)
        assert len(session.posts) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [408, 429])
    def test_timeout_and_rate_limit_statuses_are_retried(self, status):
        sleeps = []
        session = FakeSession([FakeResponse(status), ok_response("ok")])
        ep = HttpEndpoint(_http_cfg(), sleep=sleeps.append, session=session)
        text, transcript = ep.complete("p")
        assert text == "ok"
        assert transcript.attempt_count == 2
        assert sleeps == [1]

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_seconds_replace_the_backoff_step(self, status):
        sleeps = []
        session = FakeSession([
            FakeResponse(status, headers={"Retry-After": "7"}), FakeResponse(status), ok_response("ok")
        ])
        ep = HttpEndpoint(_http_cfg(), sleep=sleeps.append, session=session)
        text, transcript = ep.complete("p")
        assert text == "ok"
        assert transcript.attempt_count == 3
        assert sleeps == [7, 2]

    @pytest.mark.parametrize(
        "status, headers",
        [
            (503, {}),
            (503, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            (500, {"Retry-After": "7"}),
        ],
        ids=["no-header", "http-date", "not-429-or-503"],
    )
    def test_backoff_without_integer_retry_after(self, status, headers):
        sleeps = []
        session = FakeSession([FakeResponse(status, headers=headers), ok_response("ok")])
        ep = HttpEndpoint(_http_cfg(), sleep=sleeps.append, session=session)
        text, _ = ep.complete("p")
        assert text == "ok"
        assert sleeps == [1]

    def test_retries_exhausted(self):
        session = FakeSession([FakeResponse(503)] * 3)
        ep = HttpEndpoint(_http_cfg(max_retries=2), sleep=lambda s: None, session=session)
        with pytest.raises(EndpointUnavailable) as exc:
            ep.complete("p")
        assert "HTTP 503" in str(exc.value)
        assert len(session.posts) == 3

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_rejection_no_retry(self, status):
        session = FakeSession([FakeResponse(status)])
        ep = HttpEndpoint(_http_cfg(), sleep=lambda s: None, session=session)
        with pytest.raises(AuthError):
            ep.complete("p")
        assert len(session.posts) == 1

    def test_missing_credential_env_fails_before_any_post(self, monkeypatch):
        monkeypatch.delenv("FIGQA_TEST_KEY", raising=False)
        session = FakeSession([])
        ep = HttpEndpoint(
            _http_cfg(api_key_env="FIGQA_TEST_KEY"), sleep=lambda s: None, session=session
        )
        with pytest.raises(AuthError):
            ep.complete("p")
        assert session.posts == []

    def test_credential_header_attached(self, monkeypatch):
        monkeypatch.setenv("FIGQA_TEST_KEY", "sk-testvalue")
        session = FakeSession([ok_response("r")])
        ep = HttpEndpoint(
            _http_cfg(api_key_env="FIGQA_TEST_KEY"), sleep=lambda s: None, session=session
        )
        ep.complete("p")
        assert session.posts[0]["headers"]["Authorization"] == "Bearer sk-testvalue"

    def test_unparseable_success_payload(self):
        # Each unparseable 200 is one failed attempt; the retries post again.
        cfg = _http_cfg()
        session = FakeSession([FakeResponse(200, {"unexpected": True})] * (cfg.max_retries + 1))
        ep = HttpEndpoint(cfg, sleep=lambda s: None, session=session)
        with pytest.raises(EndpointUnavailable) as exc:
            ep.complete("p")
        assert "unparseable completion payload" in str(exc.value)
        assert len(session.posts) == cfg.max_retries + 1

    def test_unparseable_success_payload_then_recovery(self):
        session = FakeSession([FakeResponse(200, ValueError("not JSON")), ok_response("ok")])
        ep = HttpEndpoint(_http_cfg(), sleep=lambda s: None, session=session)
        text, transcript = ep.complete("p")
        assert text == "ok"
        assert transcript.attempt_count == 2

    def test_local_image_embedded_as_data_uri(self, tmp_path):
        img = tmp_path / "fig.png"
        img.write_bytes(b"\x89PNGfake")
        session = FakeSession([ok_response("r")])
        ep = HttpEndpoint(_http_cfg(role="vision"), sleep=lambda s: None, session=session)
        ep.complete("p", str(img))
        content = session.posts[0]["json"]["messages"][0]["content"]
        assert content[0] == {"type": "text", "text": "p"}
        url = content[1]["image_url"]["url"]
        assert url == "data:image/png;base64," + base64.b64encode(b"\x89PNGfake").decode()

    def test_remote_image_passed_through(self):
        session = FakeSession([ok_response("r")])
        ep = HttpEndpoint(_http_cfg(role="vision"), sleep=lambda s: None, session=session)
        ep.complete("p", "https://host.test/fig.png")
        content = session.posts[0]["json"]["messages"][0]["content"]
        assert content[1]["image_url"]["url"] == "https://host.test/fig.png"

    def test_unsupported_image_suffix(self):
        ep = HttpEndpoint(_http_cfg(role="vision"), sleep=lambda s: None, session=FakeSession([]))
        with pytest.raises(ImageUnreadable):
            ep.complete("p", "figure.tiff")

    def test_unreadable_image_file(self, tmp_path):
        ep = HttpEndpoint(_http_cfg(role="vision"), sleep=lambda s: None, session=FakeSession([]))
        with pytest.raises(ImageUnreadable):
            ep.complete("p", str(tmp_path / "missing.png"))

    def test_text_role_rejects_image(self):
        ep = HttpEndpoint(_http_cfg(), sleep=lambda s: None, session=FakeSession([]))
        with pytest.raises(ValueError):
            ep.complete("p", "x.png")


class TestTokenBucket:
    def test_burst_within_capacity_no_sleep(self, monkeypatch):
        monkeypatch.setattr("figqa.gateway.time.monotonic", lambda: 100.0)
        bucket = TokenBucket(3)
        slept = []
        for _ in range(3):
            bucket.acquire(sleep=slept.append)
        assert slept == []

    def test_exhausted_bucket_waits_for_refill(self, monkeypatch):
        clock = {"now": 100.0}
        monkeypatch.setattr("figqa.gateway.time.monotonic", lambda: clock["now"])
        bucket = TokenBucket(60)  # 1 token per second
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            clock["now"] += seconds

        for _ in range(60):
            bucket.acquire(sleep=sleep)
        assert slept == []
        bucket.acquire(sleep=sleep)
        assert len(slept) == 1
        assert slept[0] == pytest.approx(1.0)

    def test_refill_caps_at_capacity(self, monkeypatch):
        clock = {"now": 0.0}
        monkeypatch.setattr("figqa.gateway.time.monotonic", lambda: clock["now"])
        bucket = TokenBucket(2)
        bucket.acquire(sleep=lambda s: None)
        bucket.acquire(sleep=lambda s: None)
        clock["now"] += 3600.0  # a long idle period refills to capacity, not beyond
        assert bucket.tokens <= bucket.capacity
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            clock["now"] += seconds

        bucket.acquire(sleep=sleep)
        bucket.acquire(sleep=sleep)
        assert slept == []
        bucket.acquire(sleep=sleep)
        assert slept  # third immediate draw exceeds capacity 2

    def test_slots_of_one_address_share_a_bucket(self, tmp_path):
        cfg = RunConfig(
            output=str(tmp_path),
            endpoints={
                "text": {"base_url": "http://text.test/v1", "requests_per_minute": 60},
                "vision": {"base_url": "http://vision.test/v1", "requests_per_minute": 60},
            },
        )
        eps = build_endpoints(cfg)
        assert eps["text"]._bucket is eps["annotator_text"]._bucket
        assert eps["vision"]._bucket is eps["eval"]._bucket
        assert eps["vision"]._bucket is eps["annotator_vision"]._bucket
        assert eps["text"]._bucket is not eps["vision"]._bucket
        assert isinstance(eps["text"]._bucket, TokenBucket)


class TestPoolMap:
    """map_items, the one worker pool every paid stage runs on."""

    def test_results_keep_item_order(self):
        # Later items finish first, yet come back in item order.
        def slow_first(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        assert map_items(slow_first, range(8), 4) == [i * i for i in range(8)]

    def test_a_slow_item_does_not_hold_up_the_rest(self):
        # Item 0 finishes only after the last item has run.
        last_done = threading.Event()

        def wait_for_last(i):
            if i == 0:
                assert last_done.wait(timeout=10)
            if i == 99:
                last_done.set()
            return i

        assert map_items(wait_for_last, list(range(100)), 2) == list(range(100))

    def test_first_error_cancels_the_items_not_yet_started(self):
        started = []

        def fail_first(i):
            started.append(i)
            if i == 0:
                raise AuthError("bad key")
            time.sleep(0.05)

        with pytest.raises(AuthError):
            map_items(fail_first, range(20), 1)
        assert len(started) <= 2

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failed_items_come_back_in_item_order(self, workers, caplog):
        # Each item is called once; a failed one leaves its error in its slot, not requeued.
        calls = {}
        lock = threading.Lock()

        def call(item):
            with lock:
                calls[item] = calls.get(item, 0) + 1
            if item.startswith("down"):
                raise EndpointUnavailable(item)
            return item.upper()

        items = ["a", "down1", "b", "down2", "c"]
        with caplog.at_level("WARNING", logger="figqa.gateway"):
            results = map_items(call, items, workers)
        assert results[::2] == ["A", "B", "C"]
        assert all(isinstance(r, EndpointUnavailable) for r in results[1::2])
        assert [str(r) for r in results[1::2]] == ["down1", "down2"]
        assert calls == dict.fromkeys(items, 1)
        # One warning per failed item.
        assert len(caplog.records) == 2

    def test_a_rejected_request_is_posted_once(self):
        session = FakeSession([FakeResponse(400)])
        ep = HttpEndpoint(_http_cfg(), sleep=lambda s: None, session=session)
        (result,) = map_items(ep.complete, ["p"], 1)
        assert isinstance(result, EndpointUnavailable)
        assert len(session.posts) == 1

    def test_a_failing_request_is_posted_max_retries_plus_one_times(self):
        # The endpoint's attempt loop is the only retry layer: the runner
        # does not call a failed item again.
        sleeps = []
        cfg = _http_cfg()
        session = FakeSession([FakeResponse(503)] * 100)
        ep = HttpEndpoint(cfg, sleep=sleeps.append, session=session)
        results = map_items(ep.complete, ["p", "q"], 1)
        assert [type(r) for r in results] == [EndpointUnavailable] * 2
        assert cfg.max_retries == 4
        assert len(session.posts) == 2 * (cfg.max_retries + 1)
        assert sleeps == [1, 2, 4, 8] * 2


class TestBuildEndpoints:
    @pytest.mark.parametrize("concurrency", [1, 32])
    def test_connection_pool_holds_one_connection_per_worker(self, tmp_path, concurrency):
        cfg = RunConfig(
            output=str(tmp_path),
            concurrency=concurrency,
            endpoints={
                "text": {"base_url": "http://text.test/v1"},
                "vision": {"base_url": "https://vision.test/v1"},
            },
        )
        for ep in build_endpoints(cfg).values():
            for url in ("http://host.test/v1", "https://host.test/v1"):
                assert ep._session.get_adapter(url)._pool_maxsize == concurrency
