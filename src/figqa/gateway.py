"""Model access layer: endpoints, prompt templates, and response parsing.

Two endpoint flavors share one interface: an HTTP chat-completion client
with retries and rate limiting, and a scripted mock keyed by request digest
for deterministic tests. All parsing helpers are pure functions.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import re
import threading
import time
from concurrent import futures
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import requests

from .errors import (
    AuthError,
    ConfigError,
    EndpointUnavailable,
    ImageUnreadable,
    MalformedResponse,
    MissingVariable,
    UnscriptedRequest,
)

logger = logging.getLogger(__name__)

# Sentinel strings: they serialize directly into verdict logs.
NONE_SIGNAL = "None"
AMBIGUOUS = "Ambiguous"

TEMPLATE_NAMES = (
    "claim_extract",
    "qa_generate",
    "source_check",
    "visdep_check",
    "vision_answer",
    "figure_type_label",
    "question_type_label",
    "eval_zero_shot",
)

_IMAGE_MIME = {
    ".png": "image/png",
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".gif": "image/gif",
    ".webp": "image/webp",
    ".bmp": "image/bmp",
}


@dataclass(frozen=True)
class ModelEndpointConfig:
    role: str  # "text" or "vision"
    model_name: str
    base_url: str = ""
    temperature: float = 1.0
    # Retries after the first attempt: 5 posts at most, after sleeps of 1, 2, 4 and 8 s.
    # The only retry layer; a paid stage runs each item once.
    max_retries: int = 4
    timeout: float = 60.0
    api_key_env: str | None = None
    requests_per_minute: int | None = None

    def __post_init__(self):
        if self.role not in ("text", "vision"):
            raise ConfigError(f"endpoint role must be text or vision, got {self.role!r}")
        # Each message starts with the field name, which the config loader prefixes with the slot.
        if self.max_retries < 0:
            raise ConfigError(f"max_retries: must be at least 0, got {self.max_retries}")
        if self.timeout <= 0:
            raise ConfigError(f"timeout: must be positive, got {self.timeout}")
        if self.requests_per_minute is not None and self.requests_per_minute < 1:
            raise ConfigError(
                f"requests_per_minute: must be at least 1, got {self.requests_per_minute}"
            )


@dataclass
class PromptTemplate:
    name: str
    body: str


@dataclass
class ModelTranscript:
    request_digest: str
    latency: float
    attempt_count: int


_VAR_RE = re.compile(r"\{\{\s*([A-Za-z_][A-Za-z0-9_]*)\s*\}\}")


def render_template(template: PromptTemplate, variables: dict[str, str]) -> str:
    """Substitute {{name}} markers; unknown extras are ignored."""

    def repl(m: re.Match) -> str:
        name = m.group(1)
        if name not in variables:
            raise MissingVariable(name, template.name)
        return str(variables[name])

    return _VAR_RE.sub(repl, template.body)


def load_templates(prompt_dir: str | Path | None = None) -> dict[str, PromptTemplate]:
    """Load all known templates from a directory (default: packaged assets)."""
    root = resources.files("figqa").joinpath("prompts") if prompt_dir is None else Path(prompt_dir)
    templates: dict[str, PromptTemplate] = {}
    for name in TEMPLATE_NAMES:
        ref = root.joinpath(f"{name}.txt")
        if not ref.is_file():
            raise ConfigError(f"prompt template not found: {ref}")
        try:
            templates[name] = PromptTemplate(name, ref.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"prompt template {ref} is not UTF-8: {exc}") from None
    return templates


def format_options(options: list[str]) -> str:
    """Render options as lettered lines: 'A. first\\nB. second...'."""
    return "\n".join(f"{chr(65 + i)}. {opt}" for i, opt in enumerate(options))


def request_digest(
    role: str,
    model_name: str,
    temperature: float,
    prompt: str,
    image_ref: str | None = None,
) -> str:
    """Stable hash identifying one logical model request."""
    payload = "\x1f".join([role, model_name, f"{temperature:g}", image_ref or "", prompt])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_PATTERNS_RE = re.compile(r"<Patterns>(.*?)</Patterns>", re.DOTALL | re.IGNORECASE)
_OPTION_TAG_RE = re.compile(r"<option>(.*?)</option>", re.DOTALL | re.IGNORECASE)


def is_bare_none(text: str) -> bool:
    return text.strip().rstrip(".").strip().lower() == "none"


def parse_patterns_block(response: str) -> list[str] | None:
    """Extract line-delimited claims from the first <Patterns> block.

    Returns None for the abstention signal (bare "None" response, empty tag,
    or a tag containing only "None"). Chatter outside the tags is ignored.
    """
    m = _PATTERNS_RE.search(response)
    if m is None:
        if is_bare_none(response):
            return None
        raise MalformedResponse("no <Patterns> block and response is not 'None'")
    lines = [line.strip() for line in m.group(1).splitlines()]
    lines = [line for line in lines if line]
    if not lines or (len(lines) == 1 and is_bare_none(lines[0])):
        return None
    return lines


_OPTION_STRIP_CHARS = " \t\n.,:;!?()[]{}<>*\"'"


def parse_option_tag(response: str, option_count: int) -> str:
    """Extract the selected letter from <option> tags.

    Returns a single uppercase letter, NONE_SIGNAL, or AMBIGUOUS. Raises
    MalformedResponse when no tag exists at all; callers treat that the same
    as AMBIGUOUS (fail-closed).
    """
    if not 2 <= option_count <= 26:
        raise ValueError("option_count must be in 2..26")
    tags = _OPTION_TAG_RE.findall(response)
    if not tags:
        raise MalformedResponse("no <option> tag in response")
    parsed = []
    for tag in tags:
        token = tag.strip(_OPTION_STRIP_CHARS)
        if token.lower() == "none":
            parsed.append(NONE_SIGNAL)
        elif len(token) == 1 and token.isalpha():
            parsed.append(token.upper())
        else:
            return AMBIGUOUS
    distinct = set(parsed)
    if len(distinct) != 1:
        return AMBIGUOUS
    value = parsed[0]
    if value == NONE_SIGNAL:
        return NONE_SIGNAL
    if not ("A" <= value <= chr(64 + option_count)):
        return AMBIGUOUS
    return value


class TokenBucket:
    """Simple token bucket: capacity and refill rate from requests/minute."""

    def __init__(self, requests_per_minute: int):
        self.capacity = float(requests_per_minute)
        self.tokens = float(requests_per_minute)
        self.rate = requests_per_minute / 60.0
        self.updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self, sleep=time.sleep) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate
            sleep(wait)


class HttpEndpoint:
    """Chat-completion client over HTTP with retry, backoff, and rate limit."""

    def __init__(self, config: ModelEndpointConfig, sleep=time.sleep, session=None, bucket=None):
        self.config = config
        self._sleep = sleep
        self._session = session or requests.Session()
        # A bucket passed in is shared with other endpoints of one address.
        if bucket is None and config.requests_per_minute:
            bucket = TokenBucket(config.requests_per_minute)
        self._bucket = bucket

    def _api_key(self) -> str | None:
        if not self.config.api_key_env:
            return None
        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise AuthError(
                f"credential environment variable {self.config.api_key_env!r} is not set"
            )
        return key

    def _image_part(self, image_ref: str) -> dict:
        if re.match(r"^[a-z][a-z0-9+.-]*://", image_ref):
            return {"type": "image_url", "image_url": {"url": image_ref}}
        path = Path(image_ref)
        mime = _IMAGE_MIME.get(path.suffix.lower())
        if mime is None:
            raise ImageUnreadable(f"unsupported image format: {image_ref}")
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ImageUnreadable(f"cannot read image {image_ref}: {exc}") from exc
        uri = f"data:{mime};base64,{base64.b64encode(data).decode('ascii')}"
        return {"type": "image_url", "image_url": {"url": uri}}

    def complete(self, prompt: str, image_ref: str | None = None) -> tuple[str, ModelTranscript]:
        cfg = self.config
        if image_ref is not None and cfg.role != "vision":
            raise ValueError("text endpoint cannot accept an image attachment")
        digest = request_digest(cfg.role, cfg.model_name, cfg.temperature, prompt, image_ref)
        content: object = prompt
        if image_ref is not None:
            content = [{"type": "text", "text": prompt}, self._image_part(image_ref)]
        payload = {
            "model": cfg.model_name,
            "messages": [{"role": "user", "content": content}],
            "temperature": cfg.temperature,
        }
        headers = {"Content-Type": "application/json"}
        key = self._api_key()
        if key:
            headers["Authorization"] = f"Bearer {key}"

        start = time.monotonic()
        last_error = "no attempt made"
        for attempt in range(1, cfg.max_retries + 2):
            wait = 2 ** (attempt - 1)  # 1s, 2s, 4s...
            if self._bucket is not None:
                self._bucket.acquire(self._sleep)
            try:
                resp = self._session.post(
                    f"{cfg.base_url.rstrip('/')}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=cfg.timeout,
                )
            except requests.RequestException as exc:
                last_error = str(exc)
            else:
                if resp.status_code in (401, 403):
                    raise AuthError(f"endpoint rejected credentials (HTTP {resp.status_code})")
                if 400 <= resp.status_code < 500 and resp.status_code not in (408, 429):
                    raise EndpointUnavailable(
                        f"{cfg.model_name}: HTTP {resp.status_code} is not retryable"
                    )
                if resp.status_code == 200:
                    try:
                        text = resp.json()["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        last_error = f"unparseable completion payload: {exc}"
                    else:
                        return text, ModelTranscript(digest, time.monotonic() - start, attempt)
                else:
                    last_error = f"HTTP {resp.status_code}"
                if resp.status_code in (429, 503):
                    # Integer seconds only; an HTTP-date value keeps the backoff step.
                    retry_after = resp.headers.get("Retry-After", "").strip()
                    if retry_after.isascii() and retry_after.isdigit():
                        wait = int(retry_after)
            if attempt <= cfg.max_retries:
                self._sleep(wait)
        raise EndpointUnavailable(
            f"{cfg.model_name}: {last_error} after {cfg.max_retries + 1} attempts"
        )


class MockBackend:
    """Scripted response store shared by all mock endpoints of a run.

    The script maps request digests to either a single response string or a
    list consumed sequentially (for repeated identical requests such as vote
    triples). An unscripted digest is a hard test failure, never a silent
    default. Each served call's row is given to the optional ledger callable.
    """

    def __init__(self, script: dict[str, str | list[str]], ledger=None):
        self.script = script
        self.ledger = ledger
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, script_path: str | Path, **kwargs) -> "MockBackend":
        try:
            with open(script_path, encoding="utf-8") as fh:
                script = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"mock script {script_path} cannot be read: {exc}") from None
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"mock script {script_path} is not JSON: {exc}") from None
        if not isinstance(script, dict):
            raise ConfigError(f"mock script {script_path} must be a JSON object")
        for digest, entry in script.items():
            entries = entry if isinstance(entry, list) else [entry]
            if not all(isinstance(response, str) for response in entries):
                raise ConfigError(
                    f"mock script {script_path}: the entry for digest {digest[:16]}... "
                    "must be a string or a list of strings"
                )
        return cls(script, **kwargs)

    def endpoint(self, config: ModelEndpointConfig) -> "MockEndpoint":
        return MockEndpoint(config, self)

    def serve(
        self, config: ModelEndpointConfig, prompt: str, image_ref: str | None
    ) -> tuple[str, ModelTranscript]:
        digest = request_digest(
            config.role, config.model_name, config.temperature, prompt, image_ref
        )
        with self._lock:
            if digest not in self.script:
                raise UnscriptedRequest(
                    f"no scripted response for digest {digest[:16]}... "
                    f"(model {config.model_name}, prompt head {prompt[:80]!r})"
                )
            entry = self.script[digest]
            if isinstance(entry, list):
                i = self._cursor.get(digest, 0)
                if i >= len(entry):
                    raise UnscriptedRequest(
                        f"scripted responses exhausted for digest {digest[:16]}..."
                    )
                response = entry[i]
                self._cursor[digest] = i + 1
            else:
                response = entry
            if self.ledger is not None:
                self.ledger(
                    {"digest": digest, "model": config.model_name, "image": image_ref is not None}
                )
        return response, ModelTranscript(request_digest=digest, latency=0.0, attempt_count=1)


class MockEndpoint:
    """One role's view onto a shared MockBackend."""

    def __init__(self, config: ModelEndpointConfig, backend: MockBackend):
        self.config = config
        self.backend = backend

    def complete(self, prompt: str, image_ref: str | None = None) -> tuple[str, ModelTranscript]:
        if image_ref is not None and self.config.role != "vision":
            raise ValueError("text endpoint cannot accept an image attachment")
        return self.backend.serve(self.config, prompt, image_ref)


def map_items(fn, items, workers: int) -> list:
    """[fn(item) for item in items] on a pool of `workers` threads, in item order.

    Each item is called once. The endpoint under fn has already retried its
    request, so an EndpointUnavailable fails the item: it is logged as a
    warning and left in the item's result slot.

    At most 2 x workers calls are queued or running at once, so the pool's
    bookkeeping does not grow with the number of items. Any other exception
    cancels the queued calls, so a fatal error (bad credentials, say) is not
    repeated for every remaining item, and propagates once the running
    calls finish.
    """
    items = list(items)
    results = [None] * len(items)
    submitted = 0
    running: dict = {}  # future -> index of its item

    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            while submitted < len(items) or running:
                while submitted < len(items) and len(running) < 2 * workers:
                    running[pool.submit(fn, items[submitted])] = submitted
                    submitted += 1
                done, _ = futures.wait(running, return_when=futures.FIRST_COMPLETED)
                for future in done:
                    index = running.pop(future)
                    try:
                        results[index] = future.result()
                    except EndpointUnavailable as exc:
                        logger.warning("item %d: %s", index, exc)
                        results[index] = exc
        except BaseException:
            for future in running:
                future.cancel()
            raise
    return results


def complete_parsed(endpoint, prompt: str, parse, image_ref: str | None = None):
    """parse() of one completion, asking once more if the first is malformed.

    A MalformedResponse from the second response propagates; transport
    errors propagate from either call.
    """
    response, _ = endpoint.complete(prompt, image_ref)
    try:
        return parse(response)
    except MalformedResponse:
        response, _ = endpoint.complete(prompt, image_ref)
        return parse(response)
