"""Model access layer: endpoints, prompt templates, and response parsing.

Two endpoint flavors share one interface, complete(prompt, image_ref) ->
(text, request digest): an HTTP chat-completion client with retries and rate
limiting, and a scripted mock keyed by request digest for deterministic
tests. All parsing helpers are pure functions.

The HTTP client speaks a small subset of HTTP/1.1 (RFC 9112) itself, on
keep-alive connections that every thread of one endpoint shares. It writes
the request head http.client would write, and reads replies whose body ends
at its Content-Length, at the end of a chunked body, or where the server
closes the connection. It sends exactly the request it builds: no proxy, no
~/.netrc credential, no followed redirect. HTTPS verifies against the
system trust store.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import logging
import math
import os
import random
import re
import socket
import ssl
import threading
import time
import urllib.parse
from concurrent import futures
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

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

# Every question has four options, lettered in this order; an answer names one letter.
OPTION_LETTERS = ("A", "B", "C", "D")

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

# A scheme followed by "://"; schemes are case-insensitive (RFC 3986, 3.1).
_URL_RE = re.compile(r"[a-z][a-z0-9+.-]*://", re.ASCII | re.IGNORECASE)

# A request line carries its path as is: printable ASCII only.
_UNSAFE_PATH_RE = re.compile(r"[^\x21-\x7e]")

# json.dumps writes an empty image URL as this slot. A local image's data URI
# is spliced into it as bytes: base64 holds nothing JSON escapes, so the body
# is the one json.dumps would write with the URI in place, without its escape scan.
_EMPTY_URL = b'{"url": ""}'

# The longest retry sleep, in seconds: the backoff step stops doubling at it,
# and a longer Retry-After is cut to it.
MAX_RETRY_WAIT = 60
# The longest timeout a config may set, in seconds; the socket layer
# overflows above about 9.2e9.
MAX_TIMEOUT = 10**9


@dataclass(frozen=True)
class ModelEndpointConfig:
    role: str  # "text" or "vision"
    model_name: str
    base_url: str = ""
    temperature: float = 1.0
    # Retries after the first attempt: 5 posts at most, after jittered sleeps of up
    # to 1, 2, 4 and 8 s. The only retry layer; a paid stage runs each item once.
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
        if not math.isfinite(self.temperature):
            raise ConfigError(f"temperature: must be a finite number, got {self.temperature}")
        if self.base_url:
            _check_base_url(self.base_url)
        if not 0 < self.timeout <= MAX_TIMEOUT:
            raise ConfigError(
                f"timeout: must be above 0 and at most {MAX_TIMEOUT} seconds, got {self.timeout}"
            )
        if self.requests_per_minute is not None and self.requests_per_minute < 1:
            raise ConfigError(
                f"requests_per_minute: must be at least 1, got {self.requests_per_minute}"
            )


def _check_base_url(base_url: str) -> None:
    try:
        url = urllib.parse.urlsplit(base_url)
        url.port  # raises on a port that is not a number in range
    except ValueError as exc:
        raise ConfigError(f"base_url: {exc}: {base_url!r}") from None
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ConfigError(
            f"base_url: must be an http:// or https:// URL with a host, got {base_url!r}"
        )
    if url.username is not None:
        raise ConfigError("base_url: holds credentials; name their variable in api_key_env")
    if _UNSAFE_PATH_RE.search(url.path):
        raise ConfigError(
            f"base_url: the path holds a space, a control or a non-ASCII character: {base_url!r}"
        )


@dataclass
class PromptTemplate:
    name: str
    body: str


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
    """Load all known templates from a directory (default: packaged assets).

    A template there naming a variable its packaged one does not is a ConfigError.
    """
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
    if prompt_dir is not None:
        for name, packaged in load_templates().items():
            supplied = set(_VAR_RE.findall(packaged.body))
            unknown = sorted(set(_VAR_RE.findall(templates[name].body)) - supplied)
            if unknown:
                path = root / f"{name}.txt"
                raise ConfigError(f"{path} names {unknown[0]!r}, which its task does not supply")
    return templates


def format_options(options: list[str]) -> str:
    """Render options as lettered lines: 'A. first\\nB. second...'."""
    return "\n".join(f"{OPTION_LETTERS[i]}. {opt}" for i, opt in enumerate(options))


def request_digest(config: ModelEndpointConfig, prompt: str, image_ref: str | None = None) -> str:
    """Stable hash of one model request: config role, model and temperature, image, prompt."""
    fields = [config.role, config.model_name, f"{config.temperature:g}", image_ref or "", prompt]
    return hashlib.sha256("\x1f".join(fields).encode("utf-8")).hexdigest()


@functools.cache
def _tag_re(name: str) -> re.Pattern:
    return re.compile(f"<{name}>(.*?)</{name}>", re.DOTALL | re.IGNORECASE)


def tag_bodies(response: str, name: str) -> list[str]:
    """The raw body of each <name>...</name> in response: any case, across lines, shortest match."""
    return _tag_re(name).findall(response)


def is_bare_none(text: str) -> bool:
    return text.strip().rstrip(".").strip().lower() == "none"


def parse_patterns_block(response: str) -> list[str] | None:
    """Extract line-delimited claims from the first <Patterns> block.

    Returns None for the abstention signal (bare "None" response, empty tag,
    or a tag containing only "None"). Chatter outside the tags is ignored.
    """
    blocks = tag_bodies(response, "Patterns")
    if not blocks:
        if is_bare_none(response):
            return None
        raise MalformedResponse("no <Patterns> block and response is not 'None'")
    lines = [line.strip() for line in blocks[0].splitlines()]
    lines = [line for line in lines if line]
    if not lines or (len(lines) == 1 and is_bare_none(lines[0])):
        return None
    return lines


_OPTION_STRIP_CHARS = " \t\n.,:;!?()[]{}<>*\"'"


def parse_option_tag(response: str) -> str:
    """Extract the selected letter from <option> tags.

    Returns one of OPTION_LETTERS, NONE_SIGNAL, or AMBIGUOUS. Raises
    MalformedResponse when no tag exists at all; callers treat that the same
    as AMBIGUOUS (fail-closed).
    """
    tags = tag_bodies(response, "option")
    if not tags:
        raise MalformedResponse("no <option> tag in response")
    named = set()
    for tag in tags:
        token = tag.strip(_OPTION_STRIP_CHARS)
        letter = token.upper()
        if token.lower() == "none":
            named.add(NONE_SIGNAL)
        elif letter in OPTION_LETTERS:
            named.add(letter)
        else:
            return AMBIGUOUS
    return named.pop() if len(named) == 1 else AMBIGUOUS


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


# A reused connection the server closed while it sat idle fails with one of
# these before any byte of the reply arrives; the request is sent again on a new one.
_STALE = (BrokenPipeError, ConnectionResetError)

# http.client's limits on a reply: the longest line of its head, of a chunk
# size or of its trailer, line break included, and the most field lines in
# one head or trailer.
MAX_LINE = 65536
MAX_FIELDS = 100
# The most bytes one read of a body asks for, so a false Content-Length or
# chunk size costs no allocation of its size, only a short read.
_READ_PIECE = 1 << 20

_STATUS_RE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?:[ \t][^\r\n]*)?\r?\n")
_FIELD_RE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*([^\r\n]*?)[ \t]*\r?\n")
_CHUNK_SIZE_RE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")


class ReplyError(OSError):
    """A reply that breaks HTTP/1.1 framing, ends early or passes a limit: one failed attempt."""


def _content_length(value: str) -> int:
    """The one length a Content-Length value names, which a list may repeat (RFC 9112, 6.3)."""
    lengths = {part.strip() for part in value.split(",")}
    length = lengths.pop()
    if lengths or not (length.isascii() and length.isdigit()):
        raise ReplyError(f"malformed Content-Length {value!r}")
    return int(length)


class HttpConnection:
    """One socket to a server, opened by the first send, and the one buffered reader of its replies.

    A context wraps the socket in TLS, verified for host. Any error closes
    the connection, and so does a reply that ends it.
    """

    def __init__(self, host: str, port: int, timeout: float, context: ssl.SSLContext | None):
        self.host, self.port, self.timeout, self.context = host, port, timeout, context
        self.sock = None
        self._reader = None

    def send(self, head: bytes, body: bytes) -> bytes:
        """Send one request; return the first line of its reply.

        A reused connection the server has closed raises one of _STALE here.
        """
        try:
            if self.sock is None:
                self._open()
            self.sock.sendall(head)
            self.sock.sendall(body)
            line = self._readline()
        except BaseException:
            self.close()
            raise
        if not line:
            self.close()
            raise ConnectionResetError("the server closed the connection without a reply")
        return line

    def read_reply(self, line: bytes) -> tuple[int, dict[str, str], bytes]:
        """(status, fields, body) of the reply whose first line send returned.

        fields maps each lower-cased field name to its value. Interim 1xx
        replies are skipped. The body ends at its Content-Length, at the end
        of a chunked body, or where the server closes the connection; a 204
        or 304 has none.
        """
        try:
            while True:
                status_line = _STATUS_RE.fullmatch(line)
                if status_line is None:
                    raise ReplyError(f"malformed status line {line[:80]!r}")
                status = int(status_line[2])
                fields = self._read_fields()
                if status >= 200:
                    break
                line = self._readline()
            tokens = {token.strip() for token in fields.get("connection", "").lower().split(",")}
            # HTTP/1.1 keeps the connection unless told otherwise; HTTP/1.0 closes it.
            keep = "close" not in tokens if status_line[1] != b"0" else "keep-alive" in tokens
            if status in (204, 304):
                body = b""
            elif "transfer-encoding" in fields:
                if fields["transfer-encoding"].lower() != "chunked":
                    raise ReplyError(
                        f"unsupported transfer coding {fields['transfer-encoding']!r}"
                    )
                body = self._read_chunked()
            elif "content-length" in fields:
                body = self._read_exact(_content_length(fields["content-length"]))
            else:
                body, keep = self._reader.read(), False
        except BaseException:
            self.close()
            raise
        if not keep:
            self.close()
        return status, fields, body

    def close(self) -> None:
        reader, sock = self._reader, self.sock
        self._reader = self.sock = None
        if reader is not None:
            reader.close()
        if sock is not None:
            sock.close()

    def _open(self) -> None:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        try:
            # The head and the body go out in two writes: without this, the
            # body's last segment can wait for the server's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.context is not None:
                sock = self.context.wrap_socket(sock, server_hostname=self.host)
        except BaseException:
            sock.close()
            raise
        self.sock, self._reader = sock, sock.makefile("rb")

    def _readline(self) -> bytes:
        line = self._reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise ReplyError(f"a line of the reply is longer than {MAX_LINE} bytes")
        return line

    def _read_fields(self) -> dict[str, str]:
        """The field lines up to the blank line that ends them, as {lower-cased name: value}.

        A name given twice maps to its values joined by ", " (RFC 9110, 5.3).
        """
        fields: dict[str, str] = {}
        for _ in range(MAX_FIELDS + 1):
            line = self._readline()
            if line == b"\r\n" or line == b"\n":
                return fields
            field = _FIELD_RE.fullmatch(line)
            if field is None:
                if not line:
                    raise ReplyError("the reply ends inside its head")
                raise ReplyError(f"malformed field line {line[:80]!r}")
            name, value = field[1].decode("ascii").lower(), field[2].decode("latin-1")
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
        raise ReplyError(f"more than {MAX_FIELDS} field lines")

    def _read_exact(self, size: int) -> bytes:
        pieces, left = [], size
        while left:
            piece = self._reader.read(min(left, _READ_PIECE))
            if not piece:
                raise ReplyError(f"the body ends after {size - left} of {size} bytes")
            pieces.append(piece)
            left -= len(piece)
        return b"".join(pieces)

    def _read_chunked(self) -> bytes:
        pieces = []
        while True:
            line = self._readline()
            chunk = _CHUNK_SIZE_RE.fullmatch(line)
            if chunk is None:
                raise ReplyError(f"malformed chunk size line {line[:80]!r}")
            size = int(chunk[1], 16)
            if not size:
                break
            pieces.append(self._read_exact(size))
            if self._readline() not in (b"\r\n", b"\n"):
                raise ReplyError("a chunk runs past its size")
        self._read_fields()  # the trailer, which nothing here reads
        return b"".join(pieces)


class Connections:
    """Keep-alive connections to one base URL, shared by the threads that post to it.

    A post takes the most recently idle connection, or opens one when none
    is idle, and puts it back once the whole reply is read, unless the
    reply ends the connection. A connection that raised is closed, never
    reused. So no more connections are open than posts are in flight.
    """

    def __init__(self, base_url: str, timeout: float):
        url = urllib.parse.urlsplit(base_url)
        tls = url.scheme == "https"
        default_port = 443 if tls else 80
        port = url.port or default_port
        # The request head as http.client writes it, up to Content-Length's
        # value: Host brackets an IPv6 address, and names the port unless it
        # is the scheme's default.
        try:
            host = url.hostname.encode("ascii")
        except UnicodeEncodeError:
            host = url.hostname.encode("idna")
        if b":" in host:
            host = b"[" + host + b"]"
        if port != default_port:
            host += b":%d" % port
        path = f"{url.path.rstrip('/')}/chat/completions".encode("ascii")
        self._head = (
            b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\nContent-Length: "
            % (path, host)
        )
        # The timeout holds for each socket operation.
        context = ssl.create_default_context() if tls else None
        self._new = functools.partial(HttpConnection, url.hostname, port, timeout, context)
        self._idle: list[HttpConnection] = []
        self._lock = threading.Lock()

    def post(self, body: bytes, headers: dict) -> tuple[int, dict[str, str], bytes]:
        """(status, fields, body) of one POST of body to the chat-completions path.

        headers follow Host, Accept-Encoding and Content-Length in the head,
        in their order, and name none of those three. fields maps each
        lower-cased field name of the reply to its value.
        """
        fields = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        head = b"%s%d\r\n%s\r\n" % (self._head, len(body), fields.encode("latin-1"))
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                line = conn.send(head, body)
            except _STALE:
                conn = None
        if conn is None:
            conn = self._new()
            line = conn.send(head, body)
        reply = conn.read_reply(line)
        if conn.sock is not None:
            with self._lock:
                self._idle.append(conn)
        return reply

    def close(self) -> None:
        """Close every idle connection; one in use goes back to the idle list when its post ends."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class HttpEndpoint:
    """Chat-completion client over HTTP with retry, backoff, and rate limit.

    post(body, headers) -> (status, fields, body) sends one request, the
    reply's fields keyed by lower-cased name; by default it is a
    Connections(config.base_url, config.timeout).post, which close() closes.
    Each attempt first takes a token from bucket, when given.
    The k-th retry waits draw() * min(2**(k-1), MAX_RETRY_WAIT) seconds, full
    jitter with draw() in [0, 1), unless an integer Retry-After names the wait.
    """

    def __init__(
        self, config: ModelEndpointConfig, sleep=time.sleep, post=None, bucket=None,
        draw=random.random,
    ):
        self.config = config
        self._sleep = sleep
        self._draw = draw
        self._connections = None if post else Connections(config.base_url, config.timeout)
        self._post = post or self._connections.post
        self._bucket = bucket
        self._last_image = threading.local()  # .entry: (stamp, data URI), see _data_uri

    def close(self) -> None:
        if self._connections is not None:
            self._connections.close()

    def _api_key(self) -> str | None:
        if not self.config.api_key_env:
            return None
        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise AuthError(
                f"credential environment variable {self.config.api_key_env!r} is not set"
            )
        # The key goes into its header as is, so printable ASCII only; the error would print it.
        if not (key.isascii() and key.isprintable()):
            raise AuthError(
                f"credential environment variable {self.config.api_key_env!r} holds a line break"
                " or a character outside printable ASCII"
            )
        return key

    def _data_uri(self, image_ref: str) -> bytes:
        """The local image's data URI as ASCII bytes: b"data:<mime>;base64,<file>".

        Each thread keeps the last URI it built, so the votes of one candidate
        and the claims of one figure read and encode the file once. The entry
        is reused only while the file's path, inode, size and mtime are those
        it was read under; a changed stamp or a failed stat reads it again.
        """
        path = Path(image_ref)
        mime = _IMAGE_MIME.get(path.suffix.lower())
        if mime is None:
            raise ImageUnreadable(f"unsupported image format: {image_ref}")
        try:
            st = os.stat(image_ref)
            stamp = (image_ref, st.st_ino, st.st_size, st.st_mtime_ns)
        except OSError:
            stamp = None
        last_stamp, last_uri = getattr(self._last_image, "entry", (None, b""))
        if stamp is not None and stamp == last_stamp:
            return last_uri
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ImageUnreadable(f"cannot read image {image_ref}: {exc}") from exc
        uri = b"data:" + mime.encode("ascii") + b";base64," + base64.b64encode(data)
        self._last_image.entry = (stamp, uri)
        return uri

    def complete(self, prompt: str, image_ref: str | None = None) -> tuple[str, str]:
        cfg = self.config
        if image_ref is not None and cfg.role != "vision":
            raise ValueError("text endpoint cannot accept an image attachment")
        content: object = prompt
        uri = None
        if image_ref is not None:
            if _URL_RE.match(image_ref):
                url = image_ref
            else:
                url, uri = "", self._data_uri(image_ref)
            image_part = {"type": "image_url", "image_url": {"url": url}}
            content = [{"type": "text", "text": prompt}, image_part]
        payload = {
            "model": cfg.model_name,
            "messages": [{"role": "user", "content": content}],
            "temperature": cfg.temperature,
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        if uri is not None:
            # Only the temperature follows the image part, so its slot is the last one.
            head, _, tail = body.rpartition(_EMPTY_URL)
            body = b"".join((head, b'{"url": "', uri, b'"}', tail))
        # Some gateways refuse a request that names no User-Agent.
        headers = {"Content-Type": "application/json", "User-Agent": "figqa"}
        key = self._api_key()
        if key:
            headers["Authorization"] = f"Bearer {key}"

        last_error = "no attempt made"
        for attempt in range(1, cfg.max_retries + 2):
            wait = None
            if self._bucket is not None:
                self._bucket.acquire(self._sleep)
            try:
                status, resp_headers, data = self._post(body, headers)
            except OSError as exc:
                last_error = str(exc) or type(exc).__name__
            else:
                if status in (401, 403):
                    raise AuthError(f"endpoint rejected credentials (HTTP {status})")
                if 300 <= status < 500 and status not in (408, 429):
                    location = resp_headers.get("location")
                    raise EndpointUnavailable(
                        f"{cfg.model_name}: HTTP {status} is not retryable"
                        + (f" (redirected to {location}; check base_url)" if location else "")
                    )
                if status == 200:
                    try:
                        text = json.loads(data)["choices"][0]["message"]["content"]
                        if not isinstance(text, str):  # the API allows a null content
                            raise TypeError(f"message content is {type(text).__name__}")
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        last_error = f"unparseable completion payload: {exc}"
                    else:
                        return text, request_digest(cfg, prompt, image_ref)
                else:
                    last_error = f"HTTP {status}"
                if status in (429, 503):
                    # Integer seconds only; an HTTP-date value keeps the backoff step.
                    # float() takes digits too many for int(), and min() cuts them.
                    retry_after = resp_headers.get("retry-after", "").strip()
                    if retry_after.isascii() and retry_after.isdigit():
                        wait = min(float(retry_after), MAX_RETRY_WAIT)
            if attempt <= cfg.max_retries:
                if wait is None:  # 1s, 2s, 4s ... 60s, each scaled by its own draw
                    wait = self._draw() * min(2 ** (attempt - 1), MAX_RETRY_WAIT)
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
    ) -> tuple[str, str]:
        digest = request_digest(config, prompt, image_ref)
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
        return response, digest


class MockEndpoint:
    """One role's view onto a shared MockBackend."""

    def __init__(self, config: ModelEndpointConfig, backend: MockBackend):
        self.config = config
        self.backend = backend

    def complete(self, prompt: str, image_ref: str | None = None) -> tuple[str, str]:
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
