"""An HTTP/1.1 keep-alive chat-completions server on 127.0.0.1, and a script to answer from.

Loopback answers each POST by the next mode in its reply schedule, so a
test can put any reply, well-formed or not, on the wire of a real
HttpEndpoint. ScriptAnswers makes its completions those a mock script
gives the same requests, so a live run over loopback can be compared byte
for byte with a mock run.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from figqa.gateway import MAX_FIELDS, MAX_LINE, MockBackend, ModelEndpointConfig
from figqa.pipeline import ROLE_DEFAULTS


def completion(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


def _head(status: bytes, *fields: bytes) -> bytes:
    return b"".join(line + b"\r\n" for line in (status, *fields)) + b"\r\n"


def _sized(body: bytes, *fields: bytes, status: bytes = b"HTTP/1.1 200 OK") -> bytes:
    return _head(status, *fields, b"Content-Length: %d" % len(body)) + body


def _chunked(body: bytes, size_line: bytes = b"5;part=first") -> bytes:
    head = _head(b"HTTP/1.1 200 OK", b"Transfer-Encoding: chunked")
    rest = b"%x\r\n%s\r\n" % (len(body) - 5, body[5:])
    return head + size_line + b"\r\n" + body[:5] + b"\r\n" + rest + b"0\r\nX-Note: end\r\n\r\n"


def _line_of(size: int) -> bytes:
    """A field line of size bytes, its CRLF included (the CRLF _head adds)."""
    return b"X-Long: " + b"a" * (size - len(b"X-Long: \r\n"))


def _fields(count: int) -> list[bytes]:
    """count - 1 filler field lines: with Content-Length, a head of count field lines."""
    return [b"X-Fill-%d: x" % i for i in range(count - 1)]


# Replies written as bytes: mode -> (the reply, given the completion body; the server closes after).
RAW_REPLIES = {
    "unavailable": (
        lambda body: _sized(b"", b"Retry-After: 0", status=b"HTTP/1.1 503 Service Unavailable"),
        False,
    ),
    "chunked": (_chunked, False),
    # The server keeps the connection: only a client that reads the field opens a new one.
    "close-header": (lambda body: _sized(body, b"Connection: close"), False),
    "http10": (lambda body: _head(b"HTTP/1.0 200 OK", b"Content-Type: text/json") + body, True),
    "no-content": (lambda body: _head(b"HTTP/1.1 204 No Content"), False),
    "continue": (lambda body: _head(b"HTTP/1.1 100 Continue") + _sized(body), False),
    "max-line": (lambda body: _sized(body, _line_of(MAX_LINE)), False),
    "max-fields": (lambda body: _sized(body, *_fields(MAX_FIELDS)), False),
    # Faults: each reply is malformed or over a limit.
    "bad-status": (lambda body: _sized(body, status=b"HTTP/1.1 2x0 OK"), True),
    "bad-length": (lambda body: _head(b"HTTP/1.1 200 OK", b"Content-Length: twelve") + body, True),
    "conflicting-length": (
        lambda body: _sized(body, b"Content-Length: %d" % (len(body) + 1)), True
    ),
    "bad-chunk": (lambda body: _chunked(body, size_line=b"5x"), True),
    "long-line": (lambda body: _sized(body, _line_of(MAX_LINE + 1)), True),
    "many-fields": (lambda body: _sized(body, *_fields(MAX_FIELDS + 1)), True),
    "gzip-coding": (
        lambda body: _head(b"HTTP/1.1 200 OK", b"Transfer-Encoding: gzip") + body, True
    ),
    "bad-field": (lambda body: _sized(body, b"X Note: a space in its name"), True),
    "short-head": (lambda body: b"HTTP/1.1 200 OK\r\nContent-Type: text/json\r\n", True),
    "long-chunk": (lambda body: _chunked(body, size_line=b"4"), True),
}
FAULTS = (
    "bad-status", "bad-length", "conflicting-length", "bad-chunk", "long-line", "many-fields",
    "gzip-coding", "bad-field", "short-head", "long-chunk",
)
# Modes whose reply carries the answer to the request; the others never consult answer.
ANSWERED = {"ok", "ok-then-close", *RAW_REPLIES} - {"unavailable", "no-content", *FAULTS}


class Loopback(ThreadingHTTPServer):
    """An HTTP/1.1 keep-alive chat-completions server on 127.0.0.1.

    Each POST is answered by the next mode in `replies`, "ok" once they run out:
    - "ok": a completion, keeping the connection open;
    - "ok-then-close": the same, then the server closes the idle connection;
    - "truncated": a 200 whose Content-Length exceeds the bytes sent, then a close;
    - "drop": no reply at all, just a close;
    - "redirect": a 307 to another path on the same server;
    - a mode of RAW_REPLIES: those bytes.
    A completion's content is answer(request), "ok" by default; an answer
    that raises is kept in `errors` and refused with a 400. The server
    counts the connections it accepted and closed, and keeps each request.
    """

    daemon_threads = True
    request_queue_size = 64  # room for every worker of the widest pool to connect at once

    def __init__(self, replies=(), answer=None):
        super().__init__(("127.0.0.1", 0), _LoopbackHandler)
        self.replies = list(replies)
        self.answer = answer or (lambda request: "ok")
        self.received = []  # {"path", "headers", "json"} per POST
        self.errors = []
        self.opened = 0
        self.closed = threading.Semaphore(0)
        self.lock = threading.Lock()
        self.thread = threading.Thread(target=self.serve_forever, args=(0.02,), daemon=True)

    @property
    def origin(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    @property
    def base_url(self) -> str:
        return f"{self.origin}/v1"

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        self.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


class _LoopbackHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # else a delayed ACK holds each reply's body ~40 ms

    def log_message(self, format, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.opened += 1

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.received.append(
                {"path": self.path, "headers": dict(self.headers), "json": request}
            )
            mode = self.server.replies.pop(0) if self.server.replies else "ok"
        if mode == "drop":
            self.close_connection = True
            return
        reply = completion("ok")
        if mode in ANSWERED:
            try:
                reply = completion(self.server.answer(request))
            except Exception as exc:
                with self.server.lock:
                    self.server.errors.append(exc)
                self.send_error(400, str(exc))
                return
        if mode in RAW_REPLIES:
            write, self.close_connection = RAW_REPLIES[mode]
            self.wfile.write(write(reply))
            return
        if mode == "redirect":
            self.send_response(307)
            self.send_header("Location", f"{self.server.origin}/v2/chat/completions")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        if mode == "truncated":
            self.send_header("Content-Length", str(len(reply) + 100))
            self.end_headers()
            self.wfile.write(reply)
            self.close_connection = True
            return
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)
        # Without a "Connection: close" header the client keeps the connection for reuse.
        self.close_connection = mode == "ok-then-close"


class ScriptAnswers:
    """Loopback's answer from a mock script: what the mock backend gives the same request.

    It names the request's slot by its model (each slot keeps its built-in
    mock model name), and names an attached image by the path under
    image_root whose bytes hash as the data URI's do, relative to image_root
    as the corpus names it. `calls` holds one row per request answered.
    """

    def __init__(self, script_path: Path, image_root: Path):
        self.calls = []
        self._backend = MockBackend.from_file(script_path, ledger=self.calls.append)
        self._roles = {slot["model_name"]: slot["role"] for slot in ROLE_DEFAULTS.values()}
        self._images = {
            hashlib.sha256(path.read_bytes()).hexdigest(): path.relative_to(image_root).as_posix()
            for path in sorted(image_root.rglob("*.png"))
        }

    def __call__(self, request: dict) -> str:
        content = request["messages"][0]["content"]
        image_ref = None
        if isinstance(content, list):
            text, image = content
            content = text["text"]
            data = base64.b64decode(image["image_url"]["url"].split(",", 1)[1])
            image_ref = self._images[hashlib.sha256(data).hexdigest()]
        config = ModelEndpointConfig(
            role=self._roles[request["model"]],
            model_name=request["model"],
            temperature=request["temperature"],
        )
        return self._backend.serve(config, content, image_ref)[0]
