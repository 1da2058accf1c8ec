"""Deterministic fake chat-completions endpoint on 127.0.0.1, run as a child process.

Usage: python3 fake_endpoint.py --text-ms 20 --vision-ms 40

It prints "PORT <n>" on its first stdout line once it listens. POST
/chat/completions answers with world.answer() after sleeping
world.injected_latency_s(); both are pure functions of model, temperature,
prompt and image bytes, so the reply never depends on arrival order, call
count or concurrency. GET /stats returns the counters as JSON; add
?reset_peak=1 to restart the peak in-flight count after reading it.

Nagle's algorithm is off: with it on, delayed ACKs put ~40 ms on every
keep-alive round trip, and the benchmark would time this server instead of
the client. At most nproc requests (the CPUs this process may run on) are
served at once.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import world

SPIN_S = 0.003


class Counters:
    def __init__(self, slots: int):
        self.slots = threading.BoundedSemaphore(slots)
        self.lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.request_bytes: list[int] = []
        self.connections = 0
        self.inflight = 0
        self.max_inflight = 0
        self.busy_s = 0.0
        self._busy_since = 0.0

    def begin(self, size: int) -> None:
        with self.lock:
            self.requests += 1
            self.request_bytes.append(size)
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
            if self.inflight == 1:
                self._busy_since = time.monotonic()

    def end(self) -> None:
        with self.lock:
            self.inflight -= 1
            if self.inflight == 0:
                self.busy_s += time.monotonic() - self._busy_since

    def snapshot(self, reset_peak: bool) -> dict:
        with self.lock:
            snap = {
                "requests": self.requests,
                "errors": self.errors,
                "request_bytes": list(self.request_bytes),
                "connections": self.connections,
                "max_inflight": self.max_inflight,
                "busy_s": self.busy_s,
            }
            if reset_peak:
                self.max_inflight = self.inflight
        return snap


def make_handler(counters: Counters, text_ms: float, vision_ms: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def setup(self):
            super().setup()
            with counters.lock:
                counters.connections += 1

        def log_message(self, format, *args):
            pass

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path.split("?")[0] != "/stats":
                self._send(404, {"error": "not found"})
                return
            self._send(200, counters.snapshot("reset_peak=1" in self.path))

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if not self.path.endswith("/chat/completions"):
                self._send(404, {"error": "not found"})
                return
            with counters.slots:
                arrived = time.perf_counter()
                counters.begin(len(body))
                # The request ends before its reply is written: the client's
                # next request must never seem to overlap this one.
                try:
                    request = json.loads(body)
                    model = request["model"]
                    prompt, image_sha = _unpack(request["messages"][0]["content"])
                    temperature = float(request.get("temperature", 1.0))
                    text = world.answer(model, prompt)
                    delay = world.injected_latency_s(model, temperature, prompt, image_sha, text_ms, vision_ms)
                    _wait_until(arrived + delay)
                finally:
                    counters.end()
            if text is None:
                with counters.lock:
                    counters.errors += 1
                self._send(500, {"error": "prompt not recognised"})
            else:
                self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})

    return Handler


def _wait_until(deadline: float) -> None:
    """Sleep to just short of the deadline, then yield in a loop until it passes.

    A plain sleep overshoots by a millisecond or two, by an amount that
    varies with the host's load; the short yielding tail keeps the injected
    latency exact so that the spread measured is the client's.
    """
    remaining = deadline - time.perf_counter()
    if remaining > SPIN_S:
        time.sleep(remaining - SPIN_S)
    while time.perf_counter() < deadline:
        time.sleep(0)


def _unpack(content) -> tuple[str, str]:
    """(prompt text, sha256 of the attached image bytes or '')."""
    if isinstance(content, str):
        return content, ""
    prompt, image_sha = "", ""
    for part in content:
        if part.get("type") == "text":
            prompt = part["text"]
        elif part.get("type") == "image_url":
            url = part["image_url"]["url"]
            data = base64.b64decode(url.split(",", 1)[1]) if url.startswith("data:") else url.encode()
            image_sha = hashlib.sha256(data).hexdigest()
    return prompt, image_sha


class FakeProcess:
    """Parent-side handle: starts the fake, reads its stats, stops it."""

    def __init__(self, text_ms: float, vision_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--text-ms", str(text_ms), "--vision-ms", str(vision_ms)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"fake endpoint did not start: {line!r}")
            self.port = int(line.split()[1])
            # One kept-alive connection for stats, opened before any window starts.
            self._stats = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            self.stats()
        except BaseException:
            self.stop()
            raise

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1"

    def stats(self, reset_peak: bool = False) -> dict:
        self._stats.request("GET", "/stats?reset_peak=1" if reset_peak else "/stats")
        return json.loads(self._stats.getresponse().read())

    def stop(self) -> None:
        if hasattr(self, "_stats"):
            self._stats.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--text-ms", type=float, required=True)
    parser.add_argument("--vision-ms", type=float, required=True)
    args = parser.parse_args()
    counters = Counters(len(os.sched_getaffinity(0)))
    handler = make_handler(counters, args.text_ms, args.vision_ms)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    sys.stdout.write(f"PORT {server.server_address[1]}\n")
    sys.stdout.flush()
    server.serve_forever()


if __name__ == "__main__":
    main()
