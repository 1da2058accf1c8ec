"""The network: what a base_url means, and the HTTP/1.1 client that posts to it.

The client speaks a subset of HTTP/1.1 (RFC 9112) on keep-alive connections
that every thread of one endpoint shares. It writes the head http.client would
write, and reads a body to its Content-Length, to the end of its chunks or to a
close. It sends exactly the request it is given: no proxy, no ~/.netrc
credential, no followed redirect. HTTPS verifies against the system trust store.
"""

from __future__ import annotations

import functools
import re
import socket
import ssl
import threading
import urllib.parse
from typing import NamedTuple

from .errors import ConfigError


class BaseUrl(NamedTuple):
    """What a post takes from a base_url."""

    host: str  # the name the socket connects to and TLS verifies
    port: int
    tls: bool
    authority: bytes  # the Host field: an IPv6 address bracketed, the port unless the default
    path: bytes  # the request line's path, ending in /chat/completions


def parse_base_url(base_url: str) -> BaseUrl:
    """base_url, which must be an http:// or https:// URL with a host, as a BaseUrl.

    Any other URL raises a ConfigError whose message starts with "base_url: ".
    """
    try:
        url = urllib.parse.urlsplit(base_url)
        port = url.port  # raises on a port that is not a number in range
    except ValueError as exc:
        raise ConfigError(f"base_url: {exc}: {base_url!r}") from None
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ConfigError(
            f"base_url: must be an http:// or https:// URL with a host, got {base_url!r}"
        )
    if url.username is not None:
        raise ConfigError("base_url: holds credentials; name their variable in api_key_env")
    if any(not "!" <= char <= "~" for char in url.path):  # the request line carries it as is
        raise ConfigError(
            f"base_url: the path holds a space, a control or a non-ASCII character: {base_url!r}"
        )
    try:  # Host names a non-ASCII host in its IDNA form, as http.client does
        host = url.hostname.encode("ascii" if url.hostname.isascii() else "idna")
    except UnicodeError as exc:
        raise ConfigError(f"base_url: {exc}: {base_url!r}") from None
    tls = url.scheme == "https"
    default_port = 443 if tls else 80
    port = port or default_port
    authority = (b"[%s]" if b":" in host else b"%s") % host
    if port != default_port:
        authority += b":%d" % port
    path = f"{url.path.rstrip('/')}/chat/completions".encode("ascii")
    return BaseUrl(url.hostname, port, tls, authority, path)


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
        url = parse_base_url(base_url)
        # The request head as http.client writes it, up to Content-Length's value.
        self._head = (
            b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\nContent-Length: "
            % (url.path, url.authority)
        )
        # The timeout holds for each socket operation.
        context = ssl.create_default_context() if url.tls else None
        self._new = functools.partial(HttpConnection, url.host, url.port, timeout, context)
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
