"""Endpoint descriptors, the HTTP dispatch layer and the fan-out executor.

Endpoints serve three kinds of request: generation (drafts), echo scoring of
a prompt's own tokens (verification), and embedding. All speak JSON over
HTTP POST:

- generation:  {"prompt", "max_tokens", "temperature", "logprobs"}
               -> {"text", "tokens": [{"text", "logprob", "start", "end"}]}
- echo:        same request plus {"echo": true, "max_tokens": 0}
               -> per-token logprobs for the prompt itself
- embedding:   {"instruction", "inputs": [...]} -> {"embeddings": [[...]]}

The transport is a small keep-alive HTTP/1.1 client (``_Connection``). Each
request goes out in one ``sendall`` on a socket with Nagle's algorithm off,
and each reply is read through one buffered reader that the connection
keeps. A reply body may be framed by ``Content-Length``, by chunked
transfer coding, or by the server closing the connection. The reader
applies the limits ``http.client`` does: a line is at most 65 536 bytes and
a reply has at most 100 header lines. Any other reply is a framing error.
"""

from __future__ import annotations

import functools
import json
import os
import re
import socket
import ssl
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar
from urllib.parse import SplitResult, urlsplit

from .core import MAX_NUM_DRAFTS

UNHEALTHY_AFTER_FAILURES = 3
# Reply limits, the same as http.client's.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100
# A length is read this much at a time, so a false one allocates no more
# than actually arrives.
_READ_PIECE = 1 << 20
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_NOT_IN_REQUEST_HEAD = re.compile(r"[^\x21-\x7e]")
_BLANK_LINES = (b"\r\n", b"\n")

T = TypeVar("T")


class TransportError(Exception):
    """Base for request failures; always carries the endpoint URL."""

    def __init__(self, url: str, message: str):
        super().__init__(f"{message} (endpoint {url})")
        self.url = url


class EndpointTimeout(TransportError):
    pass


class EndpointConnectionError(TransportError):
    pass


class MalformedResponseError(TransportError):
    pass


class EndpointUnavailableError(TransportError):
    """Routing error: the endpoint was already marked unhealthy."""


@dataclass
class EndpointDescriptor:
    """One registered endpoint with health bookkeeping and a connection pool.

    Mutable state is guarded by a lock so concurrent dispatchers can share
    a descriptor safely. ``_idle`` holds the keep-alive connections no call
    is using, each with the (scheme, host:port) it was opened for; it grows
    to the peak number of concurrent calls.
    """

    url: str
    healthy: bool = True
    consecutive_failures: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _idle: list[tuple[tuple[str, str], _Connection]] = field(
        default_factory=list, repr=False
    )

    def __post_init__(self) -> None:
        # A dropped descriptor leaves no open socket: its idle connections
        # are closed when it is collected (or at interpreter exit).
        weakref.finalize(self, _close_all, self._idle)

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.consecutive_failures >= UNHEALTHY_AFTER_FAILURES:
                self.healthy = False

    def take_idle(self, origin: tuple[str, str]) -> _Connection | None:
        """An idle connection opened for ``origin``, or None. Idle
        connections opened for another origin are closed."""
        with self._lock:
            while self._idle:
                conn_origin, conn = self._idle.pop()
                if conn_origin == origin:
                    return conn
                conn.close()
        return None

    def put_idle(self, origin: tuple[str, str], conn: _Connection) -> None:
        with self._lock:
            self._idle.append((origin, conn))


def _close_all(idle: list[tuple[tuple[str, str], _Connection]]) -> None:
    for _, conn in idle:
        conn.close()


class _ProtocolError(Exception):
    """A reply breaks HTTP/1.1 framing, or a URL cannot go into a request."""


@functools.cache
def _tls_context() -> ssl.SSLContext:
    # One context for every https connection, made on first use: loading
    # the CA certificates for each connection would cost more than a request.
    return ssl.create_default_context()


class _Connection:
    """One keep-alive HTTP/1.1 connection; ``sock`` is None once closed."""

    __slots__ = ("sock", "_reader")

    def __init__(self, url: SplitResult, timeout_s: float):
        if not url.hostname:
            raise _ProtocolError(f"URL {url.geturl()!r} has no host")
        try:
            port = url.port or (443 if url.scheme == "https" else 80)
        except ValueError as exc:  # a port that is not a number in range
            raise _ProtocolError(str(exc))
        sock = socket.create_connection((url.hostname, port), timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if url.scheme == "https":
                sock = _tls_context().wrap_socket(sock, server_hostname=url.hostname)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self._reader.close()
            self.sock.close()
            self.sock = None

    def exchange(self, request: bytes) -> tuple[int, bytes, bool]:
        """Send one request; return the reply's status and body, and whether
        the connection can carry another request.

        The body of a reply other than 200 is left unread, and its
        connection is not reusable. Nor is one whose reply is HTTP/1.0,
        says ``Connection: close`` or ends where the server closes.
        """
        self.sock.sendall(request)
        line = self._reader.readline(MAX_LINE_BYTES)
        if not line:
            # The server closed the connection without reading the request,
            # as it may close an idle one.
            raise ConnectionResetError("connection closed before any reply")
        version, _, rest = self._checked(line).partition(b" ")
        status = rest[:3]
        if not (
            version in (b"HTTP/1.1", b"HTTP/1.0")
            and len(status) == 3
            and status.isdigit()
            and not rest[3:4].strip()
        ):
            raise _ProtocolError(f"bad status line {line[:80]!r}")
        if status != b"200":
            return int(status), b"", False

        headers: dict[bytes, bytes] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._line()
            if line in _BLANK_LINES:
                break
            name, colon, value = line.partition(b":")
            if not colon:
                raise _ProtocolError(f"bad header line {line[:80]!r}")
            name, value = name.lower(), value.strip()
            headers[name] = headers[name] + b", " + value if name in headers else value
        else:
            raise _ProtocolError(f"more than {MAX_HEADERS} headers")

        coding = headers.get(b"transfer-encoding")
        length = headers.get(b"content-length")
        if coding is not None:
            if coding.lower() != b"chunked":
                raise _ProtocolError(f"unsupported transfer-encoding {coding[:80]!r}")
            body = self._read_chunked()
        elif length is not None:
            if not (length.isdigit() and len(length) <= 18):
                raise _ProtocolError(f"bad content-length {length[:80]!r}")
            body = self._read(int(length))
        else:
            return 200, self._reader.read(), False
        reusable = (
            version == b"HTTP/1.1"
            and b"close" not in headers.get(b"connection", b"").lower()
        )
        return 200, body, reusable

    @staticmethod
    def _checked(line: bytes) -> bytes:
        # readline stops at a line end, at the end of the reply or at the limit.
        if not line.endswith(b"\n"):
            raise _ProtocolError(f"reply line cut short or over {MAX_LINE_BYTES} bytes")
        return line

    def _line(self) -> bytes:
        return self._checked(self._reader.readline(MAX_LINE_BYTES))

    def _read(self, size: int) -> bytes:
        pieces = []
        while size:
            piece = self._reader.read(min(size, _READ_PIECE))
            if not piece:
                raise _ProtocolError("reply cut short")
            pieces.append(piece)
            size -= len(piece)
        return b"".join(pieces)

    def _read_chunked(self) -> bytes:
        pieces = []
        while True:
            size = self._line().split(b";", 1)[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise _ProtocolError(f"bad chunk size {size[:80]!r}")
            size = int(size, 16)
            if not size:
                break
            pieces.append(self._read(size))
            if self._read(2) != b"\r\n":
                raise _ProtocolError("chunk data not followed by CRLF")
        for _ in range(MAX_HEADERS + 1):  # trailer lines, then a blank one
            if self._line() in _BLANK_LINES:
                return b"".join(pieces)
        raise _ProtocolError(f"more than {MAX_HEADERS} trailer lines")


def _post_request(url: SplitResult, body: bytes) -> bytes:
    """Request line, headers and body of a JSON POST, in one buffer."""
    target = url.path or "/"
    if url.query:
        target += f"?{url.query}"
    if _NOT_IN_REQUEST_HEAD.search(url.netloc + target):
        raise _ProtocolError(f"URL {url.geturl()!r} has a space or non-ASCII character")
    head = (
        f"POST {target} HTTP/1.1\r\nHost: {url.netloc}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def dispatch(endpoint: EndpointDescriptor, payload: dict, timeout_ms: int) -> dict:
    """POST a JSON payload to an endpoint and return the decoded response.

    Takes an idle keep-alive connection of the endpoint or opens one (TLS
    for ``https`` URLs), and pools it again only after a complete HTTP/1.1
    200 reply, framed by its length or in chunks, that the server did not
    mark as closing; any other connection is closed, so no later call can
    read a late reply. If a reused connection turns out to be closed by the
    server before any reply arrives, the request is sent once more on a new
    connection: requests are idempotent, so that retry is not a failure.
    The timeout bounds each connect, send and read. Marks the endpoint
    unhealthy after three consecutive failures; an unhealthy endpoint is
    skipped with a routing error rather than contacted.
    """
    if not endpoint.healthy:
        raise EndpointUnavailableError(endpoint.url, "endpoint marked unhealthy")
    url = urlsplit(endpoint.url)
    origin = (url.scheme, url.netloc)
    request_body = json.dumps(payload).encode("utf-8")
    timeout_s = timeout_ms / 1000.0
    conn = endpoint.take_idle(origin)
    reused = conn is not None
    if reused:
        conn.sock.settimeout(timeout_s)
    keep = False
    try:
        request = _post_request(url, request_body)
        try:
            if not reused:
                conn = _Connection(url, timeout_s)
            status, data, keep = conn.exchange(request)
        except (ConnectionResetError, BrokenPipeError):
            # The server closed an idle connection before this request
            # reached it.
            if not reused:
                raise
            conn.close()
            conn = _Connection(url, timeout_s)
            status, data, keep = conn.exchange(request)
    except TimeoutError:  # a subclass of OSError, so caught first
        endpoint.record_failure()
        raise EndpointTimeout(endpoint.url, f"request timed out after {timeout_ms} ms")
    except (OSError, _ProtocolError) as exc:
        endpoint.record_failure()
        raise EndpointConnectionError(endpoint.url, f"connection failed: {exc}")
    finally:
        if keep:
            endpoint.put_idle(origin, conn)
        elif conn is not None:
            conn.close()

    if status != 200:
        endpoint.record_failure()
        raise MalformedResponseError(endpoint.url, f"unexpected HTTP status {status}")
    try:
        body = json.loads(data)
    except ValueError:
        endpoint.record_failure()
        raise MalformedResponseError(endpoint.url, "response body is not valid JSON")
    if not isinstance(body, dict):
        endpoint.record_failure()
        raise MalformedResponseError(endpoint.url, "response JSON is not an object")

    endpoint.record_success()
    return body


def round_robin_assign(
    count: int, endpoints: list[EndpointDescriptor]
) -> list[EndpointDescriptor]:
    """Assign request i to healthy endpoint (i mod p); fails if none are healthy."""
    healthy = [e for e in endpoints if e.healthy]
    if not healthy:
        raise EndpointUnavailableError(
            endpoints[0].url if endpoints else "<none>", "no healthy endpoints in pool"
        )
    return [healthy[i % len(healthy)] for i in range(count)]


def _fan_out_executor() -> ThreadPoolExecutor:
    # The pool grows to the peak number of calls in flight (one per draft),
    # up to one thread per draft of the largest valid query, and idle
    # threads are reused by later queries. Calls beyond the cap wait.
    return ThreadPoolExecutor(max_workers=MAX_NUM_DRAFTS, thread_name_prefix="fan-out")


_executor = _fan_out_executor()


def _replace_executor_after_fork() -> None:
    # A forked child has none of the parent's worker threads, but the
    # executor still counts them as idle and would queue work for them.
    global _executor
    _executor = _fan_out_executor()


os.register_at_fork(after_in_child=_replace_executor_after_fork)


def fan_out(fn: Callable[..., T], calls: Iterable[tuple]) -> list[T]:
    """Run ``fn(*args)`` for every argument tuple concurrently; results in
    call order.

    Calls run on one process-wide thread pool, so a query starts no thread
    once earlier queries have grown the pool to its fan-out. Every call
    finishes before the first error, in call order, is raised, so no
    request outlives the caller.
    """
    futures = [_executor.submit(fn, *args) for args in calls]
    wait(futures)
    return [future.result() for future in futures]
