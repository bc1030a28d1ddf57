"""Endpoint descriptors, the HTTP dispatch layer and the request driver.

Endpoints serve three kinds of request: generation (drafts), echo scoring of
a prompt's own tokens (verification), and embedding. All speak JSON over
HTTP POST. ``drafting.generate`` builds the generation and echo bodies and
reads their replies, ``clustering.embed_documents`` does the same for
embeddings, and every reply body is decoded by ``core.read_json_object``.

The transport is a small keep-alive HTTP/1.1 client. One ``_Request`` holds
a request from its send to its decoded reply. It goes out in one
``sendall`` on a socket with Nagle's algorithm off (``_connect``). Its reply
is then taken in by ``_Request.poll`` without blocking, piece by piece as it
arrives, and parsed (``_parse_reply``) once enough of it is there. A reply
body may be framed by ``Content-Length``, by chunked transfer coding, or by
the server closing the connection. Its header block is read by
``core.read_http_headers``, as the mock server reads a request's, with the
limits ``http.client`` applies: a line is at most 65 536 bytes and a block
has at most 100 header lines. A body, however framed, is refused once it
is known to be above ``core.MAX_BODY_BYTES``, the mock's cap on a request
body. Any other reply is a framing error. Idle keep-alive sockets wait in
their endpoint's pool; the reply bytes go with the request. An endpoint's
URL is read once, by ``core.parse_endpoint_url`` when its
``EndpointDescriptor`` is made, which refuses a URL no request can go to;
the descriptor also keeps the head bytes every request to it starts with.

``fan_out`` drives many requests from the calling thread, with no worker
thread: each task is a generator that yields its requests, one selector
waits on every socket with a request in flight, and each request has its
own deadline. A reply that stalls part way holds up only its own task;
opening a connection and sending a request still block, up to the
request's deadline. The sockets in flight are one per task of the call (a
query has at most ``core.MAX_NUM_DRAFTS`` drafts). ``dispatch`` is
``fan_out`` with one task.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import selectors
import socket
import ssl
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Generator, Iterable, TypeVar
from .core import (
    MAX_BODY_BYTES,
    RECV_BYTES,
    EndpointURL,
    FramingError,
    Incomplete,
    content_length,
    parse_endpoint_url,
    read_http_headers,
    read_http_line,
    read_json_object,
)

UNHEALTHY_AFTER_FAILURES = 3
# An endpoint with UNHEALTHY_AFTER_FAILURES failures in a row is skipped for
# this many timeouts of the request that last failed on it, then sent one
# probe. A probe costs at most one request timeout, also when the endpoint
# never replies or its connect hangs, so waiting on probes of a dead
# endpoint takes at most 1 / (1 + this), a quarter, of a run's time.
UNHEALTHY_COOLDOWN_TIMEOUTS = 3
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")

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
    """Routing error: the endpoint is unhealthy, so it was not contacted."""


@dataclass
class EndpointDescriptor:
    """One registered endpoint with health bookkeeping and a socket pool.

    Making one reads ``url`` with ``core.parse_endpoint_url``, whose
    ``ValueError`` (the text ``validate_config`` reports) refuses a URL no
    request can go to, and builds the request head every request to the
    endpoint starts with. The URL is fixed for the descriptor's life: for
    another URL, make another descriptor.

    Mutable state is guarded by a lock so concurrent dispatchers can share
    a descriptor safely. ``_idle`` holds the keep-alive sockets no request
    is using; it grows to the peak number of requests in flight at once.
    """

    url: str
    consecutive_failures: int = 0
    _retry_at: float = field(default=0.0, repr=False)  # monotonic
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _idle: list[socket.socket] = field(default_factory=list, repr=False)
    _address: EndpointURL = field(init=False, repr=False)
    # The request line and headers up to the value of Content-Length.
    _head: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        address = self._address = parse_endpoint_url(self.url)
        self._head = (
            f"POST {address.target} HTTP/1.1\r\nHost: {address.host_header}\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        # A dropped descriptor leaves no open socket: its idle sockets
        # are closed when it is collected (or at interpreter exit).
        weakref.finalize(self, _close_all, self._idle)

    @property
    def healthy(self) -> bool:
        """False from the ``UNHEALTHY_AFTER_FAILURES``-th failure in a row
        until its cooldown has passed, and while a probe is out (see
        ``checkout``); a success clears the count."""
        return (
            self.consecutive_failures < UNHEALTHY_AFTER_FAILURES
            or time.monotonic() >= self._retry_at
        )

    def checkout(self, timeout_ms: int) -> socket.socket | None:
        """Admit a request with this timeout: an idle socket for it, or None
        if it needs a new one. Raises ``EndpointUnavailableError`` when the
        endpoint admits nothing. Once an unhealthy endpoint's cooldown has
        passed, it admits one probe and then nothing more until the probe's
        outcome is counted or its timeout has passed."""
        with self._lock:
            if not self.healthy:
                raise EndpointUnavailableError(self.url, "endpoint marked unhealthy")
            if self.consecutive_failures >= UNHEALTHY_AFTER_FAILURES:
                self._retry_at = time.monotonic() + timeout_ms / 1000.0
            return self._idle.pop() if self._idle else None

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0

    def record_failure(self, timeout_ms: int) -> None:
        """Count a failure of a request with this timeout."""
        with self._lock:
            self.consecutive_failures += 1
            cooldown_s = UNHEALTHY_COOLDOWN_TIMEOUTS * timeout_ms / 1000.0
            self._retry_at = time.monotonic() + cooldown_s

    def put_idle(self, sock: socket.socket) -> None:
        with self._lock:
            self._idle.append(sock)


# A task for ``fan_out``: it yields (endpoint, payload) for each request,
# is sent the decoded reply and returns its result.
Task = Generator[tuple[EndpointDescriptor, dict], dict, T]


def _close_all(idle: list[socket.socket]) -> None:
    for sock in idle:
        sock.close()


@functools.cache
def _tls_context() -> ssl.SSLContext:
    # One context for every https connection, made on first use: loading
    # the CA certificates for each connection would cost more than a request.
    return ssl.create_default_context()


def _parse_reply(buf: bytes, eof: bool) -> tuple[int, bytes, bool]:
    """The status and body of the reply at the start of ``buf``, and whether
    its connection can carry another request; ``eof`` says the server has
    closed the connection, so no more bytes will come.

    Raises ``Incomplete`` when the bytes end before the reply does, and
    ``FramingError`` when no bytes can complete it, as for a body declared
    or found to be above ``core.MAX_BODY_BYTES``. The body of a reply
    other than 200 is not read, and its connection is not reusable. Nor is
    one whose reply is HTTP/1.0, says ``Connection: close``, ends where the
    server closes or is followed by more bytes.
    """

    def chunked(pos: int) -> tuple[bytes, int]:
        pieces, total = [], 0
        while True:
            size_line, pos = read_http_line(buf, pos)
            size = size_line.split(b";", 1)[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise FramingError(f"bad chunk size {size[:80]!r}")
            end = pos + int(size, 16)
            total += end - pos
            if total > MAX_BODY_BYTES:
                raise FramingError(f"chunked body above {MAX_BODY_BYTES} bytes")
            if end == pos:
                break
            if len(buf) < end + 2:
                raise Incomplete(end + 2)
            if buf[end : end + 2] != b"\r\n":
                raise FramingError("chunk data not followed by CRLF")
            pieces.append(buf[pos:end])
            pos = end + 2
        _trailers, pos = read_http_headers(buf, pos)
        return b"".join(pieces), pos

    if not buf and eof:
        # The server closed the connection without reading the request, as
        # it may close an idle one.
        raise ConnectionResetError("connection closed before any reply")
    status_line, pos = read_http_line(buf, 0)
    version, _, rest = status_line.partition(b" ")
    status = rest[:3]
    if not (
        version in (b"HTTP/1.1", b"HTTP/1.0")
        and len(status) == 3
        and status.isdigit()
        and not rest[3:4].strip()
    ):
        raise FramingError(f"bad status line {status_line[:80]!r}")
    if status != b"200":
        return int(status), b"", False

    headers, pos = read_http_headers(buf, pos)
    coding = headers.get(b"transfer-encoding")
    if coding is not None:
        if coding.lower() != b"chunked":
            raise FramingError(f"unsupported transfer-encoding {coding[:80]!r}")
        body, pos = chunked(pos)
    elif (length := content_length(headers)) is not None:
        end = pos + length
        if len(buf) < end:
            raise Incomplete(end)
        body, pos = buf[pos:end], end
    elif len(buf) - pos > MAX_BODY_BYTES:  # the body ends where the server closes
        raise FramingError(f"reply body above {MAX_BODY_BYTES} bytes")
    elif eof:
        return 200, buf[pos:], False
    else:
        raise Incomplete(pos + MAX_BODY_BYTES + 1)
    reusable = (
        version == b"HTTP/1.1"
        and b"close" not in headers.get(b"connection", b"").lower()
        and pos == len(buf)
    )
    return 200, body, reusable


def _connect(url: EndpointURL, timeout_s: float) -> socket.socket:
    """A socket connected to ``url``'s host and port, with Nagle's algorithm
    off and, for an ``https`` URL, wrapped in TLS."""
    sock = socket.create_connection((url.host, url.port), timeout_s)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if url.tls:
            sock = _tls_context().wrap_socket(sock, server_hostname=url.host)
    except BaseException:
        sock.close()
        raise
    return sock


class _Request:
    """One JSON POST from its send to its decoded reply: its endpoint, its
    bytes, the socket it was sent on, the reply bytes taken in so far and
    the monotonic time by which the reply must be read.

    Making one sends it: the payload is encoded, the endpoint's health is
    checked and one of its idle sockets taken or a new one opened, and the
    request, the endpoint's head then the body's length and the body, goes
    out in one ``sendall``. Its deadline is ``timeout_ms`` from then, and
    it bounds the connect and the send too. If the idle socket turns out to
    be closed by the server, the request goes out on a new one: requests
    are idempotent, so that is not a failure. An endpoint that does not
    admit it (see ``EndpointDescriptor.checkout``) is skipped with a
    routing error rather than contacted. A payload ``json.dumps`` refuses
    raises its error before the endpoint is touched.
    """

    __slots__ = (
        "endpoint", "data", "timeout_ms", "deadline", "sock", "reused",
        "_pieces", "_size", "_need", "_eof",
    )

    def __init__(self, endpoint: EndpointDescriptor, payload: dict, timeout_ms: int):
        body = json.dumps(payload).encode("utf-8")
        self.sock = endpoint.checkout(timeout_ms)
        self.reused = self.sock is not None
        self.endpoint = endpoint
        self.timeout_ms = timeout_ms
        self.deadline = time.monotonic() + timeout_ms / 1000.0
        self.data = b"%s%d\r\n\r\n%s" % (endpoint._head, len(body), body)
        try:
            if self.reused:
                try:
                    self._send()
                    return
                except (ConnectionResetError, BrokenPipeError):
                    pass  # the server closed the idle socket
            self._send_on_new_socket()
        except OSError as exc:
            raise self.failed(exc)
        except BaseException:  # an interrupt, say: no socket outlives it
            if self.sock is not None:
                self.sock.close()
            raise

    def remaining_s(self) -> float:
        # A socket timeout of 0 would make the socket non-blocking, so a
        # request past its deadline gets one more millisecond.
        return max(self.deadline - time.monotonic(), 0.001)

    def _send(self) -> None:
        """Send the request with the socket blocking, bounded by the
        deadline, and make ready for its reply."""
        self.sock.settimeout(self.remaining_s())
        self.sock.sendall(self.data)
        self.sock.setblocking(False)
        self._pieces, self._size, self._need, self._eof = [], 0, 1, False

    def _send_on_new_socket(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self.reused = False
        self.sock = _connect(self.endpoint._address, self.remaining_s())
        self._send()

    def failed(self, exc: BaseException) -> TransportError:
        """Close the socket and count a failure; the error to raise for
        ``exc``: an ``OSError`` or a broken reply."""
        if self.sock is not None:
            self.sock.close()
        self.endpoint.record_failure(self.timeout_ms)
        if isinstance(exc, TimeoutError):
            return EndpointTimeout(
                self.endpoint.url, f"request timed out after {self.timeout_ms} ms"
            )
        return EndpointConnectionError(self.endpoint.url, f"connection failed: {exc}")

    def poll(self) -> dict | None:
        """Take in the reply bytes that have arrived: the reply's body, read
        by ``core.read_json_object``, once they complete it (see
        ``_parse_reply``), else None.

        None also follows when a reused socket turns out to be closed by the
        server before any reply: the request has then gone out once more, on
        a new socket, whose reply is still to come. The socket is pooled
        again only after a complete HTTP/1.1 200 reply, framed by its length
        or in chunks, that the server did not mark as closing; any other
        socket is closed, so no later request can read a late reply. Every
        outcome is counted for or against the endpoint's health.
        """
        endpoint = self.endpoint
        try:
            try:
                reply = self._read_reply()
            except (ConnectionResetError, BrokenPipeError):
                if not self.reused:
                    raise
                self._send_on_new_socket()
                return None
        except (OSError, FramingError) as exc:
            raise self.failed(exc)
        except BaseException:  # an interrupt: ``fan_out`` holds no request it polls
            self.sock.close()
            raise
        if reply is None:
            return None
        status, data, keep = reply
        if keep:
            endpoint.put_idle(self.sock)
        else:
            self.sock.close()

        if status != 200:
            endpoint.record_failure(self.timeout_ms)
            raise MalformedResponseError(endpoint.url, f"unexpected HTTP status {status}")
        try:
            body = read_json_object(data)
        except ValueError as exc:
            endpoint.record_failure(self.timeout_ms)
            raise MalformedResponseError(endpoint.url, f"response body: {exc}")
        endpoint.record_success()
        return body

    def _read_reply(self) -> tuple[int, bytes, bool] | None:
        """The status, body and reusability of the reply once the bytes
        that have arrived complete it (see ``_parse_reply``), else None."""
        tls = isinstance(self.sock, ssl.SSLSocket)
        while True:
            try:
                piece = self.sock.recv(RECV_BYTES)
            except (BlockingIOError, ssl.SSLWantReadError):
                break
            if not piece:
                self._eof = True
                break
            self._pieces.append(piece)
            self._size += len(piece)
            # A short read took in all a plain socket had; a TLS socket
            # returns one record at a time.
            if len(piece) < RECV_BYTES and not tls:
                break
        if self._size < self._need and not self._eof:
            return None
        buf = b"".join(self._pieces)
        self._pieces = [buf]
        try:
            return _parse_reply(buf, self._eof)
        except Incomplete as incomplete:
            if self._eof:
                raise FramingError("reply cut short") from None
            self._need = incomplete.need
            return None


def _one_request(endpoint: EndpointDescriptor, payload: dict) -> Task[dict]:
    return (yield endpoint, payload)


def dispatch(endpoint: EndpointDescriptor, payload: dict, timeout_ms: int) -> dict:
    """POST a JSON payload to an endpoint and wait for the decoded response.

    ``timeout_ms`` bounds the whole request: connect, send and reply. This
    is ``fan_out`` with one task; see ``_Request``.
    """
    [body] = fan_out([_one_request(endpoint, payload)], timeout_ms)
    return body


def round_robin_assign(
    count: int, endpoints: list[EndpointDescriptor], start: int = 0
) -> list[EndpointDescriptor]:
    """Assign request i to healthy endpoint ((start + i) mod p); fails if
    none are healthy. An endpoint due a probe admits one request (see
    ``EndpointDescriptor.checkout``), so it keeps only its first turn, and
    its later turns go round robin to the endpoints in steady health."""
    healthy = [e for e in endpoints if e.healthy]
    if not healthy:
        raise EndpointUnavailableError(
            endpoints[0].url if endpoints else "<none>", "no healthy endpoints in pool"
        )
    assigned = [healthy[(start + i) % len(healthy)] for i in range(count)]
    steady = [e for e in healthy if e.consecutive_failures < UNHEALTHY_AFTER_FAILURES]
    if steady and len(steady) < len(healthy):
        # Compared by identity: a descriptor's == compares its fields.
        steady_ids, probed = {id(e) for e in steady}, set()
        later = itertools.cycle(steady)
        for i, endpoint in enumerate(assigned):
            if id(endpoint) in probed:
                assigned[i] = next(later)
            elif id(endpoint) not in steady_ids:
                probed.add(id(endpoint))
    return assigned


def fan_out(tasks: Iterable[Task[T]], timeout_ms: int) -> list[T]:
    """Run generator tasks on the calling thread; their return values in
    task order.

    A task yields ``(endpoint, payload)`` for each request it makes and is
    sent the decoded reply, or has the request's ``TransportError`` thrown
    into it. Every task runs until it makes its first request, so all the
    first requests are in flight at once, and a task resumes as soon as its
    own reply has arrived. One selector waits on every request in flight;
    each request has its own deadline, ``timeout_ms`` after it was sent.
    Every task runs to its end before the first error a task raised, in
    task order, is raised. No request outlives the call: if the caller is
    interrupted, the sockets in flight are closed.
    """
    tasks = list(tasks)
    results: list = [None] * len(tasks)
    errors: list[Exception | None] = [None] * len(tasks)
    in_flight: dict[int, _Request] = {}
    selector = selectors.DefaultSelector()

    def resume(i: int, reply: dict | None = None, error: TransportError | None = None):
        # Run task i until it is waiting on a request or has ended.
        task = tasks[i]
        while True:
            try:
                if error is None:
                    endpoint, payload = task.send(reply)
                else:
                    endpoint, payload = task.throw(error)
            except StopIteration as stop:
                results[i] = stop.value
                return
            except Exception as exc:
                errors[i] = exc
                return
            try:
                request = _Request(endpoint, payload, timeout_ms)
            except TransportError as exc:
                reply, error = None, exc
                continue
            in_flight[i] = request
            selector.register(request.sock, selectors.EVENT_READ, i)
            return

    try:
        for i in range(len(tasks)):
            resume(i)
        while in_flight:
            wait_s = min(r.deadline for r in in_flight.values()) - time.monotonic()
            for key, _ in selector.select(max(wait_s, 0.0)):
                i = key.data
                request = in_flight.pop(i)
                # ``poll`` may close the socket or open another.
                selector.unregister(key.fileobj)
                try:
                    reply = request.poll()
                except TransportError as exc:
                    resume(i, error=exc)
                    continue
                if reply is None:  # more to come
                    in_flight[i] = request
                    selector.register(request.sock, selectors.EVENT_READ, i)
                else:
                    resume(i, reply)
            now = time.monotonic()
            for i, request in list(in_flight.items()):
                if request.deadline <= now:
                    del in_flight[i]
                    selector.unregister(request.sock)
                    resume(i, error=request.failed(TimeoutError()))
    finally:
        for request in in_flight.values():
            request.sock.close()
        selector.close()
        for task in tasks:
            task.close()
    for error in errors:
        if error is not None:
            raise error
    return results
