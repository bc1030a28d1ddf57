"""Endpoint descriptors and the HTTP dispatch layer.

Three endpoint roles exist: drafter (generation), verifier (echo scoring of a
prompt's own tokens), and embedder. All speak JSON over HTTP POST:

- generation:  {"prompt", "max_tokens", "temperature", "logprobs"}
               -> {"text", "tokens": [{"text", "logprob", "start", "end"}]}
- echo:        same request plus {"echo": true, "max_tokens": 0}
               -> per-token logprobs for the prompt itself
- embedding:   {"instruction", "inputs": [...]} -> {"embeddings": [[...]]}
"""

from __future__ import annotations

import json
import threading
import weakref
from dataclasses import dataclass, field
from enum import Enum
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from urllib.parse import SplitResult, urlsplit

UNHEALTHY_AFTER_FAILURES = 3
JSON_HEADERS = {"Content-Type": "application/json"}


class EndpointRole(str, Enum):
    DRAFTER = "drafter"
    VERIFIER = "verifier"
    EMBEDDER = "embedder"


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
    role: EndpointRole
    healthy: bool = True
    consecutive_failures: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _idle: list[tuple[tuple[str, str], HTTPConnection]] = field(
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

    def take_idle(self, origin: tuple[str, str]) -> HTTPConnection | None:
        """An idle connection opened for ``origin``, or None. Idle
        connections opened for another origin are closed."""
        with self._lock:
            while self._idle:
                conn_origin, conn = self._idle.pop()
                if conn_origin == origin:
                    return conn
                conn.close()
        return None

    def put_idle(self, origin: tuple[str, str], conn: HTTPConnection) -> None:
        with self._lock:
            self._idle.append((origin, conn))


def _close_all(idle: list[tuple[tuple[str, str], HTTPConnection]]) -> None:
    for _, conn in idle:
        conn.close()


def _connect(url: SplitResult, timeout_s: float) -> HTTPConnection:
    connection_class = HTTPSConnection if url.scheme == "https" else HTTPConnection
    return connection_class(url.netloc, timeout=timeout_s)


def dispatch(endpoint: EndpointDescriptor, payload: dict, timeout_ms: int) -> dict:
    """POST a JSON payload to an endpoint and return the decoded response.

    Takes an idle keep-alive connection of the endpoint or opens one (TLS
    for ``https`` URLs), and pools it again only after a complete 200 reply
    the server did not mark as closing; any other connection is closed, so
    no later call can read a late reply. If a reused connection turns out
    to be closed by the server before any reply arrives, the request is
    sent once more on a new connection: requests are idempotent, so that
    retry is not a failure. Honors the timeout and marks the endpoint
    unhealthy after three consecutive failures; an unhealthy endpoint is
    skipped with a routing error rather than contacted.
    """
    if not endpoint.healthy:
        raise EndpointUnavailableError(endpoint.url, "endpoint marked unhealthy")
    url = urlsplit(endpoint.url)
    origin = (url.scheme, url.netloc)
    path = url.path or "/"
    request_body = json.dumps(payload).encode("utf-8")
    timeout_s = timeout_ms / 1000.0
    conn = endpoint.take_idle(origin)
    reused = conn is not None
    if reused:
        conn.sock.settimeout(timeout_s)
    else:
        conn = _connect(url, timeout_s)
    keep = False
    try:
        try:
            conn.request("POST", path, request_body, JSON_HEADERS)
            resp = conn.getresponse()
        except (ConnectionResetError, BrokenPipeError):
            # RemoteDisconnected is a ConnectionResetError: the server closed
            # an idle connection before this request reached it.
            if not reused:
                raise
            conn.close()
            conn = _connect(url, timeout_s)
            conn.request("POST", path, request_body, JSON_HEADERS)
            resp = conn.getresponse()
        data = resp.read()
        keep = resp.status == 200 and not resp.will_close
    except TimeoutError:  # a subclass of OSError, so caught first
        endpoint.record_failure()
        raise EndpointTimeout(endpoint.url, f"request timed out after {timeout_ms} ms")
    except (OSError, HTTPException) as exc:
        endpoint.record_failure()
        raise EndpointConnectionError(endpoint.url, f"connection failed: {exc}")
    finally:
        if keep:
            endpoint.put_idle(origin, conn)
        else:
            conn.close()

    if resp.status != 200:
        endpoint.record_failure()
        raise MalformedResponseError(
            endpoint.url, f"unexpected HTTP status {resp.status}"
        )
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
