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
from dataclasses import dataclass, field
from enum import Enum
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from urllib.parse import urlsplit

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
    """One registered endpoint with health bookkeeping.

    Mutable state is guarded by a lock so concurrent dispatchers can share
    a descriptor safely.
    """

    url: str
    role: EndpointRole
    healthy: bool = True
    consecutive_failures: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self.consecutive_failures += 1
            if self.consecutive_failures >= UNHEALTHY_AFTER_FAILURES:
                self.healthy = False


def dispatch(endpoint: EndpointDescriptor, payload: dict, timeout_ms: int) -> dict:
    """POST a JSON payload to an endpoint and return the decoded response.

    Each call opens its own connection (TLS for ``https`` URLs) and closes it
    before returning. Honors the timeout and marks the endpoint unhealthy
    after three consecutive failures; an unhealthy endpoint is skipped with
    a routing error rather than contacted.
    """
    if not endpoint.healthy:
        raise EndpointUnavailableError(endpoint.url, "endpoint marked unhealthy")
    url = urlsplit(endpoint.url)
    connection_class = HTTPSConnection if url.scheme == "https" else HTTPConnection
    request_body = json.dumps(payload).encode("utf-8")
    conn = connection_class(url.netloc, timeout=timeout_ms / 1000.0)
    try:
        conn.request("POST", url.path or "/", request_body, JSON_HEADERS)
        resp = conn.getresponse()
        data = resp.read()
    except TimeoutError:  # a subclass of OSError, so caught first
        endpoint.record_failure()
        raise EndpointTimeout(endpoint.url, f"request timed out after {timeout_ms} ms")
    except (OSError, HTTPException) as exc:
        endpoint.record_failure()
        raise EndpointConnectionError(endpoint.url, f"connection failed: {exc}")
    finally:
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
