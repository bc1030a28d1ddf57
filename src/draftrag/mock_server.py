"""Deterministic mock LM server for generation, echo scoring, and embeddings.

Every numeric path in the pipeline is testable against this server without
real model weights. Responses are pure functions of the request content:

- generation is looked up in a scripted table keyed by the sha256 of the
  prompt; unscripted prompts get a documented fallback completion;
- echo scoring returns one logprob per whitespace-delimited token, either
  from a scripted per-prompt table or from the byte-sum rule below;
- embeddings hash (instruction, text) pairs into unit vectors.

Tokenization rule: the prompt's UTF-8 bytes are split at runs of
non-whitespace; each token's span stretches to the start of the next token
(trailing whitespace attaches to the preceding token, leading whitespace to
the first), so tokens tile the text. Offsets are byte offsets.

Echo rule: logprob(token) = -(1 + (sum(token bytes) mod 7)) / 10.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

DEFAULT_EMBED_DIMS = 8
FALLBACK_LOGPROB = -1.0
# GET /requests keeps only this many of the most recent entries; each holds
# its full prompt, so an unbounded log grows with every request served.
REQUEST_LOG_LIMIT = 1024
# ``stop`` waits until the serving thread next polls; socketserver's default
# interval of 0.5 s made stopping a server take up to half a second.
STOP_POLL_INTERVAL_S = 0.05
# The largest request body the mock reads, far above any prompt or embed
# batch the pipeline sends. A longer declared body gets a 400 before any of
# it is read, so a huge Content-Length cannot make the server allocate it.
MAX_REQUEST_BODY_BYTES = 16 * 2**20

_NONSPACE = re.compile(rb"\S+")


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def whitespace_token_spans(text: str) -> list[tuple[str, int, int]]:
    """Whitespace tokenization with tiling byte spans, see module docstring."""
    data = text.encode("utf-8")
    runs = [m.span() for m in _NONSPACE.finditer(data)]
    tokens = []
    for i, (run_start, _run_end) in enumerate(runs):
        start = 0 if i == 0 else run_start
        end = runs[i + 1][0] if i + 1 < len(runs) else len(data)
        tokens.append((data[start:end].decode("utf-8"), start, end))
    return tokens


def echo_rule(token_bytes: bytes) -> float:
    """Documented byte-sum rule mapping token bytes to a logprob."""
    return -(1 + (sum(token_bytes) % 7)) / 10


def tokens_from_rule(text: str) -> list[dict]:
    return [
        {
            "text": tok,
            "logprob": echo_rule(tok.encode("utf-8")),
            "start": start,
            "end": end,
        }
        for tok, start, end in whitespace_token_spans(text)
    ]


def uniform_tokens(text: str, logprob: float) -> list[dict]:
    return [
        {"text": tok, "logprob": logprob, "start": start, "end": end}
        for tok, start, end in whitespace_token_spans(text)
    ]


def fallback_completion(prompt: str) -> dict:
    """Unscripted prompts echo their last line, all logprobs -1.0."""
    lines = prompt.rstrip("\n").splitlines()
    last = lines[-1] if lines else ""
    text = f"## Rationale: {last}. ## Response: {last}."
    return {"text": text, "tokens": uniform_tokens(text, FALLBACK_LOGPROB)}


def embed_vector(instruction: str, text: str, dims: int = DEFAULT_EMBED_DIMS) -> list[float]:
    """Hash-to-vector rule: component i comes from sha256(instruction, text, i).

    Each component is uniform in [-1, 1); the vector is L2-normalized.
    """
    raw = []
    for i in range(dims):
        digest = hashlib.sha256(f"{instruction}\x1f{text}\x1f{i}".encode()).digest()
        raw.append(int.from_bytes(digest[:8], "big") / 2**64 * 2 - 1)
    norm = sum(v * v for v in raw) ** 0.5
    if norm == 0.0:
        raw[0] = 1.0
        norm = 1.0
    return [v / norm for v in raw]


def _int_field(raw: dict, name: str, default: int) -> int:
    value = raw.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f'"{name}" must be an integer')
    return value


def _text(value: object, name: str) -> str:
    """``value`` if it is a string UTF-8 can encode, else ValueError."""
    if not isinstance(value, str):
        raise ValueError(f'"{name}" must be a string')
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raise ValueError(f'"{name}" is not encodable as UTF-8') from None
    return value


def _script_entries(raw: dict, name: str, **types: type) -> list[tuple[str, dict]]:
    """(prompt sha256, entry) pairs of one ``to_dict`` table; each entry must
    hold a non-empty ``prompt_sha256`` string and a field of each given type."""
    entries = raw.get(name, [])
    if not isinstance(entries, list):
        raise ValueError(f'"{name}" must be a list')
    pairs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(attr), kind) for attr, kind in types.items()
        ):
            raise ValueError(f"{name}[{i}] must be an object with {', '.join(types)}")
        sha = entry.get("prompt_sha256")
        if not (isinstance(sha, str) and sha):
            raise ValueError(f"{name}[{i}] needs a prompt_sha256 string")
        pairs.append((sha, entry))
    return pairs


@dataclass
class MockScript:
    """Scripted behaviour table for the mock server.

    ``completions`` and ``echoes`` are keyed by the sha256 hex of the exact
    prompt. Completion values are {"text", "tokens"}; echo values are token
    lists for the prompt itself. ``delay_ms`` is applied to every LM/embed
    request to simulate inference latency.
    """

    completions: dict[str, dict] = field(default_factory=dict)
    echoes: dict[str, list[dict]] = field(default_factory=dict)
    delay_ms: int = 0
    embed_dims: int = DEFAULT_EMBED_DIMS

    def script_completion(
        self, prompt: str, text: str, tokens: list[dict] | None = None
    ) -> None:
        if tokens is None:
            tokens = uniform_tokens(text, FALLBACK_LOGPROB)
        self.completions[prompt_sha256(prompt)] = {"text": text, "tokens": tokens}

    def script_echo(self, prompt: str, tokens: list[dict]) -> None:
        self.echoes[prompt_sha256(prompt)] = tokens

    def generate(self, prompt: str) -> dict:
        entry = self.completions.get(prompt_sha256(prompt))
        if entry is None:
            return fallback_completion(prompt)
        return {"text": entry["text"], "tokens": entry["tokens"]}

    def echo(self, prompt: str) -> dict:
        tokens = self.echoes.get(prompt_sha256(prompt))
        if tokens is None:
            tokens = tokens_from_rule(prompt)
        return {"text": prompt, "tokens": tokens}

    def embed(self, instruction: str, inputs: list[str]) -> dict:
        return {
            "embeddings": [
                embed_vector(instruction, text, self.embed_dims) for text in inputs
            ]
        }

    def to_dict(self) -> dict:
        return {
            "delay_ms": self.delay_ms,
            "embed_dims": self.embed_dims,
            "completions": [
                {"prompt_sha256": key, "text": entry["text"], "tokens": entry["tokens"]}
                for key, entry in sorted(self.completions.items())
            ],
            "echoes": [
                {"prompt_sha256": key, "tokens": tokens}
                for key, tokens in sorted(self.echoes.items())
            ],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "MockScript":
        """Inverse of ``to_dict``; a value that is not an object, a field of
        the wrong type or an ``embed_dims`` below 1 raises ValueError."""
        if not isinstance(raw, dict):
            raise ValueError("a mock script must be a JSON object")
        script = cls(
            delay_ms=_int_field(raw, "delay_ms", 0),
            embed_dims=_int_field(raw, "embed_dims", DEFAULT_EMBED_DIMS),
        )
        if script.embed_dims < 1:
            raise ValueError('"embed_dims" must be at least 1')
        for key, entry in _script_entries(raw, "completions", text=str, tokens=list):
            script.completions[key] = {"text": entry["text"], "tokens": entry["tokens"]}
        for key, entry in _script_entries(raw, "echoes", tokens=list):
            script.echoes[key] = entry["tokens"]
        return script

    @classmethod
    def from_json_file(cls, path: str | Path) -> "MockScript":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class _MockHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default backlog of 5 drops SYNs when ten verifications
    # connect at once, and each dropped connect is retried only after 1 s.
    request_queue_size = 128
    owner: "MockLMServer"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def shutdown_open_connections(self) -> None:
        """End every keep-alive connection: each handler thread reads end of
        input and returns, and the client sees the connection closed."""
        with self._open_lock:
            open_now = list(self._open)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # the client closed it already
                pass

    def handle_error(self, request, client_address):
        # Clients that hit their timeout close the socket mid-response;
        # that is expected, not a server fault.
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    server: _MockHTTPServer
    # Keep-alive connections. With Nagle's algorithm on, a reply's body
    # waits for the client's delayed ACK of its headers, about 40 ms per
    # request; so turn it off and buffer ``wfile``, which the handler
    # flushes once per request: headers and body leave in one write.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = -1

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass

    @property
    def mock(self) -> "MockLMServer":
        return self.server.owner

    def _read_body(self) -> dict:
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError(f"Content-Length {raw!r} is not a non-negative integer")
        length = int(raw)
        if length > MAX_REQUEST_BODY_BYTES:
            raise ValueError(
                f"Content-Length {length} is above {MAX_REQUEST_BODY_BYTES} bytes"
            )
        data = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(data.decode("utf-8"))
        except ValueError:
            body = None
        if not isinstance(body, dict):
            raise ValueError("request body is not a JSON object")
        return body

    def _send_json(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    @property
    def _route(self) -> str:
        """The request path without its query string."""
        return self.path.partition("?")[0]

    def do_GET(self):
        if self._route == "/requests":
            self._send_json(200, self.mock.request_log_snapshot())
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):
        try:
            self._post()
        except ValueError as exc:
            # The body may be unread (say, a Content-Length that is not a
            # number), so the next request's start is unknown: close.
            self.close_connection = True
            self._send_json(400, {"error": str(exc)})

    def _post(self) -> None:
        body = self._read_body()
        if self._route == "/generate":
            prompt = _text(body.get("prompt", ""), "prompt")
            kind = "echo" if body.get("echo") else "generate"
            self.mock.log_request_entry(kind, prompt)
            self.mock.apply_delay()
            script = self.mock.script
            result = script.echo(prompt) if kind == "echo" else script.generate(prompt)
            self._send_json(200, result)
        elif self._route == "/embed":
            instruction = _text(body.get("instruction", ""), "instruction")
            inputs = body.get("inputs", [])
            if not isinstance(inputs, list):
                raise ValueError('"inputs" must be a list of strings')
            inputs = [_text(text, "inputs") for text in inputs]
            self.mock.log_request_entry("embed", "\x1f".join([instruction, *inputs]))
            self.mock.apply_delay()
            self._send_json(200, self.mock.script.embed(instruction, inputs))
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})


class MockLMServer:
    """Threaded HTTP server exposing the mock LM on an ephemeral port.

    Routes: POST /generate (generation, or echo scoring when the body sets
    "echo"), POST /embed, and GET /requests (the most recent
    ``REQUEST_LOG_LIMIT`` entries of the request log, each an object of
    "index", "kind" and "prompt"; "index" counts every request since the
    last reset, and an embed request's "prompt" is its instruction and
    inputs joined by U+001F). Speaks HTTP/1.1 with keep-alive and handles
    concurrent connections; responses depend only on request content.
    ``stop`` also ends every open connection.
    """

    def __init__(self, script: MockScript | None = None, port: int = 0):
        self.script = script or MockScript()
        self._log: deque[dict] = deque(maxlen=REQUEST_LOG_LIMIT)
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._httpd = _MockHTTPServer(("127.0.0.1", port), _Handler)
        self._httpd.owner = self
        self._serving = False
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    @property
    def generate_url(self) -> str:
        return f"{self.url}/generate"

    @property
    def embed_url(self) -> str:
        return f"{self.url}/embed"

    def start(self) -> "MockLMServer":
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(STOP_POLL_INTERVAL_S,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        # socketserver's shutdown() waits for a serving loop to end, and
        # waits forever when no loop ever ran.
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.shutdown_open_connections()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "MockLMServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve_forever(self) -> None:
        self._serving = True
        self._httpd.serve_forever()

    def apply_delay(self) -> None:
        if self.script.delay_ms > 0:
            time.sleep(self.script.delay_ms / 1000.0)

    def log_request_entry(self, kind: str, prompt: str) -> None:
        with self._lock:
            self._log.append(
                {"index": sum(self._counts.values()), "kind": kind, "prompt": prompt}
            )
            self._counts[kind] = self._counts.get(kind, 0) + 1

    def request_log_snapshot(self) -> list[dict]:
        """The most recent ``REQUEST_LOG_LIMIT`` entries, oldest first."""
        with self._lock:
            return list(self._log)

    def reset_log(self) -> None:
        with self._lock:
            self._log.clear()
            self._counts.clear()

    def request_counts(self) -> dict[str, int]:
        """Requests of each kind since the last reset, evicted entries included."""
        with self._lock:
            return dict(self._counts)
