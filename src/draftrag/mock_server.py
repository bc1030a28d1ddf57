"""Deterministic mock LM server for generation, echo scoring, and embeddings.

Every numeric path in the pipeline is testable against this server without
real model weights. Responses are pure functions of the request content:

- generation is looked up in a scripted table keyed by the sha256 of the
  prompt; unscripted prompts get a documented fallback completion;
- echo scoring returns one logprob per whitespace-delimited token, either
  from a scripted per-prompt table or from the byte-sum rule below;
- embeddings hash (instruction, text) pairs into unit vectors.

Scripts and ``MockScript`` replies hold tokens as rows {"logprob", "start",
"end"}. On the wire every ``/generate`` reply sends them as the three
parallel arrays of ``core.TOKEN_COLUMNS`` instead (``token_columns``): a
generation reply is its "text" and the three arrays, and an echo reply the
three arrays alone. The client holds the prompt it scores, and a token's
byte range locates its text. The fallback completion is written with the
draft markers of ``core``, the ones the client parses.

A scripted completion or echo (a ``ScriptedReply``) never changes, so the
server encodes it once: the first serve stores its keep-alive response on
the entry, and every later serve sends those bytes. Replies computed from
the request (the fallback completion, the echo rule, embeddings) are
encoded per request.

Tokenization rule: the prompt's UTF-8 bytes are split at runs of
non-whitespace; each token's span stretches to the start of the next token
(trailing whitespace attaches to the preceding token, leading whitespace to
the first), so tokens tile the text. Offsets are byte offsets.

Echo rule: logprob(token) = -(1 + (sum(token bytes) mod 7)) / 10.

Transport: one accept loop gives each connection a thread that runs a
small HTTP/1.1 loop on the raw socket; ``stop`` wakes the accept loop by
shutting the listener down, without polling. The connection's loop reads a
head through ``core.read_http_headers``, the reader the client uses for
reply heads, then exactly the ``Content-Length`` body bytes that
``core.content_length`` reads and caps, keeping any bytes after them for
the next, pipelined request, and writes each whole reply in one
``sendall``. Every reply is a status line with a JSON body. The module
loads only the standard library and ``core``: no numpy, no pipeline
module, no ``http.server`` or ``socketserver``.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http import HTTPStatus
from pathlib import Path

from .core import (
    RATIONALE_MARKER,
    RECV_BYTES,
    RESPONSE_MARKER,
    TOKEN_COLUMNS,
    Incomplete,
    LoneSurrogateError,
    content_length,
    field_value,
    read_http_headers,
    read_http_line,
    read_json_object,
)

DEFAULT_EMBED_DIMS = 8
FALLBACK_LOGPROB = -1.0
# GET /requests keeps only this many of the most recent entries; each holds
# its full prompt, so an unbounded log grows with every request served.
REQUEST_LOG_LIMIT = 1024

_NONSPACE = re.compile(rb"\S+")
# The fields of a token row that ``token_columns`` sends, in the order of
# ``TOKEN_COLUMNS``.
_TOKEN_ROW_KEYS = ("logprob", "start", "end")


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def whitespace_token_spans(text: str) -> list[tuple[int, int]]:
    """Tiling (start, end) byte spans of whitespace tokens, see module docstring."""
    data = text.encode("utf-8")
    starts = [m.start() for m in _NONSPACE.finditer(data)]
    if starts:
        starts[0] = 0
    return list(zip(starts, [*starts[1:], len(data)]))


def echo_rule(token_bytes: bytes) -> float:
    """Documented byte-sum rule mapping token bytes to a logprob."""
    return -(1 + (sum(token_bytes) % 7)) / 10


def tokens_from_rule(text: str) -> list[dict]:
    data = text.encode("utf-8")
    return [
        {"logprob": echo_rule(data[start:end]), "start": start, "end": end}
        for start, end in whitespace_token_spans(text)
    ]


def uniform_tokens(text: str, logprob: float) -> list[dict]:
    return [
        {"logprob": logprob, "start": start, "end": end}
        for start, end in whitespace_token_spans(text)
    ]


def token_columns(reply: dict) -> dict:
    """``reply`` as it goes on the wire: its row-shaped ``tokens`` become the
    parallel arrays ``TOKEN_COLUMNS``, and every other field stays. A reply
    without ``tokens`` is sent as is."""
    if "tokens" not in reply:
        return reply
    wire = {key: value for key, value in reply.items() if key != "tokens"}
    tokens = reply["tokens"]
    for column, key in zip(TOKEN_COLUMNS, _TOKEN_ROW_KEYS):
        wire[column] = [row[key] for row in tokens]
    return wire


def fallback_completion(prompt: str) -> dict:
    """Unscripted prompts echo their last line, all logprobs -1.0."""
    lines = prompt.rstrip("\n").splitlines()
    last = lines[-1] if lines else ""
    text = f"{RATIONALE_MARKER} {last}. {RESPONSE_MARKER} {last}."
    return {"text": text, "tokens": uniform_tokens(text, FALLBACK_LOGPROB)}


def embed_vector(instruction: str, text: str, dims: int = DEFAULT_EMBED_DIMS) -> list[float]:
    """Hash-to-vector rule: component i comes from the sha256 of
    ``f"{instruction}\x1f{text}\x1f{i}"``; the shared prefix is hashed once
    and its digest state copied for each i.

    Each component is uniform in [-1, 1); the vector is L2-normalized. The
    squares are added left to right, so the bits do not depend on the
    Python version: ``sum`` of floats compensates for rounding since 3.12.
    """
    prefix = hashlib.sha256(f"{instruction}\x1f{text}\x1f".encode())
    raw = []
    norm = 0.0
    for i in range(dims):
        component = prefix.copy()
        component.update(b"%d" % i)
        digest = component.digest()
        raw.append(int.from_bytes(digest[:8], "big") / 2**64 * 2 - 1)
        norm += raw[-1] * raw[-1]
    norm **= 0.5
    if norm == 0.0:
        raw[0] = 1.0
        norm = 1.0
    return [v / norm for v in raw]


def _text(value: object, name: str) -> str:
    """``value`` if it is a string, else ValueError."""
    if not isinstance(value, str):
        raise ValueError(f'"{name}" must be a string')
    return value


def _script_entries(raw: dict, name: str, **types: type) -> list[tuple[str, dict]]:
    """(prompt sha256, entry) pairs of one ``to_dict`` table; each entry must
    hold a non-empty ``prompt_sha256`` string and a field of each given type,
    and each row of its ``tokens`` list must be an object with the keys
    ``token_columns`` reads. The values of a row
    are not checked, so a script can send the client any token."""
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
        for j, row in enumerate(entry["tokens"]):
            if not (
                isinstance(row, dict) and all(key in row for key in _TOKEN_ROW_KEYS)
            ):
                raise ValueError(
                    f"{name}[{i}].tokens[{j}] must be an object with "
                    "logprob, start and end"
                )
        pairs.append((sha, entry))
    return pairs


class ScriptedReply(dict):
    """A reply a script holds rather than computes: {"text", "tokens"} for a
    completion, {"tokens"} for an echo. ``response`` is None until
    ``MockLMServer`` first serves it, and from then on its keep-alive HTTP
    response, which every later serve sends as is. So change no entry in
    place: replace it, as ``MockScript.script_completion`` and
    ``script_echo`` do."""

    response: bytes | None = None


@dataclass
class MockScript:
    """Scripted behaviour table for the mock server.

    ``completions`` and ``echoes`` map the sha256 hex of the exact prompt to
    a ``ScriptedReply``, which ``generate`` and ``echo`` return as is:
    {"text", "tokens"} for a completion, {"tokens"} (the prompt's own
    tokens) for an echo. Tokens are rows here, as in script files;
    ``MockLMServer`` sends each reply's rows as parallel arrays
    (``token_columns``), and stores a scripted reply's response on it the
    first time it serves it. Scripts that share these tables, such as one
    per port, share the stored responses too.
    ``delay_ms`` is applied to every LM/embed request to simulate inference
    latency.
    """

    completions: dict[str, ScriptedReply] = field(default_factory=dict)
    echoes: dict[str, ScriptedReply] = field(default_factory=dict)
    delay_ms: int = 0
    embed_dims: int = DEFAULT_EMBED_DIMS

    def script_completion(
        self, prompt: str, text: str, tokens: list[dict] | None = None
    ) -> None:
        if tokens is None:
            tokens = uniform_tokens(text, FALLBACK_LOGPROB)
        self.completions[prompt_sha256(prompt)] = ScriptedReply(text=text, tokens=tokens)

    def script_echo(self, prompt: str, tokens: list[dict]) -> None:
        self.echoes[prompt_sha256(prompt)] = ScriptedReply(tokens=tokens)

    def generate(self, prompt: str) -> dict:
        entry = self.completions.get(prompt_sha256(prompt))
        return fallback_completion(prompt) if entry is None else entry

    def echo(self, prompt: str) -> dict:
        entry = self.echoes.get(prompt_sha256(prompt))
        return {"tokens": tokens_from_rule(prompt)} if entry is None else entry

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
                {"prompt_sha256": key, "tokens": entry["tokens"]}
                for key, entry in sorted(self.echoes.items())
            ],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "MockScript":
        """Inverse of ``to_dict``; a value that is not an object, a field of
        the wrong type, a token row without logprob, start and end, a
        ``delay_ms`` below 0 or an ``embed_dims`` below 1 raises ValueError."""
        if not isinstance(raw, dict):
            raise ValueError("a mock script must be a JSON object")
        defaults = {"delay_ms": 0, "embed_dims": DEFAULT_EMBED_DIMS}
        script = cls(**{k: field_value(k, raw.get(k, d), d) for k, d in defaults.items()})
        if script.delay_ms < 0:
            raise ValueError('"delay_ms" must be at least 0')
        if script.embed_dims < 1:
            raise ValueError('"embed_dims" must be at least 1')
        for key, entry in _script_entries(raw, "completions", text=str, tokens=list):
            script.completions[key] = ScriptedReply(text=entry["text"], tokens=entry["tokens"])
        for key, entry in _script_entries(raw, "echoes", tokens=list):
            script.echoes[key] = ScriptedReply(tokens=entry["tokens"])
        return script

    @classmethod
    def from_json_file(cls, path: str | Path) -> "MockScript":
        """``from_dict`` of a file as ``core.read_json_object`` reads it."""
        return cls.from_dict(read_json_object(Path(path).read_bytes()))


# A request line: a method token, a target and a version, one space apart.
_REQUEST_LINE = re.compile(
    rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+) ([\x21-\x7e]+) HTTP/(\d\.\d)\r?\n"
)
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _Refusal(ValueError):
    """A request refused with ``status``. Any other ValueError a request
    raises refuses it with a 400."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status


def _parse_head(buf: bytes) -> tuple[bytes, str, bytes, dict[bytes, bytes], int]:
    """The method, target, version and headers of the request head at the
    start of ``buf``, and where its body starts. The request line is judged
    as soon as it has arrived; ``core.Incomplete`` says more bytes are
    needed, and a ValueError refuses the request."""
    line, pos = read_http_line(buf, 0)
    match = _REQUEST_LINE.fullmatch(line)
    if not match:
        raise ValueError(f"bad request line {line[:80]!r}")
    method, target, version = match.groups()
    if version not in (b"1.0", b"1.1"):
        raise _Refusal(505, f"HTTP/{version.decode()} is not supported")
    if method not in (b"GET", b"POST"):
        raise _Refusal(501, f"method {method.decode()} is not supported")
    headers, pos = read_http_headers(buf, pos)
    return method, target.decode("ascii"), version, headers, pos


def _read_request(
    sock: socket.socket, buf: bytes
) -> tuple[bytes, str, bool, bytes, bytes] | None:
    """The next request on ``sock``, where ``buf`` holds the bytes received
    but not yet read: its method, target, whether the connection stays open
    after its reply, its body, and the bytes received after it. None if the
    client closes the connection first. A ValueError refuses the request as
    soon as enough of it has arrived to tell; the body is not read then.

    A head is read up to its blank line and a body exactly to its
    ``Content-Length``, so the bytes after it start the next request. A
    request that expects ``100 Continue`` gets it once its head is
    accepted, if its body has not arrived with it."""
    while True:
        if buf:  # an empty buffer is known to hold no head yet
            try:
                method, target, version, headers, pos = _parse_head(buf)
                break
            except Incomplete:
                pass
        piece = sock.recv(RECV_BYTES)
        if not piece:
            return None
        buf += piece
    if b"transfer-encoding" in headers:
        raise ValueError("Transfer-Encoding is not supported: send a Content-Length")
    end = pos + (content_length(headers) or 0)
    connection = headers.get(b"connection", b"").lower()
    keep_alive = b"close" not in connection and (
        version == b"1.1" or b"keep-alive" in connection
    )
    expects = headers.get(b"expect", b"").lower() == b"100-continue"
    if len(buf) < end and expects and version == b"1.1":
        sock.sendall(_CONTINUE)
    pieces = [buf[pos:end]]
    missing = end - pos - len(pieces[0])
    while missing > 0:
        piece = sock.recv(min(missing, RECV_BYTES))
        if not piece:
            return None
        pieces.append(piece)
        missing -= len(piece)
    return method, target, keep_alive, b"".join(pieces), buf[end:]


def _json_body(data: bytes) -> dict:
    """The JSON object a POST body holds; an empty body is ``{}``."""
    try:
        return read_json_object(data or b"{}")
    except LoneSurrogateError:
        raise  # its reason names the field
    except ValueError:
        raise ValueError("request body is not a JSON object") from None


def _response(status: int, body: bytes, keep_alive: bool) -> bytes:
    """A whole reply: status line, headers and the JSON ``body``."""
    close = "" if keep_alive else "Connection: close\r\n"
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n{close}\r\n"
    )
    return head.encode("ascii") + body


def _reply(status: int, payload: object, keep_alive: bool) -> bytes:
    """A whole reply with ``payload`` as its JSON body."""
    return _response(status, json.dumps(payload).encode("utf-8"), keep_alive)


def _generate_reply(reply: dict, keep_alive: bool) -> bytes:
    """The whole reply to a ``/generate`` request the script answered with
    ``reply``. A ``ScriptedReply`` is encoded the first time it is served,
    and its keep-alive reply stored on it; later serves send those bytes,
    under the closing head if the connection closes after them."""
    if not isinstance(reply, ScriptedReply):
        return _reply(200, token_columns(reply), keep_alive)
    stored = reply.response
    if stored is None:
        # Every port's connection threads share the entries, so two may
        # store one at once: they store equal bytes, and either may stand.
        stored = reply.response = _reply(200, token_columns(reply), True)
    if keep_alive:
        return stored
    return _response(200, stored[stored.index(b"\r\n\r\n") + 4 :], False)


class MockLMServer:
    """HTTP server exposing the mock LM on an ephemeral port. It listens
    from construction; ``serve_forever`` is its accept loop, and ``start``
    runs that loop on a daemon thread.

    Routes: POST /generate (generation, or echo scoring when the body sets
    "echo"), POST /embed, and GET /requests (the most recent
    ``REQUEST_LOG_LIMIT`` entries of the request log, each an object of
    "index", "kind" and "prompt"; "index" counts every request since the
    last reset, and an embed request's "prompt" is its instruction and
    inputs joined by U+001F). Speaks HTTP/1.1 with keep-alive, one thread
    per connection, so the sleeps of concurrent requests overlap; responses
    depend only on request content. A method other than GET or POST gets a
    501, a version other than HTTP/1.0 or 1.1 a 505, and any other request
    it cannot read, including one with a ``Transfer-Encoding``, a 400; each
    refusal is a JSON ``{"error": ...}`` reply that closes the connection
    and is neither logged nor counted. ``stop`` returns at once: it wakes
    the accept loop, closes the listener and ends every open connection.
    """

    def __init__(self, script: MockScript | None = None, port: int = 0):
        self.script = script or MockScript()
        self._log: deque[dict] = deque(maxlen=REQUEST_LOG_LIMIT)
        self._counts: dict[str, int] = {}
        self._total = 0  # the sum of ``_counts``
        self._lock = threading.Lock()
        self._open: set[socket.socket] = set()  # accepted and not yet closed
        self._listener = socket.socket()
        try:  # closed on any failure, an OverflowError for port 99999 too
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(("127.0.0.1", port))
            # A backlog of 5 drops SYNs when ten verifications connect at
            # once, and each dropped connect is retried only after 1 s.
            self._listener.listen(128)
        except BaseException:
            self._listener.close()
            raise
        self.port: int = self._listener.getsockname()[1]
        self._thread: threading.Thread | None = None

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
        """Run ``serve_forever`` on a daemon thread."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the listener and end every open connection;
        also frees the port of a server that never served."""
        try:
            # On Linux this fails a blocked ``accept`` at once, and every
            # later one.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # closed by an earlier ``stop``
            pass
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._listener.close()
        self._shutdown_open_connections()

    def __enter__(self) -> "MockLMServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Accept connections until ``stop``, each served by
        ``_serve_connection`` on a daemon thread of its own."""
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # ``stop`` shut the listener down
                return
            with self._lock:
                self._open.add(sock)
            threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            ).start()

    def _shutdown_open_connections(self) -> None:
        """End every open connection: its thread reads end of input and
        returns. The lock keeps each socket open while it is shut down."""
        with self._lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client closed it already
                    pass

    def _serve_connection(self, sock: socket.socket) -> None:
        """Answer the requests on one connection, each reply in one
        ``sendall``, until the client or a reply closes it."""
        try:
            # With Nagle's algorithm on, a reply sent after a 100 Continue
            # waits for the client's delayed ACK, about 40 ms.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buf = b""
            while True:
                try:
                    request = _read_request(sock, buf)
                    if request is None:
                        return
                    method, target, keep_alive, body, buf = request
                    response = self._answer(method, target, body, keep_alive)
                except ValueError as exc:
                    # The request may be partly unread, so where the next
                    # one starts is unknown: close.
                    status = exc.status if isinstance(exc, _Refusal) else 400
                    response = _reply(status, {"error": str(exc)}, False)
                    keep_alive = False
                sock.sendall(response)
                if not keep_alive:
                    return
        except (BrokenPipeError, ConnectionResetError):
            # Clients that hit their timeout close the socket mid-response;
            # that is expected, not a server fault.
            pass
        finally:
            with self._lock:
                self._open.discard(sock)
            sock.close()

    def _answer(self, method: bytes, target: str, body: bytes, keep_alive: bool) -> bytes:
        """The whole reply to a request; a ValueError refuses the request,
        which is then neither logged nor counted."""
        route = target.partition("?")[0]
        if method == b"GET":
            if route == "/requests":
                return _reply(200, self.request_log_snapshot(), keep_alive)
            return _reply(404, {"error": f"unknown path {target}"}, keep_alive)
        fields = _json_body(body)
        if route == "/generate":
            prompt = _text(fields.get("prompt", ""), "prompt")
            kind = "echo" if fields.get("echo") else "generate"
            self.log_request_entry(kind, prompt)
            self.apply_delay()
            script = self.script
            reply = script.echo(prompt) if kind == "echo" else script.generate(prompt)
            return _generate_reply(reply, keep_alive)
        if route == "/embed":
            instruction = _text(fields.get("instruction", ""), "instruction")
            inputs = fields.get("inputs", [])
            if not isinstance(inputs, list):
                raise ValueError('"inputs" must be a list of strings')
            inputs = [_text(text, "inputs") for text in inputs]
            self.log_request_entry("embed", "\x1f".join([instruction, *inputs]))
            self.apply_delay()
            return _reply(200, self.script.embed(instruction, inputs), keep_alive)
        return _reply(404, {"error": f"unknown path {target}"}, keep_alive)

    def apply_delay(self) -> None:
        if self.script.delay_ms > 0:
            time.sleep(self.script.delay_ms / 1000.0)

    def log_request_entry(self, kind: str, prompt: str) -> None:
        with self._lock:
            self._log.append({"index": self._total, "kind": kind, "prompt": prompt})
            self._total += 1
            self._counts[kind] = self._counts.get(kind, 0) + 1

    def request_log_snapshot(self) -> list[dict]:
        """The most recent ``REQUEST_LOG_LIMIT`` entries, oldest first."""
        with self._lock:
            return list(self._log)

    def reset_log(self) -> None:
        with self._lock:
            self._log.clear()
            self._counts.clear()
            self._total = 0

    def request_counts(self) -> dict[str, int]:
        """Requests of each kind since the last reset, evicted entries included."""
        with self._lock:
            return dict(self._counts)
