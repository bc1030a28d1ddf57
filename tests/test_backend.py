import gc
import hashlib
import json
import math
import os
import re
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftrag import backend
from draftrag.backend import (
    UNHEALTHY_AFTER_FAILURES,
    EndpointConnectionError,
    EndpointDescriptor,
    EndpointTimeout,
    EndpointUnavailableError,
    MalformedResponseError,
    TransportError,
    dispatch,
    fan_out,
    round_robin_assign,
)
from draftrag.core import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    MAX_LINE_BYTES,
    PipelineConfig,
    parse_endpoint_url,
    validate_config,
)
from draftrag.drafting import TOKEN_COLUMNS
from draftrag.mock_server import (
    REQUEST_LOG_LIMIT,
    MockLMServer,
    MockScript,
    echo_rule,
    embed_vector,
    fallback_completion,
    prompt_sha256,
    token_columns,
    uniform_tokens,
    whitespace_token_spans,
)
from json_strategies import (
    ANY_TEXT,
    DEEPEST,
    JSON_VALUES,
    NESTED_ARRAYS,
    NUMBERS,
    READABLE_TEXT,
    nested_arrays,
)
from reference_texts import NIRVANA_COMPLETION, NIRVANA_PROMPT


def drafter(url: str) -> EndpointDescriptor:
    return EndpointDescriptor(url)


def mark_unhealthy(endpoint: EndpointDescriptor, timeout_ms: int = 60_000) -> None:
    for _ in range(UNHEALTHY_AFTER_FAILURES):
        endpoint.record_failure(timeout_ms)


def record_connects(patch: pytest.MonkeyPatch, refuse: bool = False) -> list:
    """Patch ``backend._connect`` to record the URL of each connect, and
    with ``refuse`` to refuse them all; the list it records to."""
    opened = []
    real_connect = backend._connect

    def connect(url, timeout_s):
        opened.append(url)
        if refuse:
            raise ConnectionRefusedError("not connecting in this test")
        return real_connect(url, timeout_s)

    patch.setattr(backend, "_connect", connect)
    return opened


def http(method: str, url: str, body: bytes | None = None):
    """(status, decoded JSON body) of one request to a mock route."""
    parts = urlsplit(url)
    target = f"{parts.path}?{parts.query}" if parts.query else parts.path
    conn = HTTPConnection(parts.netloc, timeout=5)
    try:
        conn.request(method, target, body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class RawConnection:
    """A client socket to a mock server: sends raw bytes and reads replies
    framed by their Content-Length, keeping any bytes that follow one."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.buf = b""

    def __enter__(self) -> "RawConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.sock.close()

    def send(self, data: bytes, one_byte_at_a_time: bool = False) -> None:
        """Send ``data``; stop quietly if the server has closed meanwhile."""
        pieces = [data[i : i + 1] for i in range(len(data))] if one_byte_at_a_time else [data]
        try:
            for piece in pieces:
                self.sock.sendall(piece)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def fill(self) -> bool:
        try:
            piece = self.sock.recv(65536)
        except ConnectionResetError:
            piece = b""
        self.buf += piece
        return bool(piece)

    def raw_reply(self) -> bytes:
        """The next reply as sent: its head and the body its Content-Length
        frames."""
        while b"\r\n\r\n" not in self.buf:
            assert self.fill(), f"connection closed inside a reply head: {self.buf!r}"
        body_at = self.buf.index(b"\r\n\r\n") + 4
        length = re.search(rb"\r\nContent-Length: (\d+)\r\n", self.buf[:body_at])
        assert length, f"reply without a Content-Length: {self.buf[:body_at]!r}"
        end = body_at + int(length[1])
        while len(self.buf) < end:
            assert self.fill(), "connection closed inside a reply body"
        reply, self.buf = self.buf[:end], self.buf[end:]
        return reply

    def reply(self) -> tuple[int, dict[str, str], object]:
        """Status, headers and JSON body of the next reply; it must be a
        whole HTTP/1.1 reply framed by its Content-Length."""
        head, body = self.raw_reply().split(b"\r\n\r\n", 1)
        status_line, *lines = head.decode("ascii").split("\r\n")
        version, status, _reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1" and status.isdigit(), status_line
        headers = dict(line.split(": ", 1) for line in lines)
        assert headers["Content-Type"] == "application/json"
        return int(status), headers, json.loads(body)

    def closed_by_server(self) -> bool:
        """Whether the server closes the connection with nothing more sent."""
        return not self.buf and not self.fill()


def post(prompt: str, echo: bool = False, close: bool = False) -> bytes:
    """A ``/generate`` request for ``prompt``, as an echo with ``echo``, and
    asking the server to close after its reply with ``close``."""
    fields = {"prompt": prompt, "echo": True} if echo else {"prompt": prompt}
    body = json.dumps(fields).encode()
    connection = b"Connection: close\r\n" if close else b""
    head = b"POST /generate HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n" % (connection, len(body))
    return head + body


def free_port_url(path="/generate") -> str:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{s.getsockname()[1]}{path}"


class SlowForPrompt(MockScript):
    """Generation of the prompt "slow" takes 300 ms; every other is immediate."""

    def generate(self, prompt):
        if prompt == "slow":
            time.sleep(0.3)
        return super().generate(prompt)


class TestDispatch:
    def test_success_records_latency(self, mock_server):
        ep = drafter(mock_server.generate_url)
        body = dispatch(ep, {"prompt": "hi", "max_tokens": 8}, 5000)
        assert set(body) == {"text", *TOKEN_COLUMNS}
        assert ep.consecutive_failures == 0

    def test_timeout_is_distinct_error(self, server_factory):
        server = server_factory(script=MockScript(delay_ms=500))
        ep = drafter(server.generate_url)
        with pytest.raises(EndpointTimeout):
            dispatch(ep, {"prompt": "hi"}, 80)
        assert ep.consecutive_failures == 1

    def test_connection_refused_is_distinct_error(self):
        ep = drafter(free_port_url())
        with pytest.raises(EndpointConnectionError):
            dispatch(ep, {"prompt": "hi"}, 500)

    def test_https_to_a_plain_http_server_is_a_connection_error(self, mock_server):
        ep = drafter(mock_server.generate_url.replace("http://", "https://"))
        with pytest.raises(EndpointConnectionError):
            dispatch(ep, {"prompt": "hi"}, 5000)
        assert ep.consecutive_failures == 1

    def test_unexpected_status_is_malformed_response(self, mock_server):
        ep = drafter(f"{mock_server.url}/not-a-route")
        with pytest.raises(MalformedResponseError):
            dispatch(ep, {"prompt": "hi"}, 5000)

    def test_three_failures_mark_unhealthy_then_skip(self, server_factory):
        server = server_factory(script=MockScript(delay_ms=300))
        ep = drafter(server.generate_url)
        for _ in range(3):
            with pytest.raises(EndpointTimeout):
                dispatch(ep, {"prompt": "hi"}, 50)
        assert ep.healthy is False
        requests_before = len(server.request_log_snapshot())
        with pytest.raises(EndpointUnavailableError):
            dispatch(ep, {"prompt": "hi"}, 50)
        assert len(server.request_log_snapshot()) == requests_before

    def test_no_connection_is_opened_within_the_cooldown_and_one_after_it(
        self, monkeypatch
    ):
        # Refused at once; the cooldown is UNHEALTHY_COOLDOWN_TIMEOUTS * 100 ms.
        cooldown_s = backend.UNHEALTHY_COOLDOWN_TIMEOUTS * 0.1
        opened = record_connects(monkeypatch, refuse=True)
        ep = drafter(free_port_url())
        for _ in range(UNHEALTHY_AFTER_FAILURES):
            with pytest.raises(EndpointConnectionError):
                dispatch(ep, {"prompt": "hi"}, 100)
        for _ in range(3):
            with pytest.raises(EndpointUnavailableError):
                dispatch(ep, {"prompt": "hi"}, 100)
        assert len(opened) == UNHEALTHY_AFTER_FAILURES
        time.sleep(cooldown_s + 0.05)
        with pytest.raises(EndpointConnectionError):
            dispatch(ep, {"prompt": "hi"}, 100)
        assert len(opened) == UNHEALTHY_AFTER_FAILURES + 1

    def test_a_failed_probe_after_the_cooldown_skips_the_endpoint_again(self):
        ep = drafter(free_port_url())
        mark_unhealthy(ep, timeout_ms=50)
        with pytest.raises(EndpointUnavailableError):
            dispatch(ep, {"prompt": "hi"}, 100)
        time.sleep(backend.UNHEALTHY_COOLDOWN_TIMEOUTS * 0.05 + 0.05)
        assert ep.healthy
        with pytest.raises(EndpointConnectionError):
            dispatch(ep, {"prompt": "hi"}, 100)
        assert ep.healthy is False
        with pytest.raises(EndpointUnavailableError):
            dispatch(ep, {"prompt": "hi"}, 100)
        assert ep.consecutive_failures == UNHEALTHY_AFTER_FAILURES + 1

    def test_one_probe_goes_to_an_endpoint_that_never_replies(self, monkeypatch):
        # The listener takes connections into its backlog and never reads
        # them, so every request sent to it times out.
        with socket.create_server(("127.0.0.1", 0)) as silent:
            ep = drafter(f"http://127.0.0.1:{silent.getsockname()[1]}/generate")
            mark_unhealthy(ep, timeout_ms=50)
            time.sleep(backend.UNHEALTHY_COOLDOWN_TIMEOUTS * 0.05 + 0.05)
            opened = record_connects(monkeypatch)
            results = fan_out([reply_or_error(ep, str(i)) for i in range(4)], 200)
            assert len(opened) == 1
            assert [type(r) for r in results] == [EndpointTimeout] + [
                EndpointUnavailableError
            ] * 3
            # The failed probe starts a new cooldown of three of its timeouts.
            assert ep.healthy is False
            assert ep._retry_at - time.monotonic() > 0.4
            with pytest.raises(EndpointUnavailableError):
                dispatch(ep, {"prompt": "hi"}, 200)
            assert len(opened) == 1

    def test_success_resets_failure_counter(self, server_factory):
        ep = drafter(server_factory(script=SlowForPrompt()).generate_url)
        for _ in range(2):
            with pytest.raises(EndpointTimeout):
                dispatch(ep, {"prompt": "slow"}, 50)
        dispatch(ep, {"prompt": "fast"}, 5000)
        assert ep.consecutive_failures == 0
        assert ep.healthy is True


class TestKeepAlive:
    def test_sequential_dispatches_reuse_one_connection(self, mock_server):
        ep = drafter(mock_server.generate_url)
        dispatch(ep, {"prompt": "a"}, 5000)
        [sock] = ep._idle
        local_port = sock.getsockname()[1]
        for prompt in ("b", "c"):
            dispatch(ep, {"prompt": prompt}, 5000)
        assert len(ep._idle) == 1
        assert ep._idle[0] is sock
        assert sock.getsockname()[1] == local_port

    def test_next_request_after_a_timeout_reads_its_own_reply(self, server_factory):
        server = server_factory(script=SlowForPrompt())
        ep = drafter(server.generate_url)
        dispatch(ep, {"prompt": "fast"}, 5000)
        with pytest.raises(EndpointTimeout):
            dispatch(ep, {"prompt": "slow"}, 50)
        assert ep._idle == []
        time.sleep(0.4)  # the late reply to "slow" has been sent by now
        body = dispatch(ep, {"prompt": "fast"}, 5000)
        assert body["text"] == "## Rationale: fast. ## Response: fast."
        assert ep.consecutive_failures == 0

    def test_connection_closed_by_the_server_is_retried(self, mock_server):
        ep = drafter(mock_server.generate_url)
        dispatch(ep, {"prompt": "a"}, 5000)
        [stale] = ep._idle
        mock_server._shutdown_open_connections()
        time.sleep(0.1)
        body = dispatch(ep, {"prompt": "b"}, 5000)
        assert body["text"] == "## Rationale: b. ## Response: b."
        assert ep.consecutive_failures == 0
        assert ep._idle != [stale]
        assert mock_server.request_counts() == {"generate": 2}

    def test_stopped_server_answers_no_pooled_connection(self):
        server = MockLMServer().start()
        ep = drafter(server.generate_url)
        dispatch(ep, {"prompt": "a"}, 5000)
        assert len(ep._idle) == 1
        server.stop()
        with pytest.raises(EndpointConnectionError):
            dispatch(ep, {"prompt": "b"}, 5000)
        assert len(server.request_log_snapshot()) == 1
        assert ep.consecutive_failures == 1

    def test_stop_without_start_returns_and_closes_the_socket(self):
        server = MockLMServer()
        port = server.port
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=1).close()

    def test_payload_that_cannot_be_encoded_takes_no_socket_and_counts_nothing(
        self, mock_server
    ):
        ep = drafter(mock_server.generate_url)
        dispatch(ep, {"prompt": "a"}, 5000)
        [sock] = ep._idle
        ep.record_failure(5000)
        with pytest.raises(TypeError):
            dispatch(ep, {"prompt": object()}, 5000)
        assert ep._idle == [sock]
        assert ep.consecutive_failures == 1
        assert mock_server.request_counts() == {"generate": 1}

    def test_concurrent_calls_never_share_a_connection(self, mock_server):
        ep = drafter(mock_server.generate_url)
        workers, calls = 8, 25

        def call(i):
            prompt = f"p{i}"
            return prompt, dispatch(ep, {"prompt": prompt}, 5000)["text"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(call, i) for i in range(workers * calls)]
                replies = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for prompt, text in replies:
            assert text == f"## Rationale: {prompt}. ## Response: {prompt}."
        assert ep.consecutive_failures == 0
        idle = ep._idle
        assert 1 <= len(idle) <= workers
        assert len({id(conn) for conn in idle}) == len(idle)
        assert mock_server.request_counts() == {"generate": workers * calls}

    def test_dropped_descriptor_closes_its_idle_connections(self, mock_server):
        ep = drafter(mock_server.generate_url)
        dispatch(ep, {"prompt": "a"}, 5000)
        [sock] = ep._idle
        del ep
        gc.collect()
        assert sock.fileno() == -1


class ScriptedServer:
    """A raw TCP server that answers every request with scripted bytes.

    Connections are served one at a time: the request is read in full, then
    ``reply`` is sent as it is and the connection is closed if ``close`` is
    set, or else held open until the next connection arrives or
    ``reset_held`` ends it.
    """

    def __init__(self):
        self.reply = b""
        self.close = True
        self.requests: list[bytes] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}/generate"
        self._held: list[socket.socket] = []
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            while not self._stopping.is_set():
                try:
                    conn, _ = self._listener.accept()
                except TimeoutError:
                    continue
                for old in self._held:
                    old.close()
                self._held = [conn]
                conn.settimeout(5)
                try:
                    self.requests.append(read_request(conn))
                    conn.sendall(self.reply)
                except OSError:
                    pass
                if self.close:
                    conn.close()
        finally:
            for old in self._held:
                old.close()

    def reset_held(self):
        """End the held connection with a reset (RST) rather than a FIN:
        with a zero linger time, closing the socket resets it."""
        for conn in self._held:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()

    def stop(self):
        self._stopping.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        self._listener.close()


def read_request(conn: socket.socket) -> bytes:
    """One request: its head, then as many body bytes as it says."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    fields = dict(line.split(b": ", 1) for line in head.split(b"\r\n")[1:])
    while len(body) < int(fields.get(b"Content-Length", b"0")):
        chunk = conn.recv(65536)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


@pytest.fixture(scope="module")
def scripted():
    server = ScriptedServer()
    yield server
    server.stop()


def reply_with(body: bytes, *headers: bytes, status=b"HTTP/1.1 200 OK") -> bytes:
    return b"\r\n".join([status, *headers, b"", body])


def chunked(*pieces: bytes) -> bytes:
    return b"".join(b"%x\r\n%s\r\n" % (len(p), p) for p in pieces) + b"0\r\n\r\n"


class TestFraming:
    def test_chunked_reply_decodes_and_is_pooled(self, scripted):
        body = b'3;ext=1\r\n{"t\r\n' + chunked(b'ext": ', b'"hi"}')
        # One trailer line between the last chunk and the closing blank line.
        body = body[:-2] + b"X-Trailer: 1\r\n\r\n"
        scripted.reply = reply_with(body, b"Transfer-Encoding: chunked")
        scripted.close = False
        ep = drafter(scripted.url)
        assert dispatch(ep, {"prompt": "a"}, 5000) == {"text": "hi"}
        assert len(ep._idle) == 1
        assert ep.consecutive_failures == 0

    @pytest.mark.parametrize("version", [b"HTTP/1.0", b"HTTP/1.1"])
    def test_reply_without_a_length_is_read_to_close_and_not_pooled(
        self, scripted, version
    ):
        scripted.reply = reply_with(b'{"text": "to the end"}', status=version + b" 200 OK")
        scripted.close = True
        ep = drafter(scripted.url)
        assert dispatch(ep, {"prompt": "a"}, 5000) == {"text": "to the end"}
        assert ep._idle == []

    def test_http_1_0_reply_with_a_length_is_not_pooled(self, scripted):
        body = b'{"text": "old"}'
        scripted.reply = reply_with(
            body, b"Content-Length: %d" % len(body), status=b"HTTP/1.0 200 OK"
        )
        scripted.close = False
        ep = drafter(scripted.url)
        assert dispatch(ep, {"prompt": "a"}, 5000) == {"text": "old"}
        assert ep._idle == []

    def test_connection_close_reply_is_not_pooled(self, scripted):
        body = b'{"text": "bye"}'
        scripted.reply = reply_with(
            body, b"Content-Length: %d" % len(body), b"Connection: Close"
        )
        scripted.close = False
        ep = drafter(scripted.url)
        assert dispatch(ep, {"prompt": "a"}, 5000) == {"text": "bye"}
        assert ep._idle == []

    def test_headers_at_the_limits_are_accepted(self, scripted):
        body = b'{"text": "many"}'
        longest = b"X-Long: " + b"a" * (MAX_LINE_BYTES - len(b"X-Long: \r\n"))
        headers = [longest] + [b"X-H%d: v" % i for i in range(MAX_HEADERS - 2)]
        scripted.reply = reply_with(body, *headers, b"Content-Length: %d" % len(body))
        scripted.close = False
        ep = drafter(scripted.url)
        assert dispatch(ep, {"prompt": "a"}, 5000) == {"text": "many"}
        assert len(ep._idle) == 1

    @pytest.mark.parametrize(
        "reply",
        [
            pytest.param(reply_with(b'{"text"', b"Content-Length: 100"), id="cut-body"),
            pytest.param(
                reply_with(b"5\r\n{}", b"Transfer-Encoding: chunked"), id="cut-chunk"
            ),
            pytest.param(b"HTTP/1.1 200 OK\r\nContent-Le", id="cut-head"),
            pytest.param(reply_with(b"{}", status=b"HTTQ/1.1 200 OK"), id="bad-version"),
            pytest.param(reply_with(b"{}", status=b"HTTP/1.1 2x0 OK"), id="bad-status"),
            pytest.param(b"HTTP/1.1 200 OK", id="status-line-unterminated"),
            pytest.param(
                reply_with(b"{}", b"X-Long: " + b"a" * MAX_LINE_BYTES), id="long-header"
            ),
            pytest.param(
                reply_with(b"{}", *[b"X-H%d: v" % i for i in range(MAX_HEADERS + 1)]),
                id="101-headers",
            ),
            pytest.param(reply_with(b"{}", b"no colon"), id="bad-header"),
            pytest.param(
                reply_with(b"{}", b"Content-Length: -2"), id="bad-content-length"
            ),
            pytest.param(
                reply_with(b"zz\r\n", b"Transfer-Encoding: chunked"), id="bad-chunk-size"
            ),
            pytest.param(
                reply_with(b"2\r\n{}XX0\r\n\r\n", b"Transfer-Encoding: chunked"),
                id="chunk-without-crlf",
            ),
            pytest.param(
                reply_with(b"{}", b"Transfer-Encoding: gzip"), id="unknown-coding"
            ),
        ],
    )
    def test_broken_framing_is_a_connection_error_counted_once(self, scripted, reply):
        scripted.reply = reply
        scripted.close = True
        ep = drafter(scripted.url)
        with pytest.raises(EndpointConnectionError):
            dispatch(ep, {"prompt": "a"}, 5000)
        assert ep.consecutive_failures == 1
        assert ep._idle == []

    @pytest.mark.parametrize(
        "reply",
        [
            pytest.param(
                reply_with(b"", b"Content-Length: %d" % (MAX_BODY_BYTES + 1)),
                id="declared-length",
            ),
            pytest.param(
                reply_with(b"%x\r\n" % (MAX_BODY_BYTES + 1), b"Transfer-Encoding: chunked"),
                id="chunk-size",
            ),
            pytest.param(
                reply_with(
                    b"10\r\n%s\r\n%x\r\n" % (b"x" * 16, MAX_BODY_BYTES),
                    b"Transfer-Encoding: chunked",
                ),
                id="chunk-size-past-the-running-total",
            ),
            pytest.param(reply_with(b"x" * (MAX_BODY_BYTES + 1)), id="close-delimited"),
        ],
    )
    def test_body_over_the_cap_is_refused_before_the_server_closes(self, scripted, reply):
        # The server holds the connection open after these bytes: no more of
        # the body arrives, so only the cap can end the request before its
        # timeout.
        scripted.reply = reply
        scripted.close = False
        ep = drafter(scripted.url)
        with pytest.raises(EndpointConnectionError, match=f"above {MAX_BODY_BYTES} bytes"):
            dispatch(ep, {"prompt": "a"}, 2000)
        assert ep.consecutive_failures == 1
        assert ep._idle == []

    @pytest.mark.parametrize("framing", ["content-length", "chunked", "close-delimited"])
    def test_body_at_the_cap_is_read(self, scripted, framing):
        text = "x" * (MAX_BODY_BYTES - len(b'{"text": ""}'))
        body = json_bytes({"text": text})
        assert len(body) == MAX_BODY_BYTES
        scripted.reply = {
            "content-length": reply_with(body, b"Content-Length: %d" % len(body)),
            "chunked": reply_with(chunked(body), b"Transfer-Encoding: chunked"),
            "close-delimited": reply_with(body),
        }[framing]
        scripted.close = True
        assert dispatch(drafter(scripted.url), {"prompt": "a"}, 5000) == {"text": text}

    @pytest.mark.parametrize(
        "body, reason",
        [
            pytest.param(nested_arrays(DEEPEST), "JSON nested deeper", id="nested"),
            pytest.param(
                b'{"text": %s}' % nested_arrays(DEEPEST),
                "JSON nested deeper",
                id="nested-field",
            ),
            pytest.param('{"text": "hi"}'.encode("utf-16"), "not UTF-8", id="utf-16"),
            pytest.param(b'{"text": "\xed\xa0\x80"}', "not UTF-8", id="surrogate"),
            pytest.param(b"[1]", "not a JSON object", id="array"),
        ],
    )
    def test_body_that_is_not_a_json_object_is_malformed_and_counted(
        self, scripted, body, reason
    ):
        scripted.reply = reply_with(body, b"Content-Length: %d" % len(body))
        scripted.close = False
        ep = drafter(scripted.url)
        with pytest.raises(MalformedResponseError, match=f"response body: {reason}"):
            dispatch(ep, {"prompt": "a"}, 5000)
        assert ep.consecutive_failures == 1

    def test_pooled_connection_reset_before_the_send_is_resent_on_a_new_one(
        self, scripted, monkeypatch
    ):
        body = b'{"text": "ok"}'
        scripted.reply = reply_with(body, b"Content-Length: %d" % len(body))
        scripted.close = False
        ep = drafter(scripted.url)
        assert dispatch(ep, {"prompt": "a"}, 5000) == {"text": "ok"}
        [stale] = ep._idle
        scripted.reset_held()
        time.sleep(0.1)  # the reset has reached the pooled socket by now
        opened = record_connects(monkeypatch)
        scripted.requests.clear()
        assert dispatch(ep, {"prompt": "b"}, 5000) == {"text": "ok"}
        [request] = scripted.requests
        assert json.loads(request.partition(b"\r\n\r\n")[2]) == {"prompt": "b"}
        assert opened == [parse_endpoint_url(scripted.url)]
        assert ep.consecutive_failures == 0
        assert stale.fileno() == -1
        assert ep._idle != [stale]

    def test_request_carries_host_type_and_exact_length(self, scripted):
        body = b'{"text": "ok"}'
        scripted.reply = reply_with(body, b"Content-Length: %d" % len(body))
        scripted.close = True
        scripted.requests.clear()
        payload = {"prompt": "café ☃", "max_tokens": 8}
        dispatch(drafter(scripted.url), payload, 5000)
        [request] = scripted.requests
        head, _, sent = request.partition(b"\r\n\r\n")
        request_line, *header_lines = head.split(b"\r\n")
        fields = {}
        for line in header_lines:
            name, _, value = line.partition(b": ")
            fields[name.lower()] = value
        assert request_line == b"POST /generate HTTP/1.1"
        assert fields[b"host"] == urlsplit(scripted.url).netloc.encode()
        assert fields[b"content-type"] == b"application/json"
        assert fields[b"content-length"] == str(len(sent)).encode()
        assert json.loads(sent) == payload

    def test_request_line_carries_the_query_string(self, scripted):
        body = b'{"text": "ok"}'
        scripted.reply = reply_with(body, b"Content-Length: %d" % len(body))
        scripted.close = True
        scripted.requests.clear()
        dispatch(drafter(f"{scripted.url}?key=abc&v=1"), {"prompt": "a"}, 5000)
        [request] = scripted.requests
        assert request.split(b"\r\n", 1)[0] == b"POST /generate?key=abc&v=1 HTTP/1.1"

    def test_space_in_the_query_string_is_refused_unsent(self, scripted, monkeypatch):
        scripted.requests.clear()
        opened = record_connects(monkeypatch)
        url = f"{scripted.url}?key=a b"
        with pytest.raises(ValueError, match="space or non-ASCII") as refused:
            drafter(url)
        assert validate_config(PipelineConfig(verifier_endpoint=url)) == [
            str(refused.value)
        ]
        assert (opened, scripted.requests) == ([], [])

    def test_url_that_does_not_parse_is_refused_when_the_descriptor_is_made(
        self, monkeypatch
    ):
        opened = record_connects(monkeypatch)
        url = "http://[::1/generate"
        with pytest.raises(ValueError, match="must be an http") as refused:
            drafter(url)
        assert validate_config(PipelineConfig(verifier_endpoint=url)) == [
            str(refused.value)
        ]
        assert opened == []


TLS_DIR = Path(__file__).resolve().parent / "tls"


def trusting_tls_context() -> ssl.SSLContext:
    """A client context that trusts the self-signed certificate in
    ``tests/tls``, made for 127.0.0.1 and valid until 2125."""
    return ssl.create_default_context(cafile=TLS_DIR / "cert.pem")


class TLSServer:
    """An HTTPS server on 127.0.0.1 with the certificate in ``tests/tls``.

    Each connection gets a thread, which answers every request on it with
    ``reply`` and keeps it open until the client closes it; with ``cut``
    set, it sends only the first ``cut`` bytes of ``reply`` and closes.
    """

    def __init__(self, reply: bytes, cut: int | None = None):
        self.reply, self.cut = reply, cut
        self.requests: list[bytes] = []
        self._context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        self._context.load_cert_chain(TLS_DIR / "cert.pem", TLS_DIR / "key.pem")
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"https://127.0.0.1:{self._listener.getsockname()[1]}/generate"
        self._threads: list[threading.Thread] = []
        self._accepting = threading.Thread(target=self._accept, daemon=True)
        self._accepting.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # ``stop`` shut the listener down
                return
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket):
        conn.settimeout(5)
        try:
            with self._context.wrap_socket(conn, server_side=True) as tls:
                while request := read_request(tls):
                    self.requests.append(request)
                    if self.cut is not None:
                        tls.sendall(self.reply[: self.cut])
                        return
                    tls.sendall(self.reply)
        except OSError:  # a handshake the client refused, or a closed socket
            conn.close()

    def stop(self):
        self._listener.shutdown(socket.SHUT_RDWR)
        self._accepting.join(timeout=5)
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


@pytest.fixture
def tls_server_factory():
    """Start any number of ``TLSServer``s; all are stopped on teardown."""
    servers = []

    def make(reply: bytes, cut: int | None = None) -> TLSServer:
        servers.append(TLSServer(reply, cut))
        return servers[-1]

    yield make
    for server in servers:
        server.stop()


def large_reply() -> tuple[bytes, dict]:
    """A keep-alive reply whose body, over 16 KiB, takes several TLS
    records, and the body decoded."""
    body = {"text": "x" * 40_000, **dict.fromkeys(TOKEN_COLUMNS, [])}
    data = json.dumps(body).encode()
    return reply_with(data, b"Content-Length: %d" % len(data)), body


class TestTLS:
    def test_a_reply_of_several_records_decodes(self, tls_server_factory, monkeypatch):
        monkeypatch.setattr(backend, "_tls_context", trusting_tls_context)
        reply, body = large_reply()
        ep = drafter(tls_server_factory(reply).url)
        assert dispatch(ep, {"prompt": "a"}, 5000) == body
        assert ep.consecutive_failures == 0
        [conn] = ep._idle
        assert isinstance(conn, ssl.SSLSocket)
        conn.close()

    def test_a_second_request_reuses_the_pooled_connection(
        self, tls_server_factory, monkeypatch
    ):
        monkeypatch.setattr(backend, "_tls_context", trusting_tls_context)
        opened = record_connects(monkeypatch)
        reply, body = large_reply()
        server = tls_server_factory(reply)
        ep = drafter(server.url)
        for prompt in ("a", "b"):
            assert dispatch(ep, {"prompt": prompt}, 5000) == body
        assert opened == [parse_endpoint_url(server.url)]
        assert len(server.requests) == 2
        for conn in ep._idle:
            conn.close()

    def test_a_server_that_closes_mid_body_cuts_the_reply_short(
        self, tls_server_factory, monkeypatch
    ):
        monkeypatch.setattr(backend, "_tls_context", trusting_tls_context)
        reply, _ = large_reply()
        ep = drafter(tls_server_factory(reply, cut=len(reply) - 100).url)
        with pytest.raises(EndpointConnectionError, match="reply cut short"):
            dispatch(ep, {"prompt": "a"}, 5000)
        assert (ep.consecutive_failures, ep._idle) == (1, [])

    def test_the_default_context_refuses_a_self_signed_certificate(
        self, tls_server_factory
    ):
        server = tls_server_factory(large_reply()[0])
        ep = drafter(server.url)
        with pytest.raises(EndpointConnectionError, match="CERTIFICATE_VERIFY_FAILED"):
            dispatch(ep, {"prompt": "a"}, 5000)
        assert (ep.consecutive_failures, ep._idle, server.requests) == (1, [], [])


URL_PIECES = st.tuples(
    st.sampled_from(["http://", "https://", "HTTP://", "ftp://", "http:/", ""]),
    st.sampled_from(
        ["127.0.0.1", "localhost", "[::1]", "[::1", "::1]", "u:p@127.0.0.1", "hést",
         "a b", "", "a..b", "x" * 64, "127.0.0.1\t"]
    ),
    st.sampled_from(
        ["", ":", ":0", ":1", ":8080", ":65535", ":65536", ":99999", ":notaport",
         ": 80", ":-1", ":８０"]
    ),
    st.sampled_from(["", "/", "/generate", "/a b", "/é", "/a%20b", "/\x7f", "/#frag"]),
    st.sampled_from(["", "?", "?k=v", "?k=a b", "?é", "?k=v&w=x"]),
)


class TestEndpointUrls:
    @given(pieces=URL_PIECES)
    @settings(max_examples=300, deadline=None)
    def test_a_url_validates_exactly_when_a_request_is_sent_to_it(self, pieces):
        """A descriptor can be made exactly for a URL that validates, and
        its one request goes to the URL's host and port. No connection is
        made: one that would be is recorded and refused."""
        url = "".join(pieces)
        valid = validate_config(PipelineConfig(verifier_endpoint=url)) == []
        try:
            ep = drafter(url)
        except ValueError:
            assert not valid
            return
        assert valid
        with pytest.MonkeyPatch.context() as patch:
            opened = record_connects(patch, refuse=True)
            with pytest.raises(EndpointConnectionError):
                dispatch(ep, {"prompt": "a"}, 1000)
        assert ep.consecutive_failures == 1
        parts = urlsplit(url)
        assert [(u.host, u.port) for u in opened] == [
            (parts.hostname, parts.port or (443 if parts.scheme == "https" else 80))
        ]


FUZZ_TIMEOUT_MS = 150
HEADER_NAMES = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8).map(
    lambda name: b"X-" + name.encode()
)
HEADER_VALUES = st.binary(max_size=16).map(
    lambda value: value.replace(b"\r", b"").replace(b"\n", b"")
)


def json_bytes(value) -> bytes:
    return json.dumps(value).encode()


@st.composite
def scripted_replies(draw):
    """(reply bytes, the body if the reply is a complete HTTP/1.1 200 that
    the client may pool, else None)."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=300)), None
    version = draw(st.sampled_from([b"HTTP/1.1"] * 6 + [b"HTTP/1.0", b"HTTP/2", b"http/1.1"]))
    if draw(st.integers(0, 9)):
        status = draw(st.sampled_from([b"200"] * 8 + [b"204", b"404", b"100", b"2000"]))
    else:
        status = draw(st.binary(max_size=4))
    reason = draw(st.sampled_from([b" OK", b"", b" ", b" \xff weird"]))
    end_of_line = draw(st.sampled_from([b"\r\n", b"\r\n", b"\n"]))
    body = draw(
        st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=3).map(json_bytes)
        | JSON_VALUES.map(json_bytes)
        | st.binary(max_size=64)
        | NESTED_ARRAYS
    )
    headers = draw(st.lists(st.tuples(HEADER_NAMES, HEADER_VALUES), max_size=4))
    head = [b"%s: %s" % pair for pair in headers]
    framing = draw(
        st.sampled_from(["length", "length", "chunked", "chunked", "long", "none", "close"])
    )
    if framing == "chunked":
        split = draw(st.integers(0, len(body)))
        head.append(b"Transfer-Encoding: chunked")
        payload = chunked(*[p for p in (body[:split], body[split:]) if p])
    else:
        if framing != "none":
            extra = draw(st.integers(1, 5)) if framing == "long" else 0
            head.append(b"Content-Length: %d" % (len(body) + extra))
        if framing == "close":
            head.append(b"Connection: close")
        payload = body
    reply = version + b" " + status + reason + end_of_line
    reply += b"".join(line + b"\r\n" for line in head) + b"\r\n" + payload
    cut = draw(st.integers(0, len(reply) - 1)) if draw(st.integers(0, 3)) == 0 else None
    complete = (
        version == b"HTTP/1.1"
        and status == b"200"
        and framing in ("length", "chunked")
        and cut is None
    )
    return (reply if cut is None else reply[:cut]), (body if complete else None)


def reply_text(prompt: str) -> str:
    """The mock's fallback completion for a one-line prompt."""
    return f"## Rationale: {prompt}. ## Response: {prompt}."


def reply_or_error(endpoint: EndpointDescriptor, prompt: str):
    """A ``fan_out`` task making one generation request: the decoded reply,
    or the transport error thrown into the task."""
    try:
        return (yield endpoint, {"prompt": prompt})
    except TransportError as exc:
        return exc


def request(endpoint: EndpointDescriptor, prompt: str):
    """Like ``reply_or_error``, but the reply's text."""
    reply = yield from reply_or_error(endpoint, prompt)
    return reply if isinstance(reply, TransportError) else reply["text"]


@pytest.fixture(scope="module")
def steady_server():
    with MockLMServer() as server:
        yield server


class TestReplyFuzz:
    @given(scripted_replies(), st.sampled_from([True, True, True, False]))
    @settings(max_examples=150, deadline=None)
    def test_any_reply_gives_a_body_or_a_transport_error(
        self, scripted, steady_server, reply, close
    ):
        raw, body = reply
        scripted.reply, scripted.close = raw, close
        # Once on its own, then through ``fan_out`` beside a task on a
        # working server, whose result the fuzzed reply must not touch.
        for driven in (False, True):
            ep = drafter(scripted.url)
            start = time.monotonic()
            if driven:
                steady = drafter(steady_server.generate_url)
                result, text = fan_out(
                    [reply_or_error(ep, "fuzz"), request(steady, "steady")],
                    FUZZ_TIMEOUT_MS,
                )
                assert text == reply_text("steady")
            else:
                try:
                    result = dispatch(ep, {"prompt": "fuzz"}, FUZZ_TIMEOUT_MS)
                except TransportError as exc:
                    result = exc
            elapsed = time.monotonic() - start
            pooled = len(ep._idle) == 1
            for conn in ep._idle:
                conn.close()
            assert elapsed < FUZZ_TIMEOUT_MS / 1000 + 1.0
            assert isinstance(result, (dict, TransportError))
            if body is None:
                assert not pooled
            elif not isinstance(result, EndpointTimeout):
                # A complete 200: pooled, and its body decoded as sent.
                assert pooled
                try:  # UTF-8, as RFC 8259 asks, with no lone surrogate
                    sent = json.loads(body.decode("utf-8-sig"))
                    json.dumps(sent, ensure_ascii=False).encode("utf-8")
                except (ValueError, RecursionError):  # UnicodeEncodeError too
                    sent = None
                if isinstance(sent, dict):
                    assert json.dumps(result) == json.dumps(sent)
                else:
                    assert isinstance(result, MalformedResponseError)


class HoldUntilAllArrive(MockScript):
    """Holds every generation reply until ``parties`` requests are waiting."""

    def __init__(self, parties: int):
        super().__init__()
        self.barrier = threading.Barrier(parties, timeout=10)

    def generate(self, prompt):
        self.barrier.wait()
        return super().generate(prompt)


def resource_warnings(run) -> list:
    """The ResourceWarnings raised while ``run()`` runs and the garbage is
    then collected: one for each socket left open and dropped."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run()
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestFanOut:
    def test_results_come_in_task_order_whatever_the_reply_order(
        self, server_factory
    ):
        class RepliesInReverse(MockScript):
            # Generates "i" only once "i + 1" is done, and 20 ms later, so
            # the reply to "i + 1" leaves first.
            def __init__(self):
                super().__init__()
                self.done = {str(i): threading.Event() for i in range(6)}
                self.done["5"].set()

            def generate(self, prompt):
                self.done[str(int(prompt) + 1)].wait(10)
                time.sleep(0.02)
                self.done[prompt].set()
                return super().generate(prompt)

        ep = drafter(server_factory(script=RepliesInReverse()).generate_url)
        resumed = []

        def task(i):
            text = yield from request(ep, str(i))
            resumed.append(i)
            return text

        texts = fan_out([task(i) for i in range(5)], 5000)
        assert texts == [reply_text(str(i)) for i in range(5)]
        assert resumed == [4, 3, 2, 1, 0]

    def test_a_hung_endpoint_times_out_only_its_own_task(
        self, mock_server, server_factory
    ):
        hung = drafter(server_factory(script=MockScript(delay_ms=3000)).generate_url)
        good = drafter(mock_server.generate_url)

        def two_requests(prompt):
            first = yield from request(good, prompt)
            return first, (yield from request(good, prompt + "2"))

        start = time.monotonic()
        results = fan_out(
            [two_requests("a"), request(hung, "b"), request(good, "c")], 300
        )
        elapsed = time.monotonic() - start
        assert results[0] == (reply_text("a"), reply_text("a2"))
        assert isinstance(results[1], EndpointTimeout)
        assert results[2] == reply_text("c")
        assert 0.3 <= elapsed < 1.5
        assert (hung.consecutive_failures, hung._idle) == (1, [])
        assert good.consecutive_failures == 0
        assert mock_server.request_counts() == {"generate": 3}

    def test_first_error_in_task_order_is_raised_after_every_task_ends(
        self, mock_server
    ):
        ep = drafter(mock_server.generate_url)
        finished = []

        def task(i):
            if i == 2:
                raise ValueError("task 2 failed")
            text = yield from request(ep, f"p{i}")
            if i == 1:
                raise ValueError("task 1 failed")
            if i == 3:
                text = yield from request(ep, "again")
            finished.append(i)
            return text

        def run():
            with pytest.raises(ValueError, match="^task 1 failed$"):
                fan_out([task(i) for i in range(4)], 5000)
            assert sorted(finished) == [0, 3]
            assert len(ep._idle) == 3
            for conn in ep._idle:
                conn.close()

        assert resource_warnings(run) == []
        assert mock_server.request_counts() == {"generate": 4}

    def test_an_interrupt_closes_every_request_in_flight(self, server_factory):
        ep = drafter(server_factory(script=MockScript(delay_ms=2000)).generate_url)
        closed = []

        def task(i):
            try:
                if i == 3:
                    raise KeyboardInterrupt
                return (yield from request(ep, f"p{i}"))
            finally:
                closed.append(i)

        def run():
            start = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                fan_out([task(i) for i in range(4)], 5000)
            assert time.monotonic() - start < 1.0
            assert sorted(closed) == [0, 1, 2, 3]
            assert ep._idle == []

        assert resource_warnings(run) == []

    @pytest.mark.parametrize(
        "owner, name",
        [(backend, "_parse_reply"), (backend._Request, "_send")],
        ids=["reply parse", "send"],
    )
    def test_an_interrupt_in_a_send_or_a_reply_parse_closes_its_socket(
        self, mock_server, monkeypatch, owner, name
    ):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(owner, name, interrupt)
        ep = drafter(mock_server.generate_url)

        def run():
            with pytest.raises(KeyboardInterrupt):
                fan_out([request(ep, "a")], 5000)
            assert ep._idle == []

        assert resource_warnings(run) == []

    def test_a_task_on_an_unhealthy_endpoint_gets_a_routing_error_unsent(
        self, mock_server, monkeypatch
    ):
        opened = record_connects(monkeypatch)
        sick, well = drafter(mock_server.generate_url), drafter(mock_server.generate_url)
        mark_unhealthy(sick)
        results = fan_out([request(sick, "a"), request(well, "b")], 5000)
        assert isinstance(results[0], EndpointUnavailableError)
        assert results[1] == reply_text("b")
        assert opened == [parse_endpoint_url(mock_server.generate_url)]
        assert sick._idle == []
        assert mock_server.request_counts() == {"generate": 1}

    def test_connection_closed_by_the_server_is_retried_once(self, mock_server):
        ep = drafter(mock_server.generate_url)
        assert fan_out([request(ep, "a")], 5000) == [reply_text("a")]
        [stale] = ep._idle
        mock_server._shutdown_open_connections()
        time.sleep(0.1)
        assert fan_out([request(ep, "b")], 5000) == [reply_text("b")]
        assert ep.consecutive_failures == 0
        assert stale.fileno() == -1
        assert ep._idle != [stale]
        assert mock_server.request_counts() == {"generate": 2}

    def test_forty_tasks_are_in_flight_at_once_from_the_calling_thread(
        self, server_factory, monkeypatch
    ):
        # No reply leaves until all 40 requests have arrived, so the tasks
        # finish only if every request is in flight at the same time.
        width = 40
        ep = drafter(server_factory(script=HoldUntilAllArrive(width)).generate_url)
        caller = threading.current_thread()
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            if threading.current_thread() is caller:
                started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        prompts = [f"p{i}" for i in range(width)]
        assert fan_out([request(ep, p) for p in prompts], 15000) == [
            reply_text(p) for p in prompts
        ]
        assert started == []
        assert len(ep._idle) == width


class TestRoundRobin:
    def test_assignment_is_i_mod_p(self):
        pool = [drafter(f"http://e{i}") for i in range(3)]
        assigned = round_robin_assign(7, pool)
        assert [a.url for a in assigned] == [
            "http://e0",
            "http://e1",
            "http://e2",
            "http://e0",
            "http://e1",
            "http://e2",
            "http://e0",
        ]

    def test_unhealthy_endpoints_are_skipped(self):
        pool = [drafter(f"http://e{i}") for i in range(3)]
        mark_unhealthy(pool[1])
        assigned = round_robin_assign(4, pool)
        assert [a.url for a in assigned] == [
            "http://e0",
            "http://e2",
            "http://e0",
            "http://e2",
        ]

    def test_an_endpoint_due_a_probe_keeps_only_its_first_turn(self):
        pool = [drafter(f"http://e{i}") for i in range(3)]
        pool[0].consecutive_failures = UNHEALTHY_AFTER_FAILURES  # cooldown over
        assigned = round_robin_assign(7, pool)
        assert [a.url for a in assigned] == [
            "http://e0",
            "http://e1",
            "http://e2",
            "http://e1",
            "http://e1",
            "http://e2",
            "http://e2",
        ]

    def test_with_every_endpoint_due_a_probe_the_assignment_is_i_mod_p(self):
        pool = [drafter(f"http://e{i}") for i in range(2)]
        for endpoint in pool:
            endpoint.consecutive_failures = UNHEALTHY_AFTER_FAILURES
        assigned = round_robin_assign(4, pool, start=1)
        assert [a.url for a in assigned] == ["http://e1", "http://e0"] * 2

    def test_no_healthy_endpoints_is_routing_error(self):
        pool = [drafter("http://e0")]
        mark_unhealthy(pool[0])
        with pytest.raises(EndpointUnavailableError):
            round_robin_assign(1, pool)


class TestMockGenerate:
    def test_scripted_reference_completion_verbatim(self):
        script = MockScript()
        script.script_completion(NIRVANA_PROMPT, NIRVANA_COMPLETION)
        assert script.generate(NIRVANA_PROMPT)["text"] == NIRVANA_COMPLETION

    def test_unscripted_prompt_falls_back_to_last_line_echo(self):
        result = fallback_completion("first line\nlast line")
        assert result["text"] == "## Rationale: last line. ## Response: last line."
        assert all(t["logprob"] == -1.0 for t in result["tokens"])

    def test_identical_calls_identical_bytes_and_logged(self, mock_server):
        ep = drafter(mock_server.generate_url)
        a = dispatch(ep, {"prompt": "alpha beta"}, 5000)
        b = dispatch(ep, {"prompt": "alpha beta"}, 5000)
        assert a == b
        log = mock_server.request_log_snapshot()
        assert [entry["prompt"] for entry in log] == ["alpha beta", "alpha beta"]


class TestMockEcho:
    def test_yes_token_logprob_from_byte_sum(self):
        # sum(b"Yes") = 305; 305 mod 7 = 4; -(1 + 4) / 10 = -0.5
        assert sum(b"Yes") == 305
        assert echo_rule(b"Yes") == pytest.approx(-0.5)

    def test_empty_prompt_has_no_tokens(self):
        script = MockScript()
        assert script.echo("")["tokens"] == []

    def test_echo_is_pure(self):
        script = MockScript()
        assert script.echo("alpha beta gamma") == script.echo("alpha beta gamma")

    def test_echo_logprobs_match_rule_per_token(self):
        script = MockScript()
        text = "one two\nthree"
        for token in script.echo(text)["tokens"]:
            raw = text.encode("utf-8")[token["start"] : token["end"]]
            assert token["logprob"] == pytest.approx(echo_rule(raw))


class TestReplyShapes:
    """Replies carry only what the client reads: a generation reply its text
    and tokens, an echo reply its tokens, and each token its logprob and
    byte range."""

    ROW = {"logprob", "start", "end"}

    def check(self, reply: dict, keys: set) -> None:
        assert set(reply) == keys
        assert reply["tokens"] and all(set(t) == self.ROW for t in reply["tokens"])

    def test_scripted_completion(self):
        script = MockScript()
        script.script_completion(NIRVANA_PROMPT, NIRVANA_COMPLETION)
        self.check(script.generate(NIRVANA_PROMPT), {"text", "tokens"})

    def test_fallback_completion(self):
        self.check(MockScript().generate("first line\nlast line"), {"text", "tokens"})

    def test_scripted_echo(self):
        script = MockScript()
        script.script_echo("p", [{"logprob": -0.5, "start": 0, "end": 1}])
        self.check(script.echo("p"), {"tokens"})

    def test_rule_echo_keeps_its_logprobs(self):
        reply = MockScript().echo("alpha béta\n  gamma ünï Yes")
        self.check(reply, {"tokens"})
        assert reply["tokens"] == [
            {"logprob": -0.5, "start": 0, "end": 6},
            {"logprob": -0.1, "start": 6, "end": 14},
            {"logprob": -0.2, "start": 14, "end": 20},
            {"logprob": -0.7, "start": 20, "end": 26},
            {"logprob": -0.5, "start": 26, "end": 29},
        ]


class TestWhitespaceTokenization:
    @given(st.text(min_size=0, max_size=200))
    @settings(max_examples=100)
    def test_tokens_tile_the_byte_range(self, text):
        data = text.encode("utf-8")
        tokens = whitespace_token_spans(text)
        if not tokens:
            assert data.strip() == b""
            return
        assert tokens[0][0] == 0
        assert tokens[-1][1] == len(data)
        for (_, prev_end), (start, _) in zip(tokens, tokens[1:]):
            assert prev_end == start
        for start, end in tokens:
            assert start < end
            data[start:end].decode("utf-8")  # whole characters only

    def test_trailing_whitespace_attaches_to_previous_token(self):
        data = b"ab  cd"
        tokens = whitespace_token_spans(data.decode())
        assert [data[start:end] for start, end in tokens] == [b"ab  ", b"cd"]

    def test_final_token_excludes_nothing(self):
        data = b"statement\nYes"
        start, end = whitespace_token_spans(data.decode())[-1]
        assert data[start:end] == b"Yes"


# A script's token row, as ``MockScript.from_dict`` loads it.
TOKEN_ROW = {"logprob": -0.5, "start": 0, "end": 1}


def echo_entry(tokens: list) -> dict:
    """A script file's echo entry for the prompt "p"."""
    return {"prompt_sha256": prompt_sha256("p"), "tokens": tokens}


class TestServerEndpoints:
    def test_requests_endpoint_returns_log(self, mock_server):
        dispatch(drafter(mock_server.generate_url), {"prompt": "x"}, 5000)
        status, log = http("GET", f"{mock_server.url}/requests")
        assert status == 200
        assert len(log) == 1
        assert log[0]["kind"] == "generate"

    def test_query_string_is_not_part_of_the_route(self, mock_server):
        url = f"{mock_server.generate_url}?key=abc"
        status, body = http("POST", url, b'{"prompt": "x"}')
        assert status == 200 and "text" in body
        status, log = http("GET", f"{mock_server.url}/requests?since=0")
        assert status == 200
        assert [entry["kind"] for entry in log] == ["generate"]

    def test_echo_flag_routes_to_prompt_scoring(self, mock_server):
        body = dispatch(
            drafter(mock_server.generate_url),
            {"prompt": "alpha beta", "echo": True, "max_tokens": 0},
            5000,
        )
        assert body == token_columns(MockScript().echo("alpha beta"))
        assert set(body) == set(TOKEN_COLUMNS)
        assert mock_server.request_counts() == {"echo": 1}

    @pytest.mark.parametrize("path", ["/generate", "/embed"])
    @pytest.mark.parametrize(
        "body",
        [
            "[1]",
            '"prompt"',
            "null",
            "{broken",
            pytest.param(nested_arrays(DEEPEST).decode(), id="nested"),
            pytest.param(
                '{"prompt": %s}' % nested_arrays(DEEPEST).decode(), id="nested-field"
            ),
        ],
    )
    def test_body_that_is_not_a_json_object_gets_400(
        self, mock_server, capfd, path, body
    ):
        assert http("POST", f"{mock_server.url}{path}", body.encode()) == (
            400,
            {"error": "request body is not a JSON object"},
        )
        # Refused unlogged, with nothing on stderr, and the server serves on.
        assert mock_server.request_counts() == {}
        assert capfd.readouterr().err == ""
        assert http("POST", mock_server.generate_url, b'{"prompt": "p"}')[0] == 200

    @pytest.mark.parametrize(
        "path, body, field",
        [
            ("/generate", {"prompt": 5}, "prompt"),
            ("/embed", {"inputs": [1]}, "inputs"),
            ("/embed", {"instruction": None, "inputs": ["a"]}, "instruction"),
            # Lone surrogates: JSON can carry them, UTF-8 cannot encode them.
            ("/generate", {"prompt": "who \ud800 is"}, "prompt"),
            ("/embed", {"instruction": "q", "inputs": ["a", "\udfff"]}, "inputs"),
            ("/embed", {"instruction": "\ud800", "inputs": ["a"]}, "instruction"),
        ],
    )
    def test_field_of_the_wrong_type_gets_400(
        self, mock_server, capfd, path, body, field
    ):
        url = f"{mock_server.url}{path}"
        status, reply = http("POST", url, json.dumps(body).encode())
        assert status == 400
        assert field in reply["error"]
        # A refused request is neither logged nor counted.
        assert mock_server.request_counts() == {}
        assert mock_server.request_log_snapshot() == []
        assert capfd.readouterr().err == ""
        # The server keeps serving.
        assert http("POST", mock_server.generate_url, b'{"prompt": "p"}')[0] == 200

    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_connection_is_closed_after_a_400(self, mock_server, length):
        # The first body is left unread because its length is not usable;
        # answering the next request would parse that body as a request line.
        second = b'{"prompt": "second"}'
        raw = (
            b"POST /generate HTTP/1.1\r\nHost: mock\r\n"
            b"Content-Length: " + length + b'\r\n\r\n{"prompt": "first"}'
            b"POST /generate HTTP/1.1\r\nHost: mock\r\n"
            + f"Content-Length: {len(second)}\r\n\r\n".encode()
            + second
        )
        with socket.create_connection(("127.0.0.1", mock_server.port), timeout=5) as s:
            s.sendall(raw)
            reply = b""
            while chunk := s.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert set(json.loads(body)) == {"error"}
        assert mock_server.request_counts() == {}

    @pytest.mark.parametrize(
        "length",
        [str(MAX_BODY_BYTES + 1).encode(), b"1" + b"0" * 19, b"9" * 5000],
        ids=["just-above-the-cap", "twenty-digits", "more-digits-than-int-reads"],
    )
    def test_oversized_content_length_gets_400_before_any_body_is_read(
        self, mock_server, capfd, length
    ):
        # No body follows: the reply must come from the headers alone.
        raw = b"POST /generate HTTP/1.1\r\nHost: mock\r\nContent-Length: %s\r\n\r\n"
        with socket.create_connection(("127.0.0.1", mock_server.port), timeout=5) as s:
            s.sendall(raw % length)
            reply = b""
            while chunk := s.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        assert http("POST", mock_server.generate_url, b'{"prompt": "p"}')[0] == 200
        assert capfd.readouterr().err == ""

    def test_chunked_request_is_refused_unlogged(self, mock_server, capfd):
        body = b'{"prompt": "hi"}'
        raw = b"POST /generate HTTP/1.1\r\nHost: mock\r\nTransfer-Encoding: chunked\r\n\r\n"
        with RawConnection(mock_server.port) as conn:
            conn.send(raw + chunked(body))
            status, headers, reply = conn.reply()
            assert status == 400 and headers["Connection"] == "close"
            assert "Transfer-Encoding" in reply["error"]
            assert conn.closed_by_server()
        assert mock_server.request_counts() == {}
        assert capfd.readouterr().err == ""

    def test_expect_100_continue_gets_the_interim_reply_at_once(self, mock_server):
        body = b'{"prompt": "big"}'
        head = b"POST /generate HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n"
        with RawConnection(mock_server.port) as conn:
            conn.sock.settimeout(0.5)
            conn.send(head % len(body))
            expected = b"HTTP/1.1 100 Continue\r\n\r\n"
            while len(conn.buf) < len(expected):
                assert conn.fill()
            assert conn.buf == expected
            conn.buf = b""
            conn.send(body)
            status, _, reply = conn.reply()
        assert status == 200 and reply["text"] == reply_text("big")

    @pytest.mark.parametrize(
        "raw, status",
        [
            pytest.param(b"PUT /generate HTTP/1.1\r\n\r\n", 501, id="put"),
            pytest.param(b"GET /requests HTTP/2.0\r\n\r\n", 505, id="http-2.0"),
            pytest.param(b"GET /requests\r\n\r\n", 400, id="two-words"),
            pytest.param(b"GET /requests HTTP/1.1\r\nno colon\r\n\r\n", 400, id="no-colon"),
            pytest.param(
                b"GET /requests HTTP/1.1\r\n"
                + b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS + 1))
                + b"\r\n",
                400,
                id="101-headers",
            ),
            pytest.param(
                b"GET /requests HTTP/1.1\r\nX-Long: " + b"a" * MAX_LINE_BYTES + b"\r\n\r\n",
                400,
                id="long-header",
            ),
            # The start of a TLS ClientHello up to its first LF byte: the
            # refusal must not wait for a blank line that never comes.
            pytest.param(b"\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03\n", 400, id="tls"),
        ],
    )
    def test_refusal_is_a_framed_json_error_and_closes(
        self, mock_server, capfd, raw, status
    ):
        with RawConnection(mock_server.port) as conn:
            conn.send(raw)
            got, headers, reply = conn.reply()
            assert got == status and headers["Connection"] == "close"
            assert set(reply) == {"error"}
            assert conn.closed_by_server()
        assert capfd.readouterr().err == ""
        assert http("POST", mock_server.generate_url, b'{"prompt": "p"}')[0] == 200
        assert mock_server.request_counts() == {"generate": 1}

    def test_request_log_keeps_the_most_recent_entries(self, mock_server):
        total = REQUEST_LOG_LIMIT + 5
        for i in range(total):
            mock_server.log_request_entry("echo" if i % 2 else "generate", "p")
        log = mock_server.request_log_snapshot()
        assert [entry["index"] for entry in log] == list(range(5, total))
        assert mock_server.request_counts() == {
            "generate": (total + 1) // 2,
            "echo": total // 2,
        }
        status, served = http("GET", f"{mock_server.url}/requests")
        assert status == 200 and served == log
        mock_server.reset_log()
        assert mock_server.request_counts() == {}
        mock_server.log_request_entry("embed", "p")
        assert [entry["index"] for entry in mock_server.request_log_snapshot()] == [0]

    def test_embed_endpoint_returns_unit_vectors(self, mock_server):
        body = b'{"instruction": "q", "inputs": ["one", "two"]}'
        status, resp = http("POST", mock_server.embed_url, body)
        assert status == 200
        assert len(resp["embeddings"]) == 2
        for vec in resp["embeddings"]:
            norm = sum(v * v for v in vec) ** 0.5
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_script_json_file_roundtrip(self, tmp_path):
        script = MockScript(delay_ms=25)
        script.script_completion("p1", "## Rationale: r\n## Response: a")
        script.script_echo("p2", [{"text": "p2", "logprob": -0.5, "start": 0, "end": 2}])
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script.to_dict()), encoding="utf-8")
        loaded = MockScript.from_json_file(path)
        assert loaded.delay_ms == 25
        assert loaded.generate("p1")["text"] == "## Rationale: r\n## Response: a"
        assert loaded.echo("p2")["tokens"][0]["logprob"] == -0.5

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"completions": [{"text": "x"}]}, "completions[0]"),
            ({"echoes": [{"prompt": 1, "tokens": []}]}, "echoes[0]"),
            ({"delay_ms": "slow"}, "delay_ms"),
            ({"delay_ms": -1}, "delay_ms"),
            ({"embed_dims": 0}, "embed_dims"),
            # Entries are keyed by digest alone, as ``to_dict`` writes them.
            ({"echoes": [{"prompt": "p", "tokens": []}]}, "prompt_sha256"),
            # Rows ``token_columns`` could not send; their values go unchecked.
            (
                {"echoes": [echo_entry([]), echo_entry([TOKEN_ROW, {"start": 0}])]},
                "echoes[1].tokens[1]",
            ),
            ({"echoes": [echo_entry([[-0.5, 0, 1]])]}, "echoes[0].tokens[0]"),
            (
                {"completions": [{**echo_entry([TOKEN_ROW, None]), "text": "t"}]},
                "completions[0].tokens[1]",
            ),
        ],
    )
    def test_script_with_a_bad_field_is_rejected(self, raw, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            MockScript.from_dict(raw)

    def test_script_rows_with_bad_values_load_and_are_sent(self, server_factory):
        rows = [{"logprob": math.nan, "start": 9, "end": -1}, {**TOKEN_ROW, "logprob": 0.5}]
        server = server_factory(script=MockScript.from_dict({"echoes": [echo_entry(rows)]}))
        status, body = http("POST", server.generate_url, b'{"prompt": "p", "echo": true}')
        assert status == 200
        assert body["token_starts"] == [9, 0] and body["token_ends"] == [-1, 1]
        assert math.isnan(body["token_logprobs"][0]) and body["token_logprobs"][1] == 0.5


def reference_reply(reply: dict, keep_alive: bool = True) -> bytes:
    """The mock's reply to a request the script answers with ``reply``,
    encoded per request: the reference for a stored scripted reply."""
    body = json.dumps(token_columns(reply)).encode()
    close = "" if keep_alive else "Connection: close\r\n"
    head = (
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{close}\r\n"
    )
    return head.encode("ascii") + body


# Any JSON number a script file can hold, and the values Python can script.
ROW_VALUES = NUMBERS | st.booleans()
SCRIPTED_ROWS = st.lists(
    st.fixed_dictionaries(
        {"logprob": ROW_VALUES, "start": ROW_VALUES, "end": ROW_VALUES},
        optional={"text": ANY_TEXT},
    ),
    max_size=4,
)


def serve_twice(server: MockLMServer, prompt: str, echo: bool) -> list[bytes]:
    """The bytes of two replies to one request, on one connection."""
    with RawConnection(server.port) as conn:
        conn.send(post(prompt, echo) * 2)
        return [conn.raw_reply(), conn.raw_reply()]


class TestStoredReplies:
    """A scripted reply is encoded when first served and sent as stored
    bytes after that; every serve equals the per-request encoding."""

    @given(
        st.dictionaries(READABLE_TEXT, st.tuples(ANY_TEXT, SCRIPTED_ROWS), max_size=3),
        st.dictionaries(READABLE_TEXT, SCRIPTED_ROWS, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_and_later_serves_equal_the_per_request_encoding(
        self, completions, echoes
    ):
        script = MockScript()
        for prompt, (text, rows) in completions.items():
            script.script_completion(prompt, text, rows)
        for prompt, rows in echoes.items():
            script.script_echo(prompt, rows)
        served = [
            (prompt, False, {"text": text, "tokens": rows}, script.completions)
            for prompt, (text, rows) in completions.items()
        ] + [(prompt, True, {"tokens": rows}, script.echoes) for prompt, rows in echoes.items()]
        with MockLMServer(script) as server:
            for prompt, echo, reply, table in served:
                expected = reference_reply(reply)
                assert serve_twice(server, prompt, echo) == [expected, expected]
                assert table[prompt_sha256(prompt)].response == expected  # stored

    def test_a_prompt_scripted_again_on_a_live_server_gets_its_new_bytes(
        self, server_factory
    ):
        script = MockScript()
        script.script_completion("p", "old text")
        script.script_echo("p", [TOKEN_ROW])
        server = server_factory(script=script)
        assert serve_twice(server, "p", False)[1] == reference_reply(script.generate("p"))
        assert serve_twice(server, "p", True)[1] == reference_reply({"tokens": [TOKEN_ROW]})
        script.script_completion("p", "new text")
        new_rows = [{**TOKEN_ROW, "logprob": -0.25}]
        script.script_echo("p", new_rows)
        new_tokens = uniform_tokens("new text", -1.0)
        expected = reference_reply({"text": "new text", "tokens": new_tokens})
        assert serve_twice(server, "p", False) == [expected, expected]
        expected = reference_reply({"tokens": new_rows})
        assert serve_twice(server, "p", True) == [expected, expected]

    @pytest.mark.parametrize("served_before", [False, True])
    def test_a_closing_request_gets_the_closing_head(self, server_factory, served_before):
        script = MockScript()
        script.script_completion("p", "a scripted text")
        server = server_factory(script=script)
        if served_before:
            serve_twice(server, "p", False)
        with RawConnection(server.port) as conn:
            conn.send(post("p", close=True))
            assert conn.raw_reply() == reference_reply(script.generate("p"), keep_alive=False)
            assert conn.closed_by_server()
        assert serve_twice(server, "p", False)[1] == reference_reply(script.generate("p"))

    def test_a_reply_that_is_not_the_scripts_entry_is_encoded_per_request(
        self, server_factory
    ):
        class Numbered(MockScript):
            """Answers with a copy of the scripted reply, numbered."""

            served = 0

            def generate(self, prompt):
                self.served += 1
                return {**super().generate(prompt), "text": f"reply {self.served}"}

        script = Numbered()
        script.script_completion("p", "a scripted text")
        server = server_factory(script=script)
        rows = script.completions[prompt_sha256("p")]["tokens"]
        assert serve_twice(server, "p", False) == [
            reference_reply({"text": "reply 1", "tokens": rows}),
            reference_reply({"text": "reply 2", "tokens": rows}),
        ]
        assert script.completions[prompt_sha256("p")].response is None

    def test_scripts_sharing_the_tables_serve_the_same_bytes(self, server_factory):
        # As perfbench/mock_proc.py builds one script per port.
        script = MockScript.from_dict(
            {
                "completions": [{**echo_entry([TOKEN_ROW]), "text": "t"}],
                "echoes": [echo_entry([TOKEN_ROW, {**TOKEN_ROW, "logprob": -2.5}])],
            }
        )
        port_script = MockScript(completions=script.completions, echoes=script.echoes)
        first, second = server_factory(script=script), server_factory(script=port_script)
        for echo in (False, True):
            expected = reference_reply(script.echo("p") if echo else script.generate("p"))
            assert serve_twice(first, "p", echo) == [expected, expected]
            assert serve_twice(second, "p", echo) == [expected, expected]
        assert second.request_counts() == {"generate": 2, "echo": 2}


def reference_embed_vector(instruction: str, text: str, dims: int) -> list[float]:
    """``embed_vector`` with one whole sha256 per component, as its
    docstring states it."""
    raw = []
    norm = 0.0
    for i in range(dims):
        digest = hashlib.sha256(f"{instruction}\x1f{text}\x1f{i}".encode()).digest()
        raw.append(int.from_bytes(digest[:8], "big") / 2**64 * 2 - 1)
        norm += raw[-1] * raw[-1]
    norm **= 0.5
    if norm == 0.0:
        raw[0] = 1.0
        norm = 1.0
    return [v / norm for v in raw]


# Text without lone surrogates, with U+001F and digits often, so a field can
# end in digits or hold the separator.
EMBED_TEXT = st.text(
    st.characters(exclude_categories=["Cs"]) | st.sampled_from("\x1f0123456789"),
    max_size=12,
)


class TestEmbedVector:
    @given(EMBED_TEXT, EMBED_TEXT, st.integers(1, 64))
    @settings(max_examples=300)
    def test_every_component_has_the_reference_bits(self, instruction, text, dims):
        expected = reference_embed_vector(instruction, text, dims)
        assert list(map(float.hex, embed_vector(instruction, text, dims))) == list(
            map(float.hex, expected)
        )


REQUEST_FIELDS = st.sampled_from(
    ["prompt", "echo", "max_tokens", "logprobs", "instruction", "inputs"]
)
REQUEST_BODIES = (
    JSON_VALUES.map(json_bytes)
    | st.dictionaries(REQUEST_FIELDS, JSON_VALUES, max_size=4).map(json_bytes)
    | st.binary(max_size=64)
    | NESTED_ARRAYS
)


HEADERS = st.tuples(HEADER_NAMES, HEADER_VALUES)
BROKEN_REQUEST_LINES = st.sampled_from(
    [
        b"",
        b"GET",
        b"GET /requests",
        b"GET  /requests HTTP/1.1",
        b"GET /requests HTTP/1.1 x",
        b"GET /re quests HTTP/1.1",
        b"GET /\xff HTTP/1.1",
        b"GET /requests HTTP/2",
        b"GET /requests http/1.1",
        b"G@T /requests HTTP/1.1",
    ]
) | st.binary(max_size=40).map(lambda line: line.replace(b" ", b"").replace(b"\n", b""))


@st.composite
def raw_requests(draw):
    """(head, body, the status the head alone is refused with or None, and
    whether the request asks to keep its connection open)."""
    eol = draw(st.sampled_from([b"\r\n", b"\r\n", b"\n"]))
    version = draw(st.sampled_from([b"1.1", b"1.1", b"1.0", b"2.0", b"1.2"]))
    method = draw(st.sampled_from([b"POST", b"POST", b"GET", b"PUT", b"HEAD"]))
    target = draw(
        st.sampled_from([b"/generate", b"/embed", b"/requests", b"/generate?x=1", b"*"])
    )
    line = b"%s %s HTTP/%s" % (method, target, version)
    if draw(st.integers(0, 9)) == 0:
        line, refusal = draw(BROKEN_REQUEST_LINES), 400
    elif version not in (b"1.0", b"1.1"):
        refusal = 505
    elif method not in (b"GET", b"POST"):
        refusal = 501
    else:
        refusal = None
    body = draw(REQUEST_BODIES) if method == b"POST" or draw(st.booleans()) else b""
    headers = [b"Content-Length: %d" % len(body)] if body or draw(st.booleans()) else []
    connection = draw(st.sampled_from([None, b"close", b"keep-alive", b"Keep-Alive, x"]))
    if connection is not None:
        headers.append(b"Connection: " + connection)
    if draw(st.integers(0, 9)) == 0:
        headers.append(b"Transfer-Encoding: chunked")
        refusal = refusal or 400
    if draw(st.integers(0, 9)) == 0:
        headers.append(b"no colon")
        refusal = refusal or 400
    headers += [b"%s: %s" % pair for pair in draw(st.lists(HEADERS, max_size=2))]
    long_line = draw(st.sampled_from([None, None, None, MAX_LINE_BYTES, MAX_LINE_BYTES + 1]))
    if long_line is not None:
        # ``long_line`` counts the line's ending too.
        headers.append(b"X-Long: " + b"a" * (long_line - len(b"X-Long: " + eol)))
        refusal = refusal or (400 if long_line > MAX_LINE_BYTES else None)
    count = draw(st.sampled_from([None, None, None, MAX_HEADERS, MAX_HEADERS + 1]))
    if count is not None:  # header lines in all
        headers += [b"X-H%d: v" % i for i in range(count - len(headers))]
        refusal = refusal or (400 if count > MAX_HEADERS else None)
    head = b"".join(h + eol for h in [line, *headers]) + eol
    keep_alive = connection != b"close" and (version == b"1.1" or connection is not None)
    return head, body, refusal, keep_alive


class TestRequestFuzz:
    @given(st.sampled_from(["/generate", "/embed"]), REQUEST_BODIES)
    @settings(max_examples=200, deadline=None)
    def test_any_request_body_gets_200_or_400(self, steady_server, path, body):
        conn = HTTPConnection("127.0.0.1", steady_server.port, timeout=5)
        try:
            conn.request("POST", path, body)
            reply = conn.getresponse()
            decoded = json.loads(reply.read())
            assert reply.status in (200, 400)
            if reply.status == 400:
                assert set(decoded) == {"error"}
            if not reply.will_close:
                # The connection serves the next request.
                conn.request("POST", "/generate", b'{"prompt": "next"}')
                reply = conn.getresponse()
                assert reply.status == 200
                assert json.loads(reply.read())["text"] == reply_text("next")
        finally:
            conn.close()

    @given(raw_requests(), st.booleans(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_any_raw_request_gets_one_framed_reply(
        self, steady_server, request, pipelined, delivery
    ):
        head, body, refusal, keep_alive = request
        with RawConnection(steady_server.port) as conn:
            # A quarter of the heads arrive one byte at a time; a second
            # request sometimes comes in the same send as the first.
            conn.send(head, one_byte_at_a_time=delivery == 0 and len(head) < 4096)
            conn.send(body + (post("second") if pipelined else b""))
            status, headers, reply = conn.reply()
            if refusal is not None:
                assert status == refusal
            else:
                assert status in (200, 400, 404)
            if status != 200:
                assert set(reply) == {"error"}
            if "Connection" in headers:
                assert headers["Connection"] == "close"
                assert status == 400 or refusal is not None or not keep_alive
                assert conn.closed_by_server()
                return
            assert refusal is None and status != 400 and keep_alive
            if pipelined:
                status, _, reply = conn.reply()
                assert status == 200 and reply["text"] == reply_text("second")
            conn.send(post("next"))
            status, _, reply = conn.reply()
            assert status == 200 and reply["text"] == reply_text("next")


def test_the_mock_server_loads_no_http_server_or_email_parser():
    code = """
import sys
import draftrag.mock_server
loaded = [m for m in sys.modules if m in ("http.server", "http.client", "socketserver", "email") or m.startswith("email.")]
assert not loaded, loaded
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("blocked", ["requests", "numpy"])
def test_runtime_imports_and_dispatch_work_without_requests(blocked):
    # ``sys.modules[name] = None`` makes any import of the package fail.
    # The mock server and ``mock-serve`` load neither numpy nor the pipeline.
    code = f"""
import sys
sys.modules[{blocked!r}] = None
import draftrag.cli
from draftrag.backend import EndpointDescriptor, dispatch
from draftrag.mock_server import MockLMServer
with MockLMServer() as server:
    ep = EndpointDescriptor(server.generate_url)
    print(dispatch(ep, {{"prompt": "hi"}}, 5000)["text"])
    ep = EndpointDescriptor(server.embed_url)
    print(len(dispatch(ep, {{"inputs": ["hi"]}}, 5000)["embeddings"]), "embedding")
assert draftrag.cli.main(["mock-serve", "--port", "99999"]) == 2
assert "draftrag.harness" not in sys.modules
if {blocked!r} == "requests":  # the pipeline needs no requests either
    import draftrag.harness, draftrag.synthetic
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "## Response: hi." in done.stdout
    assert "1 embedding" in done.stdout
