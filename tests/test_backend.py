import gc
import json
import os
import socket
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftrag.backend import (
    EndpointConnectionError,
    EndpointDescriptor,
    EndpointRole,
    EndpointTimeout,
    EndpointUnavailableError,
    MalformedResponseError,
    dispatch,
    fan_out,
    round_robin_assign,
)
from draftrag.mock_server import (
    REQUEST_LOG_LIMIT,
    MockLMServer,
    MockScript,
    echo_rule,
    fallback_completion,
    whitespace_token_spans,
)
from reference_texts import NIRVANA_COMPLETION, NIRVANA_PROMPT


def drafter(url: str) -> EndpointDescriptor:
    return EndpointDescriptor(url, EndpointRole.DRAFTER)


def http(method: str, url: str, body: bytes | None = None):
    """(status, decoded JSON body) of one request to a mock route."""
    conn = HTTPConnection(urlsplit(url).netloc, timeout=5)
    try:
        conn.request(method, urlsplit(url).path, body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def free_port_url(path="/generate") -> str:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{s.getsockname()[1]}{path}"


class TestDispatch:
    def test_success_records_latency(self, mock_server):
        ep = drafter(mock_server.generate_url)
        body = dispatch(ep, {"prompt": "hi", "max_tokens": 8}, 5000)
        assert "text" in body and "tokens" in body
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

    def test_success_resets_failure_counter(self, mock_server, server_factory):
        slow = server_factory(script=MockScript(delay_ms=300))
        ep = drafter(slow.generate_url)
        for _ in range(2):
            with pytest.raises(EndpointTimeout):
                dispatch(ep, {"prompt": "hi"}, 50)
        ep.url = mock_server.generate_url
        dispatch(ep, {"prompt": "hi"}, 5000)
        assert ep.consecutive_failures == 0
        assert ep.healthy is True


class SlowForPrompt(MockScript):
    """Generation of the prompt "slow" takes 300 ms; every other is immediate."""

    def generate(self, prompt):
        if prompt == "slow":
            time.sleep(0.3)
        return super().generate(prompt)


class TestKeepAlive:
    def test_sequential_dispatches_reuse_one_connection(self, mock_server):
        ep = drafter(mock_server.generate_url)
        dispatch(ep, {"prompt": "a"}, 5000)
        [(_, conn)] = ep._idle
        local_port = conn.sock.getsockname()[1]
        for prompt in ("b", "c"):
            dispatch(ep, {"prompt": prompt}, 5000)
        assert len(ep._idle) == 1
        assert ep._idle[0][1] is conn
        assert conn.sock.getsockname()[1] == local_port

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
        [(_, stale)] = ep._idle
        mock_server._httpd.shutdown_open_connections()
        time.sleep(0.1)
        body = dispatch(ep, {"prompt": "b"}, 5000)
        assert body["text"] == "## Rationale: b. ## Response: b."
        assert ep.consecutive_failures == 0
        assert [conn for _, conn in ep._idle] != [stale]
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

    def test_connection_is_reused_only_for_its_own_origin(self, server_factory):
        first, second = server_factory(), server_factory()
        ep = drafter(first.generate_url)
        dispatch(ep, {"prompt": "a"}, 5000)
        ep.url = second.generate_url
        dispatch(ep, {"prompt": "b"}, 5000)
        assert first.request_counts() == {"generate": 1}
        assert second.request_counts() == {"generate": 1}
        assert [origin for origin, _ in ep._idle] == [
            ("http", urlsplit(second.url).netloc)
        ]

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
        idle = [conn for _, conn in ep._idle]
        assert 1 <= len(idle) <= workers
        assert len({id(conn) for conn in idle}) == len(idle)
        assert mock_server.request_counts() == {"generate": workers * calls}

    def test_dropped_descriptor_closes_its_idle_connections(self, mock_server):
        ep = drafter(mock_server.generate_url)
        dispatch(ep, {"prompt": "a"}, 5000)
        [(_, conn)] = ep._idle
        del ep
        gc.collect()
        assert conn.sock is None


class TestFanOut:
    def test_results_come_in_call_order(self):
        def late_for_low_i(i):
            time.sleep(0.01 * (5 - i))
            return i

        assert fan_out(late_for_low_i, [(i,) for i in range(5)]) == list(range(5))

    def test_first_error_in_call_order_is_raised_after_every_call_ends(self):
        finished = []

        def call(i):
            time.sleep(0.05 if i == 3 else 0.0)
            if i in (1, 2):
                raise ValueError(f"call {i} failed")
            finished.append(i)

        with pytest.raises(ValueError, match="call 1 failed"):
            fan_out(call, [(i,) for i in range(4)])
        assert sorted(finished) == [0, 3]

    def test_wide_fan_out_runs_every_call_at_once(self):
        # Wider than the standard library's default pool on a small host.
        width = 40
        barrier = threading.Barrier(width, timeout=10)
        assert sorted(fan_out(barrier.wait, [()] * width)) == list(range(width))

    def test_forked_child_can_fan_out(self):
        fan_out(time.sleep, [(0.01,)] * 4)  # the parent's pool has idle threads
        pid = os.fork()
        if pid == 0:
            try:
                ok = fan_out(abs, [(-1,)] * 4) == [1] * 4
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("fan_out in a forked child never ran its calls")
        assert os.waitstatus_to_exitcode(status) == 0


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
        pool[1].healthy = False
        assigned = round_robin_assign(4, pool)
        assert [a.url for a in assigned] == [
            "http://e0",
            "http://e2",
            "http://e0",
            "http://e2",
        ]

    def test_no_healthy_endpoints_is_routing_error(self):
        pool = [drafter("http://e0")]
        pool[0].healthy = False
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
        assert len(log) == 2
        assert log[0]["sha256"] == log[1]["sha256"]


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


class TestWhitespaceTokenization:
    @given(st.text(min_size=0, max_size=200))
    @settings(max_examples=100)
    def test_tokens_tile_the_byte_range(self, text):
        data = text.encode("utf-8")
        tokens = whitespace_token_spans(text)
        if not tokens:
            assert data.strip() == b""
            return
        assert tokens[0][1] == 0
        assert tokens[-1][2] == len(data)
        for (_, _, prev_end), (_, start, _) in zip(tokens, tokens[1:]):
            assert prev_end == start
        for tok, start, end in tokens:
            assert start < end
            assert data[start:end].decode("utf-8") == tok

    def test_trailing_whitespace_attaches_to_previous_token(self):
        tokens = whitespace_token_spans("ab  cd")
        assert [t[0] for t in tokens] == ["ab  ", "cd"]

    def test_final_token_excludes_nothing(self):
        tokens = whitespace_token_spans("statement\nYes")
        assert tokens[-1][0] == "Yes"


class TestServerEndpoints:
    def test_requests_endpoint_returns_log(self, mock_server):
        dispatch(drafter(mock_server.generate_url), {"prompt": "x"}, 5000)
        status, log = http("GET", f"{mock_server.url}/requests")
        assert status == 200
        assert len(log) == 1
        assert log[0]["kind"] == "generate"

    def test_script_endpoint_replaces_script(self, mock_server):
        payload = MockScript()
        payload.script_completion("magic prompt", "## Rationale: r\n## Response: a")
        body = json.dumps(payload.to_dict()).encode()
        assert http("POST", f"{mock_server.url}/script", body) == (200, {"ok": True})
        body = dispatch(drafter(mock_server.generate_url), {"prompt": "magic prompt"}, 5000)
        assert body["text"] == "## Rationale: r\n## Response: a"

    def test_echo_flag_routes_to_prompt_scoring(self, mock_server):
        body = dispatch(
            drafter(mock_server.generate_url),
            {"prompt": "alpha beta", "echo": True, "max_tokens": 0},
            5000,
        )
        assert body["text"] == "alpha beta"
        assert mock_server.request_counts() == {"echo": 1}

    @pytest.mark.parametrize("path", ["/generate", "/embed", "/script"])
    @pytest.mark.parametrize("body", ["[1]", '"prompt"', "null", "{broken"])
    def test_body_that_is_not_a_json_object_gets_400(self, mock_server, path, body):
        assert http("POST", f"{mock_server.url}{path}", body.encode()) == (
            400,
            {"error": "request body is not a JSON object"},
        )

    @pytest.mark.parametrize(
        "path, body, field",
        [
            ("/generate", {"prompt": 5}, "prompt"),
            ("/embed", {"inputs": [1]}, "inputs"),
            ("/embed", {"instruction": None, "inputs": ["a"]}, "instruction"),
            ("/script", {"completions": [{"text": "x"}]}, "completions[0]"),
            ("/script", {"echoes": [{"prompt": 1, "tokens": []}]}, "echoes[0]"),
            ("/script", {"delay_ms": "slow"}, "delay_ms"),
            ("/script", {"embed_dims": 0}, "embed_dims"),
        ],
    )
    def test_field_of_the_wrong_type_gets_400(self, mock_server, path, body, field):
        url = f"{mock_server.url}{path}"
        status, reply = http("POST", url, json.dumps(body).encode())
        assert status == 400
        assert field in reply["error"]
        # The server keeps serving, with its script unchanged.
        assert http("POST", mock_server.generate_url, b'{"prompt": "p"}')[0] == 200
        assert mock_server.script.delay_ms == 0

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

    def test_request_log_keeps_the_most_recent_entries(self, mock_server):
        total = REQUEST_LOG_LIMIT + 5
        for i in range(total):
            mock_server.log_request_entry("echo" if i % 2 else "generate", None)
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
        mock_server.log_request_entry("embed", None)
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


def test_runtime_imports_and_dispatch_work_without_requests():
    # ``sys.modules[name] = None`` makes any import of the package fail.
    code = """
import sys
sys.modules["requests"] = None
import draftrag, draftrag.cli
from draftrag.backend import EndpointDescriptor, EndpointRole, dispatch
from draftrag.mock_server import MockLMServer
with MockLMServer() as server:
    ep = EndpointDescriptor(server.generate_url, EndpointRole.DRAFTER)
    print(dispatch(ep, {"prompt": "hi"}, 5000)["text"])
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
