import socket

import pytest
import requests
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
    round_robin_assign,
)
from draftrag.mock_server import (
    MockScript,
    echo_rule,
    fallback_completion,
    whitespace_token_spans,
)
from reference_texts import NIRVANA_COMPLETION, NIRVANA_PROMPT


def drafter(url: str) -> EndpointDescriptor:
    return EndpointDescriptor(url, EndpointRole.DRAFTER)


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
        log = requests.get(f"{mock_server.url}/requests", timeout=5).json()
        assert len(log) == 1
        assert log[0]["kind"] == "generate"

    def test_script_endpoint_replaces_script(self, mock_server):
        payload = MockScript()
        payload.script_completion("magic prompt", "## Rationale: r\n## Response: a")
        resp = requests.post(
            f"{mock_server.url}/script", json=payload.to_dict(), timeout=5
        )
        assert resp.json() == {"ok": True}
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
        resp = requests.post(
            f"{mock_server.url}{path}",
            data=body,
            headers={"Content-Type": "application/json"},
            timeout=5,
        )
        assert resp.status_code == 400
        assert resp.json() == {"error": "request body is not a JSON object"}

    def test_embed_endpoint_returns_unit_vectors(self, mock_server):
        resp = requests.post(
            mock_server.embed_url,
            json={"instruction": "q", "inputs": ["one", "two"]},
            timeout=5,
        ).json()
        assert len(resp["embeddings"]) == 2
        for vec in resp["embeddings"]:
            norm = sum(v * v for v in vec) ** 0.5
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_script_json_file_roundtrip(self, tmp_path):
        script = MockScript(delay_ms=25)
        script.script_completion("p1", "## Rationale: r\n## Response: a")
        script.script_echo("p2", [{"text": "p2", "logprob": -0.5, "start": 0, "end": 2}])
        path = tmp_path / "script.json"
        path.write_text(__import__("json").dumps(script.to_dict()), encoding="utf-8")
        loaded = MockScript.from_json_file(path)
        assert loaded.delay_ms == 25
        assert loaded.generate("p1")["text"] == "## Rationale: r\n## Response: a"
        assert loaded.echo("p2")["tokens"][0]["logprob"] == -0.5
