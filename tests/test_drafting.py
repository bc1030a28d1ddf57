import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from draftrag.backend import EndpointDescriptor
from draftrag.clustering import DocumentSubset
from draftrag.core import DataError, Document, Query, TaskKind
from draftrag.backend import MalformedResponseError
from draftrag.drafting import (
    TOKEN_COLUMNS,
    DraftParseError,
    ParsedDraft,
    Span,
    build_draft_prompt,
    compute_rho_draft,
    generate,
    generate_drafts,
    parse_draft,
    parse_token_payload,
    sequence_logprob,
)
from draftrag.mock_server import MockScript, token_columns, uniform_tokens
from json_strategies import JSON_VALUES, READABLE_TEXT
from reference_texts import (
    NIRVANA_ANSWER,
    NIRVANA_COMPLETION,
    NIRVANA_DOC_1_TEXT,
    NIRVANA_DOC_1_TITLE,
    NIRVANA_DOC_2_TEXT,
    NIRVANA_DOC_2_TITLE,
    NIRVANA_PROMPT,
    NIRVANA_QUESTION,
    NIRVANA_RATIONALE,
)


def subset_of(*doc_ids, index=0):
    return DocumentSubset(
        subset_index=index,
        member_doc_ids=tuple(doc_ids),
        source_clusters=tuple(range(len(doc_ids))),
    )


class TestBuildDraftPrompt:
    def test_reference_prompt_byte_for_byte(self):
        query = Query(id="q", text=NIRVANA_QUESTION)
        docs = {
            "d1": Document("d1", NIRVANA_DOC_1_TITLE, NIRVANA_DOC_1_TEXT),
            "d2": Document("d2", NIRVANA_DOC_2_TITLE, NIRVANA_DOC_2_TEXT),
        }
        prompt = build_draft_prompt(query, subset_of("d1", "d2"), docs)
        assert prompt == NIRVANA_PROMPT

    def test_empty_title_keeps_title_line(self):
        query = Query(id="q", text="?")
        docs = {"d1": Document("d1", "", "some text")}
        prompt = build_draft_prompt(query, subset_of("d1"), docs)
        assert "[1] \nsome text" in prompt

    def test_single_doc_has_one_evidence_entry(self):
        query = Query(id="q", text="?")
        docs = {"d1": Document("d1", "T", "body")}
        prompt = build_draft_prompt(query, subset_of("d1"), docs)
        assert prompt.count("[1]") == 1
        assert "[2]" not in prompt

    def test_choices_appended_to_instruction_line(self):
        query = Query(
            id="q",
            text="Pick one.",
            task_kind=TaskKind.CLOSED_SET_CHOICE,
            choices=(("A", "first"), ("B", "second")),
        )
        docs = {"d1": Document("d1", "T", "body")}
        prompt = build_draft_prompt(query, subset_of("d1"), docs)
        instruction_line = prompt.split("\n")[1]
        assert instruction_line == "## Instruction: Pick one. Options: (A) first (B) second"

    def test_unresolvable_doc_id_raises(self):
        with pytest.raises(DataError, match="unresolvable"):
            build_draft_prompt(Query(id="q", text="?"), subset_of("missing"), {})


class TestParseDraft:
    def test_reference_completion(self):
        parsed = parse_draft(NIRVANA_COMPLETION)
        assert parsed.rationale.startswith("Nirvana literally means")
        assert parsed.answer.startswith("In Buddhism, the state")
        assert parsed.rationale == NIRVANA_RATIONALE
        assert parsed.answer == NIRVANA_ANSWER

    def test_minimal_inline_completion(self):
        parsed = parse_draft("## Rationale: r ## Response: a")
        assert (parsed.rationale, parsed.answer) == ("r", "a")

    def test_missing_rationale_marker(self):
        with pytest.raises(DraftParseError, match='missing "## Rationale:"'):
            parse_draft("no markers here")

    def test_missing_response_marker(self):
        with pytest.raises(DraftParseError, match='missing "## Response:"'):
            parse_draft("## Rationale: something but nothing else")

    @pytest.mark.parametrize(
        "raw", ["## Rationale: r ## Response:", "## Rationale: r\n## Response: \n\t "]
    )
    def test_empty_answer_is_a_parse_error(self, raw):
        # An empty answer span would score log-prob 0 and outrank every
        # real answer.
        with pytest.raises(DraftParseError, match='nothing after "## Response:"'):
            parse_draft(raw)

    def test_spans_are_disjoint_in_order_substrings(self):
        raw = "## Rationale: first part\n## Response: second part"
        parsed = parse_draft(raw)
        data = raw.encode("utf-8")
        assert data[parsed.rationale_span.start : parsed.rationale_span.end] == b"first part"
        assert data[parsed.answer_span.start : parsed.answer_span.end] == b"second part"
        assert parsed.rationale_span.end <= parsed.answer_span.start

    words = st.lists(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
        min_size=1,
        max_size=12,
    ).map(" ".join)

    @given(rationale=words, answer=words)
    @settings(max_examples=80)
    def test_round_trip_recovers_scripted_fields(self, rationale, answer):
        completion = f"## Rationale: {rationale}\n## Response: {answer}"
        script = MockScript()
        script.script_completion("prompt", completion)
        parsed = parse_draft(script.generate("prompt")["text"])
        assert parsed.rationale == rationale
        assert parsed.answer == answer

    @given(
        pieces=st.lists(
            st.sampled_from(["## Rationale:", "## Response:", " ", "\n"])
            | READABLE_TEXT,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_json_string_parses_or_is_a_parse_error(self, pieces):
        raw = "".join(pieces)
        try:
            parsed = parse_draft(raw)
        except DraftParseError:
            return
        data = raw.encode("utf-8")
        span = parsed.answer_span
        assert parsed.answer and data[span.start : span.end].decode("utf-8") == parsed.answer
        assert parsed.rationale_span.end <= span.start


def reference_decode(raw_tokens, url, text):
    """The per-row decode of the row-shaped replies sent before tokens went
    on the wire as parallel arrays: the oracle for ``parse_token_payload``."""
    if not isinstance(raw_tokens, list):
        raise MalformedResponseError(url, 'response lacks a "tokens" list')
    text_bytes = len(text.encode("utf-8"))
    out = []
    for i, t in enumerate(raw_tokens):
        try:
            logprob, start, end = t["logprob"], t["start"], t["end"]
        except (KeyError, TypeError):
            raise MalformedResponseError(
                url, f"token {i} is not an object with logprob, start and end"
            )
        if not (
            type(logprob) in (int, float) and type(start) is int and type(end) is int
        ):
            raise MalformedResponseError(
                url, f"token {i} has a field of the wrong type: {t}"
            )
        try:
            logprob = float(logprob)
        except OverflowError:
            logprob = math.inf
        if not (math.isfinite(logprob) and logprob <= 0.0):
            raise MalformedResponseError(
                url, f"token {i} has logprob {logprob}, not a finite value <= 0"
            )
        if not 0 <= start <= end <= text_bytes:
            raise MalformedResponseError(
                url,
                f"token {i} spans bytes [{start}, {end}) "
                f"outside the {text_bytes}-byte text",
            )
        out.append((logprob, start, end))
    return tuple(out)


def decode_rows(rows, text):
    """``parse_token_payload`` of the reply the mock sends for ``rows``."""
    return parse_token_payload(token_columns({"tokens": rows}), "u", text)


class TestParseTokenPayload:
    TEXT = "ab é"  # 5 bytes in UTF-8

    def payload(self, logprob=-0.5, start=3, end=5):
        return [
            {"logprob": -1.0, "start": 0, "end": 3},
            {"logprob": logprob, "start": start, "end": end},
        ]

    def test_valid_tokens_decode(self):
        tokens = decode_rows(self.payload(logprob=0.0), self.TEXT)
        assert tokens == ((-1.0, 0, 3), (0.0, 3, 5))

    def test_reply_sends_three_parallel_arrays(self):
        assert token_columns({"text": "t", "tokens": self.payload()}) == {
            "text": "t",
            "token_logprobs": [-1.0, -0.5],
            "token_starts": [0, 3],
            "token_ends": [3, 5],
        }

    def test_integer_logprob_decodes_as_a_float(self):
        [(logprob, _, _)] = parse_token_payload(
            {"token_logprobs": [-1], "token_starts": [0], "token_ends": [5]},
            "u",
            self.TEXT,
        )
        assert type(logprob) is float and logprob == -1.0

    @pytest.mark.parametrize("logprob", [math.nan, math.inf, -math.inf, 0.25])
    def test_logprob_that_is_not_finite_and_at_most_zero_is_rejected(self, logprob):
        with pytest.raises(MalformedResponseError, match="token 1 has logprob"):
            decode_rows(self.payload(logprob=logprob), self.TEXT)

    @pytest.mark.parametrize("start,end", [(-1, 2), (4, 3), (3, 6)])
    def test_offsets_outside_the_text_are_rejected(self, start, end):
        with pytest.raises(MalformedResponseError, match="outside the 5-byte text"):
            decode_rows(self.payload(start=start, end=end), self.TEXT)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("logprob", "-0.5"),
            ("logprob", True),
            ("start", 1.9),
            ("start", False),
            ("end", "5"),
        ],
    )
    def test_field_of_the_wrong_type_is_rejected(self, key, value):
        payload = self.payload()
        payload[1][key] = value
        with pytest.raises(MalformedResponseError, match="token 1 has a field of the"):
            decode_rows(payload, self.TEXT)

    def test_first_bad_token_is_named(self):
        payload = [*self.payload(start=9), *self.payload(logprob=0.5)]
        with pytest.raises(MalformedResponseError, match="token 1 spans bytes"):
            decode_rows(payload, self.TEXT)

    @given(value=JSON_VALUES)
    @settings(max_examples=50, deadline=None)
    def test_other_reply_fields_of_any_type_are_ignored(self, value):
        # A script row's text too: the mock does not send it.
        rows = self.payload()
        for row in rows:
            row["text"] = value
        body = {"tokens": value, "text": value, **token_columns({"tokens": rows})}
        assert parse_token_payload(body, "u", self.TEXT) == decode_rows(
            self.payload(), self.TEXT
        )

    @pytest.mark.parametrize("name", TOKEN_COLUMNS)
    @pytest.mark.parametrize("value", ["missing", None, {"0": -0.5}, "[-0.5]", 1])
    def test_missing_array_or_one_that_is_not_a_list_is_rejected(self, name, value):
        body = token_columns({"tokens": self.payload()})
        if value == "missing":
            del body[name]
        else:
            body[name] = value
        with pytest.raises(MalformedResponseError, match=f'lacks a "{name}" list'):
            parse_token_payload(body, "u", self.TEXT)

    def test_row_reply_is_rejected(self):
        with pytest.raises(MalformedResponseError, match='lacks a "token_logprobs"'):
            parse_token_payload({"tokens": self.payload()}, "u", self.TEXT)

    @pytest.mark.parametrize("name", TOKEN_COLUMNS)
    @pytest.mark.parametrize("change", [-1, 1])
    def test_arrays_of_unequal_length_are_rejected(self, name, change):
        body = token_columns({"tokens": self.payload()})
        body[name] = body[name][:1] if change < 0 else [*body[name], 0]
        with pytest.raises(MalformedResponseError, match="arrays differ in length"):
            parse_token_payload(body, "u", self.TEXT)

    def test_integer_logprob_beyond_the_float_range_is_rejected(self):
        with pytest.raises(MalformedResponseError, match="token 1 has logprob inf"):
            decode_rows(self.payload(logprob=-(10**400)), self.TEXT)

    token_like = st.fixed_dictionaries(
        {
            "logprob": st.floats(max_value=0.0) | JSON_VALUES,
            "start": st.integers(-1, 6) | JSON_VALUES,
            "end": st.integers(-1, 6) | JSON_VALUES,
        }
    )

    @given(rows=st.lists(token_like, max_size=4), text=st.sampled_from([TEXT, ""]))
    @settings(max_examples=300, deadline=None)
    def test_columnar_decode_matches_the_per_row_decode(self, rows, text):
        # Keys in wire order, as a refusal names a bad token's fields.
        rows = [{key: row[key] for key in ("logprob", "start", "end")} for row in rows]
        try:
            expected = reference_decode(rows, "u", text)
        except MalformedResponseError as exc:
            with pytest.raises(MalformedResponseError) as refused:
                decode_rows(rows, text)
            assert str(refused.value) == str(exc)
        else:
            assert decode_rows(rows, text) == expected

    @given(
        body=st.fixed_dictionaries(
            {},
            optional={
                name: JSON_VALUES | st.lists(column | JSON_VALUES, max_size=4)
                for name, column in zip(
                    TOKEN_COLUMNS,
                    [st.floats(max_value=0.0), st.integers(-1, 6), st.integers(-1, 6)],
                )
            },
        ),
        text=st.sampled_from([TEXT, ""]),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_json_value_decodes_or_is_malformed(self, body, text):
        try:
            tokens = parse_token_payload(body, "u", text)
        except MalformedResponseError:
            return
        columns = [body[name] for name in TOKEN_COLUMNS]
        assert tokens == tuple(
            (float(logprob), start, end) for logprob, start, end in zip(*columns)
        )
        assert len(tokens) == len(columns[0]) == len(columns[1]) == len(columns[2])
        for logprob, start, end in tokens:
            assert type(logprob) is float and type(start) is int and type(end) is int
            assert math.isfinite(logprob) and logprob <= 0.0
            assert 0 <= start <= end <= len(text.encode("utf-8"))


class TestGenerate:
    ENDPOINT = EndpointDescriptor("http://127.0.0.1:9/generate")
    TOKENS = {"token_logprobs": [-0.5], "token_starts": [0], "token_ends": [2]}

    @pytest.mark.parametrize(
        "echo, wire",
        [
            (False, '{"prompt": "ab", "max_tokens": 512, "temperature": 0, "logprobs": true}'),
            (
                True,
                '{"prompt": "ab", "max_tokens": 0, "temperature": 0, "logprobs": true, '
                '"echo": true}',
            ),
        ],
        ids=["generation", "echo"],
    )
    def test_request_body(self, echo, wire):
        task = generate(self.ENDPOINT, "ab", echo=echo)
        endpoint, payload = next(task)
        task.close()
        assert endpoint is self.ENDPOINT
        assert json.dumps(payload) == wire

    def test_echo_scores_the_prompt_and_needs_no_text(self):
        task = generate(self.ENDPOINT, "ab", echo=True)
        next(task)
        with pytest.raises(StopIteration) as done:
            task.send(self.TOKENS)
        assert done.value.value == ("ab", ((-0.5, 0, 2),))

    def test_generation_reply_without_text_is_malformed(self):
        task = generate(self.ENDPOINT, "ab")
        next(task)
        with pytest.raises(MalformedResponseError, match='lacks a "text" field'):
            task.send(self.TOKENS)


class TestSequenceLogprob:
    def test_three_token_sum(self):
        tokens = [(-0.1, 0, 2), (-0.2, 2, 4), (-0.3, 4, 6)]
        total = sequence_logprob(tokens, Span(0, 6))
        assert total == pytest.approx(-0.6, rel=1e-12)
        assert math.exp(total) == pytest.approx(0.5488116360940264, rel=1e-9)

    def test_empty_span_is_certainty(self):
        tokens = [(-0.5, 0, 3)]
        assert sequence_logprob(tokens, Span(2, 2)) == 0.0

    def test_single_certain_token(self):
        assert sequence_logprob([(0.0, 0, 3)], Span(0, 3)) == 0.0

    def test_partial_overlap_counts_token(self):
        tokens = [(-0.1, 0, 4), (-0.2, 4, 8)]
        assert sequence_logprob(tokens, Span(3, 5)) == pytest.approx(-0.3)

    @given(
        logprobs=st.lists(
            st.floats(min_value=-5.0, max_value=0.0), min_size=1, max_size=50
        ),
        bump_index=st.integers(min_value=0, max_value=49),
        bump=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80)
    def test_raising_a_logprob_strictly_raises_the_span_score(
        self, logprobs, bump_index, bump
    ):
        bump_index %= len(logprobs)
        tokens = [(lp, i * 2, i * 2 + 2) for i, lp in enumerate(logprobs)]
        span = Span(0, len(logprobs) * 2)
        before = sequence_logprob(tokens, span)
        raised = list(logprobs)
        raised[bump_index] = min(0.0, raised[bump_index] + bump)
        # Skip bumps that vanish at float64 precision within the span sum.
        assume(raised[bump_index] - logprobs[bump_index] > 1e-6)
        tokens2 = [(lp, i * 2, i * 2 + 2) for i, lp in enumerate(raised)]
        assert sequence_logprob(tokens2, span) > before

    @given(
        logprobs=st.lists(
            st.floats(min_value=-5.0, max_value=0.0), min_size=1, max_size=50
        )
    )
    @settings(max_examples=80)
    def test_log_domain_matches_direct_product(self, logprobs):
        tokens = [(lp, i * 2, i * 2 + 2) for i, lp in enumerate(logprobs)]
        span = Span(0, len(logprobs) * 2)
        direct = math.prod(math.exp(lp) for lp in logprobs)
        assert math.exp(sequence_logprob(tokens, span)) == pytest.approx(
            direct, rel=1e-9
        )


def scored_draft(rationale_lp, answer_lp, n_rationale=1, n_answer=1):
    """Synthetic tokens and a parsed draft whose spans cover the two token
    groups."""
    tokens = []
    pos = 0
    for _ in range(n_rationale):
        tokens.append((rationale_lp, pos, pos + 2))
        pos += 2
    r_span = Span(0, pos)
    a_start = pos
    for _ in range(n_answer):
        tokens.append((answer_lp, pos, pos + 2))
        pos += 2
    return tuple(tokens), ParsedDraft("r", "a", r_span, Span(a_start, pos))


class TestComputeRhoDraft:
    def test_half_plus_quarter(self):
        rho = compute_rho_draft(*scored_draft(math.log(0.5), math.log(0.25)))
        assert rho == pytest.approx(-0.2876820724517809, rel=1e-9)
        assert math.exp(rho) == pytest.approx(0.75, rel=1e-9)

    def test_two_certain_spans_sum_to_two(self):
        rho = compute_rho_draft(*scored_draft(0.0, 0.0))
        assert math.exp(rho) == pytest.approx(2.0, rel=1e-12)

    @given(
        lp_r=st.floats(min_value=-10, max_value=0),
        lp_a=st.floats(min_value=-10, max_value=0),
    )
    @settings(max_examples=60)
    def test_matches_linear_domain_sum(self, lp_r, lp_a):
        expected = math.exp(lp_r) + math.exp(lp_a)
        assert math.exp(compute_rho_draft(*scored_draft(lp_r, lp_a))) == pytest.approx(
            expected, rel=1e-9
        )


def _drafters(*servers):
    return [EndpointDescriptor(s.generate_url) for s in servers]


class TestGenerateDrafts:
    def toy(self):
        query = Query(id="q", text="where?")
        docs = {
            "d1": Document("d1", "One", "text one"),
            "d2": Document("d2", "Two", "text two"),
            "d3": Document("d3", "Three", "text three"),
        }
        return query, docs

    def test_single_subset_single_candidate(self, mock_server):
        query, docs = self.toy()
        batch = generate_drafts(
            query, [subset_of("d1", index=0)], docs, _drafters(mock_server), 5000
        )
        assert len(batch.candidates) == 1
        assert batch.candidates[0].subset_index == 0
        assert batch.dropped == []

    def test_marker_free_completion_is_dropped_not_fatal(self, mock_server):
        query, docs = self.toy()
        singles = [subset_of(f"d{i+1}", index=i) for i in range(3)]
        pairs = [
            subset_of("d1", "d2", index=3),
            subset_of("d2", "d3", index=4),
        ]
        subsets = singles + pairs
        bad_prompt = build_draft_prompt(query, subsets[2], docs)
        mock_server.script.script_completion(bad_prompt, "no markers at all")
        batch = generate_drafts(query, subsets, docs, _drafters(mock_server), 5000)
        assert [c.subset_index for c in batch.candidates] == [0, 1, 3, 4]
        assert len(batch.dropped) == 1
        assert batch.dropped[0].subset_index == 2
        assert "Rationale" in batch.dropped[0].drop_reason

    @pytest.mark.parametrize(
        "completion,tokens,reason",
        [
            ("## Rationale: r\n## Response: ", None, "nothing after"),
            ("## Rationale: r\n## Response: a", [math.nan], "logprob nan"),
            ("## Rationale: r\n## Response: a", [0.5], "logprob 0.5"),
            ("## Rationale: r\n## Response: a", [(0, 99)], "outside the"),
        ],
    )
    def test_degenerate_completion_is_dropped(
        self, mock_server, completion, tokens, reason
    ):
        query, docs = self.toy()
        subsets = [subset_of("d1", index=0), subset_of("d2", index=1)]
        scripted = uniform_tokens(completion, -1.0)
        for entry, bad in zip(scripted, tokens or []):
            if isinstance(bad, tuple):
                entry["start"], entry["end"] = bad
            else:
                entry["logprob"] = bad
        mock_server.script.script_completion(
            build_draft_prompt(query, subsets[1], docs), completion, scripted
        )
        batch = generate_drafts(query, subsets, docs, _drafters(mock_server), 5000)
        assert [c.subset_index for c in batch.candidates] == [0]
        [dropped] = batch.dropped
        assert dropped.subset_index == 1
        assert reason in dropped.drop_reason

    def test_results_in_subset_order_despite_slow_endpoint(self, server_factory):
        # Round-robin sends even subsets to the slow server; completion order
        # is scrambled but output order must follow subset indices.
        slow = server_factory(script=MockScript(delay_ms=120))
        fast = server_factory()
        query, docs = self.toy()
        subsets = [
            subset_of("d1", index=0),
            subset_of("d2", index=1),
            subset_of("d3", index=2),
            subset_of("d1", "d2", index=3),
        ]
        batch = generate_drafts(
            query, subsets, docs, _drafters(slow, fast), 5000
        )
        assert [c.subset_index for c in batch.candidates] == [0, 1, 2, 3]

    def test_requests_run_concurrently(self, server_factory):
        delay = 150
        servers = [server_factory(script=MockScript(delay_ms=delay)) for _ in range(3)]
        query, docs = self.toy()
        subsets = [subset_of(f"d{i+1}", index=i) for i in range(3)]
        started = time.perf_counter()
        batch = generate_drafts(query, subsets, docs, _drafters(*servers), 5000)
        elapsed_ms = (time.perf_counter() - started) * 1000
        assert len(batch.candidates) == 3
        assert elapsed_ms < 2.2 * delay  # serial would be >= 3 * delay

    def test_rho_draft_populated_from_completion_tokens(self, mock_server):
        query, docs = self.toy()
        subset = subset_of("d1", index=0)
        prompt = build_draft_prompt(query, subset, docs)
        completion = "## Rationale: alpha beta\n## Response: gamma"
        wire_tokens = uniform_tokens(completion, -0.25)
        mock_server.script.script_completion(prompt, completion, wire_tokens)
        batch = generate_drafts(query, [subset], docs, _drafters(mock_server), 5000)
        candidate = batch.candidates[0]
        tokens = decode_rows(wire_tokens, completion)
        parsed = parse_draft(completion)
        expected = np.logaddexp(
            sequence_logprob(tokens, parsed.rationale_span),
            sequence_logprob(tokens, parsed.answer_span),
        )
        assert candidate.rho_draft_log == pytest.approx(float(expected), rel=1e-12)
