import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from draftrag.backend import EndpointDescriptor, EndpointRole
from draftrag.clustering import DocumentSubset
from draftrag.core import DataError, Document, Query, TaskKind
from draftrag.backend import MalformedResponseError
from draftrag.drafting import (
    DraftParseError,
    Span,
    TokenLogprob,
    build_draft_prompt,
    compute_rho_draft,
    generate_drafts,
    parse_draft,
    parse_token_payload,
    sequence_logprob,
)
from draftrag.mock_server import MockScript, uniform_tokens
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


class TestParseTokenPayload:
    TEXT = "ab é"  # 5 bytes in UTF-8

    def payload(self, logprob=-0.5, start=3, end=5):
        return [
            {"text": "ab ", "logprob": -1.0, "start": 0, "end": 3},
            {"text": "é", "logprob": logprob, "start": start, "end": end},
        ]

    def test_valid_tokens_decode(self):
        tokens = parse_token_payload(self.payload(logprob=0.0), "u", self.TEXT)
        assert tokens == (
            TokenLogprob("ab ", -1.0, 0, 3),
            TokenLogprob("é", 0.0, 3, 5),
        )

    @pytest.mark.parametrize("logprob", [math.nan, math.inf, -math.inf, 0.25])
    def test_logprob_that_is_not_finite_and_at_most_zero_is_rejected(self, logprob):
        with pytest.raises(MalformedResponseError, match="token 1 has logprob"):
            parse_token_payload(self.payload(logprob=logprob), "u", self.TEXT)

    @pytest.mark.parametrize("start,end", [(-1, 2), (4, 3), (3, 6)])
    def test_offsets_outside_the_text_are_rejected(self, start, end):
        with pytest.raises(MalformedResponseError, match="outside the 5-byte text"):
            parse_token_payload(self.payload(start=start, end=end), "u", self.TEXT)


def tok(lp, start, end, text="t"):
    return TokenLogprob(token_text=text, logprob=lp, char_start=start, char_end=end)


class TestSequenceLogprob:
    def test_three_token_sum(self):
        tokens = [tok(-0.1, 0, 2), tok(-0.2, 2, 4), tok(-0.3, 4, 6)]
        total = sequence_logprob(tokens, Span(0, 6))
        assert total == pytest.approx(-0.6, rel=1e-12)
        assert math.exp(total) == pytest.approx(0.5488116360940264, rel=1e-9)

    def test_empty_span_is_certainty(self):
        tokens = [tok(-0.5, 0, 3)]
        assert sequence_logprob(tokens, Span(2, 2)) == 0.0

    def test_single_certain_token(self):
        assert sequence_logprob([tok(0.0, 0, 3)], Span(0, 3)) == 0.0

    def test_partial_overlap_counts_token(self):
        tokens = [tok(-0.1, 0, 4), tok(-0.2, 4, 8)]
        assert sequence_logprob(tokens, Span(3, 5)) == pytest.approx(-0.3)

    def test_normalization_divides_by_token_count(self):
        tokens = [tok(-0.2, 0, 2), tok(-0.4, 2, 4)]
        assert sequence_logprob(tokens, Span(0, 4), normalize=True) == pytest.approx(-0.3)

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
        tokens = [tok(lp, i * 2, i * 2 + 2) for i, lp in enumerate(logprobs)]
        span = Span(0, len(logprobs) * 2)
        before = sequence_logprob(tokens, span)
        raised = list(logprobs)
        raised[bump_index] = min(0.0, raised[bump_index] + bump)
        # Skip bumps that vanish at float64 precision within the span sum.
        assume(raised[bump_index] - logprobs[bump_index] > 1e-6)
        tokens2 = [tok(lp, i * 2, i * 2 + 2) for i, lp in enumerate(raised)]
        assert sequence_logprob(tokens2, span) > before

    @given(
        logprobs=st.lists(
            st.floats(min_value=-5.0, max_value=0.0), min_size=1, max_size=50
        )
    )
    @settings(max_examples=80)
    def test_log_domain_matches_direct_product(self, logprobs):
        tokens = [tok(lp, i * 2, i * 2 + 2) for i, lp in enumerate(logprobs)]
        span = Span(0, len(logprobs) * 2)
        direct = math.prod(math.exp(lp) for lp in logprobs)
        assert math.exp(sequence_logprob(tokens, span)) == pytest.approx(
            direct, rel=1e-9
        )


def make_candidate(rationale_lp, answer_lp, n_rationale=1, n_answer=1):
    """Candidate with synthetic tokens; spans cover the two token groups."""
    from draftrag.drafting import DraftCandidate

    tokens = []
    pos = 0
    for _ in range(n_rationale):
        tokens.append(tok(rationale_lp, pos, pos + 2))
        pos += 2
    r_span = Span(0, pos)
    a_start = pos
    for _ in range(n_answer):
        tokens.append(tok(answer_lp, pos, pos + 2))
        pos += 2
    return DraftCandidate(
        subset_index=0,
        subset_doc_ids=("d1",),
        raw_completion="x" * pos,
        rationale="r",
        answer="a",
        rationale_span=r_span,
        answer_span=Span(a_start, pos),
        completion_tokens=tuple(tokens),
        rho_draft_log=0.0,
    )


class TestComputeRhoDraft:
    def test_half_plus_quarter(self):
        candidate = make_candidate(math.log(0.5), math.log(0.25))
        rho = compute_rho_draft(candidate)
        assert rho == pytest.approx(-0.2876820724517809, rel=1e-9)
        assert math.exp(rho) == pytest.approx(0.75, rel=1e-9)

    def test_two_certain_spans_sum_to_two(self):
        candidate = make_candidate(0.0, 0.0)
        assert math.exp(compute_rho_draft(candidate)) == pytest.approx(2.0, rel=1e-12)

    @given(
        lp_r=st.floats(min_value=-10, max_value=0),
        lp_a=st.floats(min_value=-10, max_value=0),
    )
    @settings(max_examples=60)
    def test_matches_linear_domain_sum(self, lp_r, lp_a):
        candidate = make_candidate(lp_r, lp_a)
        expected = math.exp(lp_r) + math.exp(lp_a)
        assert math.exp(compute_rho_draft(candidate)) == pytest.approx(
            expected, rel=1e-9
        )


def _drafters(*servers):
    return [
        EndpointDescriptor(s.generate_url, EndpointRole.DRAFTER) for s in servers
    ]


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
        assert "Rationale" in batch.dropped[0].reason

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
        assert reason in dropped.reason

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
        from draftrag.mock_server import uniform_tokens

        mock_server.script.script_completion(
            prompt, completion, uniform_tokens(completion, -0.25)
        )
        batch = generate_drafts(query, [subset], docs, _drafters(mock_server), 5000)
        candidate = batch.candidates[0]
        expected = np.logaddexp(
            sequence_logprob(candidate.completion_tokens, candidate.rationale_span),
            sequence_logprob(candidate.completion_tokens, candidate.answer_span),
        )
        assert candidate.rho_draft_log == pytest.approx(float(expected), rel=1e-12)
