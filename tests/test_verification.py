import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from draftrag.backend import EndpointDescriptor, fan_out
from draftrag.core import (
    Document,
    PipelineError,
    Query,
    ScoreTerm,
    SelectionMode,
    VerificationContextMode,
    derive_rng,
)
from draftrag.drafting import Candidate, Span, generate, parse_draft
from draftrag.mock_server import whitespace_token_spans
from draftrag.verification import (
    VerifyPrompt,
    build_verify_prompt,
    combine_scores,
    score_candidate,
    select_best,
    verify_candidates,
)
from reference_texts import WORKED_SCORES_A, WORKED_SCORES_B

ALL_TERMS = frozenset(
    {ScoreTerm.DRAFT, ScoreTerm.SELF_CONSISTENCY, ScoreTerm.SELF_REFLECTION}
)
REFLECTION = "Do you think the explanation supports the answers? (Yes or No)"


def make_candidate(answer="the answer", rationale="the rationale", doc_ids=("d1",)):
    completion = f"## Rationale: {rationale}\n## Response: {answer}"
    parsed = parse_draft(completion)
    return Candidate(
        subset_index=0,
        member_doc_ids=tuple(doc_ids),
        rationale=parsed.rationale,
        answer=parsed.answer,
        rho_draft_log=-0.5,
    )


DOCS = {
    "d1": Document("d1", "First", "first document text"),
    "d2": Document("d2", "Second", "second document text"),
}


def span_text(prompt_text: str, span: Span) -> str:
    return prompt_text.encode("utf-8")[span.start : span.end].decode("utf-8")


class TestBuildVerifyPrompt:
    def test_rationale_only_layout_and_spans(self):
        candidate = make_candidate()
        vp = build_verify_prompt(
            Query(id="q", text="why?"),
            candidate,
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
        )
        assert vp.text == (
            "## Instruction: why?\n"
            "## Response: the answer\n"
            "## Rationale: the rationale\n"
            f"{REFLECTION}\n"
            "Yes"
        )
        assert vp.text.endswith(f"{REFLECTION}\nYes")
        assert [span_text(vp.text, s) for s in vp.consistency_spans] == [
            "the answer",
            "the rationale",
        ]
        assert span_text(vp.text, vp.affirmation_span) == "Yes"
        assert vp.affirmation_span.end == len(vp.text.encode("utf-8"))

    def test_documents_only_replaces_rationale_with_evidence(self):
        candidate = make_candidate(doc_ids=("d1", "d2"))
        vp = build_verify_prompt(
            Query(id="q", text="why?"),
            candidate,
            DOCS,
            VerificationContextMode.DOCUMENTS_ONLY,
        )
        assert "## Rationale:" not in vp.text
        assert "## Evidence: \n[1] First\nfirst document text" in vp.text
        assert "[2] Second" in vp.text
        evidence = span_text(vp.text, vp.consistency_spans[1])
        assert evidence.startswith("[1] First") and evidence.endswith("document text")

    def test_combined_mode_has_answer_evidence_then_rationale(self):
        candidate = make_candidate(doc_ids=("d1",))
        vp = build_verify_prompt(
            Query(id="q", text="why?"),
            candidate,
            DOCS,
            VerificationContextMode.RATIONALE_AND_DOCUMENTS,
        )
        assert len(vp.consistency_spans) == 3
        assert vp.text.index("## Response:") < vp.text.index("## Evidence:")
        assert vp.text.index("## Evidence:") < vp.text.index("## Rationale:")

    def test_empty_rationale_yields_empty_span(self):
        candidate = make_candidate(rationale="")
        vp = build_verify_prompt(
            Query(id="q", text="why?"),
            candidate,
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
        )
        rationale_span = vp.consistency_spans[1]
        assert rationale_span.empty


def _verifier(server):
    return EndpointDescriptor(server.generate_url)


def score(prompt, server):
    """``score_candidate`` of the server's echo of the prompt."""
    [(_, tokens)] = fan_out([generate(_verifier(server), prompt.text, echo=True)], 5000)
    return score_candidate(prompt, tokens)


def brute_force_span_sum(tokens: list[dict], span: Span) -> float:
    return sum(
        t["logprob"]
        for t in tokens
        if t["start"] < span.end and t["end"] > span.start
    )


class TestScoreCandidate:
    def test_matches_brute_force_over_scripted_logprobs(self, mock_server):
        candidate = make_candidate()
        vp = build_verify_prompt(
            Query(id="q", text="why?"),
            candidate,
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
        )
        rng = derive_rng(17)
        tokens = [
            {
                "logprob": float(-rng.random() * 3),
                "start": start,
                "end": end,
            }
            for start, end in whitespace_token_spans(vp.text)
        ]
        mock_server.script.script_echo(vp.text, tokens)

        rho_sc, rho_sr = score(vp, mock_server)
        expected_sc = sum(
            brute_force_span_sum(tokens, s) for s in vp.consistency_spans
        )
        expected_sr = brute_force_span_sum(tokens, vp.affirmation_span)
        assert rho_sc == pytest.approx(expected_sc, rel=1e-12)
        assert rho_sr == pytest.approx(expected_sr, rel=1e-12)

    def test_spans_are_added_left_to_right(self):
        # Compensated summation, as ``sum`` of floats does since Python
        # 3.12, would give -0.6.
        prompt = VerifyPrompt(
            text="a b c d",
            consistency_spans=(Span(0, 2), Span(2, 4), Span(4, 6)),
            affirmation_span=Span(6, 7),
        )
        tokens = [(-0.1, 0, 2), (-0.2, 2, 4), (-0.3, 4, 6), (-0.5, 6, 7)]
        assert score_candidate(prompt, tokens) == (-0.6000000000000001, -0.5)

    def test_all_zero_logprobs_score_zero(self, mock_server):
        candidate = make_candidate()
        vp = build_verify_prompt(
            Query(id="q", text="why?"),
            candidate,
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
        )
        from draftrag.mock_server import uniform_tokens

        mock_server.script.script_echo(vp.text, uniform_tokens(vp.text, 0.0))
        rho_sc, rho_sr = score(vp, mock_server)
        assert (rho_sc, rho_sr) == (0.0, 0.0)

    def test_issues_exactly_one_request_per_candidate(self, mock_server):
        candidate = make_candidate()
        vp = build_verify_prompt(
            Query(id="q", text="why?"),
            candidate,
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
        )
        score(vp, mock_server)
        counts = mock_server.request_counts()
        assert counts == {"echo": 1}

    def test_span_additivity_over_disjoint_spans(self, mock_server):
        from draftrag.drafting import sequence_logprob
        from draftrag.mock_server import tokens_from_rule

        candidate = make_candidate(
            answer="alpha beta gamma", rationale="delta epsilon"
        )
        vp = build_verify_prompt(
            Query(id="q", text="why?"),
            candidate,
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
        )
        rho_sc, _ = score(vp, mock_server)
        rule_tokens = tuple(
            (t["logprob"], t["start"], t["end"])
            for t in tokens_from_rule(vp.text)
        )
        per_span = [sequence_logprob(rule_tokens, s) for s in vp.consistency_spans]
        assert rho_sc == pytest.approx(sum(per_span), rel=1e-12)


class TestCombineScores:
    def test_worked_example_products(self):
        for triple, expected in [
            (WORKED_SCORES_A, 0.118021034124),
            (WORKED_SCORES_B, 0.2298508134),
        ]:
            logs = [math.log(v) for v in triple]
            combined = combine_scores(*logs, ALL_TERMS)
            assert math.exp(combined) == pytest.approx(expected, rel=1e-9)
        logs_b = [math.log(v) for v in WORKED_SCORES_B]
        assert combine_scores(*logs_b, ALL_TERMS) == pytest.approx(
            -1.4703248179064903, rel=1e-9
        )

    def test_unit_probability_term_drops_out(self):
        base = combine_scores(math.log(0.5), math.log(0.25), 0.0, ALL_TERMS)
        assert math.exp(base) == pytest.approx(0.125, rel=1e-12)

    def test_disabled_terms_are_excluded(self):
        no_draft = frozenset({ScoreTerm.SELF_CONSISTENCY, ScoreTerm.SELF_REFLECTION})
        assert combine_scores(-100.0, -1.0, -2.0, no_draft) == pytest.approx(-3.0)
        only_draft = frozenset({ScoreTerm.DRAFT})
        assert combine_scores(-1.5, -100.0, -100.0, only_draft) == pytest.approx(-1.5)

    @given(
        draft=st.floats(min_value=-10, max_value=1),
        sc=st.floats(min_value=-10, max_value=0),
        sr=st.floats(min_value=-10, max_value=0),
        perturb=st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=60)
    def test_without_draft_term_drafter_logprobs_are_irrelevant(
        self, draft, sc, sr, perturb
    ):
        terms = frozenset({ScoreTerm.SELF_CONSISTENCY, ScoreTerm.SELF_REFLECTION})
        assert combine_scores(draft, sc, sr, terms) == combine_scores(
            draft + perturb, sc, sr, terms
        )


def scored(index, score):
    return Candidate(index, answer=f"answer {index}", rho_final_log=score)


class TestSelectBest:
    def test_worked_example_selects_draft_b(self):
        candidates = []
        for index, triple in enumerate([WORKED_SCORES_A, WORKED_SCORES_B]):
            logs = [math.log(v) for v in triple]
            candidates.append(scored(index, combine_scores(*logs, ALL_TERMS)))
        winner = select_best(candidates, SelectionMode.ARGMAX, derive_rng(0))
        assert winner.subset_index == 1

    def test_singleton(self):
        only = scored(7, -1.0)
        assert select_best([only], SelectionMode.ARGMAX, derive_rng(0)) is only

    def test_tie_breaks_to_lowest_subset_index(self):
        candidates = [scored(3, -1.0), scored(1, -1.0), scored(2, -1.0)]
        winner = select_best(candidates, SelectionMode.ARGMAX, derive_rng(0))
        assert winner.subset_index == 1

    def test_empty_candidate_list_is_a_pipeline_error(self):
        with pytest.raises(PipelineError):
            select_best([], SelectionMode.ARGMAX, derive_rng(0))

    def test_random_mode_uses_seeded_stream(self):
        candidates = [scored(i, float(-i)) for i in range(5)]
        a = select_best(candidates, SelectionMode.RANDOM, derive_rng(4))
        b = select_best(candidates, SelectionMode.RANDOM, derive_rng(4))
        assert a == b

    @given(
        scores=st.lists(
            st.floats(min_value=-50, max_value=5), min_size=1, max_size=8
        ),
        scale=st.floats(min_value=0.1, max_value=10),
        shift=st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=80)
    def test_argmax_invariant_under_strictly_increasing_maps(
        self, scores, scale, shift
    ):
        # Near-ties can collapse to exact ties under float transforms; keep
        # scores either identical or separated beyond float tolerance.
        distinct = sorted(set(scores))
        assume(all(b - a >= 1e-6 for a, b in zip(distinct, distinct[1:])))
        candidates = [scored(i, s) for i, s in enumerate(scores)]
        baseline = select_best(candidates, SelectionMode.ARGMAX, derive_rng(0))
        for fn in (lambda x: scale * x + shift, lambda x: x**3, math.atan):
            mapped = [scored(c.subset_index, fn(c.rho_final_log)) for c in candidates]
            winner = select_best(mapped, SelectionMode.ARGMAX, derive_rng(0))
            assert winner.subset_index == baseline.subset_index


class TestVerifyCandidates:
    def test_skips_verifier_when_no_verifier_terms_enabled(self, mock_server):
        candidates = [make_candidate(), make_candidate()]
        results = verify_candidates(
            Query(id="q", text="why?"),
            candidates,
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
            _verifier(mock_server),
            5000,
            frozenset({ScoreTerm.DRAFT}),
        )
        assert mock_server.request_counts() == {}
        assert [r.rho_final_log for r in results] == [
            c.rho_draft_log for c in candidates
        ]

    def test_endpoint_failure_drops_candidate_only(self, mock_server, server_factory):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead = f"http://127.0.0.1:{s.getsockname()[1]}/generate"
        candidates = [make_candidate()]
        results = verify_candidates(
            Query(id="q", text="why?"),
            candidates,
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
            EndpointDescriptor(dead),
            500,
            ALL_TERMS,
        )
        assert len(results) == 1
        assert results[0].dropped
        assert dead in (results[0].drop_reason or "")


    @pytest.mark.parametrize(
        "change", [{"logprob": math.nan}, {"logprob": 0.5}, {"end": 10**6}]
    )
    def test_malformed_echo_tokens_drop_the_candidate(self, mock_server, change):
        from draftrag.mock_server import tokens_from_rule

        candidate = make_candidate()
        vp = build_verify_prompt(
            Query(id="q", text="why?"),
            candidate,
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
        )
        tokens = tokens_from_rule(vp.text)
        tokens[-1].update(change)
        mock_server.script.script_echo(vp.text, tokens)
        [result] = verify_candidates(
            Query(id="q", text="why?"),
            [candidate],
            DOCS,
            VerificationContextMode.RATIONALE_ONLY,
            _verifier(mock_server),
            5000,
            ALL_TERMS,
        )
        assert result.dropped
        assert result.rho_final_log is None
        assert "token" in (result.drop_reason or "")


class GuardedQuery(Query):
    """Query that records any read of its gold answers."""

    touched = False

    def __getattribute__(self, name):
        if name == "gold_answers":
            GuardedQuery.touched = True
        return object.__getattribute__(self, name)


def test_prompt_builders_never_read_gold_answers():
    from draftrag.drafting import build_draft_prompt
    from draftrag.clustering import DocumentSubset

    query = GuardedQuery(
        id="q", text="why?", gold_answers=("LEAK-SENTINEL-314159",)
    )
    GuardedQuery.touched = False

    subset = DocumentSubset(0, ("d1",), (0,))
    draft_prompt = build_draft_prompt(query, subset, DOCS)
    vp = build_verify_prompt(
        query,
        make_candidate(),
        DOCS,
        VerificationContextMode.RATIONALE_AND_DOCUMENTS,
    )
    assert GuardedQuery.touched is False
    assert "LEAK-SENTINEL-314159" not in draft_prompt
    assert "LEAK-SENTINEL-314159" not in vp.text
