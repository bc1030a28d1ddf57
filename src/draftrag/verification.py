"""Verifier-side scoring: one echo pass per draft, score combination, selection.

The verifier never generates text. For each draft we build a prompt laying
out the question, the answer, its supporting context, a reflection statement,
and the literal affirmation "Yes", then ask the verifier endpoint for the
log-probabilities of the prompt's own tokens (echo scoring). The
self-consistency score aggregates the answer/context spans; the
self-reflection score aggregates the trailing affirmation. Verifying a
``Candidate`` returns a copy with those two scores and the final score
filled in, or marked dropped when the echo request fails.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .backend import (
    EndpointDescriptor,
    Task,
    TransportError,
    dispatch,  # noqa: F401  (unused here; perfbench/tracing.py rebinds it)
    fan_out,
)
from .core import (
    Document,
    PipelineError,
    Query,
    ScoreTerm,
    SelectionMode,
    VerificationContextMode,
)
from .drafting import (
    Candidate,
    Span,
    TokenLogprob,
    evidence_block,
    generate,
    instruction_text,
    resolve_docs,
    sequence_logprob,
)

logger = logging.getLogger(__name__)

# The statement prompting the verifier to affirm or reject a draft, and the
# affirmation whose probability is the self-reflection score.
REFLECTION_STATEMENT = "Do you think the explanation supports the answers? (Yes or No)"
AFFIRMATION = "Yes"


@dataclass(frozen=True)
class VerifyPrompt:
    """Assembled verifier prompt plus the byte spans to score.

    ``consistency_spans`` cover the answer and its context (rationale,
    documents, or both, depending on the mode); ``affirmation_span`` covers
    the trailing affirmation token(s).
    """

    text: str
    consistency_spans: tuple[Span, ...]
    affirmation_span: Span


class _PromptBuilder:
    """Accumulates prompt pieces while tracking byte offsets."""

    def __init__(self):
        self._parts: list[str] = []
        self._cursor = 0

    def add(self, piece: str) -> Span:
        start = self._cursor
        self._parts.append(piece)
        self._cursor += len(piece.encode("utf-8"))
        return Span(start, self._cursor)

    @property
    def text(self) -> str:
        return "".join(self._parts)


def build_verify_prompt(
    query: Query,
    candidate: Candidate,
    docs_by_id: Mapping[str, Document],
    mode: VerificationContextMode,
) -> VerifyPrompt:
    """Lay out [question, answer, context, reflection, "Yes"] with known spans.

    Labeled section markers keep the span boundaries unambiguous. The
    context is the draft's rationale by default; the documents-only mode
    swaps in the subset's evidence block, and the combined mode includes
    both (answer, then evidence, then rationale).
    """
    b = _PromptBuilder()
    b.add(f"## Instruction: {instruction_text(query)}\n")
    b.add("## Response: ")
    answer_span = b.add(candidate.answer)
    spans = [answer_span]

    if mode in (
        VerificationContextMode.DOCUMENTS_ONLY,
        VerificationContextMode.RATIONALE_AND_DOCUMENTS,
    ):
        docs = resolve_docs(candidate.member_doc_ids, docs_by_id)
        b.add("\n## Evidence: \n")
        spans.append(b.add(evidence_block(docs)))
    if mode in (
        VerificationContextMode.RATIONALE_ONLY,
        VerificationContextMode.RATIONALE_AND_DOCUMENTS,
    ):
        b.add("\n## Rationale: ")
        spans.append(b.add(candidate.rationale))

    b.add(f"\n{REFLECTION_STATEMENT}\n")
    affirmation_span = b.add(AFFIRMATION)
    return VerifyPrompt(
        text=b.text,
        consistency_spans=tuple(spans),
        affirmation_span=affirmation_span,
    )


def score_candidate(
    prompt: VerifyPrompt, tokens: Sequence[TokenLogprob]
) -> tuple[float, float]:
    """The (self-consistency, self-reflection) logs of a prompt, from the
    tokens of its echo: the logprobs summed over its consistency spans and
    over its affirmation."""
    rho_sc = sum(sequence_logprob(tokens, span) for span in prompt.consistency_spans)
    rho_sr = sequence_logprob(tokens, prompt.affirmation_span)
    return float(rho_sc), float(rho_sr)


def combine_scores(
    rho_draft_log: float,
    rho_sc_log: float,
    rho_sr_log: float,
    score_terms: frozenset[ScoreTerm],
) -> float:
    """Product of the enabled score terms, computed as a sum of logs.

    Disabling terms reproduces the scoring ablations (a disabled term acts
    as probability 1).
    """
    total = 0.0
    if ScoreTerm.DRAFT in score_terms:
        total += rho_draft_log
    if ScoreTerm.SELF_CONSISTENCY in score_terms:
        total += rho_sc_log
    if ScoreTerm.SELF_REFLECTION in score_terms:
        total += rho_sr_log
    return total


def select_best(
    candidates: Sequence[Candidate],
    selection_mode: SelectionMode,
    rng: np.random.Generator,
) -> Candidate:
    """Pick the winner among the surviving candidates.

    argmax takes the highest ``rho_final_log``, ties broken by the lowest
    subset index; random picks uniformly with one draw from ``rng`` and
    reads no score (the no-verification ablation).
    """
    if not candidates:
        raise PipelineError("no surviving candidates to select from")
    if selection_mode is SelectionMode.RANDOM:
        return candidates[int(rng.integers(len(candidates)))]
    return min(candidates, key=lambda c: (-c.rho_final_log, c.subset_index))


def verify_candidate(
    query: Query,
    candidate: Candidate,
    docs_by_id: Mapping[str, Document],
    mode: VerificationContextMode,
    endpoint: EndpointDescriptor,
    score_terms: frozenset[ScoreTerm],
) -> Task[Candidate]:
    """Score one drafted candidate with one echo request, as a ``fan_out``
    task: the same candidate with its three remaining scores filled in.

    When neither verifier-side term is enabled no request is issued and the
    final score reduces to the enabled drafter term. An endpoint failure
    returns the candidate marked dropped, its scores unset, instead of
    raising.
    """
    rho_sc = rho_sr = 0.0
    if score_terms & {ScoreTerm.SELF_CONSISTENCY, ScoreTerm.SELF_REFLECTION}:
        try:
            prompt = build_verify_prompt(query, candidate, docs_by_id, mode)
            _, tokens = yield from generate(endpoint, prompt.text, echo=True)
            rho_sc, rho_sr = score_candidate(prompt, tokens)
        except TransportError as exc:
            logger.warning(
                "verification for subset %d dropped: %s", candidate.subset_index, exc
            )
            return replace(candidate, dropped=True, drop_reason=str(exc))
    return replace(
        candidate,
        rho_sc_log=rho_sc,
        rho_sr_log=rho_sr,
        rho_final_log=combine_scores(candidate.rho_draft_log, rho_sc, rho_sr, score_terms),
    )


def verify_candidates(
    query: Query,
    candidates: Sequence[Candidate],
    docs_by_id: Mapping[str, Document],
    mode: VerificationContextMode,
    endpoint: EndpointDescriptor,
    timeout_ms: int,
    score_terms: frozenset[ScoreTerm],
) -> list[Candidate]:
    """Score every candidate concurrently, one echo request each, results in
    subset order (see ``verify_candidate``)."""
    results = fan_out(
        [
            verify_candidate(query, c, docs_by_id, mode, endpoint, score_terms)
            for c in candidates
        ],
        timeout_ms,
    )
    results.sort(key=lambda r: r.subset_index)
    return results
