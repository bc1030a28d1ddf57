"""Draft generation: prompt building, parallel dispatch, parsing, and scoring.

Each sampled document subset becomes one drafting prompt. The drafter returns
a completion of the form ``## Rationale: ... ## Response: ...`` together with
per-token log-probabilities; the rationale/answer spans of that completion
give the draft confidence score.

All offsets in this module are byte offsets into the UTF-8 encoding of the
surrounding text, matching the token offsets reported by the endpoints.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .backend import (
    EndpointDescriptor,
    MalformedResponseError,
    TransportError,
    dispatch,
    round_robin_assign,
)
from .clustering import DocumentSubset
from .core import DataError, Document, PipelineError, Query, TaskKind

logger = logging.getLogger(__name__)

DRAFT_PROMPT_HEADER = (
    "Response to the instruction. Also provide rationale for your response."
)
RATIONALE_MARKER = "## Rationale:"
RESPONSE_MARKER = "## Response:"
MAX_COMPLETION_TOKENS = 512


class Span(NamedTuple):
    """Half-open byte range [start, end)."""

    start: int
    end: int

    @property
    def empty(self) -> bool:
        return self.start >= self.end


class DraftParseError(Exception):
    """Completion lacks a required marker; names the missing one."""


class NoValidDraftsError(PipelineError):
    pass


@dataclass(frozen=True)
class TokenLogprob:
    """One completion token with its log-probability and byte offsets."""

    token_text: str
    logprob: float
    char_start: int
    char_end: int


@dataclass(frozen=True)
class ParsedDraft:
    rationale: str
    answer: str
    rationale_span: Span
    answer_span: Span


@dataclass(frozen=True)
class DraftCandidate:
    """One parsed draft: answer, rationale, tokens, and draft confidence.

    ``subset_doc_ids`` records which documents the draft was grounded on so
    the verifier can reconstruct the evidence context when asked to.
    """

    subset_index: int
    subset_doc_ids: tuple[str, ...]
    raw_completion: str
    rationale: str
    answer: str
    rationale_span: Span
    answer_span: Span
    completion_tokens: tuple[TokenLogprob, ...]
    rho_draft_log: float


@dataclass(frozen=True)
class DroppedDraft:
    subset_index: int
    reason: str


@dataclass
class DraftBatch:
    candidates: list[DraftCandidate]
    dropped: list[DroppedDraft]


def instruction_text(query: Query) -> str:
    """Query text, with choice labels appended for multiple-choice tasks."""
    if query.task_kind is TaskKind.CLOSED_SET_CHOICE and query.choices:
        rendered = " ".join(f"({label}) {text}" for label, text in query.choices)
        return f"{query.text} Options: {rendered}"
    return query.text


def evidence_block(docs: Sequence[Document]) -> str:
    """Numbered evidence entries: ``[i] title`` then the text, one per line."""
    return "\n".join(f"[{i}] {doc.title}\n{doc.text}" for i, doc in enumerate(docs, 1))


def resolve_docs(
    doc_ids: Sequence[str], docs_by_id: Mapping[str, Document]
) -> list[Document]:
    missing = [d for d in doc_ids if d not in docs_by_id]
    if missing:
        raise DataError(f"unresolvable document ids: {', '.join(missing)}")
    return [docs_by_id[d] for d in doc_ids]


def build_draft_prompt(
    query: Query, subset: DocumentSubset, docs_by_id: Mapping[str, Document]
) -> str:
    docs = resolve_docs(subset.member_doc_ids, docs_by_id)
    return (
        f"{DRAFT_PROMPT_HEADER}\n"
        f"## Instruction: {instruction_text(query)}\n"
        f"## Evidence: \n"
        f"{evidence_block(docs)}"
    )


def _trimmed_span(data: bytes, lo: int, hi: int) -> Span:
    """Shrink [lo, hi) past ASCII whitespace on both ends."""
    while lo < hi and data[lo : lo + 1].isspace():
        lo += 1
    while hi > lo and data[hi - 1 : hi].isspace():
        hi -= 1
    return Span(lo, hi)


def parse_draft(raw_completion: str) -> ParsedDraft:
    """Split a completion into (rationale, answer) with their byte spans.

    The rationale is the text between the first ``## Rationale:`` marker and
    the following ``## Response:`` marker; the answer is everything after
    ``## Response:``. Both are whitespace-trimmed.
    """
    data = raw_completion.encode("utf-8")
    r_marker = RATIONALE_MARKER.encode("utf-8")
    a_marker = RESPONSE_MARKER.encode("utf-8")

    r_at = data.find(r_marker)
    if r_at < 0:
        raise DraftParseError(f'missing "{RATIONALE_MARKER}" marker')
    a_at = data.find(a_marker, r_at + len(r_marker))
    if a_at < 0:
        raise DraftParseError(f'missing "{RESPONSE_MARKER}" marker')

    rationale_span = _trimmed_span(data, r_at + len(r_marker), a_at)
    answer_span = _trimmed_span(data, a_at + len(a_marker), len(data))
    return ParsedDraft(
        rationale=data[rationale_span.start : rationale_span.end].decode("utf-8"),
        answer=data[answer_span.start : answer_span.end].decode("utf-8"),
        rationale_span=rationale_span,
        answer_span=answer_span,
    )


def sequence_logprob(
    tokens: Sequence[TokenLogprob], span: Span, normalize: bool = False
) -> float:
    """Sum of log-probabilities of tokens overlapping a byte span.

    A token counts when its byte range intersects the span at all, so spans
    need not align to token boundaries. An empty span scores 0 (probability
    1). With ``normalize`` the sum is divided by the token count.
    """
    if span.empty:
        return 0.0
    total = 0.0
    count = 0
    for tok in tokens:
        if tok.char_start < span.end and tok.char_end > span.start:
            total += tok.logprob
            count += 1
    if normalize and count > 0:
        return total / count
    return total


def compute_rho_draft(candidate: DraftCandidate, normalize: bool = False) -> float:
    """Draft confidence in log domain.

    The score is the *sum* of the rationale and answer sequence
    probabilities (not their product), so in log domain it is a logaddexp of
    the two span log-probabilities. It can exceed probability 1 by design;
    it is a ranking score, not a distribution.
    """
    l_rationale = sequence_logprob(
        candidate.completion_tokens, candidate.rationale_span, normalize
    )
    l_answer = sequence_logprob(
        candidate.completion_tokens, candidate.answer_span, normalize
    )
    return float(np.logaddexp(l_rationale, l_answer))


def parse_token_payload(raw_tokens: object, url: str) -> tuple[TokenLogprob, ...]:
    if not isinstance(raw_tokens, list):
        raise MalformedResponseError(url, 'response lacks a "tokens" list')
    out = []
    try:
        for t in raw_tokens:
            out.append(
                TokenLogprob(
                    token_text=t["text"],
                    logprob=float(t["logprob"]),
                    char_start=int(t["start"]),
                    char_end=int(t["end"]),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedResponseError(url, f"bad token entry: {exc}")
    return tuple(out)


def draft_candidate(
    subset: DocumentSubset,
    text: str,
    tokens: tuple[TokenLogprob, ...],
    normalize: bool,
) -> DraftCandidate:
    """Parse a drafter completion for ``subset`` and score its ``rho_draft``.

    Raises ``DraftParseError`` when a marker is missing.
    """
    parsed = parse_draft(text)
    candidate = DraftCandidate(
        subset_index=subset.subset_index,
        subset_doc_ids=subset.member_doc_ids,
        raw_completion=text,
        rationale=parsed.rationale,
        answer=parsed.answer,
        rationale_span=parsed.rationale_span,
        answer_span=parsed.answer_span,
        completion_tokens=tokens,
        rho_draft_log=0.0,
    )
    return replace(candidate, rho_draft_log=compute_rho_draft(candidate, normalize))


def _request_draft(
    query: Query,
    subset: DocumentSubset,
    docs_by_id: Mapping[str, Document],
    endpoint: EndpointDescriptor,
    timeout_ms: int,
    normalize: bool,
    max_tokens: int,
) -> DraftCandidate:
    prompt = build_draft_prompt(query, subset, docs_by_id)
    body = dispatch(
        endpoint,
        {
            "prompt": prompt,
            "max_tokens": max_tokens,
            "temperature": 0,
            "logprobs": True,
        },
        timeout_ms,
    )
    text = body.get("text")
    if not isinstance(text, str):
        raise MalformedResponseError(endpoint.url, 'response lacks a "text" field')
    tokens = parse_token_payload(body.get("tokens"), endpoint.url)
    return draft_candidate(subset, text, tokens, normalize)


def generate_drafts(
    query: Query,
    subsets: Sequence[DocumentSubset],
    docs_by_id: Mapping[str, Document],
    endpoints: Sequence[EndpointDescriptor],
    timeout_ms: int,
    normalize: bool = False,
    max_tokens: int = MAX_COMPLETION_TOKENS,
) -> DraftBatch:
    """Draft all subsets concurrently, round-robin over the endpoint pool.

    Greedy decoding (temperature 0) with per-token logprobs. Candidates come
    back in subset order regardless of completion order; failed or
    unparseable completions are recorded as dropped rather than crashing the
    batch. Raises ``NoValidDraftsError`` when nothing survives.
    """
    if not subsets:
        raise ValueError("generate_drafts requires at least one subset")
    assigned = round_robin_assign(len(subsets), list(endpoints))

    candidates: list[DraftCandidate] = []
    dropped: list[DroppedDraft] = []
    with ThreadPoolExecutor(max_workers=len(subsets)) as pool:
        futures = [
            pool.submit(
                _request_draft,
                query,
                subset,
                docs_by_id,
                endpoint,
                timeout_ms,
                normalize,
                max_tokens,
            )
            for subset, endpoint in zip(subsets, assigned)
        ]
        for subset, future in zip(subsets, futures):
            try:
                candidates.append(future.result())
            except (TransportError, DraftParseError) as exc:
                logger.warning(
                    "draft for subset %d dropped: %s", subset.subset_index, exc
                )
                dropped.append(DroppedDraft(subset.subset_index, str(exc)))

    candidates.sort(key=lambda c: c.subset_index)
    dropped.sort(key=lambda d: d.subset_index)
    if not candidates:
        raise NoValidDraftsError("no valid drafts")
    return DraftBatch(candidates=candidates, dropped=dropped)
