"""Draft generation: prompt building, parallel requests, parsing, and scoring.

Each sampled document subset becomes one drafting prompt. The drafter returns
a completion of the form ``## Rationale: ... ## Response: ...`` together with
per-token log-probabilities; the rationale/answer spans of that completion
give the draft confidence score. Each subset's outcome is one ``Candidate``:
drafting fills in its draft and score, or marks it dropped, and
verification then adds the remaining scores to the same candidate, which
is also the subset's results row.

All offsets in this module are byte offsets into the UTF-8 encoding of the
surrounding text, matching the token offsets reported by the endpoints. A
reply sends its tokens as three parallel arrays (``TOKEN_COLUMNS``); from
decoding to the score, a token is the plain tuple ``(logprob, start, end)``
of its entries in those arrays.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .backend import (
    EndpointDescriptor,
    MalformedResponseError,
    Task,
    TransportError,
    dispatch,  # noqa: F401  (unused here; perfbench/tracing.py rebinds it)
    fan_out,
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

# (logprob, start, end) of one token over the bytes [start, end).
Token = tuple[float, int, int]
# The parallel arrays a /generate reply sends its tokens in.
TOKEN_COLUMNS = ("token_logprobs", "token_starts", "token_ends")
_NUMBER_TYPES = {int, float}
_INT_TYPES = {int}


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
class ParsedDraft:
    rationale: str
    answer: str
    rationale_span: Span
    answer_span: Span


@dataclass(frozen=True)
class Candidate:
    """One subset's outcome, which is also its results row: the draft
    (grounded on ``member_doc_ids``) and its scores, or ``dropped`` with a
    ``drop_reason``. Fields never reached stay None (null in the file)."""

    subset_index: int
    member_doc_ids: tuple[str, ...] | None = None
    answer: str | None = None
    rationale: str | None = None
    rho_draft_log: float | None = None
    rho_sc_log: float | None = None
    rho_sr_log: float | None = None
    rho_final_log: float | None = None
    dropped: bool = False
    drop_reason: str | None = None

    @property
    def drop_notice(self) -> str:
        """"draft 2 dropped: …" or "verification 1 dropped: …": a dropped
        draft has no answer."""
        stage = "draft" if self.answer is None else "verification"
        return f"{stage} {self.subset_index} dropped: {self.drop_reason}"


@dataclass
class DraftBatch:
    candidates: list[Candidate]
    dropped: list[Candidate]


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
    ``## Response:``. Both are whitespace-trimmed. Raises ``DraftParseError``
    when a marker is missing or the answer is empty.
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
    if answer_span.empty:
        # An empty span scores log-prob 0, so an empty answer would
        # outrank every real one.
        raise DraftParseError(f'nothing after "{RESPONSE_MARKER}"')
    return ParsedDraft(
        rationale=data[rationale_span.start : rationale_span.end].decode("utf-8"),
        answer=data[answer_span.start : answer_span.end].decode("utf-8"),
        rationale_span=rationale_span,
        answer_span=answer_span,
    )


def sequence_logprob(tokens: Sequence[Token], span: Span) -> float:
    """Sum of log-probabilities of tokens overlapping a byte span.

    A token counts when its byte range intersects the span at all, so spans
    need not align to token boundaries. An empty span scores 0 (probability
    1).
    """
    if span.empty:
        return 0.0
    lo, hi = span
    total = 0.0
    for logprob, start, end in tokens:
        if start < hi and end > lo:
            total += logprob
    return total


def compute_rho_draft(tokens: Sequence[Token], parsed: ParsedDraft) -> float:
    """Draft confidence in log domain, from the completion's tokens and the
    spans ``parse_draft`` found in it.

    The score is the *sum* of the rationale and answer sequence
    probabilities (not their product), so in log domain it is a logaddexp of
    the two span log-probabilities. It can exceed probability 1 by design;
    it is a ranking score, not a distribution.
    """
    l_rationale = sequence_logprob(tokens, parsed.rationale_span)
    l_answer = sequence_logprob(tokens, parsed.answer_span)
    return float(np.logaddexp(l_rationale, l_answer))


def parse_token_payload(body: Mapping, url: str, text: str) -> tuple[Token, ...]:
    """Decode the tokens of a ``/generate`` reply ``body`` for the scored
    ``text`` into ``(logprob, start, end)`` tuples, in the arrays' order.

    The reply sends its tokens as three parallel arrays, ``token_logprobs``,
    ``token_starts`` and ``token_ends``, lists of one length. Each logprob
    is a JSON number and each offset an integer (a bool or a numeric string
    is the wrong type). Every logprob must be finite and at most 0, and
    every token's byte range must satisfy 0 <= start <= end <= len(text in
    UTF-8). Anything else is a ``MalformedResponseError``, so no such reply
    reaches ranking; it names the first bad token.

    The checks run over whole arrays, in C: no Python code runs per token
    unless the reply is refused.
    """
    columns = list(map(body.get, TOKEN_COLUMNS))
    for name, column in zip(TOKEN_COLUMNS, columns):
        if not isinstance(column, list):
            raise MalformedResponseError(url, f'response lacks a "{name}" list')
    logprobs, starts, ends = columns
    if not len(logprobs) == len(starts) == len(ends):
        raise MalformedResponseError(
            url,
            f"token arrays differ in length: {len(logprobs)} logprobs, "
            f"{len(starts)} starts and {len(ends)} ends",
        )
    text_bytes = len(text.encode("utf-8"))
    # Exact types: JSON decodes to exactly str, int or float, and
    # type(True) is bool, so a bool fails every check.
    logprob_types = set(map(type, logprobs))
    try:
        valid = (
            logprob_types <= _NUMBER_TYPES
            and set(map(type, starts)) <= _INT_TYPES
            and set(map(type, ends)) <= _INT_TYPES
            and all(map(math.isfinite, logprobs))  # NaN fails here, not in max
            and max(logprobs, default=0.0) <= 0.0
            and min(starts, default=0) >= 0
            and max(ends, default=0) <= text_bytes
            and all(map(operator.le, starts, ends))
        )
    except OverflowError:  # an integer logprob beyond the float range
        valid = False
    if not valid:
        _refuse_first_bad_token(url, columns, text_bytes)
    if int in logprob_types:
        logprobs = list(map(float, logprobs))
    return tuple(zip(logprobs, starts, ends))


def _refuse_first_bad_token(url: str, columns: list[list], text_bytes: int) -> NoReturn:
    """Raise the refusal of the first token that fails a check of
    ``parse_token_payload``; one token's checks run in the docstring's
    order."""
    for i, (logprob, start, end) in enumerate(zip(*columns)):
        if not (
            type(logprob) in _NUMBER_TYPES and type(start) is int and type(end) is int
        ):
            row = {"logprob": logprob, "start": start, "end": end}
            raise MalformedResponseError(
                url, f"token {i} has a field of the wrong type: {row}"
            )
        try:
            logprob = float(logprob)
        except OverflowError:  # an integer beyond the float range
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
    raise AssertionError("token arrays refused with no bad token in them")


def draft_candidate(
    subset: DocumentSubset, text: str, tokens: tuple[Token, ...]
) -> Candidate:
    """Parse a drafter completion for ``subset`` and score its ``rho_draft``.

    Raises ``DraftParseError`` when a marker is missing or the answer is
    empty.
    """
    parsed = parse_draft(text)
    return Candidate(
        subset.subset_index,
        member_doc_ids=subset.member_doc_ids,
        answer=parsed.answer,
        rationale=parsed.rationale,
        rho_draft_log=compute_rho_draft(tokens, parsed),
    )


def generate(
    endpoint: EndpointDescriptor, prompt: str, echo: bool = False
) -> Task[tuple[str, tuple[Token, ...]]]:
    """The one ``/generate`` request, as a ``fan_out`` task: the scored text
    and its tokens. Drafts and the standard call generate greedily, up to
    ``MAX_COMPLETION_TOKENS``, and score the reply's ``"text"``; with
    ``echo`` no token is generated and the prompt itself is scored. Raises
    ``MalformedResponseError`` for a generation reply without a text or
    any reply with bad token arrays (see ``parse_token_payload``).
    """
    body = yield endpoint, {
        "prompt": prompt,
        "max_tokens": MAX_COMPLETION_TOKENS,
        "temperature": 0,
        "logprobs": True,
        # An echo is the same request asking for no new tokens.
        **({"max_tokens": 0, "echo": True} if echo else {}),
    }
    text = prompt if echo else body.get("text")
    if not isinstance(text, str):
        raise MalformedResponseError(endpoint.url, 'response lacks a "text" field')
    return text, parse_token_payload(body, endpoint.url, text)


def draft_subset(
    query: Query,
    subset: DocumentSubset,
    docs_by_id: Mapping[str, Document],
    endpoint: EndpointDescriptor,
) -> Task[Candidate]:
    """Draft one subset with one ``generate`` request, as a ``fan_out`` task.

    A failed request or an unparseable completion comes back as a dropped
    ``Candidate`` rather than an error.
    """
    try:
        prompt = build_draft_prompt(query, subset, docs_by_id)
        text, tokens = yield from generate(endpoint, prompt)
        return draft_candidate(subset, text, tokens)
    except (TransportError, DraftParseError) as exc:
        logger.warning("draft for subset %d dropped: %s", subset.subset_index, exc)
        return Candidate(subset.subset_index, dropped=True, drop_reason=str(exc))


def drop_summary(candidates: Sequence[Candidate]) -> str:
    """Each dropped candidate's notice, in subset order, joined by "; "."""
    ordered = sorted(candidates, key=lambda c: c.subset_index)
    return "; ".join(c.drop_notice for c in ordered if c.dropped)


def generate_drafts(
    query: Query,
    subsets: Sequence[DocumentSubset],
    docs_by_id: Mapping[str, Document],
    endpoints: Sequence[EndpointDescriptor],
    timeout_ms: int,
) -> DraftBatch:
    """Draft all subsets concurrently, round-robin over the endpoint pool.

    Candidates and dropped drafts each come back in the order of
    ``subsets``, whatever the completion order; failed or unparseable
    completions are recorded as dropped rather than crashing the batch.
    Raises ``NoValidDraftsError``, naming each drop reason, when nothing
    survives.
    """
    if not subsets:
        raise ValueError("generate_drafts requires at least one subset")
    assigned = round_robin_assign(len(subsets), list(endpoints))
    outcomes = fan_out(
        [
            draft_subset(query, subset, docs_by_id, endpoint)
            for subset, endpoint in zip(subsets, assigned)
        ],
        timeout_ms,
    )
    candidates = [o for o in outcomes if not o.dropped]
    if not candidates:
        raise NoValidDraftsError(f"no valid drafts: {drop_summary(outcomes)}")
    dropped = [o for o in outcomes if o.dropped]
    return DraftBatch(candidates=candidates, dropped=dropped)
