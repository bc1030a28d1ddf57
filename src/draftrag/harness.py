"""Dataset ingestion, the end-to-end pipeline, evaluation, and experiments.

Two pipeline modes share one evaluation judge:

- ``run_speculative``: embed, cluster, sample subsets, draft in parallel,
  echo-score each draft with the verifier, select the best answer;
- ``run_standard_baseline``: one generation call over all top-n documents,
  no verification (the latency/accuracy reference point).

Records are processed one at a time so per-stage wall-clock timings reflect
single-case latency rather than batching effects.
"""

from __future__ import annotations

import json
import logging
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .backend import (
    EndpointDescriptor,
    EndpointRole,
    TransportError,
    dispatch,
    fan_out,
    round_robin_assign,
)
from .clustering import (
    DocumentSubset,
    SubsetPlan,
    embed_documents,
    kmeans_cluster,
    sample_subsets,
)
from .core import (
    DataError,
    Document,
    PipelineConfig,
    PipelineError,
    Query,
    ScoreTerm,
    SelectionMode,
    StageTimings,
    TaskKind,
    derive_rng,
)
from .drafting import (
    MAX_COMPLETION_TOKENS,
    DraftBatch,
    DraftCandidate,
    DroppedDraft,
    collect_drafts,
    draft_subset,
    generate_drafts,  # noqa: F401  (unused here; perfbench/tracing.py rebinds it)
    instruction_text,
    parse_token_payload,
)
from .verification import (
    ReflectionStatement,
    VerificationResult,
    select_best,
    verify_candidate,
    verify_candidates,  # noqa: F401  (unused here; perfbench/tracing.py rebinds it)
)

logger = logging.getLogger(__name__)

STANDARD_PROMPT_HEADER = (
    "Below is an instruction that describes a task. "
    "Write a response that appropriately completes the request. "
)


class DatasetError(Exception):
    pass


@dataclass(frozen=True)
class DatasetRecord:
    """One pre-retrieved dataset entry: the query plus ranked documents."""

    query: Query
    documents: tuple[Document, ...]


@dataclass
class PipelineResult:
    """Outcome of one pipeline run over a single record."""

    query_id: str
    mode: str
    final_answer: str
    winning_subset_index: int
    candidates: list[dict]
    timings: StageTimings
    notices: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalSummary:
    """Aggregate accuracy and latency for one experiment configuration."""

    name: str
    mode: str
    accuracy: float
    evaluated: int
    correct: int
    failures: int
    per_record: list[dict]
    latency: dict
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class PipelineBackends:
    drafters: list[EndpointDescriptor]
    verifier: EndpointDescriptor
    embedder: EndpointDescriptor


def make_backends(cfg: PipelineConfig) -> PipelineBackends:
    return PipelineBackends(
        drafters=[
            EndpointDescriptor(url, EndpointRole.DRAFTER)
            for url in cfg.drafter_endpoints
        ],
        verifier=EndpointDescriptor(cfg.verifier_endpoint, EndpointRole.VERIFIER),
        embedder=EndpointDescriptor(cfg.embedding_endpoint, EndpointRole.EMBEDDER),
    )


# ---------------------------------------------------------------------------
# Dataset loading


_TASK_KINDS = {k.value for k in TaskKind}


def _parse_record(obj: dict, line_no: int) -> DatasetRecord:
    def fail(msg: str) -> DatasetError:
        return DatasetError(f"line {line_no}: {msg}")

    if not isinstance(obj, dict):
        raise fail("record is not a JSON object")
    qid = obj.get("id")
    if not isinstance(qid, str) or not qid:
        raise fail('missing or empty "id"')
    question = obj.get("question")
    if not isinstance(question, str) or not question:
        raise fail('missing or empty "question"')
    kind_raw = obj.get("task_kind", TaskKind.FREE_FORM.value)
    if kind_raw not in _TASK_KINDS:
        raise fail(f'unknown task_kind "{kind_raw}"')
    kind = TaskKind(kind_raw)

    choices_raw = obj.get("choices")
    if kind is TaskKind.CLOSED_SET_CHOICE:
        if not choices_raw:
            raise fail("closed_set_choice record requires choices")
        if not isinstance(choices_raw, list) or not all(
            isinstance(c, list) and len(c) == 2 for c in choices_raw
        ):
            raise fail("choices must be [label, text] pairs")
        if not all(isinstance(part, str) for c in choices_raw for part in c):
            raise fail("choice labels and texts must be strings")
        choices = tuple((lbl, txt) for lbl, txt in choices_raw)
    elif choices_raw:
        raise fail("choices are only allowed for closed_set_choice records")
    else:
        choices = None

    answers = obj.get("answers")
    if not isinstance(answers, list):
        raise fail('missing "answers" list')
    if not all(isinstance(a, str) for a in answers):
        raise fail("every answer must be a string")

    docs_raw = obj.get("documents")
    if not isinstance(docs_raw, list):
        raise fail('missing "documents" list')
    docs: list[Document] = []
    seen_ids: set[str] = set()
    for j, d in enumerate(docs_raw):
        if not isinstance(d, dict):
            raise fail(f"document {j} is not an object")
        did = d.get("id")
        text = d.get("text")
        if not isinstance(did, str) or not did:
            raise fail(f"document {j} missing id")
        if did in seen_ids:
            raise fail(f'duplicate document id "{did}"')
        if not isinstance(text, str) or not text:
            raise fail(f'document "{did}" has empty text')
        title = d.get("title", "")
        if not isinstance(title, str):
            raise fail(f'document "{did}" has a title that is not a string')
        seen_ids.add(did)
        docs.append(Document(id=did, title=title, text=text))

    return DatasetRecord(
        query=Query(
            id=qid,
            text=question,
            task_kind=kind,
            choices=choices,
            gold_answers=tuple(answers),
        ),
        documents=tuple(docs),
    )


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    """Load a line-delimited JSON dataset, validating every record.

    Errors carry the offending line number; duplicate query ids are
    rejected. An empty file loads as an empty list with a warning.
    """
    path = Path(path)
    records: list[DatasetRecord] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {line_no}: invalid JSON ({exc.msg})")
            record = _parse_record(obj, line_no)
            qid = record.query.id
            if qid in seen:
                raise DatasetError(
                    f'line {line_no}: duplicate query id "{qid}" (first seen on '
                    f"line {seen[qid]})"
                )
            seen[qid] = line_no
            records.append(record)
    if not records:
        logger.warning("dataset %s is empty", path)
    return records


def write_dataset(records: Sequence[DatasetRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "id": rec.query.id,
                "question": rec.query.text,
                "task_kind": rec.query.task_kind.value,
                "answers": list(rec.query.gold_answers),
                "documents": [
                    {"id": d.id, "title": d.title, "text": d.text}
                    for d in rec.documents
                ],
            }
            if rec.query.choices is not None:
                obj["choices"] = [list(pair) for pair in rec.query.choices]
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Pipeline


_STAGES = tuple(f.name for f in fields(StageTimings))


@contextmanager
def _stage_errors(name: str):
    """Turn the errors of stage ``name`` into ``PipelineError``s.

    Only ``Exception``s are wrapped, so an interrupt still reaches the caller.
    """
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"{name} stage failed: {exc}") from exc


@contextmanager
def _stage(timings: StageTimings, name: str):
    """Time one stage into ``timings``; its errors become ``PipelineError``s."""
    start = time.perf_counter()
    try:
        with _stage_errors(name):
            yield
    finally:
        setattr(timings, f"{name}_ms", (time.perf_counter() - start) * 1000.0)


def prepare_record(
    record: DatasetRecord, cfg: PipelineConfig
) -> tuple[Query, list[Document], list[str]]:
    """The gold-scrubbed query, its top-n documents and any short-retrieval
    notice; both pipeline modes and the fixture generator start here."""
    query = record.query.scrubbed()
    notices: list[str] = []
    docs = list(record.documents[: cfg.top_n])
    if len(record.documents) < cfg.top_n:
        notices.append(
            f"short retrieval: {len(record.documents)} documents < top_n {cfg.top_n}"
        )
    if not docs:
        raise PipelineError(f"record {query.id} has no documents")
    return query, docs, notices


def plan_subsets(
    query: Query,
    docs: list[Document],
    vectors: np.ndarray,
    cfg: PipelineConfig,
    timings: StageTimings,
) -> SubsetPlan:
    """Cluster the embedded documents and sample the draft subsets.

    k is clamped to the document count (with a notice); clustering and
    sampling draw from the ``"kmeans"`` and ``"sampling"`` substreams of the
    query, and their wall times go to ``timings``. The rigged-fixture
    generator plans through this same function, so its scripted prompts
    match the ones the pipeline sends.
    """
    notices: list[str] = []
    k = cfg.num_clusters
    if k > len(docs):
        notices.append(f"num_clusters clamped from {k} to {len(docs)}")
        k = len(docs)
    with _stage(timings, "cluster"):
        clusters = kmeans_cluster(
            [d.id for d in docs],
            vectors,
            k,
            derive_rng(cfg.rng_seed, "kmeans", query.id),
        )
    with _stage(timings, "sample"):
        plan = sample_subsets(
            clusters,
            cfg.num_drafts,
            cfg.sampling_mode,
            derive_rng(cfg.rng_seed, "sampling", query.id),
        )
    return replace(plan, notices=notices + plan.notices)


_ROW_FIELDS = (
    "member_doc_ids",
    "answer",
    "rationale",
    "rho_draft_log",
    "rho_sc_log",
    "rho_sr_log",
    "rho_final_log",
    "drop_reason",
)


def _candidate_row(subset_index: int, **known) -> dict:
    """One results-file candidate row; fields not given are null."""
    return {
        **dict.fromkeys(_ROW_FIELDS),
        "subset_index": subset_index,
        "dropped": False,
        **known,
    }


def _candidate_rows(batch: DraftBatch, verifications) -> list[dict]:
    by_index = {v.subset_index: v for v in (verifications or [])}
    rows = [
        _candidate_row(d.subset_index, dropped=True, drop_reason=d.reason)
        for d in batch.dropped
    ]
    for c in batch.candidates:
        row = _candidate_row(
            c.subset_index,
            member_doc_ids=list(c.subset_doc_ids),
            answer=c.answer,
            rationale=c.rationale,
            rho_draft_log=c.rho_draft_log,
        )
        v = by_index.get(c.subset_index)
        if v is not None:
            row.update(dropped=v.dropped, drop_reason=v.drop_reason)
            if not v.dropped:
                row.update(
                    rho_sc_log=v.rho_sc_log,
                    rho_sr_log=v.rho_sr_log,
                    rho_final_log=v.rho_final_log,
                )
        rows.append(row)
    rows.sort(key=lambda r: r["subset_index"])
    return rows


class _SubsetOutcome(NamedTuple):
    draft: DraftCandidate | DroppedDraft
    drafted_at: float
    verification: VerificationResult | None
    verify_error: Exception | None
    done_at: float


def _draft_then_verify(
    query: Query,
    subset: DocumentSubset,
    docs_by_id: Mapping[str, Document],
    drafter: EndpointDescriptor,
    verifier: EndpointDescriptor,
    cfg: PipelineConfig,
) -> _SubsetOutcome:
    """One subset's task: draft it, then echo-score the draft at once,
    without waiting for the other drafts.

    An error of the draft half is raised. An error of the verify half is
    returned instead, so the caller can report every draft-stage error
    before any verify-stage one, as the two stages did when run one after
    the other. Random selection verifies nothing.
    """
    draft = draft_subset(
        query,
        subset,
        docs_by_id,
        drafter,
        cfg.request_timeout_ms,
        cfg.length_normalize_logprobs,
        MAX_COMPLETION_TOKENS,
    )
    drafted_at = time.perf_counter()
    if isinstance(draft, DroppedDraft) or cfg.selection_mode is SelectionMode.RANDOM:
        return _SubsetOutcome(draft, drafted_at, None, None, drafted_at)
    verification = error = None
    try:
        verification = verify_candidate(
            query,
            draft,
            docs_by_id,
            cfg.verification_context_mode,
            ReflectionStatement(text=cfg.reflection_statement),
            verifier,
            cfg.request_timeout_ms,
            cfg.score_terms,
            cfg.length_normalize_logprobs,
        )
    except Exception as exc:  # raised again by the caller, in the verify stage
        error = exc
    return _SubsetOutcome(draft, drafted_at, verification, error, time.perf_counter())


def run_speculative(
    record: DatasetRecord, cfg: PipelineConfig, backends: PipelineBackends
) -> PipelineResult:
    """Full draft-then-verify pipeline over one record.

    Deterministic (modulo timings) given the config seed and mock backends.
    Gold answers are scrubbed from the query before any prompt is built.
    Each subset is drafted and then verified in one task, so a draft is
    scored as soon as it arrives; ``draft_ms`` ends when the last draft
    returns and ``verify_ms`` is the tail from there to the last
    verification.
    """
    query, docs, notices = prepare_record(record, cfg)
    docs_by_id = {d.id: d for d in docs}

    started = time.perf_counter()
    timings = StageTimings()
    with _stage(timings, "embed"):
        vectors = embed_documents(
            docs, query, backends.embedder, cfg.request_timeout_ms
        )

    plan = plan_subsets(query, docs, vectors, cfg, timings)
    notices.extend(plan.notices)

    drafting_started = time.perf_counter()
    with _stage_errors("draft"):
        drafters = round_robin_assign(len(plan.subsets), backends.drafters)
        outcomes = fan_out(
            _draft_then_verify,
            [
                (query, subset, docs_by_id, drafter, backends.verifier, cfg)
                for subset, drafter in zip(plan.subsets, drafters)
            ],
        )
        batch = collect_drafts([o.draft for o in outcomes])
    drafted = max(o.drafted_at for o in outcomes)
    timings.draft_ms = (drafted - drafting_started) * 1000.0
    for d in batch.dropped:
        notices.append(f"draft {d.subset_index} dropped: {d.reason}")

    verifications = None
    if cfg.selection_mode is SelectionMode.RANDOM:
        # The no-verification ablation: skip the verifier entirely.
        scored = [(c.subset_index, 0.0) for c in batch.candidates]
    else:
        with _stage_errors("verify"):
            for o in outcomes:
                if o.verify_error is not None:
                    raise o.verify_error
        timings.verify_ms = (max(o.done_at for o in outcomes) - drafted) * 1000.0
        verifications = sorted(
            (o.verification for o in outcomes if o.verification is not None),
            key=lambda v: v.subset_index,
        )
        for v in verifications:
            if v.dropped:
                notices.append(
                    f"verification {v.subset_index} dropped: {v.drop_reason}"
                )
        scored = [
            (v.subset_index, v.rho_final_log) for v in verifications if not v.dropped
        ]

    winner = select_best(
        scored, cfg.selection_mode, derive_rng(cfg.rng_seed, "selection", query.id)
    )
    final_answer = next(
        c.answer for c in batch.candidates if c.subset_index == winner
    )
    candidates = _candidate_rows(batch, verifications)
    timings.total_ms = (time.perf_counter() - started) * 1000.0

    return PipelineResult(
        query_id=query.id,
        mode="speculative",
        final_answer=final_answer,
        winning_subset_index=winner,
        candidates=candidates,
        timings=timings,
        notices=notices,
    )


def build_standard_prompt(query: Query, docs: Sequence[Document]) -> str:
    """Single-call baseline prompt: all retrieved documents in rank order."""
    blocks = "\n\n".join(
        f"[{i}] {doc.title}\n{doc.text}" for i, doc in enumerate(docs, 1)
    )
    return (
        f"{STANDARD_PROMPT_HEADER}\n"
        f"\n"
        f"### Evidence:\n"
        f"{blocks}\n"
        f"\n"
        f"### Instruction: {instruction_text(query)}\n"
        f"\n"
        f"### Response:"
    )


def run_standard_baseline(
    record: DatasetRecord, cfg: PipelineConfig, backends: PipelineBackends
) -> PipelineResult:
    """One generation call over all top-n documents, no verification."""
    query, docs, notices = prepare_record(record, cfg)

    started = time.perf_counter()
    timings = StageTimings()
    with _stage(timings, "draft"):
        prompt = build_standard_prompt(query, docs)
        body = dispatch(
            backends.verifier,
            {
                "prompt": prompt,
                "max_tokens": 512,
                "temperature": 0,
                "logprobs": True,
            },
            cfg.request_timeout_ms,
        )
        text = body.get("text")
        if not isinstance(text, str):
            raise TransportError(
                backends.verifier.url, 'response lacks a "text" field'
            )
        parse_token_payload(body.get("tokens", []), backends.verifier.url, text)

    answer = text.strip()
    timings.total_ms = (time.perf_counter() - started) * 1000.0
    return PipelineResult(
        query_id=query.id,
        mode="standard",
        final_answer=answer,
        winning_subset_index=0,
        candidates=[
            _candidate_row(0, member_doc_ids=[d.id for d in docs], answer=answer)
        ],
        timings=timings,
        notices=notices,
    )


# ---------------------------------------------------------------------------
# Evaluation


def _normalize(text: str) -> str:
    return " ".join(text.casefold().split())


_TRUE_WORDS = ("true", "yes")
_FALSE_WORDS = ("false", "no")


def _first_standalone(text: str, words: Sequence[str]) -> tuple[int, str] | None:
    best: tuple[int, str] | None = None
    for word in words:
        match = re.search(rf"(?<!\w){re.escape(word)}(?!\w)", text, re.IGNORECASE)
        if match and (best is None or match.start() < best[0]):
            best = (match.start(), word)
    return best


def extract_boolean_verdict(text: str) -> str | None:
    """First standalone true/yes or false/no word, mapped to true/false."""
    hit = _first_standalone(text, _TRUE_WORDS + _FALSE_WORDS)
    if hit is None:
        return None
    return "true" if hit[1] in _TRUE_WORDS else "false"


def extract_choice_label(text: str, labels: Sequence[str]) -> str | None:
    """Earliest standalone occurrence of any choice label, case-insensitive."""
    hit = _first_standalone(text, labels)
    return hit[1] if hit else None


def evaluate_answer(prediction: str, query: Query) -> bool:
    """Shared judge for both pipeline modes.

    Free-form answers count when any gold answer is contained in the
    prediction after casefolding and whitespace collapsing. Closed-set
    answers are extracted from the prediction and matched exactly.
    """
    gold = [g for g in query.gold_answers if g.strip()]
    if not gold:
        return False
    if query.task_kind is TaskKind.FREE_FORM:
        pred = _normalize(prediction)
        return any(_normalize(g) in pred for g in gold)
    if query.task_kind is TaskKind.CLOSED_SET_BOOLEAN:
        verdict = extract_boolean_verdict(prediction)
        gold_verdicts = {extract_boolean_verdict(g) for g in gold}
        return verdict is not None and verdict in gold_verdicts
    labels = [label for label, _ in (query.choices or ())]
    picked = extract_choice_label(prediction, labels)
    return picked is not None and any(
        picked.casefold() == g.strip().casefold() for g in gold
    )


# ---------------------------------------------------------------------------
# Experiments


def latency_stats(timings: Sequence[StageTimings]) -> dict:
    out: dict[str, dict[str, float]] = {}
    for stage in _STAGES:
        values = np.array([getattr(t, stage) for t in timings], dtype=np.float64)
        if values.size == 0:
            out[stage] = {"mean": 0.0, "p50": 0.0, "p95": 0.0}
        else:
            out[stage] = {
                "mean": float(values.mean()),
                "p50": float(np.percentile(values, 50)),
                "p95": float(np.percentile(values, 95)),
            }
    return out


_RUNNERS: dict[str, Callable] = {
    "speculative": run_speculative,
    "standard": run_standard_baseline,
}


def run_experiment(
    records: Sequence[DatasetRecord],
    cfg: PipelineConfig,
    mode: str = "speculative",
    backends: PipelineBackends | None = None,
    name: str | None = None,
    out_dir: str | Path | None = None,
) -> EvalSummary:
    """Run every record under one mode, sequentially (no batching).

    Per-record failures are recorded and excluded from accuracy rather than
    aborting the experiment. With ``out_dir`` set, writes
    ``{name}.results.jsonl``, ``{name}.summary.json``, and
    ``{name}.config.json``.
    """
    if mode not in _RUNNERS:
        raise ValueError(f"unknown mode {mode!r}; expected speculative or standard")
    runner = _RUNNERS[mode]
    backends = backends or make_backends(cfg)
    name = name or mode

    results: list[PipelineResult] = []
    per_record: list[dict] = []
    correct = 0
    failures = 0
    for record in records:
        try:
            result = runner(record, cfg, backends)
        except (PipelineError, TransportError, DataError) as exc:
            failures += 1
            per_record.append(
                {"query_id": record.query.id, "correct": None, "error": str(exc)}
            )
            logger.warning("record %s failed: %s", record.query.id, exc)
            continue
        ok = evaluate_answer(result.final_answer, record.query)
        correct += int(ok)
        per_record.append(
            {
                "query_id": record.query.id,
                "correct": ok,
                "final_answer": result.final_answer,
            }
        )
        results.append(result)

    evaluated = len(results)
    summary = EvalSummary(
        name=name,
        mode=mode,
        accuracy=correct / evaluated if evaluated else 0.0,
        evaluated=evaluated,
        correct=correct,
        failures=failures,
        per_record=per_record,
        latency=latency_stats([r.timings for r in results]),
        config=cfg.to_dict(),
    )
    if out_dir is not None:
        write_experiment(Path(out_dir), name, summary, results)
    return summary


def write_experiment(
    out_dir: Path, name: str, summary: EvalSummary, results: Sequence[PipelineResult]
) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "results": out_dir / f"{name}.results.jsonl",
        "summary": out_dir / f"{name}.summary.json",
        "config": out_dir / f"{name}.config.json",
    }
    with open(paths["results"], "w", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    paths["summary"].write_text(
        json.dumps(summary.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    paths["config"].write_text(
        json.dumps(summary.config, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return paths


def ablation_grid(cfg: PipelineConfig) -> list[tuple[str, PipelineConfig]]:
    """Named config variants: sampling strategies, score-term removals,
    random selection, and verification-context modes."""
    from .core import SamplingMode, VerificationContextMode

    all_terms = cfg.score_terms
    return [
        ("baseline", cfg),
        (
            "sampling_random_no_cluster",
            replace(cfg, sampling_mode=SamplingMode.RANDOM_NO_CLUSTER),
        ),
        (
            "sampling_same_cluster",
            replace(cfg, sampling_mode=SamplingMode.SAME_CLUSTER),
        ),
        (
            "score_wo_draft",
            replace(cfg, score_terms=frozenset(all_terms - {ScoreTerm.DRAFT})),
        ),
        (
            "score_wo_self_consistency",
            replace(
                cfg, score_terms=frozenset(all_terms - {ScoreTerm.SELF_CONSISTENCY})
            ),
        ),
        (
            "score_wo_self_reflection",
            replace(
                cfg, score_terms=frozenset(all_terms - {ScoreTerm.SELF_REFLECTION})
            ),
        ),
        ("selection_random", replace(cfg, selection_mode=SelectionMode.RANDOM)),
        (
            "context_documents_only",
            replace(
                cfg,
                verification_context_mode=VerificationContextMode.DOCUMENTS_ONLY,
            ),
        ),
        (
            "context_rationale_and_documents",
            replace(
                cfg,
                verification_context_mode=(
                    VerificationContextMode.RATIONALE_AND_DOCUMENTS
                ),
            ),
        ),
    ]


def run_ablations(
    records: Sequence[DatasetRecord],
    cfg: PipelineConfig,
    backends: PipelineBackends | None = None,
    variants: Sequence[str] | None = None,
    out_dir: str | Path | None = None,
) -> list[EvalSummary]:
    grid = ablation_grid(cfg)
    if variants is not None:
        known = {name for name, _ in grid}
        unknown = sorted(set(variants) - known)
        if unknown:
            raise ValueError(f"unknown ablation variants: {', '.join(unknown)}")
        grid = [(name, c) for name, c in grid if name in set(variants)]
    return [
        run_experiment(
            records,
            variant_cfg,
            mode="speculative",
            backends=backends,
            name=name,
            out_dir=out_dir,
        )
        for name, variant_cfg in grid
    ]


def run_sweep(
    records: Sequence[DatasetRecord],
    cfg: PipelineConfig,
    backends: PipelineBackends | None = None,
    m_values: Sequence[int] = (),
    subset_sizes: Sequence[int] = (),
    out_dir: str | Path | None = None,
) -> list[EvalSummary]:
    """Draft-count and subset-size sweeps (one summary per grid point)."""
    summaries = []
    for m in m_values:
        summaries.append(
            run_experiment(
                records,
                replace(cfg, num_drafts=m),
                backends=backends,
                name=f"m_{m}",
                out_dir=out_dir,
            )
        )
    for size in subset_sizes:
        summaries.append(
            run_experiment(
                records,
                replace(cfg, num_clusters=size),
                backends=backends,
                name=f"subset_{size}",
                out_dir=out_dir,
            )
        )
    return summaries


def report_latency(by_mode: Mapping[str, Sequence[StageTimings]]) -> str:
    """Human-readable latency table: mean/p50/p95 per stage for each mode.

    With both a speculative and a standard column present, the last line
    reports the speculative total as a signed percentage of the standard
    total.
    """
    if not by_mode or all(len(v) == 0 for v in by_mode.values()):
        raise ValueError("report_latency requires at least one result")
    stats = {mode: latency_stats(t) for mode, t in by_mode.items() if len(t) > 0}
    modes = list(stats)

    header = f"{'stage':<12}" + "".join(
        f"{mode + ' mean':>18}{'p50':>12}{'p95':>12}" for mode in modes
    )
    lines = [header]
    for stage in _STAGES:
        row = f"{stage:<12}"
        for mode in modes:
            s = stats[mode][stage]
            row += f"{s['mean']:>18.2f}{s['p50']:>12.2f}{s['p95']:>12.2f}"
        lines.append(row)

    if "speculative" in stats and "standard" in stats:
        spec = stats["speculative"]["total_ms"]["mean"]
        std = stats["standard"]["total_ms"]["mean"]
        if std > 0:
            diff = (spec - std) / std * 100.0
            lines.append(f"total mean, speculative vs standard: {diff:+.1f}%")
    return "\n".join(lines)
