"""Dataset ingestion, the end-to-end pipeline, evaluation, and experiments.

Two pipeline modes share one evaluation judge:

- ``run_speculative``: embed, cluster, sample subsets, draft in parallel,
  echo-score each draft with the verifier, select the best answer;
- ``run_standard_baseline``: one generation call over all top-n documents,
  no verification (the latency/accuracy reference point).

Either mode's ``PipelineResult`` holds one ``drafting.Candidate`` per subset
(the standard call is subset 0); these are the results file's rows.

Records are processed one at a time so per-stage wall-clock timings reflect
single-case latency rather than batching effects.
"""

from __future__ import annotations

import json
import logging
import re
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .backend import (
    EndpointDescriptor,
    Task,
    TransportError,
    dispatch,  # noqa: F401  (unused here; perfbench/tracing.py rebinds it)
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
    STAGES,
    ConfigError,
    DataError,
    DatasetError,
    Document,
    PipelineConfig,
    PipelineError,
    Query,
    ScoreTerm,
    SelectionMode,
    StageTimings,
    TaskKind,
    derive_rng,
    json_lines,
    read_json_object,
)
from .drafting import (
    Candidate,
    draft_subset,
    drop_summary,
    generate,
    generate_drafts,  # noqa: F401  (unused here; perfbench/tracing.py rebinds it)
    instruction_text,
)
from .verification import (
    select_best,
    verify_candidate,
    verify_candidates,  # noqa: F401  (unused here; perfbench/tracing.py rebinds it)
)

logger = logging.getLogger(__name__)

STANDARD_PROMPT_HEADER = (
    "Below is an instruction that describes a task. "
    "Write a response that appropriately completes the request. "
)


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
    candidates: list[Candidate]
    timings: StageTimings
    notices: list[str] = field(default_factory=list)


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
    # Set when a KeyboardInterrupt ended the run: the summary then covers
    # the records that finished before it.
    interrupted: bool = False


@dataclass
class PipelineBackends:
    drafters: list[EndpointDescriptor]
    verifier: EndpointDescriptor
    embedder: EndpointDescriptor
    # Where the next query's round robin over ``drafters`` starts, so that
    # drafters past a query's subset count get its successors' requests.
    next_drafter: int = 0


def make_backends(cfg: PipelineConfig) -> PipelineBackends:
    return PipelineBackends(
        drafters=[EndpointDescriptor(url) for url in cfg.drafter_endpoints],
        verifier=EndpointDescriptor(cfg.verifier_endpoint),
        embedder=EndpointDescriptor(cfg.embedding_endpoint),
    )


# ---------------------------------------------------------------------------
# Dataset loading


def _parse_record(obj: dict, line_no: int) -> DatasetRecord:
    def fail(msg: str) -> DatasetError:
        return DatasetError(f"line {line_no}: {msg}")

    qid = obj.get("id")
    if not isinstance(qid, str) or not qid:
        raise fail('missing or empty "id"')
    question = obj.get("question")
    if not isinstance(question, str) or not question:
        raise fail('missing or empty "question"')
    try:
        kind = TaskKind(obj.get("task_kind", TaskKind.FREE_FORM))
    except ValueError:
        raise fail(f'unknown task_kind "{obj["task_kind"]}"')

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
        # The judge matches a label as a standalone word against a stripped
        # gold answer: an empty label matches anywhere, a padded one never.
        for lbl, _ in choices_raw:
            if not lbl or lbl != lbl.strip():
                raise fail(f"choice label {json.dumps(lbl)} is empty or padded")
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
    rejected. A path that cannot be read, or a line that
    ``core.read_json_object`` refuses, raises ``DatasetError`` naming the
    path. An empty file loads as an empty list with a warning.
    """
    path = Path(path)
    records: list[DatasetRecord] = []
    seen: dict[str, int] = {}
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc.strerror or exc}")
    for line_no, line in json_lines(data):
        try:
            obj = read_json_object(line)
        except ValueError as exc:
            raise DatasetError(f"{path}: line {line_no}: {exc}")
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

    k is clamped to the document count, then to the number of distinct
    embedding rows, each with a notice: k-means cannot settle with more
    clusters than distinct points (duplicated documents), and would run to
    its iteration cap. Clustering and sampling draw from the ``"kmeans"``
    and ``"sampling"`` substreams of the query, and their wall times go to
    ``timings``. The rigged-fixture generator plans through this same
    function, so its scripted prompts match the ones the pipeline sends.
    """
    notices: list[str] = []
    k = cfg.num_clusters
    if k > len(docs):
        notices.append(f"num_clusters clamped from {k} to {len(docs)}")
        k = len(docs)
    # Adding 0.0 turns -0.0 into 0.0, so rows equal as numbers are equal as
    # bytes; hashing the bytes is ten times cheaper than np.unique here.
    distinct = len({row.tobytes() for row in vectors + 0.0})
    if k > distinct:
        notices.append(
            f"num_clusters clamped from {k} to {distinct} distinct document embeddings"
        )
        k = distinct
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


def _draft_then_verify(
    query: Query,
    subset: DocumentSubset,
    docs_by_id: Mapping[str, Document],
    drafter: EndpointDescriptor,
    verifier: EndpointDescriptor,
    cfg: PipelineConfig,
) -> Task[tuple[Candidate, float, float]]:
    """One subset's ``fan_out`` task: draft it, then echo-score the draft at
    once, without waiting for the other drafts. Returns the subset's
    candidate, the time its draft returned and the time the task ended.

    Each half's errors are labelled with its own stage. Random selection
    verifies nothing.
    """
    with _stage_errors("draft"):
        candidate = yield from draft_subset(query, subset, docs_by_id, drafter)
    drafted_at = time.perf_counter()
    if candidate.dropped or cfg.selection_mode is SelectionMode.RANDOM:
        return candidate, drafted_at, drafted_at
    with _stage_errors("verify"):
        candidate = yield from verify_candidate(
            query,
            candidate,
            docs_by_id,
            cfg.verification_context_mode,
            verifier,
            cfg.score_terms,
        )
    return candidate, drafted_at, time.perf_counter()


def run_speculative(
    record: DatasetRecord, cfg: PipelineConfig, backends: PipelineBackends
) -> PipelineResult:
    """Full draft-then-verify pipeline over one record.

    Deterministic (modulo timings) given the config seed and mock backends.
    Gold answers are scrubbed from the query before any prompt is built.
    Each subset is drafted and then verified in one task, so a draft is
    scored as soon as it arrives; ``draft_ms`` ends when the last draft
    returns and ``verify_ms`` is the tail from there to the last
    verification. If a task fails, the first error in subset order is
    raised. If no draft survives both halves, the error names each
    subset's drop reason, in subset order.
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
        drafters = round_robin_assign(
            len(plan.subsets), backends.drafters, backends.next_drafter
        )
        backends.next_drafter += len(plan.subsets)
        outcomes = fan_out(
            [
                _draft_then_verify(
                    query, subset, docs_by_id, drafter, backends.verifier, cfg
                )
                for subset, drafter in zip(plan.subsets, drafters)
            ],
            cfg.request_timeout_ms,
        )
    drafted = max(drafted_at for _, drafted_at, _ in outcomes)
    timings.draft_ms = (drafted - drafting_started) * 1000.0
    timings.verify_ms = (max(done_at for _, _, done_at in outcomes) - drafted) * 1000.0

    # One row per subset, in subset order. A dropped draft has no answer,
    # and its notice comes before those of dropped verifications.
    candidates = [candidate for candidate, _, _ in outcomes]
    if all(c.answer is None for c in candidates):
        raise PipelineError(f"no valid drafts: {drop_summary(candidates)}")
    survivors = [c for c in candidates if not c.dropped]
    if not survivors:
        raise PipelineError(
            f"no surviving candidates to select from: {drop_summary(candidates)}"
        )
    for c in sorted(candidates, key=lambda c: c.answer is not None):
        if c.dropped:
            notices.append(c.drop_notice)

    random = cfg.selection_mode is SelectionMode.RANDOM
    rng = derive_rng(cfg.rng_seed, "selection", query.id) if random else None
    winner = select_best(survivors, cfg.selection_mode, rng)
    timings.total_ms = (time.perf_counter() - started) * 1000.0

    return PipelineResult(
        query_id=query.id,
        mode="speculative",
        final_answer=winner.answer,
        winning_subset_index=winner.subset_index,
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
        [(text, _)] = fan_out(
            [generate(backends.verifier, build_standard_prompt(query, docs))],
            cfg.request_timeout_ms,
        )

    answer = text.strip()
    timings.total_ms = (time.perf_counter() - started) * 1000.0
    return PipelineResult(
        query_id=query.id,
        mode="standard",
        final_answer=answer,
        winning_subset_index=0,
        candidates=[
            Candidate(0, member_doc_ids=tuple(d.id for d in docs), answer=answer)
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
    for stage in STAGES:
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
    name: str | None = None,
    out_dir: str | Path | None = None,
) -> EvalSummary:
    """Run every record under one mode, sequentially (no batching).

    Per-record failures are recorded and excluded from accuracy rather than
    aborting the experiment. With ``out_dir`` set, ``{name}.config.json``
    is written and ``{name}.results.jsonl`` opened before the first record,
    so results that cannot be written fail before any request; each record
    that ends with a result adds its row at once, flushed, and
    ``{name}.summary.json`` is written last. A ``KeyboardInterrupt`` still
    writes the summary, of the records that finished and with
    ``interrupted`` set, before it is raised on.
    """
    if mode not in _RUNNERS:
        raise ValueError(f"unknown mode {mode!r}; expected speculative or standard")
    runner = _RUNNERS[mode]
    backends = make_backends(cfg)
    name = name or mode

    rows = nullcontext()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / f"{name}.config.json", cfg.to_dict())
        rows = open(out_dir / f"{name}.results.jsonl", "w", encoding="utf-8")
    timings: list[StageTimings] = []
    per_record: list[dict] = []
    correct = 0
    interrupt: KeyboardInterrupt | None = None
    with rows:
        try:
            for record in records:
                row = {"query_id": record.query.id}
                try:
                    result = runner(record, cfg, backends)
                except (PipelineError, TransportError, DataError) as exc:
                    row.update(correct=None, error=str(exc))
                    per_record.append(row)
                    logger.warning("record %s failed: %s", record.query.id, exc)
                    continue
                if out_dir is not None:
                    rows.write(json.dumps(asdict(result), sort_keys=True) + "\n")
                    rows.flush()
                ok = evaluate_answer(result.final_answer, record.query)
                row.update(correct=ok, final_answer=result.final_answer)
                per_record.append(row)
                correct += ok
                timings.append(result.timings)
        except KeyboardInterrupt as exc:
            interrupt = exc

    evaluated = len(timings)
    summary = EvalSummary(
        name=name,
        mode=mode,
        accuracy=correct / evaluated if evaluated else 0.0,
        evaluated=evaluated,
        correct=correct,
        failures=len(per_record) - evaluated,
        per_record=per_record,
        latency=latency_stats(timings),
        config=cfg.to_dict(),
        interrupted=interrupt is not None,
    )
    if out_dir is not None:
        _write_json(out_dir / f"{name}.summary.json", asdict(summary))
    if interrupt is not None:
        raise interrupt
    return summary


def _write_json(path: Path, value: dict) -> None:
    path.write_text(json.dumps(value, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def ablation_grid(
    cfg: PipelineConfig, variants: Sequence[str] | None
) -> list[tuple[str, PipelineConfig]]:
    """Named config variants, each changing one design choice of ``cfg``:
    ``baseline`` (``cfg`` itself), then ``sampling_<mode>``, ``score_wo_<term>``
    (the term removed from ``cfg.score_terms``), ``selection_<mode>`` and
    ``context_<mode>``, in enum order. A mode variant exists for each member
    of ``SamplingMode``, ``SelectionMode`` and ``VerificationContextMode``
    other than ``PipelineConfig()``'s default.

    ``variants`` names the ones to keep (None keeps all); an unknown name
    raises ``ConfigError`` listing the known ones.
    """
    default = PipelineConfig()

    def modes(prefix: str, name: str) -> list[tuple[str, PipelineConfig]]:
        current = getattr(default, name)
        return [
            (f"{prefix}_{mode.value}", replace(cfg, **{name: mode}))
            for mode in type(current)
            if mode is not current
        ]

    grid = [
        ("baseline", cfg),
        *modes("sampling", "sampling_mode"),
        *[
            (f"score_wo_{t.value}", replace(cfg, score_terms=cfg.score_terms - {t}))
            for t in ScoreTerm
        ],
        *modes("selection", "selection_mode"),
        *modes("context", "verification_context_mode"),
    ]
    if variants is None:
        return grid
    known = [name for name, _ in grid]
    wanted = set(variants)
    unknown = sorted(wanted - set(known))
    if unknown:
        raise ConfigError(
            f"unknown ablation variants: {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )
    return [(name, c) for name, c in grid if name in wanted]


def sweep_grid(
    cfg: PipelineConfig, m_values: Sequence[int], subset_sizes: Sequence[int]
) -> list[tuple[str, PipelineConfig]]:
    """Named draft-count and subset-size points: ``m_{m}`` for each of
    ``m_values``, then ``subset_{k}`` for each of ``subset_sizes``. A repeated
    value is kept once, at its first place, so no point runs twice and
    overwrites its own results files."""
    return [
        (f"m_{m}", replace(cfg, num_drafts=m)) for m in dict.fromkeys(m_values)
    ] + [
        (f"subset_{size}", replace(cfg, num_clusters=size))
        for size in dict.fromkeys(subset_sizes)
    ]


def report_latency(stats: Mapping[str, dict]) -> str:
    """Human-readable latency table: mean/p50/p95 per stage for each mode,
    from each mode's ``latency_stats`` (an ``EvalSummary.latency``).

    With both a speculative and a standard column present, the last line
    reports the speculative total as a signed percentage of the standard
    total.
    """
    if not stats:
        raise ValueError("report_latency requires at least one mode")
    modes = list(stats)

    header = f"{'stage':<12}" + "".join(
        f"{mode + ' mean':>18}{'p50':>12}{'p95':>12}" for mode in modes
    )
    lines = [header]
    for stage in STAGES:
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
