"""Spans around the pipeline's public functions, recorded from outside ``src/``.

``Tracer.install`` rebinds each traced function in the module namespace its
caller looks it up in (``harness.embed_documents``, ``drafting.dispatch``,
...), so the pipeline runs unmodified but every call passes through a
wrapper that records a span. ``uninstall`` restores the originals.

Spans are kept in memory. The benchmark has one client thread that runs
queries in sequence, so a span opened on a worker thread with nothing open
on that thread takes as its parent the span open on the client thread, and
every span takes the query that is active when it opens.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable

import numpy as np

from draftrag import clustering, drafting, harness, verification


class Span:
    __slots__ = ("id", "name", "start", "end", "query", "parent", "failed", "data")

    def __init__(self, id_, name, start, query, parent):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.query = query
        self.parent = parent
        self.failed = False
        self.data = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "query": self.query,
            "parent": self.parent,
            "failed": self.failed,
        }


# Each keeper gets the call's positional arguments and its result (None
# when the call raised) and returns what the metrics need from them.


def _keep_payload(args, result):
    return (args[1], result)


def _keep_subset_count(args, result):
    return 0 if result is None else len(result.subsets)


def _keep_draft_counts(args, result):
    return (len(args[1]), 0 if result is None else len(result.candidates))


def _keep_verify_counts(args, result):
    if result is None:
        return (len(args[1]), len(args[1]))
    return (len(result), sum(1 for v in result if v.dropped))


# (module, attribute, span name, what to keep from the call)
TARGETS: tuple[tuple[object, str, str, Callable | None], ...] = (
    (harness, "run_speculative", "harness.run_speculative", None),
    (harness, "run_standard_baseline", "harness.run_standard_baseline", None),
    (harness, "embed_documents", "clustering.embed_documents", None),
    (harness, "kmeans_cluster", "clustering.kmeans_cluster", None),
    (harness, "sample_subsets", "clustering.sample_subsets", _keep_subset_count),
    (harness, "generate_drafts", "drafting.generate_drafts", _keep_draft_counts),
    (harness, "verify_candidates", "verification.verify_candidates", _keep_verify_counts),
    (harness, "select_best", "verification.select_best", None),
    (drafting, "build_draft_prompt", "drafting.build_draft_prompt", None),
    (drafting, "parse_draft", "drafting.parse_draft", None),
    (drafting, "compute_rho_draft", "drafting.compute_rho_draft", None),
    (verification, "build_verify_prompt", "verification.build_verify_prompt", None),
    (verification, "score_candidate", "verification.score_candidate", None),
    (clustering, "dispatch", "backend.dispatch", _keep_payload),
    (drafting, "dispatch", "backend.dispatch", _keep_payload),
    (verification, "dispatch", "backend.dispatch", _keep_payload),
    (harness, "dispatch", "backend.dispatch", _keep_payload),
)
QUERY_SPANS = {"harness.run_speculative": "speculative", "harness.run_standard_baseline": "standard"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._queries = itertools.count()
        self._local = threading.local()
        self._client_stack: list[Span] = []
        self._query: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, keep: Callable | None) -> Callable:
        mode = QUERY_SPANS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            if mode is not None:
                self._query = f"{mode}:{next(self._queries)}"
            if stack:
                parent = stack[-1].id
            elif self._client_stack and stack is not self._client_stack:
                parent = self._client_stack[-1].id
            else:
                parent = None
            span = Span(next(self._ids), name, time.perf_counter(), self._query, parent)
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if keep is not None:
                    span.data = keep(args, result)
                self.spans.append(span)

        return traced

    def install(self) -> None:
        """Rebind every target; the calling thread becomes the client thread."""
        self._client_stack = self._stack()
        for module, attr, name, keep in TARGETS:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, keep))
        for mode, fn in list(harness._RUNNERS.items()):
            self._restore.append((harness._RUNNERS, mode, fn))
            harness._RUNNERS[mode] = getattr(harness, fn.__name__)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) pairs over every query the tracer saw."""
        by_name: dict[str, list[Span]] = {}
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)

        queries = by_name.get("harness.run_speculative", [])
        spec = {q.query for q in queries}
        n = max(1, len(queries))

        def ms(name: str) -> list[float]:
            return [s.ms for s in by_name.get(name, [])]

        def self_ms(name: str) -> list[float]:
            return [_self_time(s, children.get(s.id, [])) for s in by_name.get(name, [])]

        dispatches = by_name.get("backend.dispatch", [])
        spec_dispatches = [s for s in dispatches if s.query in spec and s.data is not None]
        stragglers, barriers = [], []
        verify_by_query = {s.query: s for s in by_name.get("verification.verify_candidates", [])}
        for drafts in by_name.get("drafting.generate_drafts", []):
            calls = [s for s in children.get(drafts.id, []) if s.name == "backend.dispatch"]
            if not calls:
                continue
            stragglers.append(max(s.ms for s in calls) - float(np.median([s.ms for s in calls])))
            verify = verify_by_query.get(drafts.query)
            if verify is not None:
                barriers.append((verify.start - min(s.end for s in calls)) * 1000.0)

        draft_counts = [s.data for s in by_name.get("drafting.generate_drafts", [])]
        verify_counts = [s.data for s in by_name.get("verification.verify_candidates", [])]
        return {
            "backend.dispatch.calls_per_query": (sum(1 for s in dispatches if s.query in spec) / n, "count"),
            "backend.dispatch.p50_ms": (_pct(ms("backend.dispatch"), 50), "ms"),
            "backend.dispatch.p90_ms": (_pct(ms("backend.dispatch"), 90), "ms"),
            "backend.dispatch.failed": (float(sum(1 for s in dispatches if s.failed)), "count"),
            "backend.request_kb_per_query": (sum(_json_bytes(s.data[0]) for s in spec_dispatches) / 1024 / n, "KB"),
            "backend.response_kb_per_query": (sum(_json_bytes(s.data[1]) for s in spec_dispatches) / 1024 / n, "KB"),
            "clustering.embed_documents.p50_ms": (_pct(ms("clustering.embed_documents"), 50), "ms"),
            "clustering.kmeans_cluster.p50_ms": (_pct(ms("clustering.kmeans_cluster"), 50), "ms"),
            "clustering.sample_subsets.p50_ms": (_pct(ms("clustering.sample_subsets"), 50), "ms"),
            "clustering.subsets_per_query": (_mean([s.data for s in by_name.get("clustering.sample_subsets", [])]), "count"),
            "drafting.generate_drafts.p50_ms": (_pct(ms("drafting.generate_drafts"), 50), "ms"),
            "drafting.generate_drafts.p90_ms": (_pct(ms("drafting.generate_drafts"), 90), "ms"),
            "drafting.generate_drafts.self_ms": (_pct(self_ms("drafting.generate_drafts"), 50), "ms"),
            "drafting.straggler_ms": (_pct(stragglers, 50), "ms"),
            "drafting.build_draft_prompt.us": (_pct(ms("drafting.build_draft_prompt"), 50) * 1000.0, "us"),
            "drafting.parse_draft.us": (_pct(ms("drafting.parse_draft"), 50) * 1000.0, "us"),
            "drafting.compute_rho_draft.us": (_pct(ms("drafting.compute_rho_draft"), 50) * 1000.0, "us"),
            "drafting.dropped_share": (_share([a - kept for a, kept in draft_counts], [a for a, _ in draft_counts]), "ratio"),
            "verification.verify_candidates.p50_ms": (_pct(ms("verification.verify_candidates"), 50), "ms"),
            "verification.verify_candidates.self_ms": (_pct(self_ms("verification.verify_candidates"), 50), "ms"),
            "verification.barrier_wait_ms": (_pct(barriers, 50), "ms"),
            "verification.score_candidate.p50_ms": (_pct(ms("verification.score_candidate"), 50), "ms"),
            "verification.build_verify_prompt.us": (_pct(ms("verification.build_verify_prompt"), 50) * 1000.0, "us"),
            "verification.select_best.us": (_pct(ms("verification.select_best"), 50) * 1000.0, "us"),
            "verification.dropped_share": (_share([d for _, d in verify_counts], [t for t, _ in verify_counts]), "ratio"),
            "harness.run_speculative.self_ms": (_pct(self_ms("harness.run_speculative"), 50), "ms"),
            "harness.run_standard_baseline.p50_ms": (_pct(ms("harness.run_standard_baseline"), 50), "ms"),
        }


def _self_time(span: Span, kids: list[Span]) -> float:
    """Span duration minus the union of its children's intervals, in ms."""
    covered = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo, hi = max(kid.start, cursor), min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start - covered) * 1000.0


def _json_bytes(obj) -> int:
    return len(json.dumps(obj).encode("utf-8")) if obj is not None else 0


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _share(part: list[int], whole: list[int]) -> float:
    total = sum(whole)
    return sum(part) / total if total else 0.0
