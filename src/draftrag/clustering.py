"""Document embedding, k-means clustering, and document subset sampling.

The drafting stage works on small document subsets rather than the full
retrieval set. Documents are embedded with an instruction-aware embedding
endpoint, grouped into ``k`` clusters (each cluster is one perspective on the
query), and subsets are sampled one-document-per-cluster so every subset
spans the perspectives present in the retrieval results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .backend import EndpointDescriptor, MalformedResponseError, dispatch
from .core import NUMBER_TYPES, DataError, Document, Query, SamplingMode

KMEANS_MAX_ITERS = 100
KMEANS_RESTARTS = 10
# Rejection sampling gives up after this many draws per requested subset.
SAMPLING_ATTEMPT_FACTOR = 50


@dataclass
class ClusterSet:
    """A partition of documents into at most ``k`` clusters.

    ``assignments`` maps every document id to a cluster index; ``sse_history``
    records the within-cluster sum of squared distances after each Lloyd
    iteration (useful for checking the objective never increases).
    """

    assignments: dict[str, int]
    centroids: np.ndarray
    doc_order: tuple[str, ...]
    sse_history: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def nonempty_count(self) -> int:
        return len(set(self.assignments.values()))

    def nonempty_indices(self) -> list[int]:
        return sorted(set(self.assignments.values()))

    def members(self, cluster_index: int) -> list[str]:
        """Document ids in one cluster, in retrieval order."""
        return [d for d in self.doc_order if self.assignments[d] == cluster_index]

    @property
    def sse(self) -> float:
        return self.sse_history[-1] if self.sse_history else 0.0


@dataclass(frozen=True)
class DocumentSubset:
    """One sampled subset of documents, the unit of drafting."""

    subset_index: int
    member_doc_ids: tuple[str, ...]
    source_clusters: tuple[int, ...]

    def as_set(self) -> frozenset[str]:
        return frozenset(self.member_doc_ids)


@dataclass
class SubsetPlan:
    subsets: list[DocumentSubset]
    notices: list[str] = field(default_factory=list)


def embedding_input(doc: Document) -> str:
    """The string actually embedded for a document: title then text."""
    return f"{doc.title}\n{doc.text}"


def embed_documents(
    docs: list[Document],
    query: Query,
    endpoint: EndpointDescriptor,
    timeout_ms: int,
) -> np.ndarray:
    """Embed all documents in one batch request, query text as instruction.

    Returns an ``(n, d)`` array of unit-norm rows, in document order; a
    reply without one ``"embeddings"`` row each is malformed.
    """
    if not docs:
        raise ValueError("embed_documents requires at least one document")
    payload = {
        "instruction": query.text,
        "inputs": [embedding_input(d) for d in docs],
    }
    response = dispatch(endpoint, payload, timeout_ms)
    rows = response.get("embeddings")
    if not isinstance(rows, list) or len(rows) != len(docs):
        got = (
            f"{len(rows)} vectors"
            if isinstance(rows, list)
            else f'"embeddings" of type {type(rows).__name__}'
        )
        raise MalformedResponseError(
            endpoint.url, f"embedding endpoint returned {got} for {len(docs)} inputs"
        )
    return unit_rows(rows)


# Below this norm the squares of a row's values are subnormal or zero, and
# dividing by the norm can leave a row well off unit length: one value of
# 2.37e-161 normalizes to 0.9989.
_MIN_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def unit_rows(rows: list[list[float]]) -> np.ndarray:
    """Equal-length rows as an ``(n, d)`` float64 array of unit-norm rows. Each
    row is divided by its own ``np.linalg.norm(row)``: an axis-1 norm sums in
    another order and can move the last bit. A row that is not a list of
    numbers (bools excluded), or holds an integer beyond the float range,
    or whose norm is non-finite or below ``_MIN_NORM``, raises DataError."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not set(map(type, row)) <= NUMBER_TYPES:
            raise DataError(f"embedding row {i} is not a list of numbers")
        if len(row) != len(rows[0]):
            raise DataError(
                f"embedding dimension mismatch: expected {len(rows[0])}, "
                f"got {len(row)}"
            )
    try:
        points = np.array(rows, dtype=np.float64)
    except OverflowError:
        raise DataError("an embedding value is beyond the float range")
    with np.errstate(over="ignore"):  # an overflowing norm is rejected here
        for i, row in enumerate(points):
            norm = np.linalg.norm(row)
            if not _MIN_NORM <= norm < np.inf:
                raise DataError(f"cannot normalize embedding row {i} with norm {norm}")
            row /= norm
    return points


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(r, n, k)`` squared distances from each point to each of the ``k``
    centroids of each of ``r`` restarts, for ``(r, k, d)`` centroids."""
    diff = points[None, :, None, :] - centroids[:, None, :, :]
    return np.einsum("rijk,rijk->rij", diff, diff)


def _kmeans_pp_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding for every restart, as ``(KMEANS_RESTARTS, k)`` point
    indices: first center uniform, then proportional to D^2. The rng draws
    are made restart by restart, in the order seeding each restart in turn
    makes them; every restart reads its distances from one pairwise matrix."""
    n = points.shape[0]
    pair_d2 = np.sum((points[:, None] - points[None]) ** 2, axis=2)
    seeds = np.empty((KMEANS_RESTARTS, k), dtype=np.intp)
    for row in seeds:
        row[0] = rng.integers(n)
        closest = pair_d2[row[0]]
        for j in range(1, k):
            total = float(closest.sum())
            if total <= 0.0:
                # All remaining points coincide with a chosen center.
                row[j] = rng.integers(n)
            else:
                r = float(rng.random()) * total
                row[j] = min(int(closest.cumsum().searchsorted(r)), n - 1)
            closest = np.minimum(closest, pair_d2[row[j]])
    return seeds


def _repair_empty(
    points: np.ndarray, centroids: np.ndarray, d2: np.ndarray, assign: np.ndarray
) -> None:
    """Reseed each empty cluster of one restart, in place, at the point
    farthest from its centroid; ``d2`` is recomputed after each reseed."""
    n, k = d2.shape
    for j in range(k):
        if np.any(assign == j):
            continue
        farthest = int(np.argmax(d2[np.arange(n), assign]))
        centroids[j] = points[farthest]
        assign[farthest] = j
        d2[:] = _squared_distances(points, centroids[None])[0]


def _cluster_sizes(assign: np.ndarray, k: int) -> np.ndarray:
    """``(r, k)`` member counts for ``(r, n)`` assignments."""
    rows = len(assign)
    flat = (assign + k * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, minlength=rows * k).reshape(rows, k)


def _lloyd(
    points: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Lloyd iterations for all restarts at once, on ``(r, k, d)`` centroids
    updated in place. A restart stops, with its centroids and SSE history
    frozen, once its assignment repeats. Returns the ``(r, n)`` assignments,
    the centroids and each restart's SSE history."""
    restarts, k, _ = centroids.shape
    assign = np.full((restarts, points.shape[0]), -1, dtype=np.intp)
    histories: list[list[float]] = [[] for _ in range(restarts)]
    active = np.arange(restarts)
    for _ in range(KMEANS_MAX_ITERS):
        live = centroids[active]
        d2 = _squared_distances(points, live)
        new_assign = np.argmin(d2, axis=2)
        for a in np.flatnonzero((_cluster_sizes(new_assign, k) == 0).any(axis=1)):
            _repair_empty(points, live[a], d2[a], new_assign[a])
        sse = np.take_along_axis(d2, new_assign[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        for r, value in zip(active, sse.tolist()):
            histories[r].append(value)
        centroids[active] = live

        moved = (new_assign != assign[active]).any(axis=1)
        active, live, new_assign = active[moved], live[moved], new_assign[moved]
        if not active.size:
            break
        assign[active] = new_assign
        # Members are summed in document order, then divided by the count, as
        # numpy's per-cluster mean(axis=0) does for d >= 2 (a one-column mean
        # sums pairwise instead); an empty cluster keeps its centroid.
        sums = np.zeros_like(live)
        np.add.at(sums, (np.arange(active.size)[:, None], new_assign), points)
        counts = _cluster_sizes(new_assign, k)
        filled = counts > 0
        live[filled] = sums[filled] / counts[filled][:, None]
        centroids[active] = live
    return assign, centroids, histories


def kmeans_cluster(
    doc_ids: list[str],
    vectors: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> ClusterSet:
    """Lloyd's algorithm with k-means++ seeding, squared-Euclidean distance.

    Each run iterates to an assignment fixpoint or 100 iterations; if an
    iteration empties a cluster, its centroid is reseeded at the point
    farthest from that point's current centroid. Lloyd's alone can stall in
    poor local optima on small inputs, so it runs ``KMEANS_RESTARTS`` times
    from fresh k-means++ seedings and keeps the first lowest-SSE run. The
    restarts run as one batched loop; for vectors of two or more dimensions,
    its results and rng use match running the restarts one after another to
    the bit. Deterministic given inputs and rng state.
    """
    n = len(vectors)
    if len(doc_ids) != n:
        raise ValueError("doc_ids and vectors must be parallel")
    if not (1 <= k <= n):
        raise ValueError(f"k must satisfy 1 ≤ k ≤ {n}, got {k}")

    seeds = _kmeans_pp_seeds(vectors, k, rng)
    assign, centroids, histories = _lloyd(vectors, vectors[seeds])
    best = int(np.argmin([h[-1] for h in histories]))

    return ClusterSet(
        assignments={doc_ids[i]: int(assign[best, i]) for i in range(n)},
        centroids=centroids[best],
        doc_order=tuple(doc_ids),
        sse_history=tuple(histories[best]),
    )


def _build(index: int, members: list[str], clusters: ClusterSet) -> DocumentSubset:
    """Subset ``index``: ``members`` ordered by cluster index, then by
    retrieval order."""
    rank = {d: i for i, d in enumerate(clusters.doc_order)}
    ordered = sorted(members, key=lambda d: (clusters.assignments[d], rank[d]))
    sources = tuple(clusters.assignments[d] for d in ordered)
    return DocumentSubset(index, tuple(ordered), sources)


def _distinct_draws(draw: Callable[[], list[str]], m: int) -> list[list[str]]:
    """Rejection-sample up to ``m`` draws with pairwise-distinct member sets,
    giving up after ``SAMPLING_ATTEMPT_FACTOR * m`` draws."""
    chosen: list[list[str]] = []
    seen: set[frozenset[str]] = set()
    for _ in range(SAMPLING_ATTEMPT_FACTOR * m):
        pick = draw()
        key = frozenset(pick)
        if key not in seen:
            seen.add(key)
            chosen.append(pick)
            if len(chosen) == m:
                break
    return chosen


def _multi_perspective(
    clusters: ClusterSet, m: int, rng: np.random.Generator
) -> tuple[list[list[str]], int]:
    groups = [clusters.members(i) for i in clusters.nonempty_indices()]
    universe = math.prod(len(g) for g in groups)
    if universe <= m:
        return [list(combo) for combo in itertools.product(*groups)], universe

    def draw() -> list[str]:
        return [g[int(rng.integers(len(g)))] for g in groups]

    return _distinct_draws(draw, m), universe


def _combinations(
    pool: list[str], size: int, m: int, rng: np.random.Generator
) -> tuple[list[list[str]], int]:
    """Up to ``m`` distinct ``size``-member subsets of ``pool``, in pool order."""
    universe = math.comb(len(pool), size)
    if universe <= m:
        return [list(c) for c in itertools.combinations(pool, size)], universe

    def draw() -> list[str]:
        pick = rng.choice(len(pool), size=size, replace=False)
        return [pool[i] for i in sorted(pick)]

    return _distinct_draws(draw, m), universe


def sample_subsets(
    clusters: ClusterSet,
    m: int,
    mode: SamplingMode,
    rng: np.random.Generator,
) -> SubsetPlan:
    """Sample up to ``m`` pairwise-distinct document subsets.

    multi_perspective draws one document per non-empty cluster. When fewer
    than ``m`` distinct subsets exist, all of them are returned (in a fixed
    enumeration order) and a truncation notice is recorded. The alternative
    modes match the sampling ablations: random_no_cluster ignores the
    clustering, same_cluster confines one run's subsets to a single cluster.
    """
    if m < 1:
        raise ValueError(f"m must be ≥ 1, got {m}")
    size = clusters.nonempty_count

    if mode is SamplingMode.MULTI_PERSPECTIVE:
        raw, universe = _multi_perspective(clusters, m, rng)
    elif mode is SamplingMode.RANDOM_NO_CLUSTER:
        raw, universe = _combinations(list(clusters.doc_order), size, m, rng)
    elif mode is SamplingMode.SAME_CLUSTER:
        indices = clusters.nonempty_indices()
        pool = clusters.members(indices[int(rng.integers(len(indices)))])
        raw, universe = _combinations(pool, min(size, len(pool)), m, rng)
    else:
        raise ValueError(f"unknown sampling mode: {mode}")

    plan = SubsetPlan(subsets=[_build(i, members, clusters) for i, members in enumerate(raw)])
    if len(plan.subsets) < m:
        plan.notices.append(
            f"subset sampling truncated: requested {m}, "
            f"only {len(plan.subsets)} distinct subsets exist "
            f"(universe {universe}, mode {mode.value})"
        )
    return plan
