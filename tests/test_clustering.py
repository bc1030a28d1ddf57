import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draftrag.backend import (
    EndpointConnectionError,
    EndpointDescriptor,
    MalformedResponseError,
)
from draftrag import clustering
from draftrag.clustering import (
    KMEANS_RESTARTS,
    embed_documents,
    embedding_input,
    kmeans_cluster,
    unit_rows,
)
from draftrag.core import DataError, Document, Query, derive_rng
from draftrag.mock_server import MockScript
from json_strategies import JSON_VALUES, NUMBERS


def vectors_from(points):
    return np.array(points, dtype=np.float64)


def partition_sse(points: np.ndarray, assignment) -> float:
    total = 0.0
    for label in set(assignment):
        members = points[[i for i, a in enumerate(assignment) if a == label]]
        centroid = members.mean(axis=0)
        total += float(((members - centroid) ** 2).sum())
    return total


def best_partition_sse(points: np.ndarray, k: int) -> float:
    """Exhaustive search over all assignments into at most k groups."""
    n = len(points)
    best = float("inf")
    for assignment in itertools.product(range(k), repeat=n):
        best = min(best, partition_sse(points, assignment))
    return best


# The sequential k-means: one restart after another, each a loop of small
# numpy calls. kmeans_cluster runs the restarts as one batched loop and must
# match this to the bit.


def _oracle_squared_distances(points, centroids):
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _oracle_kmeans_pp_init(points, k, rng, stats):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            stats["zero_totals"] += 1
            idx = int(rng.integers(n))
        else:
            r = float(rng.random()) * total
            idx = int(np.searchsorted(np.cumsum(closest), r))
            idx = min(idx, n - 1)
        centers[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _oracle_lloyd_once(points, k, rng, stats):
    n = points.shape[0]
    centroids = _oracle_kmeans_pp_init(points, k, rng, stats)
    assign = np.full(n, -1, dtype=np.int64)
    sse_history = []
    for _ in range(clustering.KMEANS_MAX_ITERS):
        d2 = _oracle_squared_distances(points, centroids)
        new_assign = np.argmin(d2, axis=1)
        for j in range(k):
            if np.any(new_assign == j):
                continue
            stats["repairs"] += 1
            dist_to_own = d2[np.arange(n), new_assign]
            farthest = int(np.argmax(dist_to_own))
            centroids[j] = points[farthest]
            new_assign[farthest] = j
            d2 = _oracle_squared_distances(points, centroids)
        sse_history.append(float(d2[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            mask = assign == j
            if np.any(mask):
                centroids[j] = points[mask].mean(axis=0)
    return assign, centroids, sse_history


def oracle_kmeans(points, k, rng, stats=None):
    """Sequential restarts; keeps the first run with the lowest final SSE."""
    stats = {"repairs": 0, "zero_totals": 0} if stats is None else stats
    best = None
    for _ in range(KMEANS_RESTARTS):
        run = _oracle_lloyd_once(points, k, rng, stats)
        if best is None or run[2][-1] < best[2][-1]:
            best = run
    return best


def assert_matches_oracle(points, k, seed):
    ids = [f"d{i}" for i in range(len(points))]
    oracle_rng, rng = derive_rng(seed), derive_rng(seed)
    assign, centroids, history = oracle_kmeans(points, k, oracle_rng)
    cs = kmeans_cluster(ids, points, k, rng)
    assert [cs.assignments[d] for d in ids] == assign.tolist()
    assert cs.centroids.tobytes() == centroids.tobytes()
    assert cs.sse_history == tuple(history)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def clustering_cases(draw):
    """Points with ties: a pool of ``distinct`` rows, each point a copy of one,
    optionally rounded to one decimal so that distances tie more often."""
    n = draw(st.integers(min_value=1, max_value=16))
    k = draw(st.integers(min_value=1, max_value=n))
    d = draw(st.sampled_from([2, 8]))
    distinct = draw(st.integers(min_value=1, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    gen = np.random.default_rng(seed)
    pool = gen.normal(size=(distinct, d))
    if draw(st.booleans()):
        pool = np.round(pool * 0.5, 1)
    return pool[gen.integers(distinct, size=n)], k, seed


class TestKMeans:
    def test_k1_puts_everything_in_one_cluster(self):
        points = [(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]
        cs = kmeans_cluster(["a", "b", "c"], vectors_from(points), 1, derive_rng(0))
        assert set(cs.assignments.values()) == {0}
        assert cs.nonempty_count == 1

    def test_k_equals_n_gives_singletons(self):
        points = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
        cs = kmeans_cluster(
            ["a", "b", "c", "d"], vectors_from(points), 4, derive_rng(0)
        )
        assert cs.nonempty_count == 4
        assert cs.sse == pytest.approx(0.0, abs=1e-12)

    def test_two_separated_pairs_recovered(self):
        # The optimal 2-partition of these four points is {d1,d2} | {d3,d4},
        # confirmed by exhaustive enumeration below.
        points = np.array([(0.0, 0.0), (0.0, 1.0), (10.0, 0.0), (10.0, 1.0)])
        ids = ["d1", "d2", "d3", "d4"]
        cs = kmeans_cluster(ids, vectors_from(points), 2, derive_rng(0))
        groups = {
            frozenset(cs.members(i)) for i in cs.nonempty_indices()
        }
        assert groups == {frozenset({"d1", "d2"}), frozenset({"d3", "d4"})}
        assert cs.sse == pytest.approx(best_partition_sse(points, 2), rel=1e-9)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans_cluster(["a"], vectors_from([(0.0, 0.0)]), 2, derive_rng(0))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(12, 3))
        a = kmeans_cluster(
            [f"d{i}" for i in range(12)], vectors_from(points), 3, derive_rng(5)
        )
        b = kmeans_cluster(
            [f"d{i}" for i in range(12)], vectors_from(points), 3, derive_rng(5)
        )
        assert a.assignments == b.assignments

    @given(
        n=st.integers(min_value=2, max_value=8),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed)
        points = rng.uniform(-5, 5, size=(n, 2))
        ids = [f"d{i}" for i in range(n)]
        cs = kmeans_cluster(ids, vectors_from(points), k, derive_rng(seed))

        # Every document lands in exactly one cluster.
        assert set(cs.assignments) == set(ids)
        assert all(0 <= c < k for c in cs.assignments.values())
        assert cs.nonempty_count >= 1
        member_union = [d for i in cs.nonempty_indices() for d in cs.members(i)]
        assert sorted(member_union) == sorted(ids)

    @given(
        n=st.integers(min_value=3, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_sse_never_increases_across_iterations(self, n, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-5, 5, size=(n, 2))
        cs = kmeans_cluster(
            [f"d{i}" for i in range(n)],
            vectors_from(points),
            min(3, n),
            derive_rng(seed),
        )
        history = cs.sse_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


class TestBatchedRestartsMatchSequential:
    @given(case=clustering_cases())
    @settings(max_examples=200, deadline=None)
    def test_random_points_match_the_oracle(self, case):
        # With more clusters than distinct points, the repair moves a tied
        # point back and forth and every restart runs to the iteration cap.
        # Both versions read the cap from the module, so a lower one keeps
        # these cases cheap and exercises the cap exit more often.
        points, k, seed = case
        with mock.patch.object(clustering, "KMEANS_MAX_ITERS", 6):
            assert_matches_oracle(points, k, seed)

    def test_ties_reach_the_repair_and_the_zero_total_draw(self):
        # All points equal: after the first center every k-means++ draw
        # falls back to a uniform index, and argmin leaves every cluster but
        # the first empty.
        points = np.ones((4, 2))
        stats = {"repairs": 0, "zero_totals": 0}
        oracle_kmeans(points, 3, derive_rng(0), stats)
        assert stats["repairs"] > 0
        assert stats["zero_totals"] == 2 * KMEANS_RESTARTS
        assert_matches_oracle(points, 3, 0)

    @pytest.mark.parametrize("query", range(8))
    @pytest.mark.parametrize("n,k", [(4, 2), (15, 6)])
    def test_benchmark_shapes_match_the_oracle(self, n, k, query):
        script = MockScript()
        rows = script.embed(f"query {query}", [f"document {i} of {query}" for i in range(n)])
        assert_matches_oracle(unit_rows(rows["embeddings"]), k, query)


class TestUnitRows:
    def test_normalized_has_unit_norm(self):
        rows = unit_rows([[3.0, 4.0], [0.0, -2.0]])
        assert rows.shape == (2, 2)
        assert np.array_equal(rows, [[0.6, 0.8], [0.0, -1.0]])

    def test_rows_match_per_row_norm_bit_for_bit(self):
        # Scaling by a norm taken along axis 1 of the whole array sums in
        # another order and moves the last bit of some of these rows.
        rows = MockScript().embed("query", [f"document {i}" for i in range(300)])
        got = unit_rows(rows["embeddings"])
        for row, raw in zip(got, rows["embeddings"]):
            arr = np.asarray(raw, dtype=np.float64)
            assert np.array_equal(row, arr / float(np.linalg.norm(arr)))

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError, match="row 1"):
            unit_rows([[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(DataError, match="row 1"):
            unit_rows([[1.0, 0.0], [value, 1.0]])

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 0.0], 2],
            [[1, 0], ["0.6", "0.8"]],
            [[1, 0], [True, False]],
            [[1, 0], None],
        ],
    )
    def test_row_that_is_not_a_list_of_numbers_rejected(self, rows):
        with pytest.raises(DataError, match="row 1 is not a list of numbers"):
            unit_rows(rows)

    def test_integer_beyond_the_float_range_rejected(self):
        with pytest.raises(DataError, match="beyond the float range"):
            unit_rows([[10**400, 1]])

    def test_norm_whose_square_underflows_rejected(self):
        # The square of this value is subnormal: normalized, the row's norm
        # would be 0.9989.
        with pytest.raises(DataError, match="row 1"):
            unit_rows([[1.0], [2.3706902874095685e-161]])

    def test_tiny_norm_above_the_floor_is_normalized(self):
        assert np.array_equal(unit_rows([[1e-150, 0.0]]), [[1.0, 0.0]])

    @given(rows=st.lists(st.lists(NUMBERS, min_size=1, max_size=3) | JSON_VALUES, max_size=4))
    @example(rows=[[2.3706902874095685e-161]])
    @settings(max_examples=150, deadline=None)
    def test_any_json_rows_give_unit_rows_or_a_data_error(self, rows):
        try:
            got = unit_rows(rows)
        except DataError:
            return
        assert got.shape[0] == len(rows)
        for row in got:
            assert np.all(np.isfinite(row))
            assert np.linalg.norm(row) == pytest.approx(1.0)


def _endpoint(url):
    return EndpointDescriptor(url)


class TestEmbedDocuments:
    def docs(self):
        return [
            Document(id="d1", title="Alpha", text="first text"),
            Document(id="d2", title="Beta", text="second text"),
            Document(id="d3", title="Alpha", text="first text"),
        ]

    def test_one_unit_vector_per_document(self, mock_server):
        q = Query(id="q", text="what?")
        vectors = embed_documents(self.docs(), q, _endpoint(mock_server.embed_url), 5000)
        assert vectors.shape == (3, 8)
        for v in vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_identical_texts_get_identical_vectors(self, mock_server):
        q = Query(id="q", text="what?")
        vectors = embed_documents(self.docs(), q, _endpoint(mock_server.embed_url), 5000)
        assert np.array_equal(vectors[0], vectors[2])
        assert not np.array_equal(vectors[0], vectors[1])

    def test_vectors_match_documented_hash_rule(self, mock_server):
        # Independent recomputation of the hash-to-vector rule.
        q = Query(id="q", text="what?")
        doc = self.docs()[0]
        vectors = embed_documents([doc], q, _endpoint(mock_server.embed_url), 5000)

        raw = []
        for i in range(8):
            digest = hashlib.sha256(
                f"{q.text}\x1f{embedding_input(doc)}\x1f{i}".encode()
            ).digest()
            raw.append(int.from_bytes(digest[:8], "big") / 2**64 * 2 - 1)
        arr = np.array(raw)
        expected = arr / np.linalg.norm(arr)
        assert np.allclose(vectors[0], expected, atol=1e-12)

    def test_dimension_mismatch_is_a_data_error(self, server_factory):
        class RaggedScript(MockScript):
            def embed(self, instruction, inputs):
                return {"embeddings": [[1.0, 0.0], [1.0, 0.0, 0.0]]}

        server = server_factory(script=RaggedScript())
        with pytest.raises(DataError, match="dimension mismatch"):
            embed_documents(
                self.docs()[:2], Query(id="q", text="?"), _endpoint(server.embed_url), 5000
            )

    def test_non_finite_value_from_endpoint_is_a_data_error(self, server_factory):
        # The endpoint's JSON carries NaN, which json.loads accepts.
        class NaNScript(MockScript):
            def embed(self, instruction, inputs):
                return {"embeddings": [[1.0, 0.0], [float("nan"), 1.0]]}

        server = server_factory(script=NaNScript())
        with pytest.raises(DataError, match="row 1"):
            embed_documents(
                self.docs()[:2], Query(id="q", text="?"), _endpoint(server.embed_url), 5000
            )

    def test_rows_that_are_not_lists_from_endpoint_are_a_data_error(
        self, server_factory
    ):
        class FlatScript(MockScript):
            def embed(self, instruction, inputs):
                return {"embeddings": [1, 2]}

        server = server_factory(script=FlatScript())
        with pytest.raises(DataError, match="row 0 is not a list of numbers"):
            embed_documents(
                self.docs()[:2], Query(id="q", text="?"), _endpoint(server.embed_url), 5000
            )

    @pytest.mark.parametrize(
        "reply,named", [({"embeddings": 5}, "int"), ({}, "NoneType")]
    )
    def test_embeddings_that_are_not_a_list_are_a_transport_error(
        self, server_factory, reply, named
    ):
        class NotAList(MockScript):
            def embed(self, instruction, inputs):
                return reply

        server = server_factory(script=NotAList())
        expected = f'returned "embeddings" of type {named} for 2 inputs'
        with pytest.raises(MalformedResponseError, match=expected):
            embed_documents(
                self.docs()[:2], Query(id="q", text="?"), _endpoint(server.embed_url), 5000
            )

    def test_unreachable_endpoint_error_carries_url(self):
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead_url = f"http://127.0.0.1:{s.getsockname()[1]}/embed"
        with pytest.raises(EndpointConnectionError) as excinfo:
            embed_documents(
                self.docs(), Query(id="q", text="?"), _endpoint(dead_url), 1000
            )
        assert dead_url in str(excinfo.value)
