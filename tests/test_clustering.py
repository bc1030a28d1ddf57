import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftrag.backend import EndpointConnectionError, EndpointDescriptor, EndpointRole
from draftrag.clustering import (
    embed_documents,
    embedding_input,
    kmeans_cluster,
    unit_rows,
)
from draftrag.core import DataError, Document, Query, seeded_rng
from draftrag.mock_server import MockScript


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


class TestKMeans:
    def test_k1_puts_everything_in_one_cluster(self):
        points = [(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]
        cs = kmeans_cluster(["a", "b", "c"], vectors_from(points), 1, seeded_rng(0))
        assert set(cs.assignments.values()) == {0}
        assert cs.nonempty_count == 1

    def test_k_equals_n_gives_singletons(self):
        points = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
        cs = kmeans_cluster(
            ["a", "b", "c", "d"], vectors_from(points), 4, seeded_rng(0)
        )
        assert cs.nonempty_count == 4
        assert cs.sse == pytest.approx(0.0, abs=1e-12)

    def test_two_separated_pairs_recovered(self):
        # The optimal 2-partition of these four points is {d1,d2} | {d3,d4},
        # confirmed by exhaustive enumeration below.
        points = np.array([(0.0, 0.0), (0.0, 1.0), (10.0, 0.0), (10.0, 1.0)])
        ids = ["d1", "d2", "d3", "d4"]
        cs = kmeans_cluster(ids, vectors_from(points), 2, seeded_rng(0))
        groups = {
            frozenset(cs.members(i)) for i in cs.nonempty_indices()
        }
        assert groups == {frozenset({"d1", "d2"}), frozenset({"d3", "d4"})}
        assert cs.sse == pytest.approx(best_partition_sse(points, 2), rel=1e-9)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans_cluster(["a"], vectors_from([(0.0, 0.0)]), 2, seeded_rng(0))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(12, 3))
        a = kmeans_cluster(
            [f"d{i}" for i in range(12)], vectors_from(points), 3, seeded_rng(5)
        )
        b = kmeans_cluster(
            [f"d{i}" for i in range(12)], vectors_from(points), 3, seeded_rng(5)
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
        cs = kmeans_cluster(ids, vectors_from(points), k, seeded_rng(seed))

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
            seeded_rng(seed),
        )
        history = cs.sse_history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


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


def _endpoint(url):
    return EndpointDescriptor(url, EndpointRole.EMBEDDER)


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
