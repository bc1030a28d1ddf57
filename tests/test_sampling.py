import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftrag.clustering import (
    ClusterSet,
    kmeans_cluster,
    sample_subsets,
)
from draftrag.core import SamplingMode, seeded_rng


def make_clusters(groups: dict[int, list[str]]) -> ClusterSet:
    """ClusterSet with explicit membership; doc order follows group order."""
    assignments = {}
    order = []
    for idx in sorted(groups):
        for doc in groups[idx]:
            assignments[doc] = idx
            order.append(doc)
    k = max(groups) + 1
    return ClusterSet(
        assignments=assignments,
        centroids=np.zeros((k, 1)),
        doc_order=tuple(order),
    )


class TestMultiPerspective:
    def test_all_singletons_truncates_to_one_subset(self):
        clusters = make_clusters({0: ["d1"], 1: ["d2"]})
        plan = sample_subsets(clusters, 5, SamplingMode.MULTI_PERSPECTIVE, seeded_rng(0))
        assert len(plan.subsets) == 1
        assert plan.subsets[0].member_doc_ids == ("d1", "d2")
        assert plan.notices and "truncated" in plan.notices[0]

    def test_two_by_two_returns_full_cross_product(self):
        clusters = make_clusters({0: ["a", "b"], 1: ["c", "d"]})
        plan = sample_subsets(clusters, 4, SamplingMode.MULTI_PERSPECTIVE, seeded_rng(0))
        got = {s.as_set() for s in plan.subsets}
        expected = {frozenset(p) for p in itertools.product(["a", "b"], ["c", "d"])}
        assert got == expected
        assert plan.notices == []

    def test_default_profile_five_two_doc_subsets_over_ten_docs(self):
        # Ten documents in two well-separated groups; five sampled subsets of
        # two documents each, all distinct.
        rng = np.random.default_rng(3)
        points = np.concatenate(
            [rng.normal(0, 0.1, size=(5, 2)), rng.normal(10, 0.1, size=(5, 2))]
        )
        ids = [f"d{i}" for i in range(10)]
        clusters = kmeans_cluster(ids, points, 2, seeded_rng(0))
        plan = sample_subsets(clusters, 5, SamplingMode.MULTI_PERSPECTIVE, seeded_rng(0))
        assert len(plan.subsets) == 5
        assert all(len(s.member_doc_ids) == 2 for s in plan.subsets)
        assert len({s.as_set() for s in plan.subsets}) == 5

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
        m=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, sizes, m, seed):
        groups = {}
        doc = 0
        for idx, size in enumerate(sizes):
            groups[idx] = [f"d{doc + j}" for j in range(size)]
            doc += size
        clusters = make_clusters(groups)
        plan = sample_subsets(
            clusters, m, SamplingMode.MULTI_PERSPECTIVE, seeded_rng(seed)
        )

        universe = int(np.prod(sizes))
        assert len(plan.subsets) == min(m, universe)
        seen = set()
        for s in plan.subsets:
            # One document per non-empty cluster, clusters strictly increasing.
            assert len(s.member_doc_ids) == len(sizes)
            assert list(s.source_clusters) == sorted(set(s.source_clusters))
            assert len(set(s.member_doc_ids)) == len(s.member_doc_ids)
            assert s.as_set() not in seen
            seen.add(s.as_set())


class TestOtherModes:
    def test_random_no_cluster_subset_size_and_uniqueness(self):
        clusters = make_clusters({0: ["a", "b", "c"], 1: ["d", "e"]})
        plan = sample_subsets(clusters, 6, SamplingMode.RANDOM_NO_CLUSTER, seeded_rng(1))
        assert len(plan.subsets) == 6
        seen = set()
        for s in plan.subsets:
            assert len(s.member_doc_ids) == 2  # nonempty cluster count
            assert s.as_set() not in seen
            seen.add(s.as_set())

    def test_random_no_cluster_can_mix_clusters(self):
        clusters = make_clusters({0: ["a", "b", "c"], 1: ["d", "e"]})
        plan = sample_subsets(
            clusters, 10, SamplingMode.RANDOM_NO_CLUSTER, seeded_rng(1)
        )
        # All C(5,2) = 10 pairs, so same-cluster pairs necessarily appear.
        source_patterns = {tuple(sorted(set(s.source_clusters))) for s in plan.subsets}
        assert (0,) in source_patterns or (1,) in source_patterns

    def test_same_cluster_draws_within_one_cluster(self):
        clusters = make_clusters({0: ["a", "b", "c", "d"], 1: ["e", "f", "g"]})
        plan = sample_subsets(clusters, 3, SamplingMode.SAME_CLUSTER, seeded_rng(2))
        assert plan.subsets
        chosen = {c for s in plan.subsets for c in s.source_clusters}
        assert len(chosen) == 1
        for s in plan.subsets:
            assert len(s.member_doc_ids) == 2  # min(nonempty_count, cluster size)

    def test_same_cluster_small_cluster_caps_subset_size(self):
        clusters = make_clusters({0: ["a"], 1: ["b", "c"], 2: ["d", "e"]})
        # nonempty_count is 3; if the singleton cluster is chosen the subset
        # size drops to 1.
        for seed in range(6):
            plan = sample_subsets(clusters, 2, SamplingMode.SAME_CLUSTER, seeded_rng(seed))
            for s in plan.subsets:
                cluster = s.source_clusters[0]
                expected = min(3, len(clusters.members(cluster)))
                assert len(s.member_doc_ids) == expected


class TestDeterminism:
    @pytest.mark.parametrize(
        "mode",
        [
            SamplingMode.MULTI_PERSPECTIVE,
            SamplingMode.RANDOM_NO_CLUSTER,
            SamplingMode.SAME_CLUSTER,
        ],
    )
    def test_same_seed_same_subsets(self, mode):
        clusters = make_clusters({0: ["a", "b", "c"], 1: ["d", "e", "f"]})
        a = sample_subsets(clusters, 4, mode, seeded_rng(9)).subsets
        b = sample_subsets(clusters, 4, mode, seeded_rng(9)).subsets
        assert a == b


def separated_instance(rng, separation=10.0, spread=0.5, per_cluster=5):
    """Two clusters of points with centers `separation` apart."""
    points = np.concatenate(
        [
            rng.normal((0.0, 0.0), spread, size=(per_cluster, 2)),
            rng.normal((separation, 0.0), spread, size=(per_cluster, 2)),
        ]
    )
    ids = [f"d{i}" for i in range(len(points))]
    return ids, points


def mean_intra_subset_distance(plan, ids, points):
    index = {d: i for i, d in enumerate(ids)}
    dists = []
    for s in plan.subsets:
        coords = [points[index[d]] for d in s.member_doc_ids]
        for a, b in itertools.combinations(coords, 2):
            dists.append(float(np.linalg.norm(np.array(a) - np.array(b))))
    return float(np.mean(dists)) if dists else 0.0


def test_multi_perspective_subsets_are_more_diverse_than_random():
    rng = np.random.default_rng(1234)
    wins = 0
    multi_means = []
    random_means = []
    trials = 100
    for trial in range(trials):
        ids, points = separated_instance(rng)
        clusters = kmeans_cluster(ids, points, 2, seeded_rng(trial))
        multi = sample_subsets(
            clusters, 5, SamplingMode.MULTI_PERSPECTIVE, seeded_rng(trial)
        )
        random = sample_subsets(
            clusters, 5, SamplingMode.RANDOM_NO_CLUSTER, seeded_rng(trial)
        )
        d_multi = mean_intra_subset_distance(multi, ids, points)
        d_random = mean_intra_subset_distance(random, ids, points)
        multi_means.append(d_multi)
        random_means.append(d_random)
        wins += d_multi > d_random
    assert np.mean(multi_means) > np.mean(random_means)
    assert wins >= 95
