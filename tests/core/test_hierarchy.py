"""Tests for agglomerative hierarchical clustering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import AgglomerativeClustering, Dendrogram, Merge, cluster_medoid
from repro.errors import AnalysisError


def two_blob_matrix() -> np.ndarray:
    """Distance matrix with two well-separated groups {0,1,2} and {3,4}."""
    points = np.array([0.0, 0.1, 0.2, 10.0, 10.1])
    return np.abs(points[:, None] - points[None, :])


class TestValidation:
    def test_unknown_linkage_rejected(self):
        with pytest.raises(AnalysisError):
            AgglomerativeClustering(linkage="ward")

    def test_non_square_rejected(self):
        with pytest.raises(AnalysisError):
            AgglomerativeClustering().fit(np.zeros((2, 3)))

    def test_asymmetric_rejected(self):
        matrix = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(AnalysisError):
            AgglomerativeClustering().fit(matrix)

    def test_nonzero_diagonal_rejected(self):
        matrix = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(AnalysisError):
            AgglomerativeClustering().fit(matrix)

    def test_nan_distance_rejected(self):
        # NaN != NaN, so the symmetry check alone would blame asymmetry.
        matrix = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(AnalysisError, match="finite"):
            AgglomerativeClustering().fit(matrix)

    def test_inf_distance_rejected(self):
        # With every off-diagonal entry inf, argmin would merge cluster 0
        # with itself.
        matrix = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(AnalysisError, match="finite"):
            AgglomerativeClustering().fit(matrix)


class TestClustering:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_two_blobs_recovered(self, linkage):
        dendrogram = AgglomerativeClustering(linkage).fit(two_blob_matrix())
        labels = dendrogram.cut(2)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_single_leaf(self):
        dendrogram = AgglomerativeClustering().fit(np.zeros((1, 1)))
        assert dendrogram.n_leaves == 1
        np.testing.assert_array_equal(dendrogram.cut(1), [0])

    def test_merge_count(self):
        dendrogram = AgglomerativeClustering().fit(two_blob_matrix())
        assert len(dendrogram.merges) == 4

    def test_merge_sizes_accumulate_to_n(self):
        dendrogram = AgglomerativeClustering().fit(two_blob_matrix())
        assert dendrogram.merges[-1].size == 5

    def test_heights_nondecreasing_for_average_linkage(self):
        rng = np.random.default_rng(0)
        points = rng.random(12)
        matrix = np.abs(points[:, None] - points[None, :])
        dendrogram = AgglomerativeClustering("average").fit(matrix)
        heights = dendrogram.heights()
        assert np.all(np.diff(heights) >= -1e-9)

    def test_cut_extremes(self):
        dendrogram = AgglomerativeClustering().fit(two_blob_matrix())
        np.testing.assert_array_equal(dendrogram.cut(1), np.zeros(5, dtype=int))
        assert len(set(dendrogram.cut(5))) == 5

    def test_cut_bounds_checked(self):
        dendrogram = AgglomerativeClustering().fit(two_blob_matrix())
        with pytest.raises(AnalysisError):
            dendrogram.cut(0)
        with pytest.raises(AnalysisError):
            dendrogram.cut(6)

    def test_cut_distance_threshold(self):
        dendrogram = AgglomerativeClustering("single").fit(two_blob_matrix())
        labels = dendrogram.cut_distance(1.0)  # within-blob merges only
        assert len(set(labels)) == 2

    def test_labels_contiguous_from_zero(self):
        dendrogram = AgglomerativeClustering().fit(two_blob_matrix())
        for k in range(1, 6):
            labels = dendrogram.cut(k)
            assert set(labels) == set(range(k))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=2, max_size=15))
    def test_cut_partitions_all_leaves(self, points):
        arr = np.asarray(points)
        matrix = np.abs(arr[:, None] - arr[None, :])
        dendrogram = AgglomerativeClustering().fit(matrix)
        for k in (1, 2, len(points)):
            labels = dendrogram.cut(k)
            assert labels.size == len(points)
            assert len(set(labels)) == k


class TestDendrogramStructure:
    def test_merge_count_validated(self):
        with pytest.raises(AnalysisError):
            Dendrogram(3, [Merge(0, 1, 1.0, 2)])

    def test_to_text_renders(self):
        dendrogram = AgglomerativeClustering().fit(two_blob_matrix())
        text = dendrogram.to_text(leaf_labels=[f"obj{i}" for i in range(5)])
        assert "d=" in text
        assert "obj0" in text

    def test_to_text_single_leaf(self):
        dendrogram = AgglomerativeClustering().fit(np.zeros((1, 1)))
        assert "leaf0" in dendrogram.to_text()


class TestMedoid:
    def test_known_medoid(self):
        points = np.array([0.0, 1.0, 2.0, 10.0])
        matrix = np.abs(points[:, None] - points[None, :])
        assert cluster_medoid(matrix, np.array([0, 1, 2])) == 1

    def test_singleton_cluster(self):
        matrix = two_blob_matrix()
        assert cluster_medoid(matrix, np.array([3])) == 3

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            cluster_medoid(two_blob_matrix(), np.array([], dtype=int))

    def test_medoid_minimises_total_distance(self):
        rng = np.random.default_rng(1)
        points = rng.random(10)
        matrix = np.abs(points[:, None] - points[None, :])
        members = np.arange(10)
        medoid = cluster_medoid(matrix, members)
        totals = matrix.sum(axis=1)
        assert totals[medoid] == pytest.approx(totals.min())
