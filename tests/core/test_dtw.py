"""Unit and property tests for Dynamic Time Warping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dtw import dtw_distance, dtw_path, pairwise_dtw
from repro.errors import AnalysisError

series_strategy = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1,
    max_size=40,
).map(np.asarray)


class TestKnownValues:
    def test_identical_series_zero(self):
        series = np.array([1.0, 2.0, 3.0])
        assert dtw_distance(series, series) == 0.0

    def test_constant_offset(self):
        # Aligning [0,0,0] to [1,1,1]: every aligned pair costs 1, 3 pairs.
        assert dtw_distance([0, 0, 0], [1, 1, 1]) == pytest.approx(3.0)

    def test_time_shift_cheaper_than_euclidean(self):
        # A shifted pulse: DTW warps the axis; Euclidean pays full price.
        a = np.array([0, 0, 5, 0, 0, 0], dtype=float)
        b = np.array([0, 0, 0, 5, 0, 0], dtype=float)
        euclidean = float(np.abs(a - b).sum())
        assert dtw_distance(a, b) < euclidean

    def test_different_lengths_supported(self):
        assert dtw_distance([1, 2, 3], [1, 2, 2, 3]) == pytest.approx(0.0)

    def test_single_points(self):
        assert dtw_distance([2.0], [5.0]) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            dtw_distance([], [1.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(AnalysisError):
            dtw_distance(np.zeros((2, 2)), [1.0])

    def test_negative_window_rejected(self):
        with pytest.raises(AnalysisError):
            dtw_distance([1.0], [1.0], window=-1)


class TestNonFinite:
    # The band is always widened to |N - M|, so a non-finite DP result can
    # only come from the values: NaN/inf inputs, or a float64 overflow.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(AnalysisError, match="finite"):
            dtw_distance([bad, 1.0], [1.0, 2.0])

    def test_overflow_reported(self):
        with pytest.raises(AnalysisError, match="overflows float64"):
            dtw_distance([1e308, -1e308], [-1e308, 1e308])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_pairwise_rejects_non_finite_series(self, bad):
        with pytest.raises(AnalysisError, match="finite"):
            pairwise_dtw([np.array([1.0, 2.0]), np.array([bad, 1.0]), np.array([0.0, 3.0])])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_pairwise_overflow_reported(self):
        with pytest.raises(AnalysisError, match="overflows float64"):
            pairwise_dtw([np.array([1e308, -1e308]), np.array([-1e308, 1e308])])


class TestWindow:
    def test_unconstrained_equals_huge_window(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(20), rng.random(25)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(a, b, window=100))

    def test_window_never_decreases_distance(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(30), rng.random(30)
        unconstrained = dtw_distance(a, b)
        for window in (1, 3, 10):
            assert dtw_distance(a, b, window=window) >= unconstrained - 1e-9

    def test_window_auto_widened_for_length_difference(self):
        # |N - M| = 5 > window=1; the band is widened so a path exists.
        a = np.ones(10)
        b = np.ones(5)
        assert np.isfinite(dtw_distance(a, b, window=1))


class TestProperties:
    @given(series_strategy)
    def test_identity(self, series):
        assert dtw_distance(series, series) == pytest.approx(0.0, abs=1e-9)

    @given(series_strategy, series_strategy)
    def test_symmetry(self, a, b):
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a), rel=1e-9, abs=1e-9)

    @given(series_strategy, series_strategy)
    def test_non_negative(self, a, b):
        assert dtw_distance(a, b) >= 0.0

    @settings(max_examples=40)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=25).map(np.asarray)
    )
    def test_upper_bounded_by_euclidean_on_equal_length(self, a):
        # For equal-length series the diagonal path is feasible, so DTW is
        # at most the L1 (Manhattan) alignment cost.
        rng = np.random.default_rng(0)
        b = a + rng.normal(scale=1.0, size=a.size)
        assert dtw_distance(a, b) <= float(np.abs(a - b).sum()) + 1e-9


class TestPath:
    def test_path_endpoints(self):
        _, path = dtw_path([1, 2, 3], [1, 2, 3, 4])
        assert path[0] == (0, 0)
        assert path[-1] == (2, 3)

    def test_path_steps_valid(self):
        rng = np.random.default_rng(2)
        _, path = dtw_path(rng.random(15), rng.random(12))
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert (i2 - i1, j2 - j1) in {(1, 0), (0, 1), (1, 1)}

    def test_path_cost_matches_distance(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(10), rng.random(14)
        distance, path = dtw_path(a, b)
        cost = sum(abs(a[i] - b[j]) for i, j in path)
        assert cost == pytest.approx(distance)

    def test_path_distance_agrees_with_dtw_distance(self):
        rng = np.random.default_rng(4)
        a, b = rng.random(12), rng.random(12)
        assert dtw_path(a, b)[0] == pytest.approx(dtw_distance(a, b))

    # dtw_path shares dtw_distance's input validation (it used to skip it:
    # a negative window silently produced a garbage band).
    def test_path_empty_rejected(self):
        with pytest.raises(AnalysisError):
            dtw_path([], [1.0])

    def test_path_two_dimensional_rejected(self):
        with pytest.raises(AnalysisError):
            dtw_path(np.zeros((2, 2)), [1.0])

    def test_path_negative_window_rejected(self):
        with pytest.raises(AnalysisError):
            dtw_path([1.0], [1.0], window=-1)


class TestPairwise:
    def test_matrix_properties(self):
        rng = np.random.default_rng(5)
        series = [rng.random(24) for _ in range(6)]
        matrix = pairwise_dtw(series, window=6)
        assert matrix.shape == (6, 6)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 0.0)
        assert np.all(matrix >= 0)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            pairwise_dtw([])

    def test_entries_match_pairwise_calls(self):
        rng = np.random.default_rng(6)
        series = [rng.random(10) for _ in range(4)]
        matrix = pairwise_dtw(series, window=None)
        for i in range(4):
            for j in range(4):
                assert matrix[i, j] == pytest.approx(dtw_distance(series[i], series[j]))
