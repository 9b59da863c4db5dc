"""Property and exactness tests for the DTW fast path.

The fast path's contract is *losslessness*: lower bounds never exceed the
true distance, the batched numpy kernel is bit-identical to the scalar
kernel, and the pairwise matrix is bit-identical on every kernel tier, in
one chunk or many, to the pure-Python scalar kernel and to per-pair
reference calls.  These tests pin all three down, mostly with
hypothesis-generated series.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dtw as dtw_module
import repro.core.dtw_backends as backends
from repro.core.dtw import (
    KERNEL_ENV,
    DtwStats,
    dtw_distance,
    kernel_name,
    lb_keogh,
    lb_kim,
    pairwise_dtw,
)
from repro.errors import AnalysisError, ConfigError

pytestmark = pytest.mark.fastpath

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
series_strategy = st.lists(finite, min_size=1, max_size=32).map(np.asarray)
window_strategy = st.one_of(st.none(), st.integers(min_value=0, max_value=40))

# One query plus a stack of same-length series (the batched-kernel shape).
equal_length_batch = st.integers(min_value=1, max_value=16).flatmap(
    lambda length: st.tuples(
        st.lists(finite, min_size=length, max_size=length).map(np.asarray),
        st.lists(
            st.lists(finite, min_size=length, max_size=length),
            min_size=1,
            max_size=5,
        ).map(lambda rows: np.asarray(rows, dtype=float)),
    )
)


class TestLowerBounds:
    @settings(max_examples=150, deadline=None)
    @given(series_strategy, series_strategy, window_strategy)
    def test_lb_cascade_bounds_dtw(self, a, b, window):
        kim = lb_kim(a, b)
        keogh = lb_keogh(a, b, window)
        distance = dtw_distance(a, b, window=window)
        # lb_kim <= lb_keogh holds exactly: lb_keogh adds non-negative
        # interior terms to the identical endpoint expression.
        assert kim <= keogh
        # lb_keogh <= dtw needs a tiny float slack: the bound and the DP sum
        # the same non-negative terms in different orders.
        assert keogh <= distance + 1e-9 * max(1.0, distance)

    @settings(max_examples=50, deadline=None)
    @given(series_strategy, window_strategy)
    def test_bounds_zero_on_identical_series(self, a, window):
        assert lb_kim(a, a) == 0.0
        assert lb_keogh(a, a, window) == 0.0

    def test_bounds_validate_like_dtw_distance(self):
        for fn in (lb_kim, lambda a, b: lb_keogh(a, b, 2)):
            with pytest.raises(AnalysisError):
                fn([], [1.0])
            with pytest.raises(AnalysisError):
                fn(np.zeros((2, 2)), [1.0])
        with pytest.raises(AnalysisError):
            lb_keogh([1.0, 2.0], [1.0, 2.0], window=-1)


class TestBatchKernel:
    @settings(max_examples=100, deadline=None)
    @given(equal_length_batch, window_strategy)
    def test_batch_bit_identical_to_scalar(self, query_and_stack, window):
        # pairwise_dtw hands equal-length pairs to the batched kernel on the
        # numpy tier; each row must equal a scalar-kernel call bit for bit.
        query, stack = query_and_stack
        band = dtw_module._effective_band(query.size, stack.shape[1], window)
        got = dtw_module._dtw_band_batch(np.tile(query, (stack.shape[0], 1)), stack, band)
        want = np.array(
            [dtw_module._dtw_band_scalar(query.tolist(), row.tolist(), band) for row in stack]
        )
        assert np.array_equal(got, want)  # exact float equality, not approx


def _scalar_reference_matrix(series, window):
    """The matrix from the pure-Python scalar kernel, whatever tier is active."""
    count = len(series)
    matrix = np.zeros((count, count))
    for i in range(count):
        for j in range(i + 1, count):
            a, b = series[i], series[j]
            band = dtw_module._effective_band(a.size, b.size, window)
            matrix[i, j] = matrix[j, i] = dtw_module._dtw_band_scalar(a.tolist(), b.tolist(), band)
    return matrix


class TestPairwiseExactness:
    @staticmethod
    def _reference_matrix(series, window):
        count = len(series)
        matrix = np.zeros((count, count))
        for i in range(count):
            for j in range(i + 1, count):
                matrix[i, j] = matrix[j, i] = dtw_distance(series[i], series[j], window=window)
        return matrix

    @settings(max_examples=30, deadline=None)
    @given(
        # Equal lengths take the batched numpy kernel; independent lengths
        # take the scalar one.  Both must match on every tier.
        st.integers(min_value=1, max_value=16).flatmap(
            lambda length: st.lists(
                st.lists(finite, min_size=length, max_size=length).map(np.asarray),
                min_size=2,
                max_size=6,
            )
        ),
        st.lists(series_strategy, min_size=2, max_size=6),
        window_strategy,
    )
    def test_matrix_matches_per_pair_calls_exactly(self, equal, ragged, window):
        for series in (equal, ragged):
            want = _scalar_reference_matrix(series, window)
            assert np.array_equal(self._reference_matrix(series, window), want)
            for tier in backends.available_kernel_tiers():
                got = pairwise_dtw(series, window=window, kernel=tier)
                assert np.array_equal(got, want), tier  # exact, not approx

    def test_multi_chunk_matrix_matches_scalar_kernel(self, monkeypatch):
        # Chunks of 8 pairs, so these 45- and 36-pair matrices cross chunk
        # boundaries on every tier.
        monkeypatch.setattr(dtw_module, "_CHUNK_PAIRS", 8)
        rng = np.random.default_rng(13)
        equal = [rng.normal(size=20) for _ in range(10)]
        ragged = [rng.normal(size=int(length)) for length in rng.integers(3, 25, size=9)]
        for series, window in ((equal, 4), (ragged, 5)):
            want = _scalar_reference_matrix(series, window)
            for tier in backends.available_kernel_tiers():
                got = pairwise_dtw(series, window=window, kernel=tier)
                assert np.array_equal(got, want), tier

    def test_duplicate_and_sparse_series_pruned_losslessly(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(8, 30)) * (rng.random((8, 30)) < 0.3)
        series = [row for row in base] + [base[0].copy(), base[3].copy()]
        matrix, stats = pairwise_dtw(series, window=6, return_stats=True)
        assert np.array_equal(matrix, self._reference_matrix(series, 6))
        assert stats.pruned >= 2  # the two duplicates are certified zeros
        assert stats.pruned + stats.abandoned + stats.full_dp == stats.pairs_total


class TestDtwStats:
    def test_merge_and_render(self):
        first = DtwStats(pairs_total=10, pruned_lb_kim=2, pruned_lb_keogh=1, abandoned=3, full_dp=4)
        second = DtwStats(pairs_total=5, full_dp=5, wall_seconds=0.5)
        first.merge(second)
        assert first.pairs_total == 15
        assert first.pruned == 3
        assert first.pruned_fraction == pytest.approx(6 / 15)
        payload = first.as_dict()
        assert payload["pairs_total"] == 15
        assert "pruned_fraction" in str(first) or "avoided" in str(first)

    def test_empty_stats_fraction(self):
        assert DtwStats().pruned_fraction == 0.0


class TestKernelTiers:
    """The compiled tiers are bit-identical to the numpy/scalar reference."""

    @staticmethod
    def _reference_matrix(series, window):
        count = len(series)
        matrix = np.zeros((count, count))
        for i in range(count):
            for j in range(i + 1, count):
                matrix[i, j] = matrix[j, i] = dtw_distance(series[i], series[j], window=window)
        return matrix

    def test_forced_numpy_disables_compiled_tier(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        assert backends.resolve_kernel() is None
        assert kernel_name() == "numpy"

    def test_every_available_tier_matches_numpy_exactly(self, monkeypatch):
        rng = np.random.default_rng(31)
        equal = [rng.normal(size=20) for _ in range(8)]
        ragged = [rng.normal(size=int(n)) for n in rng.integers(3, 25, size=8)]
        for series, window in ((equal, 4), (equal, None), (ragged, 5)):
            monkeypatch.setenv(KERNEL_ENV, "numpy")
            want = pairwise_dtw(series, window=window)
            assert np.array_equal(want, self._reference_matrix(series, window))
            for tier in backends.available_kernel_tiers():
                monkeypatch.setenv(KERNEL_ENV, tier)
                got, stats = pairwise_dtw(series, window=window, return_stats=True)
                assert np.array_equal(got, want)  # bit-identical, not approx
                assert stats.kernel == tier

    def test_explicit_kernel_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, backends.available_kernel_tiers()[0])
        rng = np.random.default_rng(37)
        series = [rng.normal(size=16) for _ in range(6)]
        matrix, stats = pairwise_dtw(series, window=3, kernel="numpy", return_stats=True)
        assert stats.kernel == "numpy"
        assert np.array_equal(matrix, self._reference_matrix(series, 3))

    @settings(max_examples=60, deadline=None)
    @given(series_strategy, series_strategy, window_strategy)
    def test_scalar_kernel_tiers_bit_identical(self, a, b, window):
        # patch.dict restores the caller's REPRO_DTW_KERNEL afterwards.
        with mock.patch.dict(os.environ):
            values = {}
            for tier in backends.available_kernel_tiers():
                os.environ[KERNEL_ENV] = tier
                values[tier] = dtw_distance(a, b, window=window)
        want = values.pop("numpy")
        for tier, got in values.items():
            assert got == want, tier

    def test_invalid_choice_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "fortran")
        with pytest.raises(ConfigError):
            backends.resolve_kernel()
        with pytest.raises(ConfigError):
            pairwise_dtw([np.ones(3), np.zeros(3)], kernel="fortran")

    def test_forcing_unavailable_tier_fails_loudly(self, monkeypatch):
        if "c" not in backends.available_kernel_tiers():
            monkeypatch.setenv(KERNEL_ENV, "c")
            with pytest.raises(ConfigError):
                backends.resolve_kernel()
