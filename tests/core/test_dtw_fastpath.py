"""Property and exactness tests for the UCR-style DTW fast path.

The fast path's contract is *losslessness*: lower bounds never exceed the
true distance, the batched kernel is bit-identical to the scalar kernel,
and the pairwise matrix is bit-identical across serial, parallel and
reference per-pair computation.  These tests pin all three down, mostly
with hypothesis-generated series.
"""

from __future__ import annotations

import math
import os

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
    dtw_distance_batch,
    dtw_medoid_assignment,
    dtw_nearest_neighbor,
    kernel_name,
    lb_improved,
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


class TestEarlyAbandon:
    @settings(max_examples=100, deadline=None)
    @given(series_strategy, series_strategy, window_strategy, st.floats(min_value=0, max_value=2))
    def test_abandon_never_loses_a_keeper(self, a, b, window, scale):
        exact = dtw_distance(a, b, window=window)
        threshold = exact * scale
        result = dtw_distance(a, b, window=window, abandon_above=threshold)
        if exact <= threshold:
            assert result == exact
        else:
            assert result == exact or math.isinf(result)

    def test_abandon_triggers_on_distant_series(self):
        a = np.zeros(50)
        b = np.full(50, 100.0)
        assert math.isinf(dtw_distance(a, b, abandon_above=1.0))


class TestBatchKernel:
    @settings(max_examples=100, deadline=None)
    @given(equal_length_batch, window_strategy)
    def test_batch_bit_identical_to_scalar(self, query_and_stack, window):
        query, stack = query_and_stack
        got = dtw_distance_batch(query, stack, window=window)
        want = np.array([dtw_distance(query, row, window=window) for row in stack])
        assert np.array_equal(got, want)  # exact float equality, not approx

    def test_batch_threshold_prunes_and_stays_exact(self):
        rng = np.random.default_rng(7)
        query = rng.normal(size=24)
        stack = np.vstack([query + rng.normal(scale=0.1, size=24), rng.normal(size=(6, 24)) * 50])
        stats = DtwStats()
        exact = np.array([dtw_distance(query, row, window=4) for row in stack])
        threshold = float(exact[0]) + 1e-9
        got = dtw_distance_batch(query, stack, window=4, abandon_above=threshold, stats=stats)
        kept = got <= threshold
        assert kept[0]
        assert np.array_equal(got[kept], exact[kept])
        assert np.all(np.isinf(got[~kept]))
        assert stats.pairs_total == stack.shape[0]
        assert stats.pruned + stats.abandoned + stats.full_dp == stats.pairs_total
        assert stats.pruned + stats.abandoned > 0

    def test_ragged_stack_rejected(self):
        with pytest.raises(AnalysisError):
            dtw_distance_batch([1.0, 2.0], [[1.0, 2.0], [1.0]])


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
        st.lists(series_strategy, min_size=2, max_size=6),
        window_strategy,
    )
    def test_matrix_matches_per_pair_calls_exactly(self, series, window):
        got = pairwise_dtw(series, window=window)
        assert np.array_equal(got, self._reference_matrix(series, window))

    def test_duplicate_and_sparse_series_pruned_losslessly(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(8, 30)) * (rng.random((8, 30)) < 0.3)
        series = [row for row in base] + [base[0].copy(), base[3].copy()]
        matrix, stats = pairwise_dtw(series, window=6, return_stats=True)
        assert np.array_equal(matrix, self._reference_matrix(series, 6))
        assert stats.pruned >= 2  # the two duplicates are certified zeros
        assert stats.pruned + stats.abandoned + stats.full_dp == stats.pairs_total

    def test_parallel_bit_identical_to_serial(self, monkeypatch):
        # Shrink the chunk size so a small matrix genuinely exercises the
        # multi-chunk ProcessPoolExecutor path.
        monkeypatch.setattr(dtw_module, "_CHUNK_PAIRS", 8)
        rng = np.random.default_rng(13)
        series = [rng.normal(size=20) for _ in range(10)]
        serial = pairwise_dtw(series, window=4)
        parallel = pairwise_dtw(series, window=4, parallel=True, max_workers=2)
        assert np.array_equal(serial, parallel)

    def test_parallel_bit_identical_on_ragged_lengths(self, monkeypatch):
        monkeypatch.setattr(dtw_module, "_CHUNK_PAIRS", 8)
        rng = np.random.default_rng(17)
        series = [rng.normal(size=int(length)) for length in rng.integers(3, 25, size=9)]
        serial = pairwise_dtw(series, window=5)
        parallel = pairwise_dtw(series, window=5, parallel=True, max_workers=2)
        assert np.array_equal(serial, parallel)
        assert np.array_equal(serial, self._reference_matrix(series, 5))

    def test_workers_env_variable_respected(self, monkeypatch):
        monkeypatch.setattr(dtw_module, "_CHUNK_PAIRS", 8)
        monkeypatch.setenv(dtw_module.WORKERS_ENV, "1")
        rng = np.random.default_rng(19)
        series = [rng.normal(size=12) for _ in range(8)]
        assert np.array_equal(
            pairwise_dtw(series, window=3),
            pairwise_dtw(series, window=3, parallel=True),
        )

    def test_order_variants_identical(self):
        rng = np.random.default_rng(23)
        series = [rng.normal(size=15) for _ in range(7)]
        assert np.array_equal(
            pairwise_dtw(series, window=4, order="nearest-first"),
            pairwise_dtw(series, window=4, order="index"),
        )

    def test_unknown_order_rejected(self):
        with pytest.raises(AnalysisError):
            pairwise_dtw([np.ones(3), np.zeros(3)], order="fastest-first")


class TestNearestNeighbor:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16).flatmap(
            lambda length: st.tuples(
                st.lists(finite, min_size=length, max_size=length).map(np.asarray),
                st.lists(
                    st.lists(finite, min_size=length, max_size=length).map(np.asarray),
                    min_size=1,
                    max_size=6,
                ),
            )
        ),
        window_strategy,
    )
    def test_matches_brute_force(self, query_and_candidates, window):
        query, candidates = query_and_candidates
        index, distance, stats = dtw_nearest_neighbor(
            query, candidates, window=window, return_stats=True
        )
        brute = [dtw_distance(query, c, window=window) for c in candidates]
        assert distance == min(brute)
        assert brute[index] == distance
        assert stats.pairs_total == len(candidates)
        assert stats.pruned + stats.abandoned + stats.full_dp == stats.pairs_total

    def test_empty_candidates_rejected(self):
        with pytest.raises(AnalysisError):
            dtw_nearest_neighbor([1.0], [])


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

# Strategy for equal-length pairs, where lb_improved tightens over lb_keogh.
equal_length_pair = st.integers(min_value=3, max_value=24).flatmap(
    lambda length: st.tuples(
        st.lists(finite, min_size=length, max_size=length).map(np.asarray),
        st.lists(finite, min_size=length, max_size=length).map(np.asarray),
    )
)


class TestLbImproved:
    @settings(max_examples=150, deadline=None)
    @given(equal_length_pair, window_strategy)
    def test_full_cascade_chain(self, pair, window):
        a, b = pair
        kim = lb_kim(a, b)
        keogh = lb_keogh(a, b, window)
        improved = lb_improved(a, b, window)
        distance = dtw_distance(a, b, window=window)
        assert kim <= keogh
        # lb_improved maxes the endpoint-exact lb_keogh into its value, so
        # the inequality is exact; the bound-vs-DP comparison needs the
        # usual summation-order float slack.
        assert keogh <= improved
        assert improved <= distance + 1e-9 * max(1.0, distance)

    @settings(max_examples=50, deadline=None)
    @given(series_strategy, window_strategy)
    def test_zero_on_identical_series(self, a, window):
        assert lb_improved(a, a, window) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(series_strategy, series_strategy, window_strategy)
    def test_unequal_lengths_fall_back_to_keogh(self, a, b, window):
        # The two-pass construction assumes equal lengths; elsewhere the
        # bound degrades to lb_keogh rather than risking an invalid bound.
        if a.size != b.size or a.size <= 2:
            assert lb_improved(a, b, window) == lb_keogh(a, b, window)

    def test_tightens_on_shifted_series(self):
        rng = np.random.default_rng(29)
        a = np.sin(np.linspace(0, 6 * np.pi, 48)) + rng.normal(scale=0.05, size=48)
        b = np.roll(a, 9) + 2.0
        assert lb_improved(a, b, 4) > lb_keogh(a, b, 4)

    def test_validates_like_the_other_bounds(self):
        with pytest.raises(AnalysisError):
            lb_improved([], [1.0])
        with pytest.raises(AnalysisError):
            lb_improved([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], window=-1)


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
    @given(series_strategy, series_strategy, window_strategy,
           st.one_of(st.none(), st.floats(min_value=0, max_value=50)))
    def test_scalar_kernel_tiers_bit_identical(self, a, b, window, abandon):
        values = {
            tier: dtw_distance(a, b, window=window, abandon_above=abandon)
            for tier in backends.available_kernel_tiers()
            for _ in [os.environ.__setitem__(KERNEL_ENV, tier)]
        }
        os.environ.pop(KERNEL_ENV, None)
        want = values.pop("numpy")
        for tier, got in values.items():
            assert got == want or (math.isinf(got) and math.isinf(want)), tier

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

    def test_parallel_workers_inherit_kernel_choice(self, monkeypatch):
        monkeypatch.setattr(dtw_module, "_CHUNK_PAIRS", 8)
        rng = np.random.default_rng(41)
        series = [rng.normal(size=18) for _ in range(9)]
        want = pairwise_dtw(series, window=4, kernel="numpy")
        got = pairwise_dtw(series, window=4, kernel="numpy", parallel=True, max_workers=2)
        assert np.array_equal(want, got)


class TestThresholdSeeding:
    """pairwise_dtw(abandon_beyond_k=k) preserves row-wise k-NN structure."""

    @staticmethod
    def _make_series(seed, count=14, length=24):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=length) * rng.uniform(0.2, 5.0) for _ in range(count)]

    def test_seeded_matrix_is_rowwise_knn_exact(self, monkeypatch):
        # Small chunks so the per-row thresholds tighten between chunks
        # (with one big chunk every pair would run before any seeding).
        monkeypatch.setattr(dtw_module, "_SEED_CHUNK_PAIRS", 8)
        series = self._make_series(43)
        window, k = 4, 3
        exact = pairwise_dtw(series, window=window)
        seeded, stats = pairwise_dtw(
            series, window=window, abandon_beyond_k=k, return_stats=True
        )
        for i in range(len(series)):
            row_exact = np.delete(exact[i], i)
            row_seeded = np.delete(seeded[i], i)
            order_exact = np.argsort(row_exact, kind="stable")[:k]
            order_seeded = np.argsort(row_seeded, kind="stable")[:k]
            assert np.array_equal(order_exact, order_seeded)
            assert np.array_equal(row_exact[order_exact], row_seeded[order_seeded])
            # Censored entries are still certified lower bounds.
            assert np.all(row_seeded <= row_exact)
        assert stats.abandoned > 0  # the seeding actually pruned something
        assert stats.pruned + stats.abandoned + stats.full_dp == stats.pairs_total

    def test_seeded_medoid_assignment_is_lossless(self):
        series = self._make_series(47, count=18)
        window, k = 4, 2
        exact = pairwise_dtw(series, window=window)
        seeded = pairwise_dtw(series, window=window, abandon_beyond_k=k)
        medoid_indices = [0, 5, 11]
        # Nearest medoid per series from the seeded matrix matches the
        # exact matrix: medoids land within each row's k-NN or the censored
        # lower bounds still order them correctly.
        exact_assign = np.argmin(exact[:, medoid_indices], axis=1)
        medoids = [series[i] for i in medoid_indices]
        assignments, distances = dtw_medoid_assignment(series, medoids, window=window)
        assert np.array_equal(assignments, exact_assign)
        want = exact[np.arange(len(series)), [medoid_indices[a] for a in exact_assign]]
        assert np.array_equal(distances, want)
        del seeded  # seeded matrix only exercised for coverage above

    def test_seeding_on_every_kernel_tier(self, monkeypatch):
        monkeypatch.setattr(dtw_module, "_SEED_CHUNK_PAIRS", 8)
        series = self._make_series(53)
        exact = pairwise_dtw(series, window=3, kernel="numpy")
        for tier in backends.available_kernel_tiers():
            monkeypatch.setenv(KERNEL_ENV, tier)
            seeded = pairwise_dtw(series, window=3, abandon_beyond_k=2)
            for i in range(len(series)):
                row_exact = np.delete(exact[i], i)
                row_seeded = np.delete(seeded[i], i)
                idx = np.argsort(row_exact, kind="stable")[:2]
                assert np.array_equal(np.argsort(row_seeded, kind="stable")[:2], idx)
                assert np.array_equal(row_seeded[idx], row_exact[idx])

    def test_invalid_k_rejected(self):
        with pytest.raises(AnalysisError):
            pairwise_dtw([np.ones(3), np.zeros(3)], abandon_beyond_k=0)


class TestMedoidAssignment:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(59)
        series = [rng.normal(size=20) for _ in range(12)]
        medoids = [rng.normal(size=20) for _ in range(4)]
        assignments, distances, stats = dtw_medoid_assignment(
            series, medoids, window=4, return_stats=True
        )
        brute = np.array(
            [[dtw_distance(s, m, window=4) for m in medoids] for s in series]
        )
        assert np.array_equal(assignments, np.argmin(brute, axis=1))
        assert np.array_equal(distances, brute.min(axis=1))
        assert stats.pairs_total == len(series) * len(medoids)
        assert stats.pruned + stats.abandoned + stats.full_dp == stats.pairs_total

    def test_tie_breaks_to_lowest_index_like_argmin(self):
        base = np.array([1.0, 2.0, 3.0])
        assignments, distances = dtw_medoid_assignment(
            [base], [base + 5.0, base + 5.0], window=1
        )
        assert assignments[0] == 0
        assert distances[0] == dtw_distance(base, base + 5.0, window=1)

    def test_empty_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            dtw_medoid_assignment([], [np.ones(3)])
        with pytest.raises(AnalysisError):
            dtw_medoid_assignment([np.ones(3)], [])
