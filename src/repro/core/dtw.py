"""Dynamic Time Warping, implemented from scratch, with an exact fast path.

The paper measures shape similarity between per-object request-count time
series with DTW (Section IV-B, citing Müller): a dynamic-programming
alignment that warps the time axes of two series to minimise the total
point-wise cost.  We implement the classic O(N·M) recurrence with an
optional Sakoe–Chiba band constraint (limiting warp to ±``window`` steps),
which both speeds up the computation and prevents pathological alignments
between day-scale patterns.

The product the trend clustering needs is the exact pairwise matrix
(:func:`pairwise_dtw`), built on three pieces:

* **Lower bounds** — :func:`lb_kim` (O(1), endpoint cost) and
  :func:`lb_keogh` (O(L), Sakoe–Chiba envelope deviation).  Both are proven
  lower bounds of the true DTW distance and satisfy
  ``lb_kim <= lb_keogh <= dtw_distance`` by construction (``lb_keogh``
  includes the exact endpoint terms of ``lb_kim``).  The matrix uses them
  as *zero certificates*: pairs whose distance is provably exactly ``0.0``
  skip the DP.
* **Batched kernel** — the remaining pairs of equal-length series run the
  DP vectorised across the *pair* axis (the time recurrence stays
  sequential); every cell applies exactly the same IEEE operations as the
  scalar kernel, so results are bit-identical to per-pair
  :func:`dtw_distance` calls.
* **Compiled tier** (:mod:`repro.core.dtw_backends`) — a cc-compiled
  scalar DP kernel, selected by the ``REPRO_DTW_KERNEL`` environment
  variable and falling back to the numpy/scalar kernels when no compiler
  is available.  All tiers apply the same IEEE-754 operations in the same
  order, so distances stay bit-identical across tiers.

:class:`DtwStats` counts how each pair was resolved (certified by which
bound, or full DP) and which kernel tier ran, so benchmark timings are
attributable.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.dtw_backends import KERNEL_ENV, kernel_name, resolve_kernel
from repro.errors import AnalysisError

__all__ = [
    "DtwStats",
    "KERNEL_ENV",
    "dtw_distance",
    "dtw_path",
    "kernel_name",
    "lb_kim",
    "lb_keogh",
    "pairwise_dtw",
]

_CHUNK_PAIRS = 4096  # pairs per batched-DP chunk (bounds kernel scratch memory)

# With finite inputs and a band of at least |n - m| every DP ends finite
# unless a sum of absolute differences exceeds the float64 range.
_OVERFLOW = "DTW distance overflows float64 (series values too large)"


# ---------------------------------------------------------------------------
# Instrumentation


@dataclass
class DtwStats:
    """How the pairs of a DTW computation were resolved.

    ``pruned_lb_kim``/``pruned_lb_keogh`` count pairs the zero-certificate
    cascade of :func:`pairwise_dtw` resolved without running the DP (the
    prune fires only when the distance is provably exactly ``0.0``);
    ``full_dp`` counts DPs that ran.  ``abandoned`` is always 0: the exact
    matrix never abandons a DP, and the field stays because benchmark
    tooling reports ``pruned + abandoned`` as the pairs that avoided a full
    DP.  ``kernel`` names the tier that ran the DPs (``"c"`` or
    ``"numpy"`` — see :mod:`repro.core.dtw_backends`), so timings are
    attributable per tier.
    """

    pairs_total: int = 0
    pruned_lb_kim: int = 0
    pruned_lb_keogh: int = 0
    abandoned: int = 0
    full_dp: int = 0
    wall_seconds: float = 0.0
    kernel: str = "numpy"

    @property
    def pruned(self) -> int:
        """Pairs resolved by a lower bound alone (no DP recurrence at all)."""
        return self.pruned_lb_kim + self.pruned_lb_keogh

    @property
    def pruned_fraction(self) -> float:
        """Fraction of pairs that avoided a complete DP (pruned or abandoned)."""
        if self.pairs_total == 0:
            return 0.0
        return (self.pruned + self.abandoned) / self.pairs_total

    def merge(self, other: "DtwStats") -> None:
        self.pairs_total += other.pairs_total
        self.pruned_lb_kim += other.pruned_lb_kim
        self.pruned_lb_keogh += other.pruned_lb_keogh
        self.abandoned += other.abandoned
        self.full_dp += other.full_dp
        self.wall_seconds += other.wall_seconds
        if self.kernel == "numpy" and other.kernel != "numpy":
            self.kernel = other.kernel

    def as_dict(self) -> dict[str, float]:
        return {
            "pairs_total": self.pairs_total,
            "pruned_lb_kim": self.pruned_lb_kim,
            "pruned_lb_keogh": self.pruned_lb_keogh,
            "abandoned": self.abandoned,
            "full_dp": self.full_dp,
            "pruned_fraction": self.pruned_fraction,
            "wall_seconds": self.wall_seconds,
            "kernel": self.kernel,
        }

    def __str__(self) -> str:
        return (
            f"pairs={self.pairs_total} pruned(kim={self.pruned_lb_kim}, "
            f"keogh={self.pruned_lb_keogh}) "
            f"abandoned={self.abandoned} full-dp={self.full_dp} "
            f"[{self.pruned_fraction:.1%} avoided full DP, "
            f"{self.wall_seconds:.3f}s, kernel={self.kernel}]"
        )


# ---------------------------------------------------------------------------
# Validation shared by every entry point


def _as_series(values: Sequence[float] | np.ndarray) -> np.ndarray:
    series = np.asarray(values, dtype=float)
    if series.ndim != 1:
        raise AnalysisError("DTW operates on one-dimensional series")
    if series.size == 0:
        raise AnalysisError("DTW requires non-empty series")
    if not np.isfinite(series).all():
        raise AnalysisError("DTW requires finite series values (got NaN or inf)")
    return series


def _validate_pair(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    return _as_series(series_a), _as_series(series_b)


def _effective_band(n: int, m: int, window: int | None) -> int:
    """Sakoe–Chiba half-width actually used by the DP.

    ``None`` means unconstrained; otherwise the band is widened to at least
    ``|n - m|`` so an alignment always exists.
    """
    if window is None:
        return max(n, m)
    if window < 0:
        raise AnalysisError(f"window must be non-negative, got {window}")
    return max(window, abs(n - m))


# ---------------------------------------------------------------------------
# Scalar reference kernel


def _dtw_band_scalar(a_list: list[float], b_list: list[float], band: int) -> float:
    """Banded DP over two pre-converted Python lists.

    Plain Python lists beat numpy here: the recurrence is inherently
    sequential in j, and scalar indexing into ndarrays costs several times
    more than list indexing.  ``band`` must be at least ``|n - m|`` (see
    :func:`_effective_band`), so every row has a reachable cell.
    """
    n, m = len(a_list), len(b_list)
    inf = math.inf
    previous = [inf] * (m + 1)
    previous[0] = 0.0
    current = [inf] * (m + 1)
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        ai = a_list[i - 1]
        current[j_low - 1] = inf
        left = inf  # current[j - 1]
        prev_diag = previous[j_low - 1]  # previous[j - 1]
        for j in range(j_low, j_high + 1):
            prev_here = previous[j]
            best = prev_here
            if prev_diag < best:
                best = prev_diag
            if left < best:
                best = left
            diff = ai - b_list[j - 1]
            left = (diff if diff >= 0 else -diff) + best
            current[j] = left
            prev_diag = prev_here
        if j_high < m:
            current[j_high + 1] = inf
        previous, current = current, previous
    return previous[m]


def dtw_distance(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
    window: int | None = None,
) -> float:
    """DTW distance between two series under absolute point-wise cost.

    Parameters
    ----------
    series_a, series_b:
        The two time series (need not have equal length; values must be
        finite).
    window:
        Sakoe–Chiba band half-width; ``None`` means unconstrained.  The
        band is automatically widened to at least ``|N - M|`` so an
        alignment always exists.

    Returns
    -------
    float
        Total cost of the optimal warping path (the paper's "DTW
        distance").

    Notes
    -----
    Cost between aligned points is ``|a_i - b_j|``; the total cost of a
    path is the sum along it — the "area between the time-warped series"
    the paper describes.  Identity: ``dtw(x, x) == 0``.  Symmetry holds
    because the cost is symmetric.
    """
    a, b = _validate_pair(series_a, series_b)
    band = _effective_band(a.size, b.size, window)
    kernel = resolve_kernel()
    if kernel is not None:
        result = kernel.pair(a, b, band)
    else:
        result = _dtw_band_scalar(a.tolist(), b.tolist(), band)
    if not math.isfinite(result):
        raise AnalysisError(_OVERFLOW)
    return float(result)


def dtw_path(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
    window: int | None = None,
) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance plus the optimal warping path (index pairs).

    The path starts at ``(0, 0)`` and ends at ``(N-1, M-1)``, moving by
    steps of (1,0), (0,1) or (1,1) — the standard step pattern.
    """
    a, b = _validate_pair(series_a, series_b)
    n, m = a.size, b.size
    band = _effective_band(n, m, window)
    inf = math.inf
    dp = np.full((n + 1, m + 1), inf)
    dp[0, 0] = 0.0
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        for j in range(j_low, j_high + 1):
            cost = abs(a[i - 1] - b[j - 1])
            dp[i, j] = cost + min(dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1])
    if not math.isfinite(dp[n, m]):
        raise AnalysisError(_OVERFLOW)
    path: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        step = int(np.argmin((dp[i - 1, j - 1], dp[i - 1, j], dp[i, j - 1])))
        if step == 0:
            i, j = i - 1, j - 1
        elif step == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return float(dp[n, m]), path


# ---------------------------------------------------------------------------
# Lower bounds


def lb_kim(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
) -> float:
    """O(1) endpoint lower bound on the DTW distance.

    Every warping path aligns ``(a_0, b_0)`` and ``(a_N-1, b_M-1)``; those
    two cells are distinct unless both series are single points, so their
    costs sum to a lower bound of any path cost (the simplified first/last
    variant of Kim et al.'s bound, valid for any band width).
    """
    a, b = _validate_pair(series_a, series_b)
    if a.size == 1 and b.size == 1:
        return float(abs(a[0] - b[0]))
    return float(abs(a[0] - b[0]) + abs(a[-1] - b[-1]))


def _envelope(values: np.ndarray, band: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Sakoe–Chiba envelope of ``values`` sampled at ``length`` positions.

    ``lower[i]``/``upper[i]`` are the min/max of ``values`` over indices
    ``[i - band, i + band]`` (clipped), computed with a vectorised sliding
    window.  ``length`` may differ from ``values.size`` when the two series
    have different lengths.
    """
    m = values.size
    if band >= max(m, length):
        low = np.full(length, values.min())
        high = np.full(length, values.max())
        return low, high
    width = 2 * band + 1
    padded_high = np.full(length + 2 * band, -np.inf)
    padded_high[band : band + m] = values
    padded_low = np.full(length + 2 * band, np.inf)
    padded_low[band : band + m] = values
    windows_high = np.lib.stride_tricks.sliding_window_view(padded_high, width)
    windows_low = np.lib.stride_tricks.sliding_window_view(padded_low, width)
    return windows_low[:length].min(axis=1), windows_high[:length].max(axis=1)


def lb_keogh(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
    window: int | None = None,
) -> float:
    """O(L) envelope lower bound on the banded DTW distance (one-sided).

    Each interior ``a_i`` must align with some ``b_j`` inside the band, so
    its cost is at least its deviation from the band-limited min/max
    envelope of ``b``; the endpoints contribute their exact :func:`lb_kim`
    costs (rows are disjoint, so the contributions sum).  By construction
    ``lb_kim(a, b) <= lb_keogh(a, b, w) <= dtw_distance(a, b, w)`` for any
    window, including the unconstrained ``None``.  For a symmetric bound
    take ``max(lb_keogh(a, b, w), lb_keogh(b, a, w))``.
    """
    a, b = _validate_pair(series_a, series_b)
    n, m = a.size, b.size
    band = _effective_band(n, m, window)
    if n == 1 and m == 1:
        return float(abs(a[0] - b[0]))
    endpoint = abs(a[0] - b[0]) + abs(a[-1] - b[-1])
    if n <= 2:
        return float(endpoint)
    lower, upper = _envelope(b, band, n)
    interior = slice(1, n - 1)
    above = np.maximum(a[interior] - upper[interior], 0.0)
    below = np.maximum(lower[interior] - a[interior], 0.0)
    return float(endpoint + (above + below).sum())


# ---------------------------------------------------------------------------
# Exact-zero certificate (lossless pruning for the pairwise matrix)


def _nonzero_profile(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    idx = np.flatnonzero(values)
    return idx, values[idx]


def _zero_alignment(
    a: np.ndarray,
    b: np.ndarray,
    band: int,
    profile_a: tuple[np.ndarray, np.ndarray] | None = None,
    profile_b: tuple[np.ndarray, np.ndarray] | None = None,
) -> bool:
    """True only if a zero-cost warping path provably exists inside the band.

    Sufficient (not necessary) certificate: the sequences of nonzero values
    of both series match element-wise, each matched pair sits within the
    band, consecutive matches leave a traversable all-zero region between
    them (a monotone path cannot step off a matched cell without pairing
    its nonzero value against a zero unless it moves diagonally), and both
    endpoint cells cost zero.  When it holds the DP would accumulate
    exactly ``0.0`` along that path, so returning ``0.0`` without running
    the DP is bit-exact.
    """
    n, m = a.size, b.size
    if n == 1 and m == 1:
        return bool(a[0] == b[0])
    if a[0] != b[0] or a[-1] != b[-1]:
        return False
    idx_a, vals_a = profile_a if profile_a is not None else _nonzero_profile(a)
    idx_b, vals_b = profile_b if profile_b is not None else _nonzero_profile(b)
    if idx_a.size != idx_b.size:
        return False
    if idx_a.size == 0:
        return True  # both all-zero: the diagonal is free
    if not np.array_equal(vals_a, vals_b):
        return False
    if np.abs(idx_a - idx_b).max() > band:
        return False
    # Between consecutive matches the path must either step once diagonally
    # (both gaps exactly 1) or cross a non-degenerate all-zero region (both
    # gaps >= 2); a (1, >=2) gap forces a nonzero-vs-zero cell.
    gap_a = np.diff(idx_a)
    gap_b = np.diff(idx_b)
    if np.any((gap_a == 1) != (gap_b == 1)):
        return False
    # Leading/trailing zero regions (when present on one side they are
    # present on the other: a nonzero endpoint is matched at index 0 /
    # L-1 on both sides because the endpoint values are equal).
    return True


# ---------------------------------------------------------------------------
# Batched kernel


def _dtw_band_batch(stack_a: np.ndarray, stack_b: np.ndarray, band: int) -> np.ndarray:
    """Banded DP for P independent (a, b) pairs, vectorised across pairs.

    ``stack_a`` is (P, N), ``stack_b`` is (P, M).  Every cell applies the
    same IEEE-754 operations in the same order as the scalar kernel —
    ``abs(a_i - b_j) + min(up, diag, left)`` — so results are bit-identical
    to P scalar calls.
    """
    pairs, n = stack_a.shape
    m = stack_b.shape[1]
    inf = np.inf
    previous = np.full((pairs, m + 1), inf)
    previous[:, 0] = 0.0
    current = np.full((pairs, m + 1), inf)
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        # band >= |n - m| guarantees a non-empty row for every i.
        ai = stack_a[:, i - 1]
        current[:, j_low - 1] = inf
        left = np.full(pairs, inf)
        prev_diag = previous[:, j_low - 1]
        for j in range(j_low, j_high + 1):
            prev_here = previous[:, j]
            best = np.minimum(prev_here, prev_diag)
            np.minimum(best, left, out=best)
            left = np.abs(ai - stack_b[:, j - 1]) + best
            current[:, j] = left
            prev_diag = prev_here
        if j_high < m:
            current[:, j_high + 1] = inf
        previous, current = current, previous
    return previous[:, m]


# ---------------------------------------------------------------------------
# Pairwise matrix


def _dp_pairs_chunk(
    compiled,
    stacked: np.ndarray | None,
    arrays: list[np.ndarray],
    pair_rows: np.ndarray,
    pair_cols: np.ndarray,
    window: int | None,
) -> np.ndarray:
    """DTW distances for one chunk of (row, col) index pairs.

    ``compiled`` is the kernel from
    :func:`repro.core.dtw_backends.resolve_kernel`: when it is not
    ``None`` it runs the whole chunk in one foreign call over the
    concatenated series.  The numpy tier uses the batched kernel when all
    series share one length (``stacked`` given), otherwise the scalar
    kernel over pre-converted lists.
    """
    if compiled is not None:
        lengths = np.array([a.size for a in arrays], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
        # The C driver widens the band per pair to >= |n - m|.
        base_band = int(lengths.max()) if window is None else window
        out = np.empty(pair_rows.size)
        compiled.pairs(np.concatenate(arrays), offsets, lengths, pair_rows, pair_cols, base_band, out)
        return out
    if stacked is not None:
        band = _effective_band(stacked.shape[1], stacked.shape[1], window)
        return _dtw_band_batch(stacked[pair_rows], stacked[pair_cols], band)
    lists = {int(k): arrays[int(k)].tolist() for k in np.unique(np.concatenate([pair_rows, pair_cols]))}
    out = np.empty(pair_rows.size)
    for position, (i, j) in enumerate(zip(pair_rows.tolist(), pair_cols.tolist())):
        band = _effective_band(arrays[i].size, arrays[j].size, window)
        out[position] = _dtw_band_scalar(lists[i], lists[j], band)
    return out


def pairwise_dtw(
    series: Sequence[np.ndarray],
    window: int | None = 24,
    return_stats: bool = False,
    kernel: str | None = None,
) -> np.ndarray | tuple[np.ndarray, DtwStats]:
    """Symmetric pairwise DTW distance matrix over a list of series.

    This is the similarity matrix the paper feeds to agglomerative
    clustering.  ``window`` defaults to 24 (one day on an hourly grid) —
    shapes may shift by up to a day and still be considered similar.

    The matrix is **exact**: every entry equals what per-pair
    :func:`dtw_distance` calls would produce, bit for bit.  The fast path
    gets there three ways, all lossless:

    * series are converted to float arrays once (not once per pair);
    * the LB cascade certifies provably-zero pairs (``lb_kim == 0`` plus a
      bit-identical or zero-cost-alignable pair) without running the DP;
    * remaining pairs run through the compiled kernel, or the batched numpy
      kernel vectorised across pairs, in chunks of bounded size.

    ``kernel`` picks the tier (one of
    :data:`repro.core.dtw_backends.KERNEL_CHOICES`; ``None`` reads
    ``REPRO_DTW_KERNEL``).  With ``return_stats=True`` the matrix comes
    back with the :class:`DtwStats` describing how pairs were resolved.
    """
    count = len(series)
    if count == 0:
        raise AnalysisError("pairwise_dtw needs at least one series")
    start = time.perf_counter()
    arrays = [_as_series(s) for s in series]
    if window is not None and window < 0:
        raise AnalysisError(f"window must be non-negative, got {window}")

    compiled = resolve_kernel(kernel)
    stats = DtwStats(kernel=kernel_name(kernel))
    matrix = np.zeros((count, count))
    rows, cols = np.triu_indices(count, k=1)
    stats.pairs_total = rows.size
    if rows.size == 0:
        stats.wall_seconds = time.perf_counter() - start
        return (matrix, stats) if return_stats else matrix

    equal_length = len({a.size for a in arrays}) == 1
    stacked = np.stack(arrays) if equal_length else None

    # --- LB cascade: certify exact zeros without running the DP ----------
    heads = np.array([a[0] for a in arrays])
    tails = np.array([a[-1] for a in arrays])
    kim = np.abs(heads[rows] - heads[cols]) + np.abs(tails[rows] - tails[cols])
    distances = np.zeros(rows.size)
    needs_dp = np.ones(rows.size, dtype=bool)
    profiles = [_nonzero_profile(a) for a in arrays]

    # Envelopes depend only on one series (equal lengths share one band),
    # so cache them per index: sparse real traces put *many* pairs through
    # the kim == 0 candidate loop, and recomputing the envelope inside
    # every lb_keogh call used to dominate the whole matrix wall time.
    envelopes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _keogh_cached(i: int, j: int) -> float:
        a, b = arrays[i], arrays[j]
        if not equal_length or a.size <= 2:
            return lb_keogh(a, b, window)
        env = envelopes.get(j)
        if env is None:
            env = _envelope(b, _effective_band(b.size, b.size, window), a.size)
            envelopes[j] = env
        # Identical operations to lb_keogh, envelope reused.
        lower, upper = env
        endpoint = abs(a[0] - b[0]) + abs(a[-1] - b[-1])
        interior = slice(1, a.size - 1)
        above = np.maximum(a[interior] - upper[interior], 0.0)
        below = np.maximum(lower[interior] - a[interior], 0.0)
        return float(endpoint + (above + below).sum())

    for position in np.flatnonzero(kim == 0.0):
        i, j = int(rows[position]), int(cols[position])
        a, b = arrays[i], arrays[j]
        if a.size == b.size and np.array_equal(a, b):
            needs_dp[position] = False  # identical series: distance exactly 0
            stats.pruned_lb_kim += 1
            continue
        band = _effective_band(a.size, b.size, window)
        if (
            _keogh_cached(i, j) == 0.0
            and _keogh_cached(j, i) == 0.0
            and _zero_alignment(a, b, band, profiles[i], profiles[j])
        ):
            needs_dp[position] = False  # zero-cost path certified: exactly 0
            stats.pruned_lb_keogh += 1

    # --- Full DP for the rest, in chunks ---------------------------------
    dp_positions = np.flatnonzero(needs_dp)
    stats.full_dp = dp_positions.size
    for offset in range(0, dp_positions.size, _CHUNK_PAIRS):
        chunk = dp_positions[offset : offset + _CHUNK_PAIRS]
        distances[chunk] = _dp_pairs_chunk(
            compiled, stacked, arrays, rows[chunk], cols[chunk], window
        )
    if not np.isfinite(distances).all():
        raise AnalysisError(_OVERFLOW)

    matrix[rows, cols] = distances
    matrix[cols, rows] = distances
    stats.wall_seconds = time.perf_counter() - start
    if return_stats:
        return matrix, stats
    return matrix
