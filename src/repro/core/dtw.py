"""Dynamic Time Warping, implemented from scratch, with a UCR-style fast path.

The paper measures shape similarity between per-object request-count time
series with DTW (Section IV-B, citing Müller): a dynamic-programming
alignment that warps the time axes of two series to minimise the total
point-wise cost.  We implement the classic O(N·M) recurrence with an
optional Sakoe–Chiba band constraint (limiting warp to ±``window`` steps),
which both speeds up the computation and prevents pathological alignments
between day-scale patterns.

On top of the reference scalar kernel this module layers the fast path the
UCR suite (Keogh et al.) popularised:

* **Lower bounds** — :func:`lb_kim` (O(1), endpoint cost) and
  :func:`lb_keogh` (O(L), Sakoe–Chiba envelope deviation).  Both are proven
  lower bounds of the true DTW distance and satisfy
  ``lb_kim <= lb_keogh <= dtw_distance`` by construction (``lb_keogh``
  includes the exact endpoint terms of ``lb_kim``).
* **Early abandonment** — ``dtw_distance(..., abandon_above=t)`` bails out
  of the DP as soon as every reachable cell of the current row exceeds
  ``t`` (row minima are non-decreasing, so no cheaper completion exists)
  and returns ``inf``.
* **Batched kernel** — :func:`dtw_distance_batch` sweeps one query against
  a stack of equal-length series with the DP vectorised across the *batch*
  axis (the time recurrence stays sequential); every cell applies exactly
  the same IEEE operations as the scalar kernel, so results are
  bit-identical to per-pair :func:`dtw_distance` calls.
* **Exact pairwise matrix** — :func:`pairwise_dtw` routes the upper
  triangle through an LB-certificate cascade (pairs whose distance is
  *provably* exactly ``0.0`` skip the DP; everything else runs the batched
  kernel), optionally fanned out over a ``ProcessPoolExecutor``.  Pruning
  is lossless: serial, parallel, and the reference per-pair loop all
  produce bit-identical matrices.
* **Nearest-neighbour cascade** — :func:`dtw_nearest_neighbor` orders
  candidates by lower bound ("nearest first") and threads the best-so-far
  distance through the cascade as the abandon threshold, the UCR search
  loop proper.

On top of the PR-1 numpy tier this module layers the compiled tier
(:mod:`repro.core.dtw_backends`): a cc-compiled scalar DP kernel with
in-loop early abandonment, selected by the ``REPRO_DTW_KERNEL``
environment variable and falling back to the numpy/batched kernels when no
compiler is available.  All tiers apply the same IEEE-754 operations in
the same order, so distances stay bit-identical across tiers.  Two further
pruning layers ride along:

* :func:`lb_improved` — Lemire's two-pass bound, sandwiched between
  ``lb_keogh`` and the full DP
  (``lb_kim <= lb_keogh <= lb_improved <= dtw_distance``);
* **threshold seeding** — ``pairwise_dtw(abandon_beyond_k=k)`` derives
  per-pair abandon thresholds from the running row structure (each row's
  k-th-smallest distance so far), so the exact-matrix path early-abandons
  pairs that provably cannot enter either row's k nearest neighbours; and
  :func:`dtw_medoid_assignment` assigns series to their nearest medoid
  with best-so-far thresholds, provably reproducing the brute-force
  assignment.

:class:`DtwStats` counts how each pair was resolved (pruned by which
bound, abandoned, or full DP) and which kernel tier ran, so benchmark
speedups are attributable.
"""

from __future__ import annotations

import math
import os
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
    "dtw_distance_batch",
    "dtw_medoid_assignment",
    "dtw_nearest_neighbor",
    "dtw_path",
    "kernel_name",
    "lb_improved",
    "lb_kim",
    "lb_keogh",
    "pairwise_dtw",
]

#: Environment variable read by :func:`pairwise_dtw` for the default number
#: of worker processes when ``parallel=True`` and ``max_workers`` is None.
WORKERS_ENV = "REPRO_DTW_WORKERS"

_CHUNK_PAIRS = 4096  # pairs per batched-DP chunk (bounds memory and task size)
_SEED_CHUNK_PAIRS = 256  # smaller chunks when threshold seeding, so the
# per-row k-th-smallest thresholds tighten between chunks


# ---------------------------------------------------------------------------
# Instrumentation


@dataclass
class DtwStats:
    """How the pairs of a DTW computation were resolved.

    ``pruned_lb_kim``/``pruned_lb_keogh`` count pairs short-circuited by the
    lower-bound cascade without running the full DP; in exact-matrix mode
    (:func:`pairwise_dtw`) the bounds act as *zero certificates* (the prune
    fires only when the distance is provably exactly ``0.0``), while in
    thresholded mode (:func:`dtw_distance_batch` with ``abandon_above``,
    :func:`dtw_nearest_neighbor`) they discard pairs whose bound already
    exceeds the threshold.  ``abandoned`` counts DPs that early-abandoned
    mid-recurrence (including threshold-seeded abandons in
    :func:`pairwise_dtw`); ``full_dp`` counts DPs that ran to completion.
    ``kernel`` names the tier that ran the DPs (``"c"`` or ``"numpy"`` —
    see :mod:`repro.core.dtw_backends`), so speedups are attributable per
    tier.
    """

    pairs_total: int = 0
    pruned_lb_kim: int = 0
    pruned_lb_keogh: int = 0
    pruned_lb_improved: int = 0
    abandoned: int = 0
    full_dp: int = 0
    wall_seconds: float = 0.0
    kernel: str = "numpy"

    @property
    def pruned(self) -> int:
        """Pairs resolved by a lower bound alone (no DP recurrence at all)."""
        return self.pruned_lb_kim + self.pruned_lb_keogh + self.pruned_lb_improved

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
        self.pruned_lb_improved += other.pruned_lb_improved
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
            "pruned_lb_improved": self.pruned_lb_improved,
            "abandoned": self.abandoned,
            "full_dp": self.full_dp,
            "pruned_fraction": self.pruned_fraction,
            "wall_seconds": self.wall_seconds,
            "kernel": self.kernel,
        }

    def __str__(self) -> str:
        return (
            f"pairs={self.pairs_total} pruned(kim={self.pruned_lb_kim}, "
            f"keogh={self.pruned_lb_keogh}, improved={self.pruned_lb_improved}) "
            f"abandoned={self.abandoned} full-dp={self.full_dp} "
            f"[{self.pruned_fraction:.1%} avoided full DP, "
            f"{self.wall_seconds:.3f}s, kernel={self.kernel}]"
        )


# ---------------------------------------------------------------------------
# Validation shared by every entry point


def _validate_pair(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise AnalysisError("DTW operates on one-dimensional series")
    if a.size == 0 or b.size == 0:
        raise AnalysisError("DTW requires non-empty series")
    return a, b


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


def _dtw_band_scalar(
    a_list: list[float],
    b_list: list[float],
    band: int,
    abandon_above: float | None = None,
) -> float:
    """Banded DP over two pre-converted Python lists.

    Plain Python lists beat numpy here: the recurrence is inherently
    sequential in j, and scalar indexing into ndarrays costs several times
    more than list indexing.  Returns ``inf`` when ``abandon_above`` is set
    and every reachable cell of some row exceeds it (row minima never
    decrease, so neither can the final distance).
    """
    n, m = len(a_list), len(b_list)
    inf = math.inf
    previous = [inf] * (m + 1)
    previous[0] = 0.0
    current = [inf] * (m + 1)
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        if j_low > j_high:
            previous, current = current, [inf] * (m + 1)
            continue
        ai = a_list[i - 1]
        current[j_low - 1] = inf
        left = inf  # current[j - 1]
        prev_diag = previous[j_low - 1]  # previous[j - 1]
        row_min = inf
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
            if left < row_min:
                row_min = left
            prev_diag = prev_here
        if j_high < m:
            current[j_high + 1] = inf
        previous, current = current, previous
        if abandon_above is not None and row_min > abandon_above:
            return inf
    return previous[m]


def dtw_distance(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
    window: int | None = None,
    abandon_above: float | None = None,
) -> float:
    """DTW distance between two series under absolute point-wise cost.

    Parameters
    ----------
    series_a, series_b:
        The two time series (need not have equal length).
    window:
        Sakoe–Chiba band half-width; ``None`` means unconstrained.  The
        band is automatically widened to at least ``|N - M|`` so an
        alignment always exists.
    abandon_above:
        Optional early-abandon threshold.  When set, the DP stops as soon
        as every reachable cell of the current row exceeds it and returns
        ``inf`` — correct whenever the caller only cares about distances
        ``<= abandon_above`` (e.g. nearest-neighbour search).  ``None``
        (the default) computes the exact distance.

    Returns
    -------
    float
        Total cost of the optimal warping path (the paper's "DTW
        distance"), or ``inf`` when early-abandoned.

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
        result = kernel.pair(a, b, band, abandon_above)
    else:
        result = _dtw_band_scalar(a.tolist(), b.tolist(), band, abandon_above)
    if not math.isfinite(result):
        if abandon_above is not None:
            return math.inf
        raise AnalysisError("DTW band too narrow for the given series lengths")
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
        raise AnalysisError("DTW band too narrow for the given series lengths")
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


def lb_improved(
    series_a: Sequence[float] | np.ndarray,
    series_b: Sequence[float] | np.ndarray,
    window: int | None = None,
) -> float:
    """Lemire's two-pass lower bound, tighter than :func:`lb_keogh`.

    First pass: the deviation of ``a`` from ``b``'s band envelope (plain
    LB_Keogh).  Second pass: project ``a`` onto that envelope (``h_i =
    clip(a_i, lower_i, upper_i)``) and add the deviation of ``b`` from
    *h*'s envelope.  Each warping-path cell ``(i, j)`` has cost
    ``|a_i - b_j| = |a_i - h_i| + |h_i - b_j|`` exactly (``b_j`` lies
    inside the band envelope, ``h_i`` on its boundary), so the two passes
    never double-count and the sum is a valid lower bound (Lemire,
    "Faster retrieval with a two-pass dynamic-time-warping lower bound",
    2009).  The result is maxed with our endpoint-exact :func:`lb_keogh`,
    giving ``lb_kim <= lb_keogh <= lb_improved <= dtw_distance`` by
    construction.

    The two-pass refinement applies to equal-length series (the
    clustering case); for unequal lengths this degrades to
    :func:`lb_keogh`.
    """
    a, b = _validate_pair(series_a, series_b)
    base = lb_keogh(a, b, window)
    n, m = a.size, b.size
    if n != m or n <= 2:
        return base
    band = _effective_band(n, m, window)
    lower, upper = _envelope(b, band, n)
    first_pass = (np.maximum(a - upper, 0.0) + np.maximum(lower - a, 0.0)).sum()
    projected = np.clip(a, lower, upper)
    h_lower, h_upper = _envelope(projected, band, m)
    second_pass = (np.maximum(b - h_upper, 0.0) + np.maximum(h_lower - b, 0.0)).sum()
    return float(max(base, first_pass + second_pass))


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


def _dtw_band_batch(
    stack_a: np.ndarray,
    stack_b: np.ndarray,
    band: int,
    abandon_above: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Banded DP for P independent (a, b) pairs, vectorised across pairs.

    ``stack_a`` is (P, N), ``stack_b`` is (P, M).  Every cell applies the
    same IEEE-754 operations in the same order as the scalar kernel —
    ``abs(a_i - b_j) + min(up, diag, left)`` — so results are bit-identical
    to P scalar calls.  ``abandon_above`` (per-pair thresholds) enables
    early abandonment; abandoned pairs report ``inf``.  Returns the
    distances and the number of abandoned pairs.
    """
    pairs, n = stack_a.shape
    m = stack_b.shape[1]
    inf = np.inf
    out = np.full(pairs, inf)
    indices = np.arange(pairs)
    thresholds = abandon_above
    previous = np.full((pairs, m + 1), inf)
    previous[:, 0] = 0.0
    current = np.full((pairs, m + 1), inf)
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        # band >= |n - m| guarantees a non-empty row for every i.
        ai = stack_a[:, i - 1]
        current[:, j_low - 1] = inf
        left = np.full(stack_a.shape[0], inf)
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
        if thresholds is not None:
            row_min = previous[:, j_low : j_high + 1].min(axis=1)
            alive = row_min <= thresholds
            if not alive.all():
                indices = indices[alive]
                if indices.size == 0:
                    return out, pairs
                stack_a = stack_a[alive]
                stack_b = stack_b[alive]
                previous = previous[alive]
                current = current[alive]
                thresholds = thresholds[alive]
    out[indices] = previous[:, m]
    return out, pairs - indices.size


def _kernel_query_stack(
    kernel,
    q: np.ndarray,
    matrix: np.ndarray,
    band: int,
    thresholds: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Run a compiled kernel over one query versus a stack of series."""
    batch, m = matrix.shape
    arena = np.concatenate([q, np.ascontiguousarray(matrix).ravel()])
    lengths = np.full(batch + 1, m, dtype=np.int64)
    lengths[0] = q.size
    offsets = np.empty(batch + 1, dtype=np.int64)
    offsets[0] = 0
    offsets[1:] = q.size + np.arange(batch, dtype=np.int64) * m
    rows = np.zeros(batch, dtype=np.int64)
    cols = np.arange(1, batch + 1, dtype=np.int64)
    out = np.empty(batch)
    abandoned = kernel.pairs(arena, offsets, lengths, rows, cols, band, thresholds, out)
    return out, abandoned


def dtw_distance_batch(
    query: Sequence[float] | np.ndarray,
    stack: Sequence[Sequence[float] | np.ndarray] | np.ndarray,
    window: int | None = None,
    abandon_above: float | np.ndarray | None = None,
    stats: DtwStats | None = None,
) -> np.ndarray:
    """DTW distances from one query to a stack of equal-length series.

    The DP is vectorised across the batch axis (the time recurrence stays
    sequential), computing the exact same values as element-wise
    :func:`dtw_distance` calls — bit-identical, just one numpy sweep
    instead of B Python loops.

    ``abandon_above`` (scalar or per-series array) turns on the UCR
    cascade: series whose :func:`lb_kim`/:func:`lb_keogh` already exceeds
    the threshold skip the DP entirely, and surviving DPs early-abandon;
    either way those entries report ``inf``.  Pass a :class:`DtwStats` to
    collect pruning counters.
    """
    q = np.asarray(query, dtype=float)
    if q.ndim != 1:
        raise AnalysisError("DTW operates on one-dimensional series")
    if q.size == 0:
        raise AnalysisError("DTW requires non-empty series")
    try:
        matrix = np.asarray(stack, dtype=float)
    except ValueError as exc:
        raise AnalysisError("dtw_distance_batch requires equal-length stack series") from exc
    if matrix.ndim != 2:
        raise AnalysisError("stack must be a sequence of equal-length 1-D series")
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        raise AnalysisError("DTW requires non-empty series")
    batch, m = matrix.shape
    band = _effective_band(q.size, m, window)
    if stats is None:
        stats = DtwStats()
    stats.pairs_total += batch
    stats.kernel = kernel_name()
    kernel = resolve_kernel()
    start = time.perf_counter()

    if abandon_above is None:
        if kernel is not None:
            distances, _ = _kernel_query_stack(kernel, q, matrix, band, None)
        else:
            stack_q = np.broadcast_to(q, (batch, q.size))
            distances, _ = _dtw_band_batch(stack_q, matrix, band)
        stats.full_dp += batch
        stats.wall_seconds += time.perf_counter() - start
        return distances

    thresholds = np.broadcast_to(np.asarray(abandon_above, dtype=float), (batch,)).copy()
    distances = np.full(batch, np.inf)
    # LB_Kim: O(1) per series, vectorised.
    if q.size == 1 and m == 1:
        kim = np.abs(q[0] - matrix[:, 0])
    else:
        kim = np.abs(q[0] - matrix[:, 0]) + np.abs(q[-1] - matrix[:, -1])
    alive = kim <= thresholds
    stats.pruned_lb_kim += int(batch - alive.sum())
    # LB_Keogh (symmetric): query versus each stack envelope and vice versa.
    if alive.any() and q.size > 2:
        survivors = np.flatnonzero(alive)
        keogh = np.array(
            [max(lb_keogh(q, matrix[k], window), lb_keogh(matrix[k], q, window)) for k in survivors]
        )
        dead = keogh > thresholds[survivors]
        stats.pruned_lb_keogh += int(dead.sum())
        alive[survivors[dead]] = False
    # LB_Improved (two-pass, symmetric): only defined on equal lengths.
    if alive.any() and q.size == m and q.size > 2:
        survivors = np.flatnonzero(alive)
        improved = np.array(
            [
                max(lb_improved(q, matrix[k], window), lb_improved(matrix[k], q, window))
                for k in survivors
            ]
        )
        dead = improved > thresholds[survivors]
        stats.pruned_lb_improved += int(dead.sum())
        alive[survivors[dead]] = False
    survivors = np.flatnonzero(alive)
    if survivors.size:
        if kernel is not None:
            sub, abandoned = _kernel_query_stack(
                kernel, q, matrix[survivors], band, thresholds[survivors]
            )
        else:
            stack_q = np.broadcast_to(q, (survivors.size, q.size)).copy()
            sub, abandoned = _dtw_band_batch(stack_q, matrix[survivors], band, thresholds[survivors])
        distances[survivors] = sub
        stats.abandoned += abandoned
        stats.full_dp += survivors.size - abandoned
    stats.wall_seconds += time.perf_counter() - start
    return distances


# ---------------------------------------------------------------------------
# Nearest neighbour (the UCR search loop proper)


def dtw_nearest_neighbor(
    query: Sequence[float] | np.ndarray,
    candidates: Sequence[Sequence[float] | np.ndarray],
    window: int | None = None,
    return_stats: bool = False,
) -> tuple[int, float] | tuple[int, float, DtwStats]:
    """Index and DTW distance of the candidate nearest to ``query``.

    Candidates are visited in ascending :func:`lb_kim` order
    (nearest-first), each gated by the LB cascade (:func:`lb_kim`,
    :func:`lb_keogh`, then :func:`lb_improved`) against the best-so-far
    distance, and the surviving DPs early-abandon at that threshold — the
    classic UCR-suite search loop.  The returned distance is exact, and
    ties break deterministically towards the lowest candidate index
    (matching ``np.argmin`` over the brute-force distances).
    """
    if len(candidates) == 0:
        raise AnalysisError("dtw_nearest_neighbor needs at least one candidate")
    q = np.asarray(query, dtype=float)
    stats = DtwStats()
    stats.pairs_total = len(candidates)
    stats.kernel = kernel_name()
    start = time.perf_counter()
    arrays = [np.asarray(c, dtype=float) for c in candidates]
    kims = np.array([lb_kim(q, c) for c in arrays])
    order = np.argsort(kims, kind="stable")
    best_index, best = -1, math.inf
    for k in order:
        candidate = arrays[k]
        if kims[k] > best:
            stats.pruned_lb_kim += 1
            continue
        keogh = max(lb_keogh(q, candidate, window), lb_keogh(candidate, q, window))
        if keogh > best:
            stats.pruned_lb_keogh += 1
            continue
        if q.size == candidate.size and q.size > 2:
            improved = max(lb_improved(q, candidate, window), lb_improved(candidate, q, window))
            if improved > best:
                stats.pruned_lb_improved += 1
                continue
        distance = dtw_distance(q, candidate, window=window, abandon_above=best)
        if math.isinf(distance):
            stats.abandoned += 1
            continue
        stats.full_dp += 1
        if distance < best or best_index < 0 or (distance == best and k < best_index):
            best_index, best = int(k), distance
    stats.wall_seconds = time.perf_counter() - start
    if return_stats:
        return best_index, best, stats
    return best_index, best


def dtw_medoid_assignment(
    series: Sequence[Sequence[float] | np.ndarray],
    medoids: Sequence[Sequence[float] | np.ndarray],
    window: int | None = None,
    return_stats: bool = False,
) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, DtwStats]:
    """Assign every series to its nearest medoid (exact, threshold-seeded).

    The k-medoids assignment step of the paper's clustering pipeline: for
    each series, find the medoid with the smallest DTW distance.  Each
    series runs the full UCR cascade of :func:`dtw_nearest_neighbor` —
    medoids visited nearest-lower-bound-first, the running best seeding
    the abandon threshold — so most candidate DPs prune or abandon, yet
    the assignment (index and distance) is **provably identical** to brute
    force: a candidate is only discarded when its distance is proven
    strictly greater than the current best, and exact ties resolve to the
    lowest medoid index, matching ``np.argmin``.

    Returns ``(assignments, distances)`` (both length ``len(series)``),
    plus the merged :class:`DtwStats` when ``return_stats=True``.
    """
    if len(medoids) == 0:
        raise AnalysisError("dtw_medoid_assignment needs at least one medoid")
    if len(series) == 0:
        raise AnalysisError("dtw_medoid_assignment needs at least one series")
    stats = DtwStats()
    assignments = np.empty(len(series), dtype=int)
    distances = np.empty(len(series))
    for position, one in enumerate(series):
        index, distance, one_stats = dtw_nearest_neighbor(
            one, medoids, window=window, return_stats=True
        )
        stats.merge(one_stats)
        assignments[position] = index
        distances[position] = distance
    stats.kernel = kernel_name()
    if return_stats:
        return assignments, distances, stats
    return assignments, distances


# ---------------------------------------------------------------------------
# Pairwise matrix


def _resolve_workers(max_workers: int | None) -> int | None:
    if max_workers is not None:
        return max_workers
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        workers = int(env)
        if workers > 0:
            return workers
    return None


def _dp_pairs_chunk(
    stacked: np.ndarray | None,
    arrays: list[np.ndarray] | None,
    pair_rows: np.ndarray,
    pair_cols: np.ndarray,
    window: int | None,
    thresholds: np.ndarray | None = None,
    kernel_choice: str | None = None,
) -> tuple[np.ndarray, int]:
    """Module-level worker for ProcessPoolExecutor (must be picklable).

    Computes DTW for one chunk of (row, col) index pairs and returns the
    distances plus the number of early-abandoned pairs (``inf`` entries;
    always 0 when ``thresholds`` is None).  The compiled kernel runs the
    whole chunk in one foreign call when a tier is available
    (:func:`repro.core.dtw_backends.resolve_kernel` — workers re-resolve,
    so the selection env var propagates to subprocesses); the numpy tier
    uses the batched kernel when all series share one length (``stacked``
    given), otherwise the scalar kernel over pre-converted lists.
    """
    kernel = resolve_kernel(kernel_choice)
    if kernel is not None:
        if stacked is not None:
            count, m = stacked.shape
            arena = np.ascontiguousarray(stacked).ravel()
            lengths = np.full(count, m, dtype=np.int64)
            offsets = np.arange(count, dtype=np.int64) * m
            base_band = _effective_band(m, m, window)
        else:
            assert arrays is not None
            lengths = np.array([a.size for a in arrays], dtype=np.int64)
            offsets = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
            arena = np.concatenate(arrays)
            # The C driver widens the band per pair to >= |n - m|.
            base_band = int(lengths.max()) if window is None else window
        out = np.empty(pair_rows.size)
        abandoned = kernel.pairs(
            arena, offsets, lengths, pair_rows, pair_cols, base_band, thresholds, out
        )
        return out, abandoned
    if stacked is not None:
        band = _effective_band(stacked.shape[1], stacked.shape[1], window)
        return _dtw_band_batch(stacked[pair_rows], stacked[pair_cols], band, thresholds)
    assert arrays is not None
    lists = {int(k): arrays[int(k)].tolist() for k in np.unique(np.concatenate([pair_rows, pair_cols]))}
    out = np.empty(pair_rows.size)
    abandoned = 0
    for position, (i, j) in enumerate(zip(pair_rows.tolist(), pair_cols.tolist())):
        band = _effective_band(arrays[i].size, arrays[j].size, window)
        abandon = None
        if thresholds is not None and math.isfinite(thresholds[position]):
            abandon = float(thresholds[position])
        out[position] = _dtw_band_scalar(lists[i], lists[j], band, abandon)
        if math.isinf(out[position]):
            abandoned += 1
    return out, abandoned


def _seeded_dp(
    stacked: np.ndarray | None,
    arrays: list[np.ndarray] | None,
    rows: np.ndarray,
    cols: np.ndarray,
    dp_positions: np.ndarray,
    certified_positions: np.ndarray,
    window: int | None,
    k: int,
    distances: np.ndarray,
    stats: DtwStats,
    kernel_choice: str | None = None,
) -> None:
    """Threshold-seeded DP sweep for :func:`pairwise_dtw`.

    Processes pairs in small chunks; each pair's abandon threshold is
    ``max(kth_i, kth_j)`` where ``kth_x`` is row ``x``'s k-th-smallest
    distance computed so far (``inf`` until k distances are known).  A DP
    that proves its distance exceeds the threshold abandons and records
    the threshold — a certified lower bound — instead of the exact value.
    Losslessness of the row-wise k nearest neighbours: the running k-th
    smallest only shrinks towards the exact one, and abandonment requires
    the distance to *strictly* exceed it, so a pair belonging to either
    row's exact k-NN can never be abandoned.
    """
    import heapq

    count = int(max(rows.max(), cols.max())) + 1
    heaps: list[list[float]] = [[] for _ in range(count)]

    def kth_smallest(row: int) -> float:
        heap = heaps[row]
        return -heap[0] if len(heap) >= k else np.inf

    def record(row: int, value: float) -> None:
        heap = heaps[row]
        heapq.heappush(heap, -value)
        if len(heap) > k:
            heapq.heappop(heap)

    # Zero-certified pairs are exact distances too: let them tighten the
    # thresholds from the start.
    for position in certified_positions.tolist():
        record(int(rows[position]), float(distances[position]))
        record(int(cols[position]), float(distances[position]))

    for offset in range(0, dp_positions.size, _SEED_CHUNK_PAIRS):
        chunk = dp_positions[offset : offset + _SEED_CHUNK_PAIRS]
        chunk_rows = rows[chunk]
        chunk_cols = cols[chunk]
        thresholds = np.array(
            [
                max(kth_smallest(int(i)), kth_smallest(int(j)))
                for i, j in zip(chunk_rows.tolist(), chunk_cols.tolist())
            ]
        )
        sub, abandoned = _dp_pairs_chunk(
            stacked, arrays, chunk_rows, chunk_cols, window, thresholds, kernel_choice
        )
        stats.abandoned += abandoned
        stats.full_dp -= abandoned
        censored = np.isinf(sub)
        if censored.any():
            # The DP proved dtw > threshold strictly, so the next float up
            # is still a certified lower bound — and, unlike the threshold
            # itself, can never tie with a row's exact k-th-smallest entry
            # (which equals the threshold at the boundary).
            sub = np.where(censored, np.nextafter(thresholds, np.inf), sub)
        distances[chunk] = sub
        for position, (i, j) in enumerate(zip(chunk_rows.tolist(), chunk_cols.tolist())):
            if not censored[position]:
                record(int(i), float(sub[position]))
                record(int(j), float(sub[position]))


def pairwise_dtw(
    series: Sequence[np.ndarray],
    window: int | None = 24,
    parallel: bool = False,
    max_workers: int | None = None,
    order: str = "nearest-first",
    return_stats: bool = False,
    abandon_beyond_k: int | None = None,
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
    * remaining pairs run through the batched numpy kernel, vectorised
      across pairs, in chunks — serially or fanned out over a
      ``ProcessPoolExecutor`` (``parallel=True``; ``max_workers`` defaults
      to the ``REPRO_DTW_WORKERS`` environment variable when set).  Chunk
      scheduling never affects values, so serial and parallel matrices are
      bit-identical.

    ``order`` picks the chunk processing order: ``"nearest-first"``
    (default) sorts DP pairs by ascending :func:`lb_kim` so the cheapest
    alignments are computed first (the UCR visiting order — this is what
    seeds best-so-far thresholds in :func:`dtw_nearest_neighbor`-style
    searches; for the exact matrix it only changes scheduling, never
    values), ``"index"`` keeps upper-triangle order.  With
    ``return_stats=True`` the matrix comes back with the :class:`DtwStats`
    describing how pairs were resolved.

    ``abandon_beyond_k`` turns on **threshold seeding**: pairs are
    processed in chunks and each pair's abandon threshold is the larger of
    its two rows' running k-th-smallest distances, so a DP early-abandons
    as soon as it proves the pair cannot enter *either* row's k nearest
    neighbours.  The guarantee is row-wise k-NN exactness: for every row,
    the k smallest off-diagonal entries (positions and values) match the
    exact matrix bit for bit — in particular nearest-medoid assignments
    over any medoid subset drawn from a row's k nearest are unchanged.
    Abandoned entries store their certified lower bound (the threshold at
    abandon time, always >= the row's exact k-th-smallest distance) and
    count in ``stats.abandoned``.  Seeding is sequential by nature (the
    thresholds are running state), so it ignores ``parallel``.
    """
    count = len(series)
    if count == 0:
        raise AnalysisError("pairwise_dtw needs at least one series")
    if order not in ("nearest-first", "index"):
        raise AnalysisError(f"unknown order {order!r}; expected 'nearest-first' or 'index'")
    start = time.perf_counter()
    arrays = [np.asarray(s, dtype=float) for s in series]
    for array in arrays:
        if array.ndim != 1:
            raise AnalysisError("DTW operates on one-dimensional series")
        if array.size == 0:
            raise AnalysisError("DTW requires non-empty series")
    if window is not None and window < 0:
        raise AnalysisError(f"window must be non-negative, got {window}")
    if abandon_beyond_k is not None and abandon_beyond_k < 1:
        raise AnalysisError(f"abandon_beyond_k must be >= 1, got {abandon_beyond_k}")

    stats = DtwStats()
    stats.kernel = kernel_name(kernel)
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

    dp_positions = np.flatnonzero(needs_dp)
    stats.full_dp = dp_positions.size
    if order == "nearest-first" and dp_positions.size:
        dp_positions = dp_positions[np.argsort(kim[dp_positions], kind="stable")]

    # --- Full DP for the rest, batched in chunks -------------------------
    if dp_positions.size and abandon_beyond_k is not None:
        _seeded_dp(
            stacked,
            None if equal_length else arrays,
            rows,
            cols,
            dp_positions,
            np.flatnonzero(~needs_dp),
            window,
            abandon_beyond_k,
            distances,
            stats,
            kernel,
        )
    elif dp_positions.size:
        chunks = [
            dp_positions[offset : offset + _CHUNK_PAIRS]
            for offset in range(0, dp_positions.size, _CHUNK_PAIRS)
        ]
        workers = _resolve_workers(max_workers)
        if parallel and len(chunks) > 1:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(
                        _dp_pairs_chunk,
                        stacked,
                        None if equal_length else arrays,
                        rows[chunk],
                        cols[chunk],
                        window,
                        None,
                        kernel,
                    ): chunk
                    for chunk in chunks
                }
                for future in concurrent.futures.as_completed(futures):
                    distances[futures[future]], _ = future.result()
        else:
            for chunk in chunks:
                distances[chunk], _ = _dp_pairs_chunk(
                    stacked, None if equal_length else arrays, rows[chunk], cols[chunk], window,
                    None, kernel
                )

    matrix[rows, cols] = distances
    matrix[cols, rows] = distances
    stats.wall_seconds = time.perf_counter() - start
    if return_stats:
        return matrix, stats
    return matrix
