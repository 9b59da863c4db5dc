"""Compiled kernel tier for the DTW fast path.

:mod:`repro.core.dtw` computes the same banded DP two ways, picked at
runtime:

1. **c** — a small C kernel compiled on first use with the system C
   compiler (``cc``/``gcc``/``clang``, no third-party packages needed) and
   loaded through :mod:`ctypes`.  The shared object is cached on disk keyed
   by a digest of the C source, so the compile happens once per machine
   and later processes reuse the cached build instead of recompiling.
2. **numpy** — no compiled kernel; :mod:`repro.core.dtw` falls back to its
   pure-numpy batched kernel and pure-Python scalar kernel.

Both tiers apply ``abs(a_i - b_j) + min(up, diag, left)`` in the same
order, so distances are **bit-identical** across tiers; the property tests
in ``tests/core/test_dtw_fastpath.py`` pin this down.

Selection is controlled by the ``REPRO_DTW_KERNEL`` environment variable:
``auto`` (default: c if the kernel builds and loads, else numpy), or a
forced ``c`` / ``numpy``.  Forcing ``c`` when it cannot be built raises
:class:`~repro.errors.ConfigError` — a forced choice should fail loudly,
while ``auto`` degrades silently.  ``REPRO_DTW_BUILD_DIR`` overrides where
the C tier caches its shared object (default: a per-user directory under
the system temp dir).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import uuid
from pathlib import Path

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "KERNEL_ENV",
    "BUILD_DIR_ENV",
    "KERNEL_CHOICES",
    "available_kernel_tiers",
    "kernel_name",
    "resolve_kernel",
]

#: Environment variable selecting the kernel tier.
KERNEL_ENV = "REPRO_DTW_KERNEL"

#: Environment variable overriding the C tier's build cache directory.
BUILD_DIR_ENV = "REPRO_DTW_BUILD_DIR"

#: Valid values of :data:`KERNEL_ENV`.
KERNEL_CHOICES = ("auto", "c", "numpy")

# The C kernel.  ``repro_dtw_one`` is the scalar banded DP;
# ``repro_dtw_pairs`` sweeps a chunk of (row, col) index pairs over a
# flattened series arena so one foreign call amortises the FFI overhead
# across thousands of DPs.  The inner loop mirrors the Python reference
# kernel operation for operation; no ``-ffast-math`` is ever passed, so
# results stay bit-identical.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

double repro_dtw_one(const double *a, int64_t n, const double *b, int64_t m,
                     int64_t band, double *prev, double *curr) {
    const double inf = INFINITY;
    for (int64_t j = 0; j <= m; j++) { prev[j] = inf; curr[j] = inf; }
    prev[0] = 0.0;
    for (int64_t i = 1; i <= n; i++) {
        int64_t j_low = i - band; if (j_low < 1) j_low = 1;
        int64_t j_high = i + band; if (j_high > m) j_high = m;
        double ai = a[i - 1];
        curr[j_low - 1] = inf;
        double left = inf;
        double prev_diag = prev[j_low - 1];
        for (int64_t j = j_low; j <= j_high; j++) {
            double prev_here = prev[j];
            double best = prev_here;
            if (prev_diag < best) best = prev_diag;
            if (left < best) best = left;
            double diff = ai - b[j - 1];
            if (diff < 0.0) diff = -diff;
            left = diff + best;
            curr[j] = left;
            prev_diag = prev_here;
        }
        if (j_high < m) curr[j_high + 1] = inf;
        double *tmp = prev; prev = curr; curr = tmp;
    }
    return prev[m];
}

void repro_dtw_pairs(const double *arena, const int64_t *offsets,
                     const int64_t *lengths, const int64_t *rows,
                     const int64_t *cols, int64_t npairs, int64_t band,
                     double *out, double *scratch, int64_t scratch_stride) {
    double *prev = scratch;
    double *curr = scratch + scratch_stride;
    for (int64_t p = 0; p < npairs; p++) {
        int64_t i = rows[p], j = cols[p];
        int64_t n = lengths[i], m = lengths[j];
        int64_t eff = band;
        int64_t diff = n - m; if (diff < 0) diff = -diff;
        if (eff < diff) eff = diff;
        out[p] = repro_dtw_one(arena + offsets[i], n, arena + offsets[j], m,
                               eff, prev, curr);
    }
}
"""


def _as_flat_f64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64)


def _as_flat_i64(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


class CKernel:
    """ctypes wrapper around the cc-compiled shared object."""

    name = "c"

    def __init__(self, library: ctypes.CDLL):
        self._one = library.repro_dtw_one
        self._one.restype = ctypes.c_double
        self._one.argtypes = [
            ctypes.POINTER(ctypes.c_double), ctypes.c_int64,
            ctypes.POINTER(ctypes.c_double), ctypes.c_int64,
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_double),
        ]
        self._pairs = library.repro_dtw_pairs
        self._pairs.restype = None
        self._pairs.argtypes = [
            ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int64), ctypes.c_int64, ctypes.c_int64,
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double), ctypes.c_int64,
        ]

    @staticmethod
    def _dptr(array: np.ndarray) -> "ctypes.pointer":
        return array.ctypes.data_as(ctypes.POINTER(ctypes.c_double))

    @staticmethod
    def _iptr(array: np.ndarray) -> "ctypes.pointer":
        return array.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))

    def pair(self, a: np.ndarray, b: np.ndarray, band: int) -> float:
        a = _as_flat_f64(a)
        b = _as_flat_f64(b)
        scratch = np.empty(2 * (b.size + 1), dtype=np.float64)
        return float(
            self._one(
                self._dptr(a), a.size, self._dptr(b), b.size, int(band),
                self._dptr(scratch), self._dptr(scratch[b.size + 1 :]),
            )
        )

    def pairs(
        self,
        arena: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        band: int,
        out: np.ndarray,
    ) -> None:
        arena = _as_flat_f64(arena)
        offsets = _as_flat_i64(offsets)
        lengths = _as_flat_i64(lengths)
        rows = _as_flat_i64(rows)
        cols = _as_flat_i64(cols)
        stride = int(lengths.max()) + 1
        scratch = np.empty(2 * stride, dtype=np.float64)
        self._pairs(
            self._dptr(arena), self._iptr(offsets), self._iptr(lengths),
            self._iptr(rows), self._iptr(cols), rows.size, int(band),
            self._dptr(out), self._dptr(scratch), stride,
        )


def _build_cache_dir() -> Path:
    override = os.environ.get(BUILD_DIR_ENV, "").strip()
    if override:
        return Path(override)
    try:
        tag = f"repro-dtw-{os.getuid()}"
    except AttributeError:  # pragma: no cover - non-POSIX
        tag = "repro-dtw"
    return Path(tempfile.gettempdir()) / tag


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC", ""), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


@functools.lru_cache(maxsize=None)
def _build_c_kernel(verbose_errors: bool = False) -> CKernel | None:
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = _build_cache_dir()
    library_path = cache_dir / f"libreprodtw-{digest}.so"
    if not library_path.exists():
        compiler = _find_compiler()
        if compiler is None:
            if verbose_errors:
                raise ConfigError("no C compiler found (tried $CC, cc, gcc, clang)")
            return None
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            source_path = cache_dir / f"reprodtw-{digest}.c"
            source_path.write_text(_C_SOURCE)
            # Build into a unique name, then atomically publish: concurrent
            # processes (e.g. parallel test or benchmark runs) race benignly.
            staging = cache_dir / f".build-{uuid.uuid4().hex}.so"
            subprocess.run(
                [compiler, "-O3", "-fPIC", "-shared", "-o", str(staging), str(source_path)],
                check=True,
                capture_output=True,
                text=True,
            )
            os.replace(staging, library_path)
        except (OSError, subprocess.CalledProcessError) as exc:
            if verbose_errors:
                detail = getattr(exc, "stderr", "") or str(exc)
                raise ConfigError(f"C DTW kernel build failed: {detail}") from exc
            return None
    try:
        return CKernel(ctypes.CDLL(str(library_path)))
    except OSError as exc:
        if verbose_errors:
            raise ConfigError(f"C DTW kernel load failed: {exc}") from exc
        return None


@functools.lru_cache(maxsize=None)
def _resolve(choice: str):
    if choice not in KERNEL_CHOICES:
        raise ConfigError(
            f"{KERNEL_ENV} must be one of {KERNEL_CHOICES}, got {choice!r}"
        )
    if choice == "numpy":
        return None
    if choice == "c":
        return _build_c_kernel(verbose_errors=True)
    # auto: the C kernel when it builds and loads, else numpy, silently.
    return _build_c_kernel()


def resolve_kernel(choice: str | None = None):
    """The active compiled kernel, or ``None`` for the numpy tier.

    ``choice`` overrides the environment selection (one of
    :data:`KERNEL_CHOICES`); with ``None`` the :data:`KERNEL_ENV` variable
    is read on every call (so tests can flip tiers with a
    ``monkeypatch.setenv``).  Resolution per choice is cached, including
    the one-off C compile.
    """
    if choice is None:
        choice = os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
    return _resolve(choice)


def kernel_name(choice: str | None = None) -> str:
    """Name of the active tier: ``"c"`` or ``"numpy"``."""
    kernel = resolve_kernel(choice)
    return kernel.name if kernel is not None else "numpy"


def available_kernel_tiers() -> tuple[str, ...]:
    """All tiers usable on this machine (always ends with ``"numpy"``)."""
    tiers: list[str] = []
    if _build_c_kernel() is not None:
        tiers.append("c")
    tiers.append("numpy")
    return tuple(tiers)
