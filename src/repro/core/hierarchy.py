"""Agglomerative hierarchical clustering, implemented from scratch.

The paper clusters per-object request-count time series by feeding the
pairwise DTW distance matrix to agglomerative hierarchical clustering and
reading clusters off the dendrogram (Section IV-B, Fig. 8).  This module
implements the standard Lance–Williams scheme with single, complete and
average linkage, a :class:`Dendrogram` with flat-cluster extraction (by
cluster count or by distance threshold), and medoid computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError

_LINKAGES = ("single", "complete", "average")


@dataclass(frozen=True, slots=True)
class Merge:
    """One agglomeration step: clusters ``left`` and ``right`` join at
    ``distance`` into a new cluster of ``size`` leaves.

    Cluster ids follow the scipy convention: leaves are ``0..n-1``; the
    cluster formed by merge ``k`` gets id ``n + k``.
    """

    left: int
    right: int
    distance: float
    size: int


class Dendrogram:
    """The merge tree produced by agglomerative clustering."""

    def __init__(self, n_leaves: int, merges: list[Merge]):
        if n_leaves < 1:
            raise AnalysisError("dendrogram needs at least one leaf")
        if len(merges) != n_leaves - 1:
            raise AnalysisError(f"expected {n_leaves - 1} merges for {n_leaves} leaves, got {len(merges)}")
        self.n_leaves = n_leaves
        self.merges = merges

    def cut(self, n_clusters: int) -> np.ndarray:
        """Flat labels for exactly ``n_clusters`` clusters.

        Labels are 0-based, contiguous, and ordered by each cluster's
        smallest leaf index (deterministic across runs).
        """
        if not 1 <= n_clusters <= self.n_leaves:
            raise AnalysisError(f"n_clusters must be in [1, {self.n_leaves}], got {n_clusters}")
        # Apply merges until only n_clusters remain (merges are sorted by
        # construction: each step joins the currently closest pair).
        return self._labels_after(self.n_leaves - n_clusters)

    def cut_distance(self, threshold: float) -> np.ndarray:
        """Flat labels keeping only merges with distance <= ``threshold``."""
        steps = sum(1 for merge in self.merges if merge.distance <= threshold)
        return self._labels_after(steps)

    def _labels_after(self, steps: int) -> np.ndarray:
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while x in parent:
                x = parent[x]
            return x

        for k in range(steps):
            merge = self.merges[k]
            new_id = self.n_leaves + k
            parent[find(merge.left)] = new_id
            parent[find(merge.right)] = new_id
        roots: dict[int, int] = {}
        labels = np.empty(self.n_leaves, dtype=int)
        for leaf in range(self.n_leaves):
            root = find(leaf)
            if root not in roots:
                roots[root] = len(roots)
            labels[leaf] = roots[root]
        return labels

    def heights(self) -> np.ndarray:
        """Merge distances in order (non-decreasing for standard linkages)."""
        return np.array([merge.distance for merge in self.merges])

    def to_text(self, leaf_labels: list[str] | None = None, max_depth: int = 6) -> str:
        """ASCII rendering of the merge tree (coarsest ``max_depth`` levels)."""
        names: dict[int, str] = {}
        sizes: dict[int, int] = {}
        for leaf in range(self.n_leaves):
            names[leaf] = leaf_labels[leaf] if leaf_labels else f"leaf{leaf}"
            sizes[leaf] = 1
        for k, merge in enumerate(self.merges):
            cluster_id = self.n_leaves + k
            sizes[cluster_id] = merge.size
            names[cluster_id] = f"({merge.size})"
        lines: list[str] = []

        def walk(node: int, depth: int) -> None:
            indent = "  " * depth
            if node < self.n_leaves:
                lines.append(f"{indent}- {names[node]}")
                return
            merge = self.merges[node - self.n_leaves]
            lines.append(f"{indent}+ d={merge.distance:.3f} n={merge.size}")
            if depth + 1 < max_depth:
                walk(merge.left, depth + 1)
                walk(merge.right, depth + 1)
            else:
                lines.append(f"{indent}  ... ({merge.size} leaves)")

        if self.merges:
            walk(self.n_leaves + len(self.merges) - 1, 0)
        else:
            lines.append(f"- {names[0]}")
        return "\n".join(lines)


class AgglomerativeClustering:
    """Bottom-up clustering of a precomputed distance matrix.

    Parameters
    ----------
    linkage:
        ``"single"``, ``"complete"`` or ``"average"`` (the paper's
        agglomerative dendrograms use average linkage; all three are
        provided for ablations).
    """

    def __init__(self, linkage: str = "average"):
        if linkage not in _LINKAGES:
            raise AnalysisError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
        self.linkage = linkage

    def fit(self, distances: np.ndarray) -> Dendrogram:
        """Build the dendrogram for a finite, symmetric distance matrix."""
        matrix = np.asarray(distances, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise AnalysisError("distance matrix must be square")
        if not np.isfinite(matrix).all():
            raise AnalysisError("distance matrix must be finite (got NaN or inf)")
        if not np.allclose(matrix, matrix.T, atol=1e-9):
            raise AnalysisError("distance matrix must be symmetric")
        if np.any(np.diag(matrix) != 0):
            raise AnalysisError("distance matrix must have a zero diagonal")
        n = matrix.shape[0]
        if n == 1:
            return Dendrogram(1, [])

        # Working copy; active[i] marks live clusters, id_of maps matrix row
        # to dendrogram cluster id, size[i] is the cluster's leaf count.
        work = matrix.copy()
        np.fill_diagonal(work, np.inf)
        active = np.ones(n, dtype=bool)
        id_of = np.arange(n)
        size = np.ones(n, dtype=int)
        merges: list[Merge] = []

        for step in range(n - 1):
            masked = np.where(active[:, None] & active[None, :], work, np.inf)
            flat = int(np.argmin(masked))
            i, j = divmod(flat, n)
            if i > j:
                i, j = j, i
            distance = float(masked[i, j])
            merges.append(Merge(left=int(id_of[i]), right=int(id_of[j]), distance=distance, size=int(size[i] + size[j])))

            # Lance-Williams update into row/col i; deactivate j.
            di = work[i, :]
            dj = work[j, :]
            if self.linkage == "single":
                updated = np.minimum(di, dj)
            elif self.linkage == "complete":
                updated = np.maximum(di, dj)
            else:  # average (UPGMA)
                updated = (size[i] * di + size[j] * dj) / (size[i] + size[j])
            work[i, :] = updated
            work[:, i] = updated
            work[i, i] = np.inf
            active[j] = False
            size[i] = size[i] + size[j]
            id_of[i] = n + step
        return Dendrogram(n, merges)


def cluster_medoid(distances: np.ndarray, member_indices: np.ndarray) -> int:
    """Index (into the full matrix) of a cluster's medoid.

    The medoid is "the most centrally located point of a cluster" (paper
    Section IV-B, citing Kaufman & Rousseeuw): the member minimising the
    summed distance to all other members.
    """
    members = np.asarray(member_indices, dtype=int)
    if members.size == 0:
        raise AnalysisError("cannot take the medoid of an empty cluster")
    sub = distances[np.ix_(members, members)]
    return int(members[int(np.argmin(sub.sum(axis=1)))])
