"""Turn transport plans into cluster assignments and score them.

A relaxed plan concentrates each row's mass on a few columns. Reading the
row argmax as "point i is served by point j" converts the plan into a
clustering whose representatives are the surviving columns. Scoring against
ground-truth labels uses the adjusted Rand index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TransportPlan

__all__ = ["ClusteringResult", "extract_clusters", "adjusted_rand_index"]


# Entries within this much of their row's maximum tie with it.
_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ClusteringResult:
    """Assignment of every point to a representative column.

    `representatives` is exactly the image of `assignment`; a point whose
    strongest column is itself forms a singleton cluster. Rows carrying no
    mass at all are assigned to themselves and listed in `zero_mass_rows`.
    """

    assignment: np.ndarray
    zero_mass_rows: tuple[int, ...] = ()

    def __post_init__(self):
        labels = np.asarray(self.assignment, dtype=int).copy()
        labels.setflags(write=False)
        object.__setattr__(self, "assignment", labels)

    @property
    def representatives(self) -> frozenset[int]:
        return frozenset(int(j) for j in np.unique(self.assignment))

    @property
    def cluster_count(self) -> int:
        return len(self.representatives)


def extract_clusters(plan: TransportPlan) -> ClusteringResult:
    """Assign each point to its row's strongest column.

    Ties within _TIE_TOLERANCE of the row maximum go to the lowest column
    index, which keeps the result independent of solver pivoting order.
    """
    entries = plan.entries
    n, m = entries.shape
    if n != m:
        raise ValueError(f"clustering needs a square plan, got {n}x{m}")
    top = entries.max(axis=1)
    assignment = np.argmax(entries >= top[:, None] - _TIE_TOLERANCE, axis=1)
    zero_rows = np.flatnonzero(top <= 0.0)
    assignment[zero_rows] = zero_rows
    return ClusteringResult(assignment, tuple(int(i) for i in zero_rows))


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement between two labelings of the same points.

    Uses the pair-counting contingency formula. Returns 1.0 when both
    partitions are trivial in the same way (the correction denominator
    vanishes there).
    """
    first = np.asarray(a).reshape(-1)
    second = np.asarray(b).reshape(-1)
    if first.shape != second.shape:
        raise ValueError(
            f"labelings have different lengths: {first.size} vs {second.size}"
        )
    n = first.size
    if n == 0:
        return 1.0
    _, codes_a = np.unique(first, return_inverse=True)
    _, codes_b = np.unique(second, return_inverse=True)
    ka = int(codes_a.max()) + 1
    kb = int(codes_b.max()) + 1
    contingency = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(contingency, (codes_a, codes_b), 1)

    def pairs(counts):
        c = counts.astype(np.int64)
        return float((c * (c - 1) // 2).sum())

    observed = pairs(contingency.reshape(-1))
    row_pairs = pairs(contingency.sum(axis=1))
    col_pairs = pairs(contingency.sum(axis=0))
    total_pairs = n * (n - 1) / 2
    expected = row_pairs * col_pairs / total_pairs if total_pairs else 0.0
    top = observed - expected
    bottom = (row_pairs + col_pairs) / 2 - expected
    if bottom == 0.0:
        return 1.0
    return top / bottom
