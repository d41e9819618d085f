"""Core types for discrete transport problems.

Weighted point sets, probability vectors, squared-Euclidean cost matrices and
transport plans, plus the small amount of shared arithmetic the solvers need:
the relaxations' input check and the linear transport cost.

All types validate on construction and freeze their arrays afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute feasibility tolerance applied per constraint; the one tolerance of
# every probability vector and transport plan.
DEFAULT_TOLERANCE = 1e-9

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points in R^d, optionally carrying integer labels."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("point cloud must be nonempty with dimension >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("points contain nonfinite values")
        object.__setattr__(self, "points", _frozen_array(pts))
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (pts.shape[0],):
                raise ValueError("labels must have one entry per point")
            object.__setattr__(self, "labels", _frozen_array(lab, dtype=int))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative weights summing to one.

    Entries dipping below zero by at most DEFAULT_TOLERANCE are clamped to
    zero. A total mass off from one by less than size * DEFAULT_TOLERANCE is
    renormalized; anything worse is rejected.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.isfinite(w).all():
            raise ValueError("weights contain nonfinite values")
        if (w < -DEFAULT_TOLERANCE).any():
            worst = float(w.min())
            raise ValueError(f"negative weight {worst} below tolerance {DEFAULT_TOLERANCE}")
        np.maximum(w, 0.0, out=w)
        total = float(w.sum())
        if abs(total - 1.0) > w.size * DEFAULT_TOLERANCE:
            raise ValueError(
                f"weights sum to {total}, not 1 within {w.size} * {DEFAULT_TOLERANCE}"
            )
        if total != 1.0:
            w /= total
        object.__setattr__(self, "weights", _frozen_array(w))

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityVector":
        if n < 1:
            raise ValueError("need at least one atom")
        return cls(np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.weights.size

    def norm2(self) -> float:
        return float(np.linalg.norm(self.weights))


@dataclass(frozen=True)
class CostMatrix:
    """Nonnegative pairwise transport costs.

    When built from a single cloud the matrix is square and symmetric with an
    exactly zero diagonal; `build_cost_matrix` guarantees this by computing
    squared differences directly rather than expanding the inner product.
    """

    entries: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.entries, dtype=float)
        if c.ndim != 2 or c.size == 0:
            raise ValueError("cost matrix must be a nonempty 2-d array")
        if not np.isfinite(c).all():
            raise ValueError("cost matrix contains nonfinite values")
        if (c < 0).any():
            raise ValueError("cost matrix has negative entries")
        object.__setattr__(self, "entries", _frozen_array(c))

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class TransportPlan:
    """A nonnegative coupling whose rows sum to a prescribed source.

    The column marginal is optional: relaxed solvers leave it free, exact
    transport pins it. Every row sum, column sum and entry sign is checked to
    DEFAULT_TOLERANCE; entries below zero by at most that are clamped.
    """

    entries: np.ndarray
    row_target: ProbabilityVector
    column_target: ProbabilityVector | None = None

    def __post_init__(self):
        p = np.asarray(self.entries, dtype=float).copy()
        if p.ndim != 2:
            raise ValueError("plan entries must be a 2-d array")
        n, m = p.shape
        if n != self.row_target.size:
            raise ValueError(f"plan has {n} rows but row target has {self.row_target.size}")
        if not np.isfinite(p).all():
            raise ValueError("plan contains nonfinite entries")
        if (p < -DEFAULT_TOLERANCE).any():
            raise ValueError(f"plan entry {float(p.min())} below -{DEFAULT_TOLERANCE}")
        row_err = np.abs(p.sum(axis=1) - self.row_target.weights).max()
        if row_err > DEFAULT_TOLERANCE:
            raise ValueError(f"row sums deviate from target by {float(row_err)}")
        if self.column_target is not None:
            if m != self.column_target.size:
                raise ValueError("column target size does not match plan width")
            col_err = np.abs(p.sum(axis=0) - self.column_target.weights).max()
            if col_err > DEFAULT_TOLERANCE:
                raise ValueError(f"column sums deviate from target by {float(col_err)}")
        np.maximum(p, 0.0, out=p)
        object.__setattr__(self, "entries", _frozen_array(p))

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class SolveReport:
    """Uniform solver telemetry.

    status is "optimal", or "max_iterations" for `son` alone. `note`
    carries warnings such as non-unique openings. duality_gap is objective
    minus a lower bound on the optimum, so the true optimum lies in
    [objective - duality_gap, objective]; `linf` leaves it None. The bound
    is, for `son`, the value of a feasible point of its dual (the gap is 0
    when the single-site plan is certified optimal); for `lp`, the last
    cutting-plane master's value; for exact transport, the value of the
    simplex dual, so that gap is rounding only. The ADMM residuals are in
    SonResult.residual_history.
    """

    objective: float
    iterations: int
    status: str
    note: str | None = None
    duality_gap: float | None = None


def build_cost_matrix(source: PointCloud, target: PointCloud | None = None) -> CostMatrix:
    """Squared Euclidean distances between two clouds.

    With target omitted, costs are taken within `source`; the diagonal is then
    exactly zero and the matrix exactly symmetric, because (a - b)**2 rounds
    identically to (b - a)**2.
    """
    if target is None:
        target = source
    if source.dimension != target.dimension:
        raise ValueError(
            f"dimension mismatch: {source.dimension} vs {target.dimension}"
        )
    diff = source.points[:, None, :] - target.points[None, :, :]
    return CostMatrix(np.einsum("ijk,ijk->ij", diff, diff))


def check_relaxation_inputs(cost: CostMatrix, p0: ProbabilityVector, penalty: float) -> None:
    """The input rule every relaxation shares: a square cost, a marginal of
    its size and a finite, nonnegative penalty; ValueError otherwise."""
    n, m = cost.shape
    if n != m:
        raise ValueError("cost matrix must be square for self-transport")
    if p0.size != n:
        raise ValueError("marginal size does not match the cost matrix")
    if not (np.isfinite(penalty) and penalty >= 0):
        raise ValueError("penalty must be finite and nonnegative")


def transport_cost(cost: CostMatrix, entries: np.ndarray) -> float:
    """Linear transport objective sum_ij cost_ij * plan_ij."""
    return float(np.sum(cost.entries * entries))
