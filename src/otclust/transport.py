"""Exact discrete optimal transport through the simplex solver.

Self-transport needs no simplex: when p1 equals p0 and every cost_ii * p0_i
is 0, diag(p0) costs 0 and, costs being nonnegative, the zero prices are
dual feasible, so that plan is optimal with a duality gap of 0.

Every other solve starts the simplex from the northwest-corner staircase. The
walk from cell (0, 0) to (n - 1, m - 1) visits exactly n + m - 1 cells,
which span every row and column as a tree; their columns are therefore a
nonsingular basis of the marginal program, and the greedy masses on them
are its basic solution. solve_lp raises an error on a start basis it
rejects; there is no phase 1 to fall back to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    STATUS_OPTIMAL,
    CostMatrix,
    PointCloud,
    ProbabilityVector,
    SolveReport,
    TransportPlan,
    build_cost_matrix,
)
from .lp import LinearProgram, solve_lp


@dataclass(frozen=True)
class TransportResult:
    plan: TransportPlan
    report: SolveReport


def transport_program(
    cost: CostMatrix, p0: ProbabilityVector, p1: ProbabilityVector
) -> LinearProgram:
    """Marginal-matching LP over row-major plan entries.

    The final column-sum row is omitted: with both marginals on the simplex
    it is implied by the others, and dropping it keeps the constraint matrix
    full rank.
    """
    n, m = cost.shape
    if p0.size != n or p1.size != m:
        raise ValueError("marginal sizes do not match the cost matrix")
    # cell (i, j) is column i * m + j, in row i and, for j < m - 1, row n + j
    width = np.full((n, m), 2, dtype=np.int64)
    width[:, -1] = 1
    rowidx = np.stack([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)], axis=1)
    return LinearProgram(
        cost.entries.ravel(),
        np.concatenate([[0], np.cumsum(width)]),
        rowidx[width.ravel()[:, None] > np.arange(2)],
        np.ones(int(width.sum())),
        np.concatenate([p0.weights, p1.weights[:-1]]),
    )


def solve_transport(
    cost: CostMatrix,
    p0: ProbabilityVector,
    p1: ProbabilityVector,
) -> TransportResult:
    """Minimize sum_ij cost_ij plan_ij over couplings of p0 and p1.

    Self-transport at zero diagonal cost returns diag(p0) with 0 iterations;
    any other solve starts the simplex from the northwest-corner staircase
    basis (cell (i, j) is column i * m + j).
    """
    n, m = cost.shape
    if (p0.size == n == m and np.array_equal(p0.weights, p1.weights)
            and not (cost.entries.diagonal() * p0.weights).any()):
        plan = TransportPlan(np.diag(p0.weights), p0, p1)
        return TransportResult(plan, SolveReport(0.0, 0, STATUS_OPTIMAL, duality_gap=0.0))
    lp = transport_program(cost, p0, p1)
    rows, cols, _ = _staircase(p0.weights, p1.weights)
    sol = solve_lp(lp, initial_basis=rows * m + cols)
    plan = TransportPlan(sol.primal.reshape(n, m), p0, p1)
    gap = sol.objective_value - float(lp.rhs @ sol.dual)
    report = SolveReport(sol.objective_value, sol.pivots, STATUS_OPTIMAL, duality_gap=gap)
    return TransportResult(plan, report)


def wasserstein2(source: PointCloud, target: PointCloud) -> tuple[float, float]:
    """Squared 2-Wasserstein cost and its square root between two clouds,
    each point carrying equal mass.

    The first value is the optimal transport objective under squared
    Euclidean cost; the second is the metric. solve_transport takes other
    marginals.
    """
    cost = build_cost_matrix(source, target)
    result = solve_transport(
        cost, ProbabilityVector.uniform(source.size), ProbabilityVector.uniform(target.size)
    )
    value = max(result.report.objective, 0.0)
    return value, float(np.sqrt(value))


def _staircase(row_weights: np.ndarray, col_weights: np.ndarray):
    """The northwest-corner walk: (rows, cols, masses) of its n + m - 1 cells.

    Starting at (0, 0), each cell takes the smaller remaining marginal and the
    walk moves down when the row is exhausted (ties included), right
    otherwise, until it reaches (n - 1, m - 1).
    """
    a = np.array(row_weights, dtype=float)
    b = np.array(col_weights, dtype=float)
    n, m = a.size, b.size
    rows = np.empty(n + m - 1, dtype=np.int64)
    cols = np.empty(n + m - 1, dtype=np.int64)
    masses = np.empty(n + m - 1)
    i = j = 0
    for k in range(n + m - 1):
        t = min(a[i], b[j])
        rows[k], cols[k], masses[k] = i, j, t
        a[i] -= t
        b[j] -= t
        if j == m - 1 or (i < n - 1 and a[i] <= b[j]):
            i += 1
        else:
            j += 1
    return rows, cols, masses

