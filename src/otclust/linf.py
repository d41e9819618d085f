"""Reciprocal-mass relaxation solved in closed form per column.

The penalty here is the reciprocal of the largest column mass of the plan:

    min  sum_jk cost_jk plan_jk + penalty / max_i (column mass i)

Fixing which column i carries the maximum and how much mass t it holds
leaves a transport program whose value g_i(t) has a closed form. Mass headed
anywhere but column i takes the cheapest other destination of its row, so
column i is best filled from the rows with the smallest "pull", the extra
cost of sending there instead. g_i is therefore convex piecewise-linear:
its slopes are the sorted pulls and its breakpoints the cumulative weights
in that order. On each segment g_i(t) + penalty / t is minimized at an end
or at sqrt(penalty / slope) clipped into the segment, so every column's
minimum over t in (0, 1] is exact; the relaxation value is the best over
columns, lowest index on ties.

One simplex solve of the winning column's program yields the witness plan
and certifies the closed form. It starts from the greedy fill, which is the
northwest-corner staircase of the column and the rows' cheapest other
destinations, so it takes no pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    STATUS_OPTIMAL,
    CostMatrix,
    ProbabilityVector,
    SolveReport,
    TransportPlan,
    check_relaxation_inputs,
)
from .lp import LinearProgram, solve_lp
from .transport import _staircase

_CERTIFY_RTOL = 1e-9


@dataclass(frozen=True)
class LinfResult:
    """best_index is the column carrying the plan's largest mass t*
    (= best_mass); per_index_values holds every column's subproblem
    optimum, whose minimum is the reported objective."""

    plan: TransportPlan
    best_index: int
    best_mass: float
    report: SolveReport
    per_index_values: np.ndarray


def _pulls(costs: np.ndarray):
    """alt[j, i] is row j's cheapest column other than i (lowest index on
    ties) and pull[j, i] = costs[j, i] - costs[j, alt[j, i]]. Needs n >= 2."""
    n = costs.shape[0]
    rows = np.arange(n)
    order = np.argsort(costs, axis=1, kind="stable")
    first, second = order[:, 0], order[:, 1]
    alt = np.repeat(first[:, None], n, axis=1)
    alt[rows, first] = second
    return alt, costs - np.take_along_axis(costs, alt, axis=1)


def _column_minima(costs: np.ndarray, weights: np.ndarray, penalty: float):
    """Exact min over t in (0, 1] of g_i(t) + penalty / t for every column i.

    Returns (minimum values, minimizing masses) per column, then the tables
    alt and order: column i fills from rows order[:, i] (ascending pull) and
    row j sends the rest of its mass to alt[j, i].
    """
    n = weights.size
    alt, pull = _pulls(costs)
    order = np.argsort(pull, axis=0, kind="stable")
    slopes = np.take_along_axis(pull, order, axis=0)
    mass = weights[order]
    ends = np.cumsum(mass, axis=0)
    ends[-1] = 1.0  # the weights sum to one
    starts = np.vstack([np.zeros(n), ends[:-1]])
    g_starts = weights @ np.take_along_axis(costs, alt, axis=1) + np.vstack(
        [np.zeros(n), np.cumsum(slopes * mass, axis=0)[:-1]]
    )
    stationary = ends.copy()
    rising = slopes > 0
    # penalty over a tiny slope or mass overflows only near the float limit,
    # where +inf is the exact limit: the clip or the argmin then passes it by
    with np.errstate(over="ignore"):
        stationary[rising] = np.clip(
            np.sqrt(penalty / slopes[rising]), starts[rising], ends[rising]
        )
        t = np.stack([ends, stationary])
        reciprocal = np.full(t.shape, np.inf)
        np.divide(penalty, t, out=reciprocal, where=t > 0)
    values = (g_starts + slopes * (t - starts) + reciprocal).reshape(2 * n, n)
    best = np.argmin(values, axis=0)
    columns = np.arange(n)
    return values[best, columns], t.reshape(2 * n, n)[best, columns], alt, order


def _witness(costs, weights, index, t, alt, order):
    """Simplex solve of the transport program with row sums `weights` and
    mass t pinned on column `index`, started from the greedy fill.

    The fill is the northwest-corner staircase of a two-destination
    transport: the rows, in fill order `order`, onto column index (mass t)
    and onto their cheapest other column `alt` (mass 1 - t). Its cells are
    an optimal basis, so the simplex only certifies it.
    """
    n = weights.size
    # entry (j, k) is column j * n + k, in row j and, for k = index, row n
    width = np.ones((n, n), dtype=np.int64)
    width[:, index] = 2
    rowidx = np.stack([np.repeat(np.arange(n), n), np.full(n * n, n)], axis=1)
    lp = LinearProgram(
        objective=costs.reshape(-1).astype(float),
        colptr=np.concatenate([[0], np.cumsum(width)]),
        rowidx=rowidx[width.ravel()[:, None] > np.arange(2)],
        vals=np.ones(int(width.sum())),
        rhs=np.concatenate([weights, [t]]),
    )
    steps, sides, _ = _staircase(weights[order], np.array([t, 1.0 - t]))
    rows = order[steps]
    return solve_lp(lp, initial_basis=rows * n + np.where(sides == 0, index, alt[rows]))


def solve_linf(
    cost: CostMatrix,
    p0: ProbabilityVector,
    penalty: float,
) -> LinfResult:
    """Minimize transport cost plus penalty over the largest column mass.

    One closed-form minimization per column; the lowest index wins ties.
    The winning column's program is then solved once by the simplex method
    for the witness plan, and a RuntimeError is raised if its value does not
    confirm the closed form.
    """
    check_relaxation_inputs(cost, p0, penalty)
    if penalty == 0:
        raise ValueError("penalty must be finite and positive")
    n = cost.shape[0]

    if n == 1:
        plan = TransportPlan(p0.weights.reshape(1, 1).copy(), p0)
        value = float(cost.entries[0, 0] * p0.weights[0]) + penalty
        report = SolveReport(objective=value, iterations=0, status=STATUS_OPTIMAL)
        return LinfResult(
            plan=plan,
            best_index=0,
            best_mass=1.0,
            report=report,
            per_index_values=np.array([value]),
        )

    per_index, masses, alt, order = _column_minima(cost.entries, p0.weights, penalty)
    best_index = int(np.argmin(per_index))
    best_mass = float(masses[best_index])
    objective = float(per_index[best_index])
    witness = _witness(cost.entries, p0.weights, best_index, best_mass,
                       alt[:, best_index], order[:, best_index])
    certified = witness.objective_value + penalty / best_mass
    if abs(certified - objective) > _CERTIFY_RTOL * abs(objective):
        raise RuntimeError(
            f"column {best_index} at t={best_mass}: simplex value {certified!r} "
            f"does not confirm the closed form {objective!r}"
        )
    report = SolveReport(objective=objective, iterations=n, status=STATUS_OPTIMAL)
    return LinfResult(
        plan=TransportPlan(witness.primal.reshape(n, n), p0),
        best_index=best_index,
        best_mass=best_mass,
        report=report,
        per_index_values=per_index,
    )
