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

One simplex solve of the winning column's program, started from the greedy
fill as its basis, yields the witness plan and certifies the closed form.
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
)
from .lp import LinearProgram, LpConfig, solve_lp

_BOUNDARY_SLACK = 1e-12
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

    Returns (minimum values, minimizing masses), one entry per column.
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
    stationary[rising] = np.clip(
        np.sqrt(penalty / slopes[rising]), starts[rising], ends[rising]
    )
    t = np.stack([ends, stationary])
    reciprocal = np.full(t.shape, np.inf)
    np.divide(penalty, t, out=reciprocal, where=t > 0)
    values = (g_starts + slopes * (t - starts) + reciprocal).reshape(2 * n, n)
    best = np.argmin(values, axis=0)
    columns = np.arange(n)
    return values[best, columns], t.reshape(2 * n, n)[best, columns]


class _ColumnProgram:
    """Transport program with row sums p0 and mass t pinned on one column.

    The greedy fill of the column in ascending pull order is an optimal
    basic solution; it is handed to the simplex as the starting basis, which
    then certifies optimality (or, if the construction were ever off, pivots
    to the true optimum).
    """

    def __init__(self, cost: CostMatrix, p0: ProbabilityVector, index: int):
        self.n = cost.shape[0]
        self.index = index
        self.costs = cost.entries
        self.weights = p0.weights
        if self.n > 1:
            alt, pull = _pulls(self.costs)
            self.alt_cols = alt[:, index]
            self.fill_order = np.argsort(pull[:, index], kind="stable")

    def _starting_basis(self, t: float) -> np.ndarray:
        """Basic columns of the greedy fill: one carrier per row plus the
        boundary entry that completes the square basis."""
        n = self.n
        order = self.fill_order
        carriers = order * n + self.alt_cols[order]
        basis = np.empty(n + 1, dtype=np.int64)
        remaining = t
        extra = None
        for pos, row in enumerate(order):
            w = float(self.weights[row])
            if remaining > _BOUNDARY_SLACK and remaining >= w - _BOUNDARY_SLACK:
                basis[pos] = row * n + self.index
                remaining -= w
            elif remaining > _BOUNDARY_SLACK:
                # the split row carries mass on both destinations
                basis[pos] = carriers[pos]
                extra = row * n + self.index
                remaining = 0.0
            else:
                basis[pos] = carriers[pos]
        if extra is None:
            # t landed on a fill boundary; complete with a zero-level entry
            to_index = basis[:n] % n == self.index
            if to_index.all():
                extra = carriers[0]
            else:
                first_off = int(np.flatnonzero(~to_index)[0])
                extra = order[first_off] * n + self.index
        basis[n] = extra
        return basis

    def solve(self, t: float, config: LpConfig | None = None):
        n = self.n
        rows = [tuple((j * n + k, 1.0) for k in range(n)) for j in range(n)]
        rows.append(tuple((j * n + self.index, 1.0) for j in range(n)))
        lp = LinearProgram(
            objective=self.costs.reshape(-1).astype(float),
            rows=tuple(rows),
            rhs=np.concatenate([self.weights, [t]]),
            variable_count=n * n,
        )
        initial = self._starting_basis(t) if n > 1 else None
        solution = solve_lp(lp, config, initial_basis=initial)
        if solution.status != STATUS_OPTIMAL:
            raise RuntimeError(
                f"pinned-column program ended with {solution.status} at t={t}"
            )
        return solution


def inner_cost(
    cost: CostMatrix,
    p0: ProbabilityVector,
    index: int,
    t: float,
    config: LpConfig | None = None,
) -> float:
    """Cheapest transport with row sums p0 and exactly mass t on one column,
    solved as an LP.

    Convex piecewise-linear in t on [0, 1].
    """
    n = cost.shape[0]
    if cost.shape[1] != n:
        raise ValueError("cost matrix must be square for self-transport")
    if p0.size != n:
        raise ValueError("marginal size does not match the cost matrix")
    if not 0 <= index < n:
        raise ValueError("column index out of range")
    if not 0.0 <= t <= 1.0:
        raise ValueError("pinned mass must lie in [0, 1]")
    program = _ColumnProgram(cost, p0, index)
    return float(program.solve(t, config).objective_value)


def solve_linf(
    cost: CostMatrix,
    p0: ProbabilityVector,
    penalty: float,
    config: LpConfig | None = None,
) -> LinfResult:
    """Minimize transport cost plus penalty over the largest column mass.

    One closed-form minimization per column; the lowest index wins ties.
    The winning column's program is then solved once by the simplex method
    for the witness plan, and a RuntimeError is raised if its value does not
    confirm the closed form.
    """
    n, m = cost.shape
    if n != m:
        raise ValueError("cost matrix must be square for self-transport")
    if p0.size != n:
        raise ValueError("marginal size does not match the cost matrix")
    if penalty <= 0:
        raise ValueError("penalty must be positive")

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

    per_index, masses = _column_minima(cost.entries, p0.weights, penalty)
    best_index = int(np.argmin(per_index))
    best_mass = float(masses[best_index])
    objective = float(per_index[best_index])
    witness = _ColumnProgram(cost, p0, best_index).solve(best_mass, config)
    certified = witness.objective_value + penalty / best_mass
    if abs(certified - objective) > _CERTIFY_RTOL * abs(objective):
        raise RuntimeError(
            f"column {best_index} at t={best_mass}: simplex value {certified!r} "
            f"does not confirm the closed form {objective!r}"
        )
    entries = np.clip(witness.primal[: n * n].reshape(n, n), 0.0, None)
    report = SolveReport(objective=objective, iterations=n, status=STATUS_OPTIMAL)
    return LinfResult(
        plan=TransportPlan(entries, p0, tolerance=1e-8),
        best_index=best_index,
        best_mass=best_mass,
        report=report,
        per_index_values=per_index,
    )
