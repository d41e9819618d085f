"""Site-opening LP relaxation of sparse-support transport.

Each candidate output site j gets a fractional opening level y_j in [0, 1],
and a transport plan may route mass from input i to site j only up to
p0_i * y_j. Charging `penalty` per unit of opening gives the linear program

    min  sum_ij cost_ij plan_ij + penalty * sum_j y_j
    s.t. row sums of plan equal p0, 0 <= plan_ij <= p0_i y_j, 0 <= y_j <= 1.

Summed over j, the couplings force sum_j y_j >= 1, so at least one unit of
opening is always paid for.

The solver never writes out the n^2 coupling rows. It eliminates the plan
block instead: with the openings fixed, each row independently fills its
unit of mass into the cheapest sites the caps allow, a sorted greedy scan.
That inner value is convex piecewise-linear in the openings, so the outer
problem is solved by cutting planes. Any unit opening solves the master
without cuts, so round 1 fills from site 0 with no LP; each later master is
solved through its dual to keep the basis tiny. In the dual a new cut is a
new column, so each master solve starts phase 2 from the previous basis,
the slacks for the first. The lower bound from the master meets the upper
bound from the greedy fill at an exact optimum of the full program, for
every instance size.

The loop runs in mean-cost units: cost and penalty are divided by the mean
pair cost p0' C p0, so its tolerances and the master's pricing, which mixes
cut intercepts with the unit costs of sum y >= 1 and y <= 1, do not depend
on the units of the cloud.
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

_MAX_CUT_ROUNDS = 200
_GAP_TOLERANCE = 1e-9
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class FacilityResult:
    """plan rows are capped by p0_i * openings_j; openings is the fractional
    site-opening vector the penalty charges for."""

    plan: TransportPlan
    openings: np.ndarray
    report: SolveReport
    generation_rounds: int


def _tighten_zero_penalty(entries: np.ndarray, p0: ProbabilityVector, note):
    """At zero penalty the objective ignores the openings; report the
    smallest levels the couplings allow."""
    positive = p0.weights > 0
    ratios = np.zeros_like(entries)
    ratios[positive] = entries[positive] / p0.weights[positive, None]
    openings = ratios.max(axis=0)
    extra = "openings not unique at zero penalty; reporting the smallest"
    return openings, f"{note}; {extra}"


class _GreedyFiller:
    """Per-row cheapest-first fills against opening caps, on the active rows
    of cost divided by scale; shared across rounds since the cost order
    never changes."""

    def __init__(self, cost: np.ndarray, active: np.ndarray, scale: float):
        self.costs = cost[active]
        self.costs /= scale
        self.order = np.argsort(self.costs, axis=1, kind="stable")
        self.sorted_costs = np.take_along_axis(self.costs, self.order, axis=1)
        self.rows = np.arange(self.costs.shape[0])

    def fill(self, openings: np.ndarray):
        """Returns (values, fills in cost order, marginal_costs) of the inner
        per-row programs at the given openings."""
        caps = openings[self.order]
        cum = np.cumsum(caps, axis=1)
        reach = cum >= 1.0 - 1e-12
        if not reach[:, -1].all():
            raise RuntimeError("openings sum below one unit; master row missing")
        kstar = np.argmax(reach, axis=1)
        marginal = self.sorted_costs[self.rows, kstar]
        before = np.where(kstar > 0, cum[self.rows, np.maximum(kstar - 1, 0)], 0.0)
        slots = np.arange(self.costs.shape[1])[None, :]
        fills = np.where(slots < kstar[:, None], caps, 0.0)
        fills[self.rows, kstar] = np.clip(1.0 - before, 0.0, None)
        values = (fills * self.sorted_costs).sum(axis=1)
        return values, fills, marginal


class _MasterColumns:
    """The cut master's dual as CSC arrays and its basis, kept across rounds.

    Master: min penalty * sum y + sum_i weights_i theta_i subject to
    theta_i + prices . y >= intercept for each cut, sum y >= 1, y <= 1,
    everything nonnegative. Its dual has one row per master variable (the n
    openings, then the q row values), so the simplex basis stays
    (n + q) square however many cuts accumulate. Its columns are the cuts in
    order, then sum y >= 1, the n bounds y <= 1 and one slack per row; a new
    cut appends a column, and the rows and rhs never change.
    """

    def __init__(self, n: int, weights: np.ndarray, penalty: float):
        self.n = n
        self.penalty = penalty
        self.rhs = np.concatenate([np.full(n, penalty), weights])
        self.objective = np.empty(0)
        self.widths = np.empty(0, dtype=np.int64)
        self.rowidx = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0)
        # the slack columns, past the sum column and the n bounds
        self.basis = 1 + n + np.arange(self.rhs.size)

    def add_cuts(self, owners: np.ndarray, intercepts: np.ndarray, prices: np.ndarray):
        """One column per cut theta_owner + prices . y >= intercept. The new
        columns go before the sum column, so basis ids past the old cuts
        shift; the basis stays primal feasible and starts the next phase 2."""
        block = np.zeros((owners.size, self.rhs.size))
        block[:, : self.n] = prices
        block[np.arange(owners.size), self.n + owners] = 1.0
        cut, row = np.nonzero(block)
        old = self.objective.size
        self.basis = np.where(self.basis < old, self.basis, self.basis + owners.size)
        self.objective = np.concatenate([self.objective, -intercepts])
        self.widths = np.concatenate([self.widths, np.bincount(cut, minlength=owners.size)])
        self.rowidx = np.concatenate([self.rowidx, row])
        self.vals = np.concatenate([self.vals, block[cut, row]])

    def solve(self):
        """Solve the master through its dual from the kept basis, and keep the
        new one. Master primal values are the negated row duals. Without cuts
        any unit opening is optimal, so y = e_0 needs no LP. Returns (y,
        theta, bound, pivots)."""
        n, rows = self.n, self.rhs.size
        if not self.objective.size:
            return np.eye(1, n)[0], np.zeros(rows - n), float(self.penalty), 0
        widths = np.concatenate([self.widths, [n], np.ones(n + rows, dtype=np.int64)])
        program = LinearProgram(
            objective=np.concatenate([self.objective, [-1.0], np.ones(n), np.zeros(rows)]),
            colptr=np.concatenate([[0], np.cumsum(widths)]),
            rowidx=np.concatenate([self.rowidx, np.arange(n), np.arange(n), np.arange(rows)]),
            vals=np.concatenate([self.vals, np.ones(n), -np.ones(n), np.ones(rows)]),
            rhs=self.rhs,
        )
        solution = solve_lp(program, initial_basis=self.basis)
        if solution.status != STATUS_OPTIMAL:
            raise RuntimeError(f"cut master ended with {solution.status}")
        self.basis = solution.basis
        primal = -solution.dual
        bound = -float(solution.objective_value)
        return np.clip(primal[:n], 0.0, 1.0), primal[n:], bound, int(solution.pivots)


def solve_facility_relaxation(
    cost: CostMatrix,
    p0: ProbabilityVector,
    penalty: float,
) -> FacilityResult:
    """Solve the opening-penalized program exactly by cutting planes.

    Returns the plan, the opening levels, the number of cut rounds, and a
    report whose iteration count is the total of master pivots. The cut loop
    runs in units of the mean pair cost; objective and gap are reported in
    the units of cost.
    """
    check_relaxation_inputs(cost, p0, penalty)
    n = cost.shape[0]
    active = p0.weights > 0
    weights = p0.weights[active]
    # the mean pair cost, 1 when that is 0 (one point, or all points equal),
    # and never so small that the penalty overflows in its units
    scale = max(float(p0.weights @ cost.entries @ p0.weights) or 1.0, penalty / _FLOAT_MAX)
    penalty = penalty / scale
    filler = _GreedyFiller(cost.entries, active, scale)
    master = _MasterColumns(n, weights, penalty)
    total_pivots = 0
    # (value, openings, fills in cost order) of the best round so far
    best = (np.inf, None, None)
    for round_index in range(1, _MAX_CUT_ROUNDS + 1):
        y, theta, bound, pivots = master.solve()
        total_pivots += pivots
        values, fills, marginals = filler.fill(y)
        value = penalty * float(y.sum()) + float(weights @ values)
        if value < best[0]:
            best = (value, y, fills)
        gap = best[0] - bound
        if gap <= _GAP_TOLERANCE * max(1.0, abs(best[0])):
            break
        # cut only the rows whose master value still undershoots the fill,
        # priced at their fill's marginal cost
        slack = values - theta
        owners = np.flatnonzero(slack > 1e-12 * np.maximum(1.0, values))
        prices = np.maximum(marginals[owners, None] - filler.costs[owners], 0.0)
        master.add_cuts(owners, marginals[owners], prices)
    else:
        raise RuntimeError("cutting planes did not close the gap")
    best_value, openings, fills = best
    plan = np.zeros((n, n))
    plan[np.flatnonzero(active)[:, None], filler.order] = fills * weights[:, None]
    note = f"cutting planes converged in {round_index} rounds"
    if penalty == 0.0:
        openings, note = _tighten_zero_penalty(plan, p0, note)
    report = SolveReport(
        objective=best_value * scale,
        iterations=total_pivots,
        status=STATUS_OPTIMAL,
        note=note,
        duality_gap=gap * scale,
    )
    return FacilityResult(
        plan=TransportPlan(plan, p0),
        openings=openings,
        report=report,
        generation_rounds=round_index,
    )
