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
        """Returns (values, fills, marginal_costs, shadow_prices) of the
        inner per-row programs at the given openings."""
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
        prices = np.maximum(marginal[:, None] - self.costs, 0.0)
        fills_unsorted = np.empty_like(fills)
        np.put_along_axis(fills_unsorted, self.order, fills, axis=1)
        return values, fills_unsorted, marginal, prices


class _MasterColumns:
    """The dual of the cutting-plane master as CSC arrays kept across rounds.

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
        self.rhs = np.concatenate([np.full(n, penalty), weights])
        self.objective = np.empty(0)
        self.widths = np.empty(0, dtype=np.int64)
        self.rowidx = np.empty(0, dtype=np.int64)
        self.vals = np.empty(0)

    def add_cuts(self, owners: np.ndarray, intercepts: np.ndarray, prices: np.ndarray):
        """One column per cut theta_owner + prices . y >= intercept."""
        block = np.zeros((owners.size, self.rhs.size))
        block[:, : self.n] = prices
        block[np.arange(owners.size), self.n + owners] = 1.0
        cut, row = np.nonzero(block)
        self.objective = np.concatenate([self.objective, -intercepts])
        self.widths = np.concatenate([self.widths, np.bincount(cut, minlength=owners.size)])
        self.rowidx = np.concatenate([self.rowidx, row])
        self.vals = np.concatenate([self.vals, block[cut, row]])

    def program(self) -> LinearProgram:
        n, rows = self.n, self.rhs.size
        widths = np.concatenate([self.widths, [n], np.ones(n + rows, dtype=np.int64)])
        return LinearProgram(
            objective=np.concatenate([self.objective, [-1.0], np.ones(n), np.zeros(rows)]),
            colptr=np.concatenate([[0], np.cumsum(widths)]),
            rowidx=np.concatenate([self.rowidx, np.arange(n), np.arange(n), np.arange(rows)]),
            vals=np.concatenate([self.vals, np.ones(n), -np.ones(n), np.ones(rows)]),
            rhs=self.rhs,
        )


def _solve_master_dual(
    master: _MasterColumns,
    previous: tuple[np.ndarray, int],
):
    """Solve the cutting-plane master through its dual.

    previous is (basis, cut count) of the last master solve, or the slack
    basis and 0 before the first. Cuts added since then are new columns, so
    that basis is still primal feasible and starts phase 2 once its ids past
    the old cuts shift by the number of new cuts. Master primal values are
    the negated row duals. Returns (y, theta, bound, pivots, (basis, cut
    count)).
    """
    n, cuts = master.n, master.objective.size
    basis, old_cuts = previous
    initial = np.where(basis < old_cuts, basis, basis + cuts - old_cuts)
    solution = solve_lp(master.program(), initial_basis=initial)
    if solution.status != STATUS_OPTIMAL:
        raise RuntimeError(f"cut master ended with {solution.status}")
    primal = -solution.dual
    y = np.clip(primal[:n], 0.0, 1.0)
    theta = primal[n:]
    bound = -float(solution.objective_value)
    return y, theta, bound, int(solution.pivots), (solution.basis, cuts)


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
    y, theta, bound = np.eye(1, n)[0], np.zeros(weights.size), float(penalty)
    # slack ids of the master without cuts, past its sum column and n bounds
    basis = (1 + n + np.arange(n + weights.size), 0)
    total_pivots = 0
    best_value = np.inf
    best_plan = None
    best_openings = None
    for round_index in range(1, _MAX_CUT_ROUNDS + 1):
        if round_index > 1:
            y, theta, bound, pivots, basis = _solve_master_dual(master, basis)
            total_pivots += pivots
        values, fills, marginals, prices = filler.fill(y)
        true_value = penalty * float(y.sum()) + float(weights @ values)
        if true_value < best_value:
            best_value = true_value
            best_openings = y
            best_plan = np.zeros((n, n))
            best_plan[active] = fills * weights[:, None]
        gap = best_value - bound
        if gap <= _GAP_TOLERANCE * max(1.0, abs(best_value)):
            note = f"cutting planes converged in {round_index} rounds"
            if penalty == 0.0:
                best_openings, note = _tighten_zero_penalty(best_plan, p0, note)
            report = SolveReport(
                objective=best_value * scale,
                iterations=total_pivots,
                status=STATUS_OPTIMAL,
                note=note,
                duality_gap=gap * scale,
            )
            return FacilityResult(
                plan=TransportPlan(best_plan, p0),
                openings=best_openings,
                report=report,
                generation_rounds=round_index,
            )
        # cut only the rows whose master value still undershoots the fill
        slack = values - theta
        owners = np.flatnonzero(slack > 1e-12 * np.maximum(1.0, values))
        master.add_cuts(owners, marginals[owners], prices[owners])
    raise RuntimeError("cutting planes did not close the gap")
