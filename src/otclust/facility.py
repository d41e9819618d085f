"""Site-opening LP relaxation of sparse-support transport.

Each candidate output site j gets a fractional opening level y_j in [0, 1],
and a transport plan may route mass from input i to site j only up to
p0_i * y_j. Charging `penalty` per unit of opening gives the linear program

    min  sum_ij cost_ij plan_ij + penalty * sum_j y_j
    s.t. row sums of plan equal p0, 0 <= plan_ij <= p0_i y_j, 0 <= y_j <= 1.

Summed over j, the couplings force sum_j y_j >= 1, so at least one unit of
opening is always paid for.

Small instances solve the explicit program, one coupling row per (i, j)
pair. Larger ones eliminate the plan block: with the openings fixed, each
row independently fills its unit of mass into the cheapest sites the caps
allow, a sorted greedy scan. That inner value is convex piecewise-linear in
the openings, so the outer problem is solved by cutting planes, with the
small master program solved through its dual to keep the basis tiny. The
lower bound from the master meets the upper bound from the greedy fill at
an exact optimum of the full program.
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
from .lp import (
    LinearProgram,
    LpConfig,
    StandardForm,
    solve_lp,
    to_standard_form,
)

# Instances up to this size solve the explicit program outright.
DIRECT_SIZE = 12

_MAX_CUT_ROUNDS = 200
_GAP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FacilityResult:
    """plan rows are capped by p0_i * openings_j; openings is the fractional
    site-opening vector the penalty charges for."""

    plan: TransportPlan
    openings: np.ndarray
    report: SolveReport
    generation_rounds: int = 1


def build_facility_lp(
    cost: CostMatrix,
    p0: ProbabilityVector,
    penalty: float,
    couplings=None,
) -> StandardForm:
    """Assemble the opening-penalized transport program in standard form.

    Variables are the plan entries in row-major order followed by the n
    opening levels. couplings optionally restricts the plan <= p0 y rows to
    the given (i, j) pairs; None means all n^2 of them.
    """
    n, m = cost.shape
    if n != m:
        raise ValueError("cost matrix must be square for self-transport")
    if p0.size != n:
        raise ValueError("marginal size does not match the cost matrix")
    if penalty < 0:
        raise ValueError("penalty must be nonnegative")

    objective = np.concatenate([cost.entries.reshape(-1), np.full(n, penalty)])
    equalities = [
        ([(i * n + j, 1.0) for j in range(n)], float(p0.weights[i]))
        for i in range(n)
    ]
    if couplings is None:
        couplings = ((i, j) for i in range(n) for j in range(n))
    inequalities = [
        ([(i * n + j, 1.0), (n * n + j, -float(p0.weights[i]))], "<=", 0.0)
        for i, j in couplings
    ]
    bounds = {n * n + j: 1.0 for j in range(n)}
    return to_standard_form(
        objective,
        inequalities=inequalities,
        equalities=equalities,
        upper_bounds=bounds,
    )


def _tighten_zero_penalty(entries: np.ndarray, p0: ProbabilityVector, note):
    """At zero penalty the objective ignores the openings; report the
    smallest levels the couplings allow."""
    positive = p0.weights > 0
    ratios = np.zeros_like(entries)
    ratios[positive] = entries[positive] / p0.weights[positive, None]
    openings = ratios.max(axis=0)
    extra = "openings not unique at zero penalty; reporting the smallest"
    return openings, (f"{note}; {extra}" if note else extra)


def _solve_direct(cost, p0, penalty, config) -> FacilityResult:
    n = cost.shape[0]
    form = build_facility_lp(cost, p0, penalty)
    solution = solve_lp(form.lp, config)
    if solution.status != STATUS_OPTIMAL:
        raise RuntimeError(f"facility program ended with {solution.status}")
    primal = solution.primal[: n * n + n]
    entries = np.clip(primal[: n * n].reshape(n, n), 0.0, None)
    openings = np.clip(primal[n * n :], 0.0, 1.0)
    note = None
    if penalty == 0.0:
        openings, note = _tighten_zero_penalty(entries, p0, note)
    report = SolveReport(
        objective=float(solution.objective_value),
        iterations=int(solution.pivots),
        status=STATUS_OPTIMAL,
        note=note,
    )
    return FacilityResult(
        plan=TransportPlan(entries, p0, tolerance=1e-8),
        openings=openings,
        report=report,
        generation_rounds=1,
    )


class _GreedyFiller:
    """Per-row cheapest-first fills against opening caps, shared across
    rounds since the cost order never changes."""

    def __init__(self, cost: np.ndarray, active: np.ndarray):
        self.costs = cost[active]
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
        prices = np.maximum(marginal[:, None] - self.sorted_costs, 0.0)
        fills_unsorted = np.empty_like(fills)
        np.put_along_axis(fills_unsorted, self.order, fills, axis=1)
        prices_unsorted = np.empty_like(prices)
        np.put_along_axis(prices_unsorted, self.order, prices, axis=1)
        return values, fills_unsorted, marginal, prices_unsorted


def _solve_master_dual(
    n: int,
    weights: np.ndarray,
    penalty: float,
    cuts: list[tuple[int, float, np.ndarray]],
    config: LpConfig | None,
):
    """Solve the cutting-plane master through its dual.

    Master: min penalty * sum y + sum_i weights_i theta_i subject to
    theta_i + prices . y >= intercept for each cut, sum y >= 1, y <= 1,
    everything nonnegative. The dual has one row per master variable, so
    the simplex basis stays (n + active rows) square however many cuts
    accumulate. Master primal values are the negated row duals.
    """
    q = weights.size
    columns = []  # (objective coeff, [(row, coeff), ...])
    for owner, intercept, prices in cuts:
        entries = [(n + owner, 1.0)]
        entries.extend(
            (int(j), float(prices[j])) for j in np.flatnonzero(prices)
        )
        columns.append((-float(intercept), entries))
    columns.append((-1.0, [(j, 1.0) for j in range(n)]))  # sum y >= 1
    for j in range(n):
        columns.append((1.0, [(j, -1.0)]))  # y_j <= 1
    width = len(columns)
    objective = np.fromiter(
        (c for c, _ in columns), dtype=float, count=width
    )
    objective = np.concatenate([objective, np.zeros(n + q)])
    rows = []
    rhs = np.concatenate([np.full(n, penalty), weights])
    per_row = [[] for _ in range(n + q)]
    for col, (_, entries) in enumerate(columns):
        for row, coeff in entries:
            per_row[row].append((col, coeff))
    for row in range(n + q):
        per_row[row].append((width + row, 1.0))  # slack for <=
        rows.append(tuple(per_row[row]))
    lp = LinearProgram(
        objective=objective,
        rows=tuple(rows),
        rhs=rhs,
        variable_count=width + n + q,
    )
    solution = solve_lp(lp, config)
    if solution.status != STATUS_OPTIMAL:
        raise RuntimeError(f"cut master ended with {solution.status}")
    primal = -solution.dual
    y = np.clip(primal[:n], 0.0, 1.0)
    theta = primal[n:]
    bound = -float(solution.objective_value)
    return y, theta, bound, int(solution.pivots)


def _solve_by_cuts(cost, p0, penalty, config) -> FacilityResult:
    n = cost.shape[0]
    active = p0.weights > 0
    weights = p0.weights[active]
    filler = _GreedyFiller(cost.entries, active)

    cuts: list[tuple[int, float, np.ndarray]] = []
    total_pivots = 0
    best_value = np.inf
    best_plan = None
    best_openings = None
    for round_index in range(1, _MAX_CUT_ROUNDS + 1):
        y, theta, bound, pivots = _solve_master_dual(
            n, weights, penalty, cuts, config
        )
        total_pivots += pivots
        values, fills, marginals, prices = filler.fill(y)
        true_value = penalty * float(y.sum()) + float(weights @ values)
        if true_value < best_value:
            best_value = true_value
            best_openings = y
            entries = np.zeros((n, n))
            entries[active] = fills * weights[:, None]
            best_plan = entries
        gap = best_value - bound
        if gap <= _GAP_TOLERANCE * max(1.0, abs(best_value)):
            note = f"cutting planes converged in {round_index} rounds"
            if penalty == 0.0:
                best_openings, note = _tighten_zero_penalty(
                    best_plan, p0, note
                )
            report = SolveReport(
                objective=best_value,
                iterations=total_pivots,
                status=STATUS_OPTIMAL,
                note=note,
            )
            return FacilityResult(
                plan=TransportPlan(best_plan, p0, tolerance=1e-8),
                openings=best_openings,
                report=report,
                generation_rounds=round_index,
            )
        # cut only the rows whose master value still undershoots the fill
        slack = values - theta
        for local in np.flatnonzero(slack > 1e-12 * np.maximum(1.0, values)):
            cuts.append(
                (int(local), float(marginals[local]), prices[local].copy())
            )
    raise RuntimeError("cutting planes did not close the gap")


def solve_facility_relaxation(
    cost: CostMatrix,
    p0: ProbabilityVector,
    penalty: float,
    config: LpConfig | None = None,
) -> FacilityResult:
    """Solve the opening-penalized program exactly.

    Instances with at most DIRECT_SIZE sites use the explicit coupling
    block; larger ones run the cutting-plane path. Both return a plan, the
    opening levels, and a report whose iteration count is total pivots.
    """
    n, m = cost.shape
    if n != m:
        raise ValueError("cost matrix must be square for self-transport")
    if p0.size != n:
        raise ValueError("marginal size does not match the cost matrix")
    if penalty < 0:
        raise ValueError("penalty must be nonnegative")

    if n <= DIRECT_SIZE:
        return _solve_direct(cost, p0, penalty, config)
    return _solve_by_cuts(cost, p0, penalty, config)
