"""Column-sparsity relaxation, certified in closed form or solved by ADMM.

The target is

    min  sum_ij cost_ij plan_ij + (penalty / ||p0||_2) * sum_j ||plan[:, j]||_2

over plans with row sums p0 and nonnegative entries. The sum of column
norms divided by ||p0||_2 is a convex lower bound on the number of occupied
columns over the row-feasible set, so the penalty drives whole columns to
zero without losing convexity. Per column it is the convex envelope of
occupancy over the ball ||x_j||_2 <= ||p0||_2. It is not the tightest such
bound: every feasible column also lies in the smaller box 0 <= x_j <= p0,
whose envelope max_i x_ij / p0_i (the `lp` relaxation's opening level) is
never smaller. At p0 = (1/2, 1/2) and plan diag(p0) this surrogate is
sqrt(2), the box envelope and the column count both 2.

Dual: with kappa = penalty / ||p0||_2 and row multipliers u,

    max  p0 . u   s.t.  ||(u - cost[:, j])_+||_2 <= kappa  for every column j.

A row with p0_i = 0 leaves u_i free, so it takes no part in the norms. Any
u, lowered by the smallest uniform shift t >= 0 that makes it feasible,
bounds the optimum from below by p0 . u - t.

Certificate: the plan that puts all of p0 on the column s minimizing
p0 . cost[:, s] (lowest index on ties) has the dual
u = cost[:, s] + kappa p0 / ||p0||_2 of equal value, so it is optimal iff
that u is feasible. `solve_son` tests this first, in one O(n^2) pass. When
it holds the solve returns that plan as exactly optimal with
iterations = 0, an empty residual history and duality_gap 0, and runs no
ADMM.

ADMM, where the certificate fails: a primal copy handles the linear cost
and the row constraints (row-wise projection onto scaled simplexes), a
consensus copy handles the column-norm penalty (column-wise shrinkage), and
a scaled dual variable ties them together. The loop is over-relaxed
(Boyd et al., ADMM, section 3.4.3): the shrink and the dual update take
alpha plan + (1 - alpha) consensus, alpha = 1.6, in place of the new plan,
which cuts the iterations of the acceptance grids by a third. Residual
balancing doubles or halves the step weight rho when the primal and dual
residuals drift more than a factor apart, a bounded number of times. The
status still comes from the residuals; the report's duality_gap reads u off
the final plan (u_i = cost_ij + kappa x_ij / ||x_j||_2 at the largest entry
of row i) and shifts it feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    CostMatrix,
    ProbabilityVector,
    SolveReport,
    TransportPlan,
    check_relaxation_inputs,
    transport_cost,
)


@dataclass(frozen=True)
class SonResult:
    """plan is the row-feasible iterate. residual_history holds the
    (primal, dual) residuals of every iteration, which also tell where
    residual balancing changed rho; its last row is where the solve
    stopped. A certified solve runs no iteration: its history is empty."""

    plan: TransportPlan
    report: SolveReport
    residual_history: np.ndarray


def _project_rows(V, radii, out=None, scratch=None, layout=None):
    """Euclidean projection of each row of V onto {z >= 0, sum z = radius}.

    Sort-and-threshold: with a row's entries sorted, find the largest k
    whose running mean over the k largest entries leaves the k-th largest
    positive after shifting, then subtract that shift and clamp at zero.
    Rows with radius 0 become 0.

    out receives the projection. scratch is a (float, bool) pair of arrays
    shaped like V for the running sums and the threshold test, and layout
    is `_projection_layout(radii, m)`. Each is built when not given, so a
    caller that projects repeatedly builds them once. No array may overlap V.
    """
    if out is None:
        out = np.empty_like(V)
    sums, positive = scratch or (np.empty_like(V), np.empty(V.shape, dtype=bool))
    rows, counts, zero_rows = layout or _projection_layout(radii, V.shape[1])
    np.copyto(out, V)
    out.sort(axis=1)
    # sums[:, j] becomes the shift (css_k - r) / k of the candidate k = m - j,
    # summing the k largest entries out[:, j:] from the largest down
    np.cumsum(out[:, ::-1], axis=1, out=sums[:, ::-1])
    sums -= radii[:, None]
    sums /= counts
    # out > sums, i.e. out - sums > 0 for finite floats, first at the largest k
    np.greater(out, sums, out=positive)
    theta = sums[rows, np.argmax(positive, axis=1)]
    np.subtract(V, theta[:, None], out=out)
    np.maximum(out, 0.0, out=out)
    out[zero_rows] = 0.0
    return out


def _projection_layout(radii, m):
    """`_project_rows`' row indices, float candidate counts m..1 and zero-radius rows."""
    return np.arange(radii.size), np.arange(m, 0, -1, dtype=float), np.flatnonzero(radii <= 0)


def group_shrink(values, threshold: float, out=None) -> np.ndarray:
    """Column-wise soft threshold of the Euclidean norm of a 2-d float array.

    Each column v becomes max(0, 1 - threshold / ||v||_2) * v, threshold >= 0.
    out, if given, receives the result and must not overlap values.
    """
    if out is None:
        out = np.empty_like(values)
    # the column norms exactly as np.linalg.norm(values, axis=0) computes
    # them, with out holding the squares
    np.multiply(values, values, out=out)
    norms = np.sqrt(np.add.reduce(out, axis=0))
    ratio = np.zeros_like(norms)
    np.divide(threshold, norms, out=ratio, where=norms > 0)
    np.multiply(values, np.maximum(0.0, 1.0 - ratio)[None, :], out=out)
    return out


# Divisor between the penalty scale and the ADMM step weight. Small divisors
# make the linear cost term cost / rho vanish from the update, so ties between
# candidate columns never resolve; large ones make the shrink threshold
# kappa / rho unreachable within the iteration budget. 1e4 sits in the window
# that recovers the exact minimizer across penalty / cost ratios from 1e2 to
# 1e6 while keeping iteration counts in the hundreds.
_PENALTY_RHO_DIVISOR = 1e4
_RHO_FLOOR = 1.0
# Residual balancing: rho is multiplied or divided by _BALANCING_FACTOR when
# one residual exceeds the other by more than _BALANCING_RATIO, at most
# _MAX_BALANCING_STEPS times per solve. A power of two, the factor and its
# inverse scale exactly, so rho * (1 / factor) is rho / factor to the bit.
_BALANCING_RATIO = 10.0
_BALANCING_FACTOR = 2.0
_MAX_BALANCING_STEPS = 10
# ADMM stops once each residual is within _EPS_ABS * n plus _EPS_REL times
# the size of the iterates it compares (Boyd et al., ADMM, section 3.3.1).
_EPS_ABS = 1e-6
_EPS_REL = 1e-4
# ADMM over-relaxation alpha, in (0, 2) for convergence; see the module docstring.
_OVER_RELAXATION = 1.6
MAX_ITERATIONS = 10000


def _initial_rho(kappa: float, p0_norm: float) -> float:
    """Step weight start point: tracks the penalty scale, floored at
    _RHO_FLOOR, so that huge penalties stay solvable; residual balancing
    does the fine adjustment from there."""
    return max(_RHO_FLOOR, kappa / (_PENALTY_RHO_DIVISOR * p0_norm))


def _positive_norms(slack) -> np.ndarray:
    """Column norms of max(slack, 0). Each column is divided by its largest
    entry before squaring, so slacks of the penalty's size cannot overflow."""
    positive = np.maximum(slack, 0.0)
    scale = positive.max(axis=0)
    np.divide(positive, scale, out=positive, where=scale > 0)
    return scale * np.sqrt(np.add.reduce(positive * positive, axis=0))


def _dual_shift(slack, kappa: float) -> float:
    """Smallest t >= 0 with ||(slack[:, j] - t)_+||_2 <= kappa for every j.

    slack[:, j] is u - cost[:, j] on the rows with positive weight, so u - t
    is dual feasible. For a violated column a, sorted descending, t is the
    root of sum_k (a_k - t)_+^2 = kappa^2: with the k entries above the root
    active, the smaller root of k t^2 - 2 S1 t + S2 - kappa^2, written as
    (S2 - kappa^2) / (S1 + sqrt(S1^2 - k (S2 - kappa^2))) to avoid
    cancellation.
    """
    over = np.flatnonzero(_positive_norms(slack) > kappa)
    if over.size == 0:
        return 0.0
    a = -np.sort(-slack[:, over], axis=0)
    s1 = np.cumsum(a, axis=0)
    s2 = np.cumsum(a * a, axis=0)
    # sum_{i <= k} (a_i - a_k)^2 grows with k; the active count is how many
    # entries leave it below kappa^2 (at least one, for kappa = 0)
    k = np.arange(1, a.shape[0] + 1)[:, None]
    spread = s2 - 2.0 * a * s1 + k * a * a
    active = np.maximum((spread < kappa * kappa).sum(axis=0), 1)
    columns = np.arange(over.size)
    S1 = s1[active - 1, columns]
    excess = s2[active - 1, columns] - kappa * kappa
    root = excess / (S1 + np.sqrt(np.maximum(S1 * S1 - active * excess, 0.0)))
    return max(float(root.max()), 0.0)


def solve_son(
    cost: CostMatrix,
    p0: ProbabilityVector,
    penalty: float,
    max_iterations: int = MAX_ITERATIONS,
) -> SonResult:
    """Column-norm-penalized transport relaxation: the certified single-site
    plan when its closed-form dual is feasible, ADMM otherwise.

    penalty is the user-facing weight on the support surrogate; internally
    it is divided by ||p0||_2 so a plan concentrated on a single column pays
    exactly `penalty`. max_iterations caps the ADMM iterations.
    """
    check_relaxation_inputs(cost, p0, penalty)
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    C = cost.entries
    weights = p0.weights
    p0_norm = p0.norm2()
    kappa = penalty / p0_norm
    if not np.isfinite(kappa):
        raise ValueError(f"penalty {penalty!r} over ||p0||_2 overflows")
    rows = weights > 0
    medoid = int(np.argmin(weights @ C))
    # u - cost[:, j] as (cost[:, s] - cost[:, j]) + kappa p0 / ||p0||, so a
    # duplicate of s gets exactly column s's slack, whose norm is kappa up
    # to rounding and bounds the others. The dual is feasible, the shift
    # of _dual_shift zero, iff no column's norm exceeds that bound.
    slack = (C[rows, medoid][:, None] - C[rows]) + kappa * (weights[rows][:, None] / p0_norm)
    norms = _positive_norms(slack)
    certified = norms.max() <= max(kappa, norms[medoid])
    if certified:
        plan = np.zeros_like(C)
        plan[:, medoid] = weights
        iterations, converged, history = 0, True, np.empty((0, 2))
    else:
        plan, iterations, converged, history = _admm(
            C, weights, kappa, _initial_rho(kappa, p0_norm), max_iterations
        )
    feasible = TransportPlan(plan, p0)
    X = feasible.entries
    column_norms = np.linalg.norm(X, axis=0)
    objective = transport_cost(cost, X) + kappa * float(column_norms.sum())
    gap = 0.0
    if not certified:
        # u_i = cost_ij + kappa x_ij / ||x_j|| at each row's largest entry,
        # the row multiplier of a plan that is optimal on its support
        j = X[rows].argmax(axis=1)
        u = C[rows, j] + kappa * X[rows, j] / column_norms[j]
        shift = _dual_shift(u[:, None] - C[rows], kappa)
        gap = objective - (float(weights[rows] @ u) - shift * float(weights[rows].sum()))
    report = SolveReport(
        objective=objective,
        iterations=iterations,
        status=STATUS_OPTIMAL if converged else STATUS_MAX_ITERATIONS,
        duality_gap=gap,
    )
    return SonResult(plan=feasible, report=report, residual_history=history)


def _norm(x) -> float:
    """np.linalg.norm(x) of a contiguous float array, by the same operations."""
    return float(np.sqrt(np.dot(x.ravel(), x.ravel())))


def _admm(C, weights, kappa, rho, max_iterations):
    """The ADMM loop on cost entries C and row sums weights, from the
    diagonal plan and step weight rho: (plan, iterations, converged,
    residual history)."""
    n = C.shape[0]
    # Every iterate lives in a buffer allocated here, once per solve; each
    # step writes the same floating-point operations, in the same order, as
    # the textbook update noted beside it.
    scaled_cost = C / rho
    plan = np.diag(weights)
    consensus = plan.copy()
    previous = np.empty_like(plan)
    dual = np.zeros_like(plan)
    work = np.empty_like(plan)
    scratch = (np.empty_like(plan), np.empty(plan.shape, dtype=bool))
    layout = _projection_layout(weights, n)

    history = []
    balancing_steps = 0
    converged = False

    for iterations in range(1, max_iterations + 1):
        # plan = project(consensus - dual - cost / rho)
        np.subtract(consensus, dual, out=work)
        work -= scaled_cost
        _project_rows(work, weights, out=plan, scratch=scratch, layout=layout)
        # relaxed = alpha plan + (1 - alpha) consensus, in work; consensus =
        # shrink(dual + relaxed), keeping the old one as previous; dual =
        # dual + relaxed - consensus
        np.multiply(plan, _OVER_RELAXATION, out=work)
        work += np.multiply(consensus, 1.0 - _OVER_RELAXATION, out=scratch[0])
        previous, consensus = consensus, previous
        dual += work
        group_shrink(dual, kappa / rho, out=consensus)
        dual -= consensus

        np.subtract(plan, consensus, out=work)
        primal_res = _norm(work)
        np.subtract(consensus, previous, out=work)
        dual_res = rho * _norm(work)
        history.append((primal_res, dual_res))
        eps_pri = _EPS_ABS * n + _EPS_REL * max(_norm(plan), _norm(consensus))
        if primal_res <= eps_pri and dual_res <= _EPS_ABS * n + _EPS_REL * rho * _norm(dual):
            converged = True
            break

        low, high = sorted((primal_res, dual_res))
        if balancing_steps < _MAX_BALANCING_STEPS and high > _BALANCING_RATIO * low:
            factor = _BALANCING_FACTOR if primal_res > dual_res else 1.0 / _BALANCING_FACTOR
            rho *= factor
            dual /= factor
            balancing_steps += 1
            np.divide(C, rho, out=scaled_cost)

    return plan, iterations, converged, np.asarray(history)
