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
a scaled dual variable ties them together. Residual balancing doubles or
halves the step weight rho when the primal and dual residuals drift more
than a factor apart, a bounded number of times. The status still comes
from the residuals; the report's duality_gap reads u off the final plan
(u_i = cost_ij + kappa x_ij / ||x_j||_2 at the largest entry of row i) and
shifts it feasible.
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
    """plan is the row-feasible iterate; auxiliary the shrunken consensus
    copy, whose exact zero columns indicate the support the penalty chose.
    residual_history holds the (primal, dual) residuals of every iteration,
    which also tell where residual balancing changed rho; its last row is
    where the solve stopped. A certified solve runs no iteration: its
    auxiliary is the plan and its history is empty."""

    plan: TransportPlan
    auxiliary: np.ndarray
    report: SolveReport
    residual_history: np.ndarray


def _project_rows(V, radii, out=None, scratch=None):
    """Euclidean projection of each row of V onto {z >= 0, sum z = radius}.

    Sort-and-threshold: with a row's entries sorted descending, find the
    largest k whose running mean leaves the k-th entry positive after
    shifting, then subtract that shift and clamp at zero. Rows with radius
    0 become 0.

    out receives the projection. scratch is a (float, bool) pair of arrays
    shaped like V for the running sums and the threshold test. Both are
    allocated when not given, so a caller that projects repeatedly passes
    them and allocates no n x m array per call. Neither may overlap V.
    """
    n, m = V.shape
    if out is None:
        out = np.empty_like(V)
    sums, positive = scratch or (np.empty_like(V), np.empty(V.shape, dtype=bool))
    # rows sorted descending, in out
    np.negative(V, out=out)
    out.sort(axis=1)
    np.negative(out, out=out)
    np.cumsum(out, axis=1, out=sums)
    # sums becomes the shift (css_k - r) / k of every candidate k
    sums -= radii[:, None]
    sums /= np.arange(1, m + 1)
    np.subtract(out, sums, out=out)
    np.greater(out, 0, out=positive)
    kstar = m - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = sums[np.arange(n), kstar]
    np.subtract(V, theta[:, None], out=out)
    np.maximum(out, 0.0, out=out)
    out[radii <= 0] = 0.0
    return out


def group_shrink(values, threshold: float, out=None) -> np.ndarray:
    """Column-wise soft threshold of the Euclidean norm of a 2-d array.

    Each column v becomes max(0, 1 - threshold / ||v||_2) * v. out, if
    given, receives the result and must not overlap values.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    V = np.asarray(values, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a 2-d array")
    if out is None:
        out = np.empty_like(V)
    # the column norms exactly as np.linalg.norm(V, axis=0) computes them,
    # with out holding the squares
    np.multiply(V, V, out=out)
    norms = np.sqrt(np.add.reduce(out, axis=0))
    ratio = np.zeros_like(norms)
    np.divide(threshold, norms, out=ratio, where=norms > 0)
    np.multiply(V, np.maximum(0.0, 1.0 - ratio)[None, :], out=out)
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
# _MAX_BALANCING_STEPS times per solve.
_BALANCING_RATIO = 10.0
_BALANCING_FACTOR = 2.0
_MAX_BALANCING_STEPS = 10
# ADMM stops once each residual is within _EPS_ABS * n plus _EPS_REL times
# the size of the iterates it compares (Boyd et al., ADMM, section 3.3.1).
_EPS_ABS = 1e-6
_EPS_REL = 1e-4
MAX_ITERATIONS = 10000


def _initial_rho(kappa: float, p0_norm: float) -> float:
    """Step weight start point: tracks the penalty scale, floored at
    _RHO_FLOOR, so that huge penalties stay solvable; residual balancing
    does the fine adjustment from there."""
    return max(_RHO_FLOOR, kappa / (_PENALTY_RHO_DIVISOR * max(p0_norm, 1e-12)))


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
        consensus, iterations, converged = plan.copy(), 0, True
        history = np.empty((0, 2))
    else:
        plan, consensus, iterations, converged, history = _admm(
            cost, p0, penalty, max_iterations
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
    return SonResult(
        plan=feasible, auxiliary=consensus, report=report, residual_history=history
    )


def _admm(cost, p0, penalty, max_iterations):
    """The ADMM loop from the diagonal plan: (plan, consensus, iterations,
    converged, residual history)."""
    n = cost.shape[0]
    p0_norm = p0.norm2()
    kappa = penalty / p0_norm
    rho = _initial_rho(kappa, p0_norm)
    # Every iterate lives in a buffer allocated here, once per solve; each
    # step writes the same floating-point operations, in the same order, as
    # the textbook update noted beside it.
    scaled_cost = cost.entries / rho
    plan = np.diag(p0.weights).astype(float)
    consensus = plan.copy()
    previous = np.empty_like(plan)
    dual = np.zeros_like(plan)
    work = np.empty_like(plan)
    scratch = (np.empty_like(plan), np.empty(plan.shape, dtype=bool))

    history = []
    balancing_steps = 0
    converged = False

    for iterations in range(1, max_iterations + 1):
        # plan = project(consensus - dual - cost / rho)
        np.subtract(consensus, dual, out=work)
        work -= scaled_cost
        _project_rows(work, p0.weights, out=plan, scratch=scratch)
        # consensus = shrink(plan + dual), keeping the old one as previous
        previous, consensus = consensus, previous
        np.add(plan, dual, out=work)
        group_shrink(work, kappa / rho, out=consensus)
        # dual = dual + plan - consensus
        dual += plan
        dual -= consensus

        np.subtract(plan, consensus, out=work)
        primal_res = float(np.linalg.norm(work))
        np.subtract(consensus, previous, out=work)
        dual_res = float(rho * np.linalg.norm(work))
        history.append((primal_res, dual_res))
        eps_pri = _EPS_ABS * n + _EPS_REL * max(
            float(np.linalg.norm(plan)), float(np.linalg.norm(consensus))
        )
        eps_dual = _EPS_ABS * n + _EPS_REL * rho * float(np.linalg.norm(dual))
        if primal_res <= eps_pri and dual_res <= eps_dual:
            converged = True
            break

        if balancing_steps < _MAX_BALANCING_STEPS:
            if primal_res > _BALANCING_RATIO * dual_res:
                rho *= _BALANCING_FACTOR
                dual /= _BALANCING_FACTOR
                balancing_steps += 1
                np.divide(cost.entries, rho, out=scaled_cost)
            elif dual_res > _BALANCING_RATIO * primal_res:
                rho /= _BALANCING_FACTOR
                dual *= _BALANCING_FACTOR
                balancing_steps += 1
                np.divide(cost.entries, rho, out=scaled_cost)

    return plan, consensus, iterations, converged, np.asarray(history)
