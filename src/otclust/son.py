"""Column-sparsity relaxation solved by ADMM.

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

Splitting: a primal copy handles the linear cost and the row constraints
(row-wise projection onto scaled simplexes), a consensus copy handles the
column-norm penalty (column-wise shrinkage), and a scaled dual variable ties
them together. Residual balancing doubles or halves the step weight rho when
the primal and dual residuals drift more than a factor apart, a bounded
number of times.
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
    transport_cost,
)


@dataclass(frozen=True)
class AdmmConfig:
    eps_abs: float = 1e-6
    eps_rel: float = 1e-4
    max_iterations: int = 10000

    def __post_init__(self):
        if not all(np.isfinite(v) and v >= 0 for v in (self.eps_abs, self.eps_rel)):
            raise ValueError("eps_abs and eps_rel must be finite and nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SonResult:
    """plan is the row-feasible iterate; auxiliary the shrunken consensus
    copy, whose exact zero columns indicate the support the penalty chose.
    residual_history holds the (primal, dual) residuals of every iteration,
    which also tell where residual balancing changed rho."""

    plan: TransportPlan
    auxiliary: np.ndarray
    penalty: float
    report: SolveReport
    residual_history: np.ndarray


def project_scaled_simplex(values, radius: float) -> np.ndarray:
    """Euclidean projection of a vector onto {z >= 0, sum z = radius}.

    Sort-and-threshold: with entries sorted descending, find the largest k
    whose running mean leaves the k-th entry positive after shifting, then
    subtract that shift and clamp at zero.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d vector")
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _project_rows(v[None, :], np.array([radius]))[0]


def _project_rows(V, radii, out=None, scratch=None):
    """Row-wise scaled-simplex projection; rows with radius 0 become 0.

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
    """Column-wise soft threshold of the Euclidean norm.

    Each column v becomes max(0, 1 - threshold / ||v||_2) * v; a 1-d input is
    treated as a single column. out, if given, receives the result and must
    not overlap values.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    V = np.asarray(values, dtype=float)
    squeeze = V.ndim == 1
    if squeeze:
        V = V[:, None]
        out = None if out is None else out[:, None]
    if out is None:
        out = np.empty_like(V)
    # the column norms exactly as np.linalg.norm(V, axis=0) computes them,
    # with out holding the squares
    np.multiply(V, V, out=out)
    norms = np.sqrt(np.add.reduce(out, axis=0))
    ratio = np.zeros_like(norms)
    np.divide(threshold, norms, out=ratio, where=norms > 0)
    np.multiply(V, np.maximum(0.0, 1.0 - ratio)[None, :], out=out)
    return out[:, 0] if squeeze else out


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


def _initial_rho(kappa: float, p0_norm: float) -> float:
    """Step weight start point: tracks the penalty scale, floored at
    _RHO_FLOOR, so that huge penalties stay solvable; residual balancing
    does the fine adjustment from there."""
    return max(_RHO_FLOOR, kappa / (_PENALTY_RHO_DIVISOR * max(p0_norm, 1e-12)))


def solve_son(
    cost: CostMatrix,
    p0: ProbabilityVector,
    penalty: float,
    config: AdmmConfig | None = None,
) -> SonResult:
    """ADMM for the column-norm-penalized transport relaxation.

    penalty is the user-facing weight on the support surrogate; internally
    it is divided by ||p0||_2 so a plan concentrated on a single column pays
    exactly `penalty`.
    """
    cfg = config or AdmmConfig()
    n, m = cost.shape
    if n != m:
        raise ValueError("cost matrix must be square for self-transport")
    if p0.size != n:
        raise ValueError("marginal size does not match the cost matrix")
    if penalty < 0:
        raise ValueError("penalty must be nonnegative")

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
    iterations = 0
    primal_res = np.inf
    dual_res = np.inf
    converged = False

    for iterations in range(1, cfg.max_iterations + 1):
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
        eps_pri = cfg.eps_abs * n + cfg.eps_rel * max(
            float(np.linalg.norm(plan)), float(np.linalg.norm(consensus))
        )
        eps_dual = cfg.eps_abs * n + cfg.eps_rel * rho * float(np.linalg.norm(dual))
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

    feasible = TransportPlan(plan, p0)
    objective = transport_cost(cost, feasible.entries) + kappa * float(
        np.linalg.norm(feasible.entries, axis=0).sum()
    )
    report = SolveReport(
        objective=objective,
        iterations=iterations,
        status=STATUS_OPTIMAL if converged else STATUS_MAX_ITERATIONS,
        primal_residual=primal_res,
        dual_residual=dual_res,
    )
    return SonResult(
        plan=feasible,
        auxiliary=consensus,
        penalty=float(penalty),
        report=report,
        residual_history=np.asarray(history),
    )
