"""Independent brute-force oracles used to pin expected values in tests.

Nothing in here touches the solver code paths under test: linear programs
are settled by enumerating basic solutions, transport instances by scanning
permutations, projections by scanning thresholds. The facility relaxation
and linf's pinned-column transport program are written out in full for the
generic simplex, as LP references for the cutting-plane and closed-form
solvers.
"""

import itertools
import math

import numpy as np

from otclust.linf import _ColumnProgram
from otclust.lp import LinearProgram

BFS_TOL = 1e-9


def enumerate_lp(c, A, b):
    """Exhaustive solve of min c.x, A x = b, x >= 0 for small dense data.

    Returns (status, x, value) with status in {"optimal", "infeasible",
    "unbounded"}. Feasibility is decided by the existence of a basic
    feasible solution; unboundedness by a negative-cost vertex of the
    normalized recession cone {A d = 0, sum d = 1, d >= 0}.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    best_x, best_val = None, np.inf
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xb = np.linalg.solve(B, b)
        if (xb < -BFS_TOL).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = np.maximum(xb, 0.0)
        val = float(c @ x)
        if val < best_val - 1e-12:
            best_val, best_x = val, x
    if best_x is None:
        return "infeasible", None, None
    A_ray = np.vstack([A, np.ones(n)])
    b_ray = np.concatenate([np.zeros(m), [1.0]])
    for cols in itertools.combinations(range(n), m + 1):
        B = A_ray[:, cols]
        if B.shape[0] != B.shape[1] or abs(np.linalg.det(B)) < 1e-12:
            continue
        db = np.linalg.solve(B, b_ray)
        if (db < -BFS_TOL).any():
            continue
        d = np.zeros(n)
        d[list(cols)] = np.maximum(db, 0.0)
        if c @ d < -1e-9:
            return "unbounded", None, None
    return "optimal", best_x, best_val


def program_from_rows(objective, rows, rhs):
    """A LinearProgram from sparse rows of (column, coefficient) pairs."""
    entries = [(j, r, v) for r, row in enumerate(rows) for j, v in row]
    cols = np.array([j for j, _, _ in entries], dtype=np.int64)
    rowidx = np.array([r for _, r, _ in entries], dtype=np.int64)
    vals = np.array([v for _, _, v in entries], dtype=float)
    order = np.argsort(cols, kind="stable")
    colptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=len(objective)))])
    return LinearProgram(objective, colptr, rowidx[order], vals[order], rhs)


def facility_lp(cost, weights, penalty):
    """The opening-penalized transport program with every coupling written
    out: min sum cost_ij x_ij + penalty sum y_j subject to sum_j x_ij = w_i,
    x_ij <= w_i y_j, y_j <= 1.

    Columns are the n^2 plan entries (row-major), the n openings, one slack
    per coupling row and one per bound row, so the optimal value of the
    program is the relaxation's optimum.
    """
    C = np.asarray(cost, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = w.size
    assert C.shape == (n, n)
    plan = lambda i, j: i * n + j
    opening = lambda j: n * n + j
    coupling_slack = lambda i, j: n * n + n + i * n + j
    bound_slack = lambda j: 2 * n * n + n + j
    rows = [[(plan(i, j), 1.0) for j in range(n)] for i in range(n)]
    rows += [
        [(plan(i, j), 1.0), (opening(j), -w[i]), (coupling_slack(i, j), 1.0)]
        for i in range(n)
        for j in range(n)
    ]
    rows += [[(opening(j), 1.0), (bound_slack(j), 1.0)] for j in range(n)]
    rhs = np.concatenate([w, np.zeros(n * n), np.ones(n)])
    objective = np.zeros(2 * n * n + 2 * n)
    objective[: n * n] = C.reshape(-1)
    objective[n * n : n * n + n] = penalty
    return program_from_rows(objective, rows, rhs)


def inner_cost(cost, p0, index, t, config=None):
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


def permutation_transport_cost(cost):
    """Optimal uniform-marginal transport cost via assignment enumeration."""
    C = np.asarray(cost, dtype=float)
    n = C.shape[0]
    assert C.shape == (n, n)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        val = sum(C[i, perm[i]] for i in range(n)) / n
        best = min(best, val)
    return best


def projection_threshold_scan(v, radius, step=1e-4):
    """Simplex projection by scanning the shift parameter on a grid.

    The projection of v onto {z >= 0, sum z = radius} has the form
    max(v - theta, 0); this scans theta densely and returns the candidate
    whose mass is closest to the radius.
    """
    v = np.asarray(v, dtype=float)
    lo = float(v.min()) - radius - step
    hi = float(v.max()) + step
    grid = np.arange(lo, hi, step)
    masses = np.maximum(v[None, :] - grid[:, None], 0.0).sum(axis=1)
    best = int(np.argmin(np.abs(masses - radius)))
    return np.maximum(v - grid[best], 0.0)


def _compositions(s, d):
    if d == 1:
        yield (s,)
        return
    for k in range(s + 1):
        for rest in _compositions(s - k, d - 1):
            yield (k,) + rest


def simplex_grid(total, dims, steps):
    """All points with coordinates total * k_i / steps, k_i ints, sum = total."""
    for comp in _compositions(steps, dims):
        yield tuple(total * k / steps for k in comp)
