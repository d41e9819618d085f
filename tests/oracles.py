"""Independent brute-force oracles used to pin expected values in tests.

Nothing in here touches the solver code paths under test: linear programs
are settled by enumerating basic solutions, transport instances by scanning
permutations, projections by scanning thresholds, and `northwest_corner`
fills the greedy staircase coupling cell by cell. `two_phase` is the
textbook two-phase simplex for programs without a ready start basis, run as
phase-1 and phase-2 calls of `solve_lp`, which itself only runs from a
feasible basis. The facility relaxation and linf's pinned-column transport
program are written out in full for the generic simplex, as LP references
for the cutting-plane and closed-form solvers, and `support_envelope`
writes the envelope of the column count as a subset LP for it. `son_reference` is the ADMM loop for `son` written with
a fresh array per operation, the bit-for-bit reference for the solver's
in-place loop; `reference_row_assignment` is the clustering rule one row at
a time. `medoid_dual_excess` checks the single-site dual of `son` one column
at a time, and `dual_shift_bisection` finds its feasibility shift by
bisection.
"""

import itertools
import math

import numpy as np

from otclust.core import STATUS_OPTIMAL, TransportPlan
from otclust.lp import LinearProgram, LpSolution, solve_lp
from otclust.son import (
    _BALANCING_FACTOR,
    _BALANCING_RATIO,
    _EPS_ABS,
    _EPS_REL,
    _MAX_BALANCING_STEPS,
    MAX_ITERATIONS,
    _initial_rho,
)

BFS_TOL = 1e-9
# the largest artificial sum a feasible phase 1 may end with
PHASE1_TOL = 1e-7


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


def _dense_program(objective, A, rhs):
    """A LinearProgram from a dense constraint matrix."""
    cols, rows = np.nonzero(A.T)
    colptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=A.shape[1]))])
    return LinearProgram(objective, colptr, rows, A[rows, cols], rhs)


def two_phase(program):
    """Textbook two-phase simplex over public `solve_lp` calls.

    Phase 1 gives each row without a positive singleton column an
    artificial unit column (ids from variable_count on) and minimizes their
    sum from the crash basis. Each artificial still basic at zero leaves on
    the first structural column with a nonzero entry in its row of B^-1 A;
    a row with no such column is a combination of the others, so it is
    dropped, keeps its artificial id in the basis and gets dual 0. Phase 2
    solves the kept rows from the remaining structural basis.
    """
    m, n = program.constraint_count, program.variable_count
    A = np.zeros((m, n))
    A[program.rowidx, np.repeat(np.arange(n), np.diff(program.colptr))] = program.vals
    singles = (np.count_nonzero(A, axis=0) == 1) & (A.max(axis=0) > 0)
    uncovered = np.flatnonzero(~(A[:, singles] > 0).any(axis=1))
    k = uncovered.size
    if k == 0:
        return solve_lp(_dense_program(program.objective, A, program.rhs))
    full = np.hstack([A, np.zeros((m, k))])
    full[uncovered, n + np.arange(k)] = 1.0
    first = solve_lp(_dense_program(np.repeat([0.0, 1.0], [n, k]), full, program.rhs))
    basis, pivots = first.basis.copy(), first.pivots
    if first.status != STATUS_OPTIMAL:
        return LpSolution(first.primal[:n], np.nan, basis, first.status, None, pivots)
    if first.objective_value > PHASE1_TOL:
        return LpSolution(first.primal[:n], np.nan, basis, "infeasible", None, pivots)
    dropped = []
    binv = np.linalg.inv(full[:, basis])
    for position in np.flatnonzero(basis >= n):
        entering = np.flatnonzero(np.abs(binv[position] @ A) > BFS_TOL)
        if entering.size:
            basis[position] = entering[0]
            d = binv @ A[:, entering[0]]
            pivot_row = binv[position] / d[position]
            binv -= np.outer(d, pivot_row)
            binv[position] = pivot_row
            pivots += 1
        else:
            dropped.append(position)
    kept = np.ones(m, dtype=bool)
    kept[uncovered[basis[dropped] - n]] = False
    second = solve_lp(
        _dense_program(program.objective, A[kept], program.rhs[kept]),
        initial_basis=np.delete(basis, dropped),
    )
    basis[np.setdiff1d(np.arange(m), dropped)] = second.basis
    dual = None
    if second.dual is not None:
        dual = np.zeros(m)
        dual[kept] = second.dual
    return LpSolution(
        second.primal, second.objective_value, basis, second.status, dual,
        pivots + second.pivots,
    )


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


def inner_cost(cost, p0, index, t):
    """Cheapest transport with row sums p0 and exactly mass t on one column,
    solved as an LP with every entry written out.

    Convex piecewise-linear in t on [0, 1]. The start basis only saves
    pivots: it fills the column row by row in index order and sends the
    rest of each row to its cheapest other column, and solve_lp prices every
    column from there.
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
    C = cost.entries
    # entry (j, k) is column j * n + k; row n sums column `index`
    rows = [[(j * n + k, 1.0) for k in range(n)] for j in range(n)]
    rows.append([(j * n + index, 1.0) for j in range(n)])
    program = program_from_rows(C.reshape(-1), rows, np.append(p0.weights, t))
    other = np.where(np.arange(n) == index, np.inf, C).argmin(axis=1)
    left, rest = p0.weights.copy(), [t, 1.0 - t]
    basis, j, side = [], 0, 0
    while len(basis) < n + 1:
        basis.append(j * n + (index if side == 0 else other[j]))
        mass = min(left[j], rest[side])
        left[j] -= mass
        rest[side] -= mass
        if side == 1 or (j < n - 1 and left[j] <= rest[0]):
            j += 1
        else:
            side = 1
    solution = solve_lp(program, initial_basis=basis)
    if solution.status != STATUS_OPTIMAL:
        raise RuntimeError(f"pinned-column LP ended with {solution.status}")
    return float(solution.objective_value)


def northwest_corner(p0, p1):
    """Greedy staircase coupling; feasible, generally suboptimal.

    From cell (0, 0), each cell takes the smaller remaining marginal, and the
    walk moves down when the row is used up, right otherwise. At most
    size(p0) + size(p1) - 1 entries are nonzero.
    """
    a, b = p0.weights.copy(), p1.weights.copy()
    plan = np.zeros((a.size, b.size))
    i = j = 0
    while True:
        mass = min(a[i], b[j])
        plan[i, j] = mass
        a[i] -= mass
        b[j] -= mass
        if i == a.size - 1 and j == b.size - 1:
            return TransportPlan(plan, p0, p1)
        if j == b.size - 1 or (i < a.size - 1 and a[i] <= b[j]):
            i += 1
        else:
            j += 1


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


def son_surrogate(entries, weights):
    """The `son` surrogate sum_j ||entries[:, j]||_2 / ||weights||_2.

    For a plan with row sums `weights` it lies between 1 and the number of
    nonzero columns. Each column contributes at most 1, since its norm is
    bounded by ||weights||_2. The box envelope sum_j max_i entries_ij /
    weights_i (the `lp` surrogate) is never smaller: sqrt(2) against 2 for
    the diagonal plan of (1/2, 1/2).
    """
    scale = float(np.linalg.norm(weights))
    if scale == 0.0:
        raise ValueError("row target has zero mass")
    return float(np.linalg.norm(entries, axis=0).sum() / scale)


def support_envelope(plan, weights):
    """The convex envelope of the occupied-column count over the plans with
    row sums `weights`, evaluated at `plan`, by the subset LP.

    Each nonempty column subset S gets a share lambda_S >= 0 and a block
    Z_S >= 0 that is zero outside S and whose rows sum to lambda_S * weights;
    the blocks add up to the plan, the shares to one, and the program
    minimizes sum_S |S| lambda_S. A column count m gives 2^m - 1 subsets.
    """
    X = np.asarray(plan, dtype=float)
    w = np.asarray(weights, dtype=float)
    n, m = X.shape
    subsets = [
        S for size in range(1, m + 1) for S in itertools.combinations(range(m), size)
    ]
    objective, share, block = [], [], {}
    for k, S in enumerate(subsets):
        share.append(len(objective))
        objective.append(float(len(S)))
        for i in range(n):
            for j in S:
                block[k, i, j] = len(objective)
                objective.append(0.0)
    rows = [
        [(block[k, i, j], 1.0) for k, S in enumerate(subsets) if j in S]
        for i in range(n)
        for j in range(m)
    ]
    rows += [
        [(block[k, i, j], 1.0) for j in S] + [(share[k], -w[i])]
        for k, S in enumerate(subsets)
        for i in range(n)
    ]
    rows.append([(share[k], 1.0) for k in range(len(subsets))])
    rhs = np.concatenate([X.reshape(-1), np.zeros(len(subsets) * n), [1.0]])
    solution = two_phase(program_from_rows(objective, rows, rhs))
    if solution.status != STATUS_OPTIMAL:
        raise RuntimeError(f"subset LP ended with {solution.status}")
    return solution.objective_value


def reference_row_assignment(entries, tie_tol):
    """The clustering rule one row at a time: (assignment, zero-mass rows).

    A row with positive maximum goes to its lowest column within tie_tol of
    that maximum; a row without mass goes to itself.
    """
    assignment, zero_rows = [], []
    for i, row in enumerate(entries):
        top = float(row.max())
        if top <= 0.0:
            assignment.append(i)
            zero_rows.append(i)
        else:
            assignment.append(int(np.flatnonzero(row >= top - tie_tol)[0]))
    return assignment, tuple(zero_rows)


def reference_project_rows(V, radii):
    n, m = V.shape
    out = np.zeros_like(V)
    active = radii > 0
    if not active.any():
        return out
    W = V[active]
    r = radii[active]
    s = -np.sort(-W, axis=1)
    css = np.cumsum(s, axis=1)
    k = np.arange(1, m + 1)
    positive = s - (css - r[:, None]) / k > 0
    kstar = m - 1 - np.argmax(positive[:, ::-1], axis=1)
    rows = np.arange(W.shape[0])
    theta = (css[rows, kstar] - r) / (kstar + 1)
    out[active] = np.maximum(W - theta[:, None], 0.0)
    return out


def _reference_group_shrink(V, threshold):
    norms = np.linalg.norm(V, axis=0)
    ratio = np.zeros_like(norms)
    np.divide(threshold, norms, out=ratio, where=norms > 0)
    return V * np.maximum(0.0, 1.0 - ratio)[None, :]


def son_reference(cost, p0, penalty, max_iterations=MAX_ITERATIONS):
    """The `son` ADMM loop with a fresh array for every intermediate.

    Same operations in the same order as `otclust.son._admm`, so both must
    return the bit-identical (plan, consensus, iterations, converged,
    residual history).
    """
    n = cost.shape[0]
    p0_norm = p0.norm2()
    kappa = penalty / p0_norm
    C = cost.entries
    rho = _initial_rho(kappa, p0_norm)
    plan = np.diag(p0.weights).astype(float)
    consensus = plan.copy()
    dual = np.zeros_like(plan)

    history = []
    balancing_steps = 0
    converged = False

    for iterations in range(1, max_iterations + 1):
        plan = reference_project_rows(consensus - dual - C / rho, p0.weights)
        previous = consensus
        consensus = _reference_group_shrink(plan + dual, kappa / rho)
        dual = dual + plan - consensus

        primal_res = float(np.linalg.norm(plan - consensus))
        dual_res = float(rho * np.linalg.norm(consensus - previous))
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
            elif dual_res > _BALANCING_RATIO * primal_res:
                rho /= _BALANCING_FACTOR
                dual *= _BALANCING_FACTOR
                balancing_steps += 1

    return plan, consensus, iterations, converged, np.asarray(history)


def medoid_dual_excess(cost, weights, penalty):
    """max over columns j != s of ||(u - C_j)_+||_2 - kappa, for the dual
    u = C_s + kappa p0 / ||p0||_2 of the best single site s, on the rows
    with positive weight, one column at a time. The single-site plan is
    optimal for `son` iff this is <= 0 (-inf when there is no other
    column)."""
    C = cost.entries
    w = np.asarray(weights, dtype=float)
    norm = math.sqrt(float(w @ w))
    kappa = penalty / norm
    s = int(np.argmin(w @ C))
    rows = w > 0
    u = C[rows, s] + kappa * w[rows] / norm
    excess = -math.inf
    for j in range(C.shape[1]):
        if j != s:
            violation = np.maximum(u - C[rows, j], 0.0)
            excess = max(excess, math.sqrt(float(violation @ violation)) - kappa)
    return excess


def dual_shift_bisection(slack, kappa, steps=200):
    """Smallest t >= 0 with ||(slack[:, j] - t)_+||_2 <= kappa for every
    column j, by bisection on each column."""
    worst = 0.0
    for a in np.asarray(slack, dtype=float).T:
        if math.sqrt(float(np.maximum(a, 0.0) @ np.maximum(a, 0.0))) <= kappa:
            continue
        lo, hi = 0.0, float(a.max())
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            rest = np.maximum(a - mid, 0.0)
            if math.sqrt(float(rest @ rest)) > kappa:
                lo = mid
            else:
                hi = mid
        worst = max(worst, hi)
    return worst
