"""Dense revised simplex over a column-compressed constraint matrix.

Standard form is min c.x subject to A x = b, x >= 0 with b >= 0. The solver
keeps the explicit basis inverse of its last rebuild and each pivot since as
a rank-1 term beside it (the product form of the inverse; Dantzig &
Orchard-Hays, 1954), so a pivot writes two m-vectors instead of rewriting an
m x m matrix. It rebuilds the inverse from scratch every _REFACTOR_EVERY
pivots for numerical hygiene, which also bounds the number of terms. A
rebuild inverts only the bump: the square block of the basis left once the
columns with a single entry (slacks and bounds) and the rows they cover are
set aside; those singletons enter the inverse as reciprocals (Suhl & Suhl,
ORSA J. Comput. 1990). Pricing is Dantzig (most negative reduced cost, lowest
index on ties); after 3 * constraint_count consecutive degenerate pivots it
switches to Bland's rule until a nondegenerate step occurs, which guarantees
termination.

There is no phase 1: a solve starts from the caller's basis, which must be
primal feasible. A solve returns an optimum or raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DEGENERATE_STEP = 1e-12
_PIVOT_TOLERANCE = 1e-9
_RATIO_TOLERANCE = 1e-9
_REFACTOR_EVERY = 50
# a solve may take this many pivots per variable and constraint
_PIVOT_BUDGET_FACTOR = 50


@dataclass(frozen=True)
class LinearProgram:
    """min objective.x s.t. A x = rhs, x >= 0, with rhs >= 0.

    A is column-compressed: column j holds the coefficients
    vals[colptr[j]:colptr[j + 1]] in rows rowidx[colptr[j]:colptr[j + 1]],
    listed in strictly increasing row order; an unsorted or repeated row is
    rejected, not merged. A stored zero counts as an entry of its column.
    """

    objective: np.ndarray
    colptr: np.ndarray
    rowidx: np.ndarray
    vals: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        colptr = np.asarray(self.colptr, dtype=np.int64)
        rowidx = np.asarray(self.rowidx, dtype=np.int64)
        vals = np.asarray(self.vals, dtype=float)
        n, m = c.size, b.size
        if c.ndim != 1 or n < 1:
            raise ValueError("need at least one variable")
        if b.ndim != 1:
            raise ValueError("rhs must be a vector")
        if colptr.shape != (n + 1,) or colptr[0] != 0 or (np.diff(colptr) < 0).any():
            raise ValueError("column pointers do not match the variable count")
        if rowidx.shape != (colptr[-1],) or vals.shape != rowidx.shape:
            raise ValueError("entry arrays do not match the column pointers")
        if (b < 0).any():
            raise ValueError("standard form requires rhs >= 0")
        if not (np.isfinite(c).all() and np.isfinite(b).all() and np.isfinite(vals).all()):
            raise ValueError("nonfinite problem data")
        if rowidx.size and (rowidx.min() < 0 or rowidx.max() >= m):
            raise ValueError("row index out of range")
        cols = np.repeat(np.arange(n), np.diff(colptr))
        if (np.diff(rowidx)[cols[1:] == cols[:-1]] <= 0).any():
            raise ValueError("rows within a column must be strictly increasing")
        empty = np.bincount(rowidx[vals != 0.0], minlength=m) == 0
        if empty.any():
            raise ValueError(f"row {int(np.argmax(empty))} has no nonzero coefficient")
        for name, value in (("objective", c), ("rhs", b), ("colptr", colptr),
                            ("rowidx", rowidx), ("vals", vals)):
            object.__setattr__(self, name, value)
        nonempty = np.diff(colptr) > 0
        object.__setattr__(self, "_nonempty", nonempty)
        object.__setattr__(self, "_starts", colptr[:-1][nonempty])

    @property
    def variable_count(self) -> int:
        return self.objective.size

    @property
    def constraint_count(self) -> int:
        return self.rhs.size

    def column(self, j: int) -> np.ndarray:
        out = np.zeros(self.constraint_count)
        lo, hi = self.colptr[j], self.colptr[j + 1]
        out[self.rowidx[lo:hi]] = self.vals[lo:hi]
        return out

    def transpose_dot(self, y: np.ndarray) -> np.ndarray:
        """A.T @ y over all columns, using the CSC segment layout."""
        out = np.zeros(self.variable_count)
        if self.vals.size:
            contrib = self.vals * y[self.rowidx]
            out[self._nonempty] = np.add.reduceat(contrib, self._starts)
        return out


@dataclass(frozen=True)
class LpSolution:
    """An optimal solve's result; basis names one column per row, and dual
    holds its row prices."""

    primal: np.ndarray
    objective_value: float
    basis: np.ndarray
    dual: np.ndarray
    pivots: int = 0


class _SimplexState:
    """Basis bookkeeping over the columns of one program.

    The inverse of the current basis is binv + P[:, :k] @ Q[:k]: binv is
    the inverse built at the last refactor, and each of the k pivots since
    adds one rank-1 term.
    """

    def __init__(self, lp, basis):
        self.lp = lp
        self.basis = basis
        self.pivots = 0
        self.binv = np.empty((lp.constraint_count, lp.constraint_count))
        self.refactor()

    def refactor(self):
        """Invert the basis by blocks around its singleton columns.

        Positions U hold one entry each (row s_k, value v_k); the rows R no
        singleton covers and the other positions N leave the square bump
        M = B[R, N], so B^-1 is diag(1 / v) and inv(M) joined by
        -(B[s, N] inv(M)) / v in rows U, columns R.
        """
        lp, m = self.lp, self.lp.constraint_count
        # the rebuild folds in every term since the last one; their buffers
        # go first, so that the rebuild's temporaries never sit beside them
        self.P = self.Q = None
        starts = lp.colptr[self.basis]
        widths = lp.colptr[self.basis + 1] - starts
        single = widths == 1
        U, N = np.flatnonzero(single), np.flatnonzero(~single)
        s, v = lp.rowidx[starts[U]], lp.vals[starts[U]]
        hits = np.bincount(s, minlength=m)
        if (hits > 1).any() or (v == 0.0).any():
            raise RuntimeError("basis matrix became singular")
        R = np.flatnonzero(hits == 0)
        # slot[r]: r's index in s for a covered row, in R otherwise
        slot = np.empty(m, dtype=np.int64)
        slot[s] = np.arange(U.size)
        slot[R] = np.arange(R.size)
        lengths = widths[N]
        col = np.repeat(np.arange(N.size), lengths)
        entry = np.arange(col.size) + np.repeat(starts[N] - (np.cumsum(lengths) - lengths), lengths)
        rows, vals = lp.rowidx[entry], lp.vals[entry]
        covered = hits[rows] > 0
        bump = np.zeros((R.size, N.size))
        bump[slot[rows[~covered]], col[~covered]] = vals[~covered]
        coupling = np.zeros((U.size, N.size))
        coupling[slot[rows[covered]], col[covered]] = vals[covered]
        try:
            # rebinding frees M before its inverse is written into binv
            bump = np.linalg.inv(bump)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("basis matrix became singular") from exc
        self.binv.fill(0.0)
        self.binv[U, s] = 1.0 / v
        self.binv[np.ix_(N, R)] = bump
        self.binv[np.ix_(U, R)] = (coupling @ bump) / -v[:, None]
        self.xb = self.binv @ lp.rhs
        # the terms of the pivots since this rebuild: columns of P, rows of Q
        self.P = np.empty((m, _REFACTOR_EVERY))
        self.Q = np.empty((_REFACTOR_EVERY, m))
        self.k = 0

    def ftran(self, a: np.ndarray) -> np.ndarray:
        """B^-1 a for the current basis B."""
        k = self.k
        return self.binv @ a + self.P[:, :k] @ (self.Q[:k] @ a)

    def btran(self, c: np.ndarray) -> np.ndarray:
        """c B^-1 for the current basis B."""
        k = self.k
        return c @ self.binv + (c @ self.P[:, :k]) @ self.Q[:k]

    def pivot(self, entering: int, leave_pos: int, d: np.ndarray, theta: float):
        # with d = B^-1 a_entering and r = leave_pos, the new inverse is
        # (I - (d - e_r) e_r^T / d_r) B^-1: one more term, -(d - e_r) B^-1[r] / d_r
        k = self.k
        self.Q[k] = (self.binv[leave_pos] + self.P[leave_pos, :k] @ self.Q[:k]) / d[leave_pos]
        np.negative(d, out=self.P[:, k])
        self.P[leave_pos, k] += 1.0
        self.k = k + 1
        self.xb -= theta * d
        self.xb[leave_pos] = theta
        self.basis[leave_pos] = entering
        self.pivots += 1
        if self.k == _REFACTOR_EVERY:
            self.refactor()


def _run_simplex(state: _SimplexState, budget: int) -> None:
    """Iterate to optimality for the program's costs; RuntimeError when the
    budget of pivots runs out or the program is unbounded."""
    cost = state.lp.objective
    # reduced costs carry rounding in proportion to the costs themselves
    tolerance = _PIVOT_TOLERANCE * max(1.0, float(np.abs(cost).max()))
    bland_trigger = 3 * state.lp.constraint_count
    degenerate_run = 0
    use_bland = False
    while True:
        if state.pivots >= budget:
            raise RuntimeError(f"simplex pivot budget of {budget} ran out")
        y = state.btran(cost[state.basis])
        reduced = cost - state.lp.transpose_dot(y)
        reduced[state.basis] = np.inf
        if use_bland:
            candidates = np.flatnonzero(reduced < -tolerance)
            if candidates.size == 0:
                return
            entering = int(candidates[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -tolerance:
                return
        d = state.ftran(state.lp.column(entering))
        blocking = np.flatnonzero(d > _RATIO_TOLERANCE)
        if blocking.size == 0:
            raise RuntimeError("simplex found the program unbounded")
        ratios = np.maximum(state.xb[blocking], 0.0) / d[blocking]
        ties = blocking[ratios <= ratios.min() * (1.0 + 1e-12) + 1e-15]
        leave_pos = int(ties[np.argmin(state.basis[ties])])
        theta = max(state.xb[leave_pos], 0.0) / d[leave_pos]
        state.pivot(entering, leave_pos, d, theta)
        if theta <= _DEGENERATE_STEP:
            degenerate_run += 1
            if degenerate_run >= bland_trigger:
                use_bland = True
        else:
            degenerate_run = 0
            use_bland = False


def solve_lp(lp: LinearProgram, initial_basis) -> LpSolution:
    """Solve a standard-form program from a primal feasible basis.

    The start is initial_basis, column ids, one per row. ValueError is
    raised when the start is singular or not primal feasible. Resolving
    from an optimal basis therefore costs zero pivots. RuntimeError is
    raised when the pivot budget runs out or the program is unbounded.
    """
    m, n = lp.constraint_count, lp.variable_count
    basis = np.array(list(initial_basis), dtype=np.int64)
    if basis.shape != (m,) or (basis < 0).any() or (basis >= n).any():
        raise ValueError("initial basis must name one column per row")
    try:
        state = _SimplexState(lp, basis)
    except RuntimeError:
        raise ValueError("initial basis is singular") from None
    # basic values carry rounding in proportion to the right-hand side
    if state.xb.min(initial=0.0) < -_RATIO_TOLERANCE * lp.rhs.max(initial=1.0):
        raise ValueError("initial basis is not primal feasible")
    _run_simplex(state, _PIVOT_BUDGET_FACTOR * (n + m))
    # each pivot since the last refactor leaves its rounding in the low-rank
    # term and in xb
    if state.k:
        state.refactor()
    x = np.zeros(n)
    x[state.basis] = state.xb
    dual = lp.objective[state.basis] @ state.binv
    return LpSolution(x, float(lp.objective @ x), state.basis.copy(), dual, state.pivots)
