"""Dense two-phase revised simplex over a column-compressed constraint matrix.

Standard form is min c.x subject to A x = b, x >= 0 with b >= 0. The solver
keeps an explicit basis inverse, updates it rank-1 per pivot, and rebuilds it
from scratch every _REFACTOR_EVERY pivots for numerical hygiene. Pricing is
Dantzig (most negative reduced cost, lowest index on ties); after
3 * constraint_count consecutive degenerate pivots it switches to Bland's
rule until a nondegenerate step occurs, which guarantees termination.

Phase 1 starts from slack-like singleton columns where available and
artificial variables elsewhere. Redundant rows discovered at the end of
phase 1 (a basic artificial at level zero whose tableau row has no usable
entry) are dropped before phase 2. Artificial columns never reenter the
basis once they leave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
)

_DEGENERATE_STEP = 1e-12
_PIVOT_TOLERANCE = 1e-9
_RATIO_TOLERANCE = 1e-9
_PHASE1_TOLERANCE = 1e-7
_REFACTOR_EVERY = 50
# a solve may take this many pivots per variable and constraint
_PIVOT_BUDGET_FACTOR = 50


@dataclass(frozen=True)
class LinearProgram:
    """min objective.x s.t. A x = rhs, x >= 0, with rhs >= 0.

    A is column-compressed: column j holds the coefficients
    vals[colptr[j]:colptr[j + 1]] in rows rowidx[colptr[j]:colptr[j + 1]].
    Construction sorts each column by row and sums duplicate entries.
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
            keys, inverse = np.unique(cols * m + rowidx, return_inverse=True)
            vals = np.bincount(inverse, weights=vals, minlength=keys.size)
            rowidx, cols = keys % m, keys // m
            colptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
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

    def without_rows(self, keep: np.ndarray) -> "LinearProgram":
        """The program restricted to the rows where keep is True."""
        kept = keep[self.rowidx]
        cols = np.repeat(np.arange(self.variable_count), np.diff(self.colptr))
        counts = np.bincount(cols[kept], minlength=self.variable_count)
        return LinearProgram(
            self.objective,
            np.concatenate([[0], np.cumsum(counts)]),
            (np.cumsum(keep) - 1)[self.rowidx[kept]],
            self.vals[kept],
            self.rhs[keep],
        )


@dataclass(frozen=True)
class LpSolution:
    primal: np.ndarray
    objective_value: float
    basis: np.ndarray
    status: str
    dual: np.ndarray | None = None
    pivots: int = 0


class _SimplexState:
    """Basis bookkeeping: ids >= n denote the artificial column e_(id - n)."""

    def __init__(self, lp, basis, budget):
        self.lp = lp
        self.basis = basis
        self.budget = budget
        self.pivots = 0
        self.n = lp.variable_count
        self.in_basis = np.zeros(self.n, dtype=bool)
        for cid in basis:
            if cid < self.n:
                self.in_basis[cid] = True
        self.refactor()

    def basis_matrix(self) -> np.ndarray:
        m, n = self.lp.constraint_count, self.n
        B = np.zeros((m, m))
        for k, cid in enumerate(self.basis):
            if cid < n:
                lo, hi = self.lp.colptr[cid], self.lp.colptr[cid + 1]
                B[self.lp.rowidx[lo:hi], k] = self.lp.vals[lo:hi]
            else:
                B[cid - n, k] = 1.0
        return B

    def refactor(self):
        try:
            self.binv = np.linalg.inv(self.basis_matrix())
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("basis matrix became singular") from exc
        self.xb = self.binv @ self.lp.rhs
        self.updated_since_refactor = False

    def ftran(self, cid: int) -> np.ndarray:
        if cid >= self.n:
            return self.binv[:, cid - self.n].copy()
        return self.binv @ self.lp.column(cid)

    def basis_costs(self, cost: np.ndarray, art_cost: float) -> np.ndarray:
        cb = np.full(self.basis.size, art_cost)
        struct = self.basis < self.n
        cb[struct] = cost[self.basis[struct]]
        return cb

    def replace(self, pos: int, entering: int):
        leaving = self.basis[pos]
        if leaving < self.n:
            self.in_basis[leaving] = False
        self.basis[pos] = entering
        if entering < self.n:
            self.in_basis[entering] = True

    def pivot(self, entering: int, leave_pos: int, d: np.ndarray) -> float:
        theta = max(self.xb[leave_pos], 0.0) / d[leave_pos]
        br = self.binv[leave_pos] / d[leave_pos]
        self.binv -= np.outer(d, br)
        self.binv[leave_pos] = br
        self.xb -= theta * d
        self.xb[leave_pos] = theta
        self.replace(leave_pos, entering)
        self.pivots += 1
        self.updated_since_refactor = True
        if self.pivots % _REFACTOR_EVERY == 0:
            self.refactor()
        return theta


def _run_simplex(state: _SimplexState, cost: np.ndarray, art_cost: float) -> str:
    """Iterate to optimality for the given structural costs.

    art_cost is the objective coefficient shared by every artificial column
    (1.0 in phase 1; phase 2 never sees a basic artificial). Only structural
    columns are priced, so artificials cannot reenter.
    """
    # reduced costs carry rounding in proportion to the costs themselves
    tolerance = _PIVOT_TOLERANCE * max(1.0, art_cost, float(np.abs(cost).max()))
    bland_trigger = 3 * state.lp.constraint_count
    degenerate_run = 0
    use_bland = False
    while True:
        if state.pivots >= state.budget:
            return STATUS_MAX_ITERATIONS
        y = state.basis_costs(cost, art_cost) @ state.binv
        reduced = cost - state.lp.transpose_dot(y)
        reduced[state.in_basis] = np.inf
        if use_bland:
            candidates = np.flatnonzero(reduced < -tolerance)
            if candidates.size == 0:
                return STATUS_OPTIMAL
            entering = int(candidates[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -tolerance:
                return STATUS_OPTIMAL
        d = state.ftran(entering)
        blocking = np.flatnonzero(d > _RATIO_TOLERANCE)
        if blocking.size == 0:
            return STATUS_UNBOUNDED
        ratios = np.maximum(state.xb[blocking], 0.0) / d[blocking]
        theta = ratios.min()
        ties = blocking[ratios <= theta * (1.0 + 1e-12) + 1e-15]
        leave_pos = int(ties[np.argmin(state.basis[ties])])
        step = state.pivot(entering, leave_pos, d)
        if step <= _DEGENERATE_STEP:
            degenerate_run += 1
            if degenerate_run >= bland_trigger:
                use_bland = True
        else:
            degenerate_run = 0
            use_bland = False


def _cleanup_artificials(state: _SimplexState):
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    n = state.n
    redundant: list[int] = []
    for pos in range(state.basis.size):
        cid = state.basis[pos]
        if cid < n:
            continue
        tableau_row = state.lp.transpose_dot(state.binv[pos])
        tableau_row[state.in_basis] = 0.0
        usable = np.flatnonzero(np.abs(tableau_row) > _PIVOT_TOLERANCE)
        if usable.size == 0:
            redundant.append(pos)
            continue
        entering = int(usable[0])
        d = state.ftran(entering)
        # zero-level pivot; the pivot element may carry either sign
        br = state.binv[pos] / d[pos]
        state.binv -= np.outer(d, br)
        state.binv[pos] = br
        state.xb[pos] = 0.0
        state.replace(pos, entering)
        state.pivots += 1
        state.updated_since_refactor = True
    if redundant:
        keep_rows = np.ones(state.lp.constraint_count, dtype=bool)
        keep_slots = np.ones(state.basis.size, dtype=bool)
        for pos in redundant:
            keep_slots[pos] = False
            keep_rows[state.basis[pos] - n] = False
        state.lp = state.lp.without_rows(keep_rows)
        state.basis = state.basis[keep_slots]
        state.refactor()


def _partial_solution(lp: LinearProgram, state: _SimplexState, status: str) -> LpSolution:
    x = np.zeros(state.n)
    keep = state.basis < state.n
    x[state.basis[keep]] = state.xb[keep]
    return LpSolution(x, float(lp.objective @ x), state.basis.copy(), status,
                      None, state.pivots)


def solve_lp(lp: LinearProgram, initial_basis=None) -> LpSolution:
    """Solve a standard-form program.

    An optional initial_basis (iterable of structural column ids, one per
    row) is adopted directly when it is nonsingular and primal feasible;
    otherwise the solver falls back to a fresh phase 1. Resolving from an
    optimal basis therefore costs zero pivots.
    """
    m, n = lp.constraint_count, lp.variable_count
    budget = _PIVOT_BUDGET_FACTOR * (n + m)

    state = None
    if initial_basis is not None:
        basis = np.asarray(list(initial_basis), dtype=np.int64)
        if basis.shape != (m,) or (basis < 0).any() or (basis >= n).any():
            raise ValueError("initial basis must name one structural column per row")
        try:
            candidate = _SimplexState(lp, basis.copy(), budget)
        except RuntimeError:
            candidate = None
        if candidate is not None and candidate.xb.min() >= -_RATIO_TOLERANCE:
            state = candidate

    if state is None:
        basis = np.empty(m, dtype=np.int64)
        covered = np.zeros(m, dtype=bool)
        # crash: adopt singleton positive columns as ready-made slacks
        width = np.diff(lp.colptr)
        for j in np.flatnonzero(width == 1):
            k = lp.colptr[j]
            r, v = int(lp.rowidx[k]), float(lp.vals[k])
            if v > 0 and not covered[r]:
                covered[r] = True
                basis[r] = j
        for r in range(m):
            if not covered[r]:
                basis[r] = n + r
        state = _SimplexState(lp, basis, budget)
        if (state.basis >= n).any():
            status = _run_simplex(state, np.zeros(n), art_cost=1.0)
            if status == STATUS_MAX_ITERATIONS:
                return _partial_solution(lp, state, STATUS_MAX_ITERATIONS)
            art_level = np.where(state.basis >= n, state.xb, 0.0)
            if float(np.maximum(art_level, 0.0).sum()) > _PHASE1_TOLERANCE:
                return _partial_solution(lp, state, STATUS_INFEASIBLE)
            _cleanup_artificials(state)

    status = _run_simplex(state, lp.objective, art_cost=0.0)
    if state.updated_since_refactor:
        state.refactor()
    x = np.zeros(n)
    x[state.basis] = state.xb
    dual = lp.objective[state.basis] @ state.binv
    objective = -np.inf if status == STATUS_UNBOUNDED else float(lp.objective @ x)
    return LpSolution(x, objective, state.basis.copy(), status, dual, state.pivots)
