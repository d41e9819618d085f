"""Dense two-phase revised simplex over a column-compressed constraint matrix.

Standard form is min c.x subject to A x = b, x >= 0 with b >= 0. The solver
keeps an explicit basis inverse, updates it rank-1 per pivot, and rebuilds it
from scratch every _REFACTOR_EVERY pivots for numerical hygiene. Pricing is
Dantzig (most negative reduced cost, lowest index on ties); after
3 * constraint_count consecutive degenerate pivots it switches to Bland's
rule until a nondegenerate step occurs, which guarantees termination.

The crash basis takes a positive singleton column as the slack of each row
it can. When some rows are left uncovered, the program gets one artificial
unit column per such row, and phase 1 is an ordinary solve of that
augmented program with cost 1 on the artificials; phase 2 solves the same
program with the original costs and cost 0 on them. Artificial columns never
reenter the basis once they leave, and one still basic at level zero leaves
by a zero step as soon as the entering column has a nonzero entry in its
row. One still basic at the end stays at zero, as it must on a redundant
row, so the result keeps one dual value and one basis entry per row.
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


@dataclass(frozen=True)
class LpSolution:
    """A solve's result; dual holds the row prices of an optimal basis and
    is None for any other status.

    basis names one column per row. An id at or past the program's
    variable_count is an artificial unit column left basic at level zero:
    on a redundant row (a combination of other rows) it must stay, and at a
    degenerate vertex it may. Its row's dual is 0, and solve_lp does not take
    a basis holding such an id as initial_basis.
    """

    primal: np.ndarray
    objective_value: float
    basis: np.ndarray
    status: str
    dual: np.ndarray | None = None
    pivots: int = 0


class _SimplexState:
    """Basis bookkeeping over the columns of one program."""

    def __init__(self, lp, basis, budget):
        self.lp = lp
        self.basis = basis
        self.budget = budget
        self.pivots = 0
        self.in_basis = np.zeros(lp.variable_count, dtype=bool)
        self.in_basis[basis] = True
        self.refactor()

    def refactor(self):
        B = np.zeros((self.lp.constraint_count, self.basis.size))
        for k, j in enumerate(self.basis):
            lo, hi = self.lp.colptr[j], self.lp.colptr[j + 1]
            B[self.lp.rowidx[lo:hi], k] = self.lp.vals[lo:hi]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("basis matrix became singular") from exc
        self.xb = self.binv @ self.lp.rhs
        self.updated_since_refactor = False

    def pivot(self, entering: int, leave_pos: int, d: np.ndarray, theta: float):
        br = self.binv[leave_pos] / d[leave_pos]
        self.binv -= np.outer(d, br)
        self.binv[leave_pos] = br
        self.xb -= theta * d
        self.xb[leave_pos] = theta
        self.in_basis[self.basis[leave_pos]] = False
        self.basis[leave_pos] = entering
        self.in_basis[entering] = True
        self.pivots += 1
        self.updated_since_refactor = True
        if self.pivots % _REFACTOR_EVERY == 0:
            self.refactor()


def _run_simplex(state: _SimplexState, cost: np.ndarray, priced: int) -> str:
    """Iterate to optimality for the given costs.

    Only the first `priced` columns may enter; the rest are artificial. An
    artificial basic at level zero (within the phase-1 tolerance) leaves by
    a zero step whenever the entering column has a nonzero entry in its row,
    so it never carries mass.
    """
    # reduced costs carry rounding in proportion to the costs themselves
    tolerance = _PIVOT_TOLERANCE * max(1.0, float(np.abs(cost).max()))
    has_artificials = priced < state.lp.variable_count
    bland_trigger = 3 * state.lp.constraint_count
    degenerate_run = 0
    use_bland = False
    while True:
        if state.pivots >= state.budget:
            return STATUS_MAX_ITERATIONS
        y = cost[state.basis] @ state.binv
        reduced = cost - state.lp.transpose_dot(y)
        reduced[state.in_basis] = np.inf
        reduced[priced:] = np.inf
        if use_bland:
            candidates = np.flatnonzero(reduced < -tolerance)
            if candidates.size == 0:
                return STATUS_OPTIMAL
            entering = int(candidates[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -tolerance:
                return STATUS_OPTIMAL
        d = state.binv @ state.lp.column(entering)
        stuck = ()
        if has_artificials:
            stuck = np.flatnonzero((state.basis >= priced)
                                   & (state.xb <= _PHASE1_TOLERANCE)
                                   & (np.abs(d) > _PIVOT_TOLERANCE))
        if len(stuck):
            leave_pos, theta = int(stuck[0]), 0.0
        else:
            blocking = np.flatnonzero(d > _RATIO_TOLERANCE)
            if blocking.size == 0:
                return STATUS_UNBOUNDED
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


def _solution(state: _SimplexState, status: str, n: int) -> LpSolution:
    """The result over the first n columns, with row duals when optimal."""
    if state.updated_since_refactor:
        state.refactor()
    x = np.zeros(state.lp.variable_count)
    x[state.basis] = state.xb
    x = x[:n]
    cost = state.lp.objective
    dual = cost[state.basis] @ state.binv if status == STATUS_OPTIMAL else None
    objective = -np.inf if status == STATUS_UNBOUNDED else float(cost[:n] @ x)
    return LpSolution(x, objective, state.basis.copy(), status, dual, state.pivots)


def solve_lp(lp: LinearProgram, initial_basis=None) -> LpSolution:
    """Solve a standard-form program.

    An optional initial_basis (iterable of structural column ids, one per
    row) is adopted directly when it is nonsingular and primal feasible;
    otherwise the solver falls back to a fresh phase 1. Resolving from an
    optimal basis of structural columns therefore costs zero pivots.
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
        uncovered = np.flatnonzero(~covered)
        extra = uncovered.size
        if extra:
            # [A | I] with one artificial unit column per uncovered row
            lp = LinearProgram(
                np.concatenate([lp.objective, np.zeros(extra)]),
                np.concatenate([lp.colptr, lp.colptr[-1] + np.arange(1, extra + 1)]),
                np.concatenate([lp.rowidx, uncovered]),
                np.concatenate([lp.vals, np.ones(extra)]),
                lp.rhs,
            )
            basis[uncovered] = n + np.arange(extra)
        state = _SimplexState(lp, basis, budget)
        if extra:
            status = _run_simplex(state, np.repeat([0.0, 1.0], [n, extra]), n)
            if status == STATUS_MAX_ITERATIONS:
                return _solution(state, status, n)
            art_level = np.where(state.basis >= n, state.xb, 0.0)
            if float(np.maximum(art_level, 0.0).sum()) > _PHASE1_TOLERANCE:
                return _solution(state, STATUS_INFEASIBLE, n)

    return _solution(state, _run_simplex(state, state.lp.objective, n), n)
