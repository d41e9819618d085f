"""Dense two-phase revised simplex over sparse row data.

Standard form is min c.x subject to A x = b, x >= 0 with b >= 0. The solver
keeps an explicit basis inverse, updates it rank-1 per pivot, and rebuilds it
from scratch every `refactor_every` pivots for numerical hygiene. Pricing is
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

SparseRow = list[tuple[int, float]]

_DEGENERATE_STEP = 1e-12


@dataclass(frozen=True)
class LinearProgram:
    """min objective.x s.t. rows(x) = rhs, x >= 0, with rhs >= 0.

    Rows are sparse lists of (column, coefficient). Duplicate column entries
    within a row are summed when the matrix is compressed.
    """

    objective: np.ndarray
    rows: tuple[SparseRow, ...]
    rhs: np.ndarray
    variable_count: int

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        if self.variable_count < 1:
            raise ValueError("need at least one variable")
        if c.shape != (self.variable_count,):
            raise ValueError("objective length does not match variable count")
        if b.ndim != 1 or len(self.rows) != b.size:
            raise ValueError("rhs length does not match row count")
        if (b < 0).any():
            raise ValueError("standard form requires rhs >= 0")
        if not (np.isfinite(c).all() and np.isfinite(b).all()):
            raise ValueError("nonfinite problem data")
        rows = tuple(tuple((int(j), float(v)) for j, v in row) for row in self.rows)
        for r, row in enumerate(rows):
            if not any(v != 0.0 for _, v in row):
                raise ValueError(f"row {r} has no nonzero coefficient")
            for j, v in row:
                if not 0 <= j < self.variable_count:
                    raise ValueError(f"row {r} references column {j} out of range")
                if not np.isfinite(v):
                    raise ValueError(f"row {r} has nonfinite coefficient")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rhs", b)

    @property
    def constraint_count(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LpConfig:
    pivot_tolerance: float = 1e-9
    ratio_tolerance: float = 1e-9
    phase1_tolerance: float = 1e-7
    refactor_every: int = 50
    max_pivots: int | None = None  # None means 50 * (variables + constraints)


@dataclass(frozen=True)
class LpSolution:
    primal: np.ndarray
    objective_value: float
    basis: np.ndarray
    status: str
    dual: np.ndarray | None = None
    pivots: int = 0


class _SparseColumns:
    """Column-compressed constraint matrix with duplicate entries merged."""

    def __init__(self, coo_rows, coo_cols, coo_vals, m, n):
        keys = coo_cols.astype(np.int64) * np.int64(m) + coo_rows
        uniq, inverse = np.unique(keys, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inverse, coo_vals)
        cols = uniq // m
        self.rowidx = uniq % m
        self.vals = merged
        self.col_of_entry = cols
        self.colptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.colptr, cols + 1, 1)
        np.cumsum(self.colptr, out=self.colptr)
        self.m = m
        self.n = n

    @classmethod
    def from_program(cls, lp: LinearProgram) -> "_SparseColumns":
        rows_idx, cols_idx, vals = [], [], []
        for r, row in enumerate(lp.rows):
            for j, v in row:
                rows_idx.append(r)
                cols_idx.append(j)
                vals.append(v)
        return cls(
            np.asarray(rows_idx, dtype=np.int64),
            np.asarray(cols_idx, dtype=np.int64),
            np.asarray(vals, dtype=float),
            lp.constraint_count,
            lp.variable_count,
        )

    def column(self, j: int) -> np.ndarray:
        out = np.zeros(self.m)
        lo, hi = self.colptr[j], self.colptr[j + 1]
        out[self.rowidx[lo:hi]] = self.vals[lo:hi]
        return out

    def transpose_dot(self, y: np.ndarray) -> np.ndarray:
        """A.T @ y over all columns, using the CSC segment layout."""
        out = np.zeros(self.n)
        if self.vals.size == 0:
            return out
        contrib = self.vals * y[self.rowidx]
        nonempty = np.flatnonzero(np.diff(self.colptr) > 0)
        out[nonempty] = np.add.reduceat(contrib, self.colptr[nonempty])
        return out

    def drop_rows(self, keep_mask: np.ndarray) -> "_SparseColumns":
        new_index = np.cumsum(keep_mask) - 1
        entry_keep = keep_mask[self.rowidx]
        return _SparseColumns(
            new_index[self.rowidx[entry_keep]],
            self.col_of_entry[entry_keep],
            self.vals[entry_keep].copy(),
            int(keep_mask.sum()),
            self.n,
        )


class _SimplexState:
    """Basis bookkeeping: ids >= n denote the artificial column e_(id - n)."""

    def __init__(self, mat, b, basis, cfg, budget):
        self.mat = mat
        self.b = b
        self.basis = basis
        self.cfg = cfg
        self.budget = budget
        self.pivots = 0
        self.in_basis = np.zeros(mat.n, dtype=bool)
        for cid in basis:
            if cid < mat.n:
                self.in_basis[cid] = True
        self.refactor()

    def basis_matrix(self) -> np.ndarray:
        m, n = self.mat.m, self.mat.n
        B = np.zeros((m, m))
        for k, cid in enumerate(self.basis):
            if cid < n:
                lo, hi = self.mat.colptr[cid], self.mat.colptr[cid + 1]
                B[self.mat.rowidx[lo:hi], k] = self.mat.vals[lo:hi]
            else:
                B[cid - n, k] = 1.0
        return B

    def refactor(self):
        try:
            self.binv = np.linalg.inv(self.basis_matrix())
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("basis matrix became singular") from exc
        self.xb = self.binv @ self.b
        self.updated_since_refactor = False

    def ftran(self, cid: int) -> np.ndarray:
        if cid >= self.mat.n:
            return self.binv[:, cid - self.mat.n].copy()
        return self.binv @ self.mat.column(cid)

    def basis_costs(self, cost: np.ndarray, art_cost: float) -> np.ndarray:
        cb = np.full(self.basis.size, art_cost)
        struct = self.basis < self.mat.n
        cb[struct] = cost[self.basis[struct]]
        return cb

    def replace(self, pos: int, entering: int):
        leaving = self.basis[pos]
        if leaving < self.mat.n:
            self.in_basis[leaving] = False
        self.basis[pos] = entering
        if entering < self.mat.n:
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
        if self.pivots % self.cfg.refactor_every == 0:
            self.refactor()
        return theta


def _run_simplex(state: _SimplexState, cost: np.ndarray, art_cost: float) -> str:
    """Iterate to optimality for the given structural costs.

    art_cost is the objective coefficient shared by every artificial column
    (1.0 in phase 1; phase 2 never sees a basic artificial). Only structural
    columns are priced, so artificials cannot reenter.
    """
    cfg = state.cfg
    bland_trigger = 3 * state.mat.m
    degenerate_run = 0
    use_bland = False
    while True:
        if state.pivots >= state.budget:
            return STATUS_MAX_ITERATIONS
        y = state.basis_costs(cost, art_cost) @ state.binv
        reduced = cost - state.mat.transpose_dot(y)
        reduced[state.in_basis] = np.inf
        if use_bland:
            candidates = np.flatnonzero(reduced < -cfg.pivot_tolerance)
            if candidates.size == 0:
                return STATUS_OPTIMAL
            entering = int(candidates[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -cfg.pivot_tolerance:
                return STATUS_OPTIMAL
        d = state.ftran(entering)
        blocking = np.flatnonzero(d > cfg.ratio_tolerance)
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
    cfg = state.cfg
    n = state.mat.n
    redundant: list[int] = []
    for pos in range(state.basis.size):
        cid = state.basis[pos]
        if cid < n:
            continue
        tableau_row = state.mat.transpose_dot(state.binv[pos])
        tableau_row[state.in_basis] = 0.0
        usable = np.flatnonzero(np.abs(tableau_row) > cfg.pivot_tolerance)
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
        keep_rows = np.ones(state.mat.m, dtype=bool)
        keep_slots = np.ones(state.basis.size, dtype=bool)
        for pos in redundant:
            keep_slots[pos] = False
            keep_rows[state.basis[pos] - n] = False
        state.mat = state.mat.drop_rows(keep_rows)
        state.b = state.b[keep_rows]
        state.basis = state.basis[keep_slots]
        state.refactor()


def _partial_solution(lp: LinearProgram, state: _SimplexState, status: str) -> LpSolution:
    x = np.zeros(state.mat.n)
    keep = state.basis < state.mat.n
    x[state.basis[keep]] = state.xb[keep]
    return LpSolution(x, float(lp.objective @ x), state.basis.copy(), status,
                      None, state.pivots)


def solve_lp(
    lp: LinearProgram,
    config: LpConfig | None = None,
    initial_basis=None,
) -> LpSolution:
    """Solve a standard-form program.

    An optional initial_basis (iterable of structural column ids, one per
    row) is adopted directly when it is nonsingular and primal feasible;
    otherwise the solver falls back to a fresh phase 1. Resolving from an
    optimal basis therefore costs zero pivots.
    """
    cfg = config or LpConfig()
    mat = _SparseColumns.from_program(lp)
    m, n = mat.m, mat.n
    b = lp.rhs.copy()
    budget = cfg.max_pivots if cfg.max_pivots is not None else 50 * (n + m)

    state = None
    if initial_basis is not None:
        basis = np.asarray(list(initial_basis), dtype=np.int64)
        if basis.shape != (m,) or (basis < 0).any() or (basis >= n).any():
            raise ValueError("initial basis must name one structural column per row")
        try:
            candidate = _SimplexState(mat, b, basis.copy(), cfg, budget)
        except RuntimeError:
            candidate = None
        if candidate is not None and candidate.xb.min() >= -cfg.ratio_tolerance:
            state = candidate

    if state is None:
        basis = np.empty(m, dtype=np.int64)
        covered = np.zeros(m, dtype=bool)
        # crash: adopt singleton positive columns as ready-made slacks
        width = np.diff(mat.colptr)
        for j in np.flatnonzero(width == 1):
            k = mat.colptr[j]
            r, v = int(mat.rowidx[k]), float(mat.vals[k])
            if v > 0 and not covered[r]:
                covered[r] = True
                basis[r] = j
        for r in range(m):
            if not covered[r]:
                basis[r] = n + r
        state = _SimplexState(mat, b, basis, cfg, budget)
        if (state.basis >= n).any():
            status = _run_simplex(state, np.zeros(n), art_cost=1.0)
            if status == STATUS_MAX_ITERATIONS:
                return _partial_solution(lp, state, STATUS_MAX_ITERATIONS)
            art_level = np.where(state.basis >= n, state.xb, 0.0)
            if float(np.maximum(art_level, 0.0).sum()) > cfg.phase1_tolerance:
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
