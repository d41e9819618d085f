import numpy as np
import pytest

import otclust.lp
from otclust.core import CostMatrix, ProbabilityVector
from otclust.lp import LinearProgram, solve_lp
from otclust.transport import _staircase, transport_program

from oracles import _dense_program, enumerate_lp, program_from_rows, two_phase


def random_program(rng, n_vars=4, n_rows=2, feasible=True):
    """Random standard-form data; when feasible, b comes from a known point."""
    A = rng.uniform(-1.0, 1.0, size=(n_rows, n_vars))
    if feasible:
        x0 = rng.uniform(0.0, 1.0, size=n_vars) * (rng.random(n_vars) < 0.7)
        b = A @ x0
    else:
        b = rng.uniform(-1.0, 1.0, size=n_rows)
    c = rng.uniform(-1.0, 1.0, size=n_vars)
    sign = np.where(b < 0, -1.0, 1.0)
    A = A * sign[:, None]
    b = b * sign
    rows = tuple([(j, float(A[r, j])) for j in range(n_vars)] for r in range(n_rows))
    return program_from_rows(c, rows, b), c, A, b


def with_dependent_row(c, A, b, total):
    """The same feasible set with one more row: the sum of all rows when
    total is set, else a copy of the first."""
    extra = A.sum(axis=0) if total else A[0]
    A = np.vstack([A, extra])
    b = np.append(b, b.sum() if total else b[0])
    rows = [list(zip(range(A.shape[1]), map(float, row))) for row in A]
    return program_from_rows(c, rows, b), A, b


def with_slacks(c, A, b):
    """min c.x s.t. A x <= b, x >= 0, with one slack column per row."""
    m, n = A.shape
    rows = [[(j, float(A[r, j])) for j in range(n)] + [(n + r, 1.0)] for r in range(m)]
    return program_from_rows(np.concatenate([c, np.zeros(m)]), rows, b)


def assert_optimal_dual(sol, c, A, b):
    """One dual entry and one basis entry per row, dual feasible, and b.y
    equal to the objective."""
    assert len(sol.dual) == len(sol.basis) == A.shape[0]
    assert (c - A.T @ sol.dual).min() >= -1e-9 * (1 + np.abs(c).max())
    assert b @ sol.dual == pytest.approx(sol.objective_value, rel=1e-9, abs=1e-9)


class TestStandardForm:
    def test_single_upper_bound(self):
        # max x subject to x + s = 1
        lp = program_from_rows([-1.0, 0.0], ([(0, 1.0), (1, 1.0)],), [1.0])
        sol = solve_lp(lp, initial_basis=[1])
        assert sol.primal[0] == pytest.approx(1.0)

    def test_equality_pair(self):
        # min x subject to x + y = 1
        lp = program_from_rows([1.0, 0.0], ([(0, 1.0), (1, 1.0)],), [1.0])
        sol = solve_lp(lp, initial_basis=[1])
        assert sol.primal == pytest.approx([0.0, 1.0])

    def test_conflicting_rows_detected_in_phase1(self):
        # x - s = 2 and x + t = 1
        lp = program_from_rows(
            [0.0, 0.0, 0.0], ([(0, 1.0), (1, -1.0)], [(0, 1.0), (2, 1.0)]),
            [2.0, 1.0],
        )
        assert two_phase(lp) == ("infeasible", None)


class TestProgramValidation:
    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError):
            program_from_rows([1.0], ([(0, 1.0)],), [-1.0])

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            program_from_rows([1.0, 1.0], ([(0, 0.0)],), [1.0])

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            program_from_rows([1.0], ([(3, 1.0)],), [1.0])

    def test_unsorted_or_repeated_rows_rejected(self):
        # column 0 lists its rows out of order, then row 1 twice; neither is
        # sorted or merged
        for column in ([1, 0], [0, 1, 1]):
            rowidx = column + [0]
            colptr = [0, len(column), len(rowidx)]
            with pytest.raises(ValueError, match="strictly increasing"):
                LinearProgram([1.0, 1.0], colptr, rowidx, np.ones(len(rowidx)), [1.0, 1.0])
        # the same entries listed in increasing row order are accepted
        LinearProgram([1.0, 1.0], [0, 2, 3], [0, 1, 0], np.ones(3), [1.0, 1.0])

    def test_malformed_arrays_rejected(self):
        good = ([1.0, 1.0], [0, 1, 2], [0, 0], [1.0, 1.0], [1.0])
        LinearProgram(*good)
        for field, bad in (
            (1, [0, 2, 1]),  # decreasing pointers
            (1, [0, 1]),  # too few columns
            (2, [0, 1]),  # row out of range
            (3, [1.0, np.inf]),  # nonfinite coefficient
            (0, [1.0, np.nan]),  # nonfinite cost
        ):
            args = list(good)
            args[field] = bad
            with pytest.raises(ValueError):
                LinearProgram(*args)


class TestSolveAgainstEnumeration:
    def test_small_random_instances(self):
        # each program is solved as drawn and again with a dependent last
        # row, which the oracle drops; both must match the enumeration over
        # the independent rows
        rng = np.random.default_rng(20240817)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for trial in range(120):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(1, 4))
            lp, c, A, b = random_program(rng, n, m, feasible=bool(trial % 3))
            want_status, _, want_val = enumerate_lp(c, A, b)
            statuses[want_status] += 1
            redundant, A_full, b_full = with_dependent_row(c, A, b, total=trial % 2)
            for program, rows, rhs in ((lp, A, b), (redundant, A_full, b_full)):
                status, sol = two_phase(program)
                assert status == want_status, f"trial {trial}"
                if want_status == "optimal":
                    assert sol.objective_value == pytest.approx(
                        want_val, rel=1e-8, abs=1e-8
                    )
                    x = sol.primal
                    assert (x >= -1e-9).all()
                    assert np.abs(rows @ x - rhs).max() <= 1e-8 * (1 + np.abs(rhs).max())
                    assert_optimal_dual(sol, c, rows, rhs)
        # the generator must have exercised every status
        assert min(statuses.values()) > 0

    def test_degenerate_rhs_zero(self):
        # all-zero rhs forces fully degenerate pivoting; optimum is x = 0
        rng = np.random.default_rng(7)
        for _ in range(20):
            lp, c, A, b = random_program(rng, 5, 2)
            lp = program_from_rows(c, [list(zip(range(5), A[r])) for r in range(2)], np.zeros(2))
            want_status, _, want_val = enumerate_lp(c, A, np.zeros(2))
            status, sol = two_phase(lp)
            assert status == want_status
            if want_status == "optimal":
                assert sol.objective_value == pytest.approx(want_val, abs=1e-9)


class TestAntiCycling:
    def test_beale_example_cycles_until_bland_takes_over(self):
        # Beale's example in Chvatal's form (Linear Programming, 1983, ch. 3):
        # from the slack basis, Dantzig pricing with the lowest-index ratio
        # tie-break returns to the start after six degenerate pivots. After
        # 3 * 3 degenerate pivots the solve switches to Bland's rule, which
        # cannot cycle; Dantzig alone would run out the pivot budget.
        objective = [0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0]
        rows = (
            [(0, 1.0), (3, 0.25), (4, -60.0), (5, -0.04), (6, 9.0)],
            [(1, 1.0), (3, 0.5), (4, -90.0), (5, -0.02), (6, 3.0)],
            [(2, 1.0), (5, 1.0)],
        )
        program = program_from_rows(objective, rows, [0.0, 0.0, 1.0])
        sol = solve_lp(program, initial_basis=[0, 1, 2])
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-12)
        assert sol.primal == pytest.approx([0.03, 0.0, 0.0, 0.04, 0.0, 1.0, 0.0], abs=1e-12)
        assert sol.pivots == 12


class TestSolutionCertificates:
    def test_basic_support_and_duality(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            lp, c, A, b = random_program(rng, 6, 3)
            status, sol = two_phase(lp)
            if status != "optimal":
                continue
            above = int((sol.primal > 1e-9).sum())
            assert above <= lp.constraint_count
            # dual feasibility and matching objective at the optimal basis
            y = sol.dual
            slack = c - A.T @ y
            assert slack.min() >= -1e-7 * (1 + np.abs(c).max())
            assert b @ y == pytest.approx(sol.objective_value, rel=1e-7, abs=1e-7)

    def test_resolve_from_optimal_basis_is_free(self):
        rng = np.random.default_rng(17)
        resolved = 0
        for _ in range(20):
            lp, *_ = random_program(rng, 6, 3)
            status, sol = two_phase(lp)
            if status != "optimal":
                continue
            again = solve_lp(lp, initial_basis=sol.basis)
            assert again.pivots == 0
            assert again.objective_value == pytest.approx(sol.objective_value)
            resolved += 1
        assert resolved > 0

    def test_pivot_budget_reported(self, monkeypatch):
        # a slack in every row, so the solve starts from the slack columns
        monkeypatch.setattr(otclust.lp, "_PIVOT_BUDGET_FACTOR", 0)
        rng = np.random.default_rng(3)
        _, c, A, b = random_program(rng, 6, 3)
        with pytest.raises(RuntimeError, match="budget"):
            solve_lp(with_slacks(c, A, b), initial_basis=6 + np.arange(3))


class TestRedundantRows:
    def test_duplicated_equality_solved(self):
        # x + y = 1 stated twice; the copy keeps its artificial at zero
        rows = ([(0, 1.0), (1, 1.0)], [(0, 1.0), (1, 1.0)])
        lp = program_from_rows([1.0, 2.0], rows, [1.0, 1.0])
        status, sol = two_phase(lp)
        assert status == "optimal"
        assert sol.primal == pytest.approx([1.0, 0.0])
        assert sol.objective_value == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "A, b",
        [
            # x + y = 1 stated twice
            ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 1.0]),
            # the third row is the sum of the first two
            ([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 1.0]], [1.0, 2.0, 3.0]),
        ],
    )
    def test_dual_has_one_entry_per_row(self, A, b):
        c = np.array([1.0, 2.0, 0.5])
        A, b = np.array(A), np.array(b)
        rows = [[(j, v) for j, v in enumerate(row) if v] for row in A]
        status, sol = two_phase(program_from_rows(c, rows, b))
        assert status == "optimal"
        assert_optimal_dual(sol, c, A, b)


class TestStartBasis:
    """solve_lp runs from the caller's primal feasible basis or rejects it."""

    def test_row_without_a_slack_needs_a_basis(self):
        # x + y + s = 2 has a slack, x + y = 1 has none
        lp = program_from_rows(
            [1.0, 1.0, 0.0], ([(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1.0), (1, 1.0)]), [2.0, 1.0]
        )
        assert solve_lp(lp, initial_basis=[2, 0]).objective_value == pytest.approx(1.0)

    def test_singular_basis_rejected(self):
        # columns 0 and 1 are parallel
        lp = program_from_rows(
            [1.0, 2.0, 0.0, 0.0],
            ([(0, 1.0), (1, 2.0), (2, 1.0)], [(0, 1.0), (1, 2.0), (3, 1.0)]),
            [1.0, 1.0],
        )
        with pytest.raises(ValueError, match="singular"):
            solve_lp(lp, initial_basis=[0, 1])
        # two singleton columns on row 0
        lp = program_from_rows([0.0] * 3, ([(0, 1.0), (1, 2.0)], [(2, 1.0)]), [1.0, 1.0])
        with pytest.raises(ValueError, match="singular"):
            solve_lp(lp, initial_basis=[0, 1])
        # column 0 stores a single 0 in row 1, a singleton whose entry is 0
        lp = LinearProgram([0.0] * 3, [0, 1, 2, 3], [1, 0, 1], [0.0, 1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="singular"):
            solve_lp(lp, initial_basis=[1, 0])
        # the singleton covers row 0, and columns 1 and 2 are parallel on rows 1 and 2
        lp = program_from_rows(
            [0.0] * 3, ([(0, 1.0), (1, 1.0), (2, 5.0)], [(1, 1.0), (2, 2.0)], [(1, 2.0), (2, 4.0)]),
            [1.0, 1.0, 1.0],
        )
        with pytest.raises(ValueError, match="singular"):
            solve_lp(lp, initial_basis=[0, 1, 2])

    def test_infeasible_basis_rejected(self):
        # from basis {x, t}: x = 2 and t = 1 - x = -1
        lp = program_from_rows(
            [1.0, 0.0, 0.0, 0.0],
            ([(0, 1.0), (1, 1.0)], [(0, 1.0), (2, 1.0), (3, -1.0)]),
            [2.0, 1.0],
        )
        with pytest.raises(ValueError, match="not primal feasible"):
            solve_lp(lp, initial_basis=[0, 2])
        # from the slacks {s, t}: s = 2 and t = 1
        assert solve_lp(lp, initial_basis=[1, 2]).objective_value == pytest.approx(0.0)


def assert_inverts(state):
    want = np.linalg.inv(np.column_stack([state.lp.column(j) for j in state.basis]))
    np.testing.assert_allclose(state.binv, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestRefactor:
    """The basis inverse assembled around the singleton columns equals the
    dense inverse of B."""

    @staticmethod
    def refactored(A, basis):
        lp = _dense_program(np.zeros(A.shape[1]), A, np.ones(A.shape[0]))
        return otclust.lp._SimplexState(lp, np.array(basis))

    def test_singletons_with_structural_columns(self):
        # singletons 2.0, -1.0 and 1.0 on rows 4, 2 and 0; the structural
        # columns have entries in those covered rows too
        rng = np.random.default_rng(11)
        m = 6
        singles = np.zeros((m, 3))
        singles[[4, 2, 0], [0, 1, 2]] = [2.0, -1.0, 1.0]
        structural = rng.uniform(-1.0, 1.0, size=(m, 3))
        structural[[1, 3, 5], [0, 1, 2]] += 3.0
        A = np.hstack([singles, structural, np.eye(m)])
        for basis in ([0, 1, 2, 3, 4, 5], [3, 0, 5, 1, 4, 2], [5, 4, 3, 2, 1, 0]):
            assert_inverts(self.refactored(A, basis))

    def test_all_singleton_basis(self):
        A = np.zeros((4, 4))
        A[[2, 0, 3, 1], [0, 1, 2, 3]] = [1.0, -1.0, 2.0, 1.0]
        state = self.refactored(A, [0, 1, 2, 3])
        assert_inverts(state)
        assert state.xb.tolist() == [1.0, -1.0, 0.5, 1.0]

    def test_basis_without_singletons(self):
        rng = np.random.default_rng(12)
        A = rng.uniform(0.5, 1.5, size=(5, 5)) + 4.0 * np.eye(5)
        assert_inverts(self.refactored(A, [4, 2, 0, 1, 3]))

    def test_periodic_refactors_during_a_solve(self, monkeypatch):
        # transport bases mix singletons (the last cell of each row) with
        # two-entry cells; the solve passes _REFACTOR_EVERY pivots
        refactor = otclust.lp._SimplexState.refactor
        refactored_at = []

        def checked(state):
            refactor(state)
            assert_inverts(state)
            refactored_at.append(state.pivots)

        monkeypatch.setattr(otclust.lp._SimplexState, "refactor", checked)
        rng = np.random.default_rng(13)
        n = 20
        cost = CostMatrix(rng.uniform(0.0, 1.0, size=(n, n)))
        u = ProbabilityVector.uniform(n)
        program = transport_program(cost, u, u)
        rows, cols, _ = _staircase(u.weights, u.weights)
        solution = solve_lp(program, initial_basis=rows * n + cols)
        every = otclust.lp._REFACTOR_EVERY
        assert solution.pivots > every
        # at the start, every _REFACTOR_EVERY pivots, and once at the end
        # unless the last pivot has just refactored
        assert refactored_at == list(range(0, solution.pivots, every)) + [solution.pivots]
