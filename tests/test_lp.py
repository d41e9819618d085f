import numpy as np
import pytest

import otclust.lp
from otclust.lp import LinearProgram, solve_lp

from oracles import enumerate_lp, program_from_rows


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
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.primal[0] == pytest.approx(1.0)

    def test_equality_pair(self):
        # min x subject to x + y = 1
        lp = program_from_rows([1.0, 0.0], ([(0, 1.0), (1, 1.0)],), [1.0])
        sol = solve_lp(lp)
        assert sol.primal == pytest.approx([0.0, 1.0])

    def test_conflicting_rows_detected_in_phase1(self):
        # x - s = 2 and x + t = 1
        lp = program_from_rows(
            [0.0, 0.0, 0.0], ([(0, 1.0), (1, -1.0)], [(0, 1.0), (2, 1.0)]),
            [2.0, 1.0],
        )
        assert solve_lp(lp).status == "infeasible"


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

    def test_duplicate_entries_summed_and_sorted(self):
        # column 0 lists row 1 twice and out of order
        lp = LinearProgram(
            [1.0, 1.0], [0, 3, 4], [1, 0, 1, 0], [2.0, 1.0, 0.5, 1.0], [1.0, 1.0]
        )
        assert lp.colptr.tolist() == [0, 2, 3]
        assert lp.rowidx.tolist() == [0, 1, 0]
        assert lp.vals.tolist() == [1.0, 2.5, 1.0]
        assert lp.column(0).tolist() == [1.0, 2.5]

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
        # row, which leaves an artificial basic at zero; both must match the
        # enumeration over the independent rows
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
                sol = solve_lp(program)
                assert sol.status == want_status, f"trial {trial}"
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
            sol = solve_lp(lp)
            assert sol.status == want_status
            if want_status == "optimal":
                assert sol.objective_value == pytest.approx(want_val, abs=1e-9)


class TestSolutionCertificates:
    def test_basic_support_and_duality(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            lp, c, A, b = random_program(rng, 6, 3)
            sol = solve_lp(lp)
            if sol.status != "optimal":
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
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            again = solve_lp(lp, initial_basis=sol.basis)
            assert again.pivots == 0
            assert again.objective_value == pytest.approx(sol.objective_value)
            resolved += 1
        assert resolved > 0

    def test_pivot_budget_reported(self, monkeypatch):
        monkeypatch.setattr(otclust.lp, "_PIVOT_BUDGET_FACTOR", 0)
        rng = np.random.default_rng(3)
        lp, *_ = random_program(rng, 6, 3)
        sol = solve_lp(lp)
        assert sol.status == "max_iterations"


class TestRedundantRows:
    def test_duplicated_equality_solved(self):
        # x + y = 1 stated twice; the copy keeps its artificial at zero
        rows = ([(0, 1.0), (1, 1.0)], [(0, 1.0), (1, 1.0)])
        lp = program_from_rows([1.0, 2.0], rows, [1.0, 1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
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
        sol = solve_lp(program_from_rows(c, rows, b))
        assert sol.status == "optimal"
        assert_optimal_dual(sol, c, A, b)
