import itertools

import numpy as np
import pytest

import otclust.transport
from otclust.core import (
    CostMatrix,
    PointCloud,
    ProbabilityVector,
    build_cost_matrix,
    transport_cost,
)
from otclust.datagen import four_cluster_config, sample_gaussian_mixture, ten_cluster_config
from otclust.facility import _GAP_TOLERANCE
from otclust.transport import (
    _staircase,
    solve_transport,
    transport_program,
    wasserstein2,
)

from oracles import northwest_corner, permutation_transport_cost, two_phase


class TestSolveTransport:
    def test_identity_is_free(self):
        # moving a distribution onto itself over a zero-diagonal cost is free
        p = ProbabilityVector(np.array([0.2, 0.3, 0.5]))
        cloud = PointCloud([[0.0], [1.0], [3.0]])
        cost = build_cost_matrix(cloud)
        result = solve_transport(cost, p, p)
        assert result.report.objective == pytest.approx(0.0, abs=1e-12)
        assert result.report.status == "optimal"

    def test_two_by_two_grid_verified(self):
        # single free parameter a = plan[0, 0]; the 1e-4 scan over it lands
        # on cost 1.6 with the plan below
        p0 = ProbabilityVector(np.array([0.3, 0.7]))
        p1 = ProbabilityVector(np.array([0.6, 0.4]))
        cost = CostMatrix(np.array([[1.0, 2.0], [3.0, 1.0]]))
        grid = np.arange(0.0, 0.3 + 1e-12, 1e-4)
        values = [
            transport_cost(cost, np.array([[a, 0.3 - a], [0.6 - a, 0.1 + a]]))
            for a in grid
        ]
        oracle = min(values)
        result = solve_transport(cost, p0, p1)
        assert result.report.objective == pytest.approx(1.6, abs=1e-9)
        assert result.report.objective == pytest.approx(oracle, abs=1e-4)
        assert result.plan.entries == pytest.approx(
            np.array([[0.3, 0.0], [0.3, 0.4]]), abs=1e-9
        )

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(42)
        for n in (3, 4, 5, 6):
            for _ in range(10):
                source, target = PointCloud(rng.random((n, 2))), PointCloud(rng.random((n, 2)))
                cost = build_cost_matrix(source, target)
                u = ProbabilityVector.uniform(n)
                got = solve_transport(cost, u, u).report.objective
                want = permutation_transport_cost(cost.entries)
                assert got == pytest.approx(want, abs=1e-9)

    def test_marginals_satisfied(self):
        rng = np.random.default_rng(8)
        p0 = ProbabilityVector(rng.dirichlet(np.ones(5)))
        p1 = ProbabilityVector(rng.dirichlet(np.ones(7)))
        cost = CostMatrix(rng.random((5, 7)))
        plan = solve_transport(cost, p0, p1).plan
        assert plan.entries.sum(axis=1) == pytest.approx(p0.weights, abs=1e-9)
        assert plan.entries.sum(axis=0) == pytest.approx(p1.weights, abs=1e-9)

    def test_self_transport_is_diagonal_without_a_solve(self, monkeypatch):
        # duplicate points and zero weights: diag(p) still costs exactly 0
        monkeypatch.setattr(otclust.transport, "solve_lp", None)
        cloud = PointCloud(np.repeat([[0.0, 0.0], [1.0, 2.0]], 3, axis=0))
        p = ProbabilityVector(np.array([0.0, 0.25, 0.25, 0.0, 0.5, 0.0]))
        result = solve_transport(build_cost_matrix(cloud), p, p)
        assert np.array_equal(result.plan.entries, np.diag(p.weights))
        assert result.report.objective == 0.0
        assert result.report.iterations == 0
        assert result.report.duality_gap == 0.0

    def test_positive_diagonal_under_zero_weight_keeps_the_closed_form(self, monkeypatch):
        monkeypatch.setattr(otclust.transport, "solve_lp", None)
        cost = CostMatrix(np.array([[0.0, 1.0, 1.0], [1.0, 5.0, 1.0], [1.0, 1.0, 0.0]]))
        p = ProbabilityVector(np.array([0.5, 0.0, 0.5]))
        result = solve_transport(cost, p, p)
        assert np.array_equal(result.plan.entries, np.diag(p.weights))
        assert result.report.iterations == 0

    def test_other_marginal_or_positive_diagonal_runs_the_simplex(self, monkeypatch):
        calls, solve_lp = [], otclust.transport.solve_lp

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(otclust.transport, "solve_lp", counted)
        cloud = PointCloud([[0.0], [1.0], [3.0]])
        p0 = ProbabilityVector(np.array([0.2, 0.3, 0.5]))
        p1 = ProbabilityVector(np.array([0.3, 0.3, 0.4]))
        result = solve_transport(build_cost_matrix(cloud), p0, p1)
        assert calls == [1]
        assert result.report.objective == pytest.approx(0.5, abs=1e-12)
        # a positive diagonal: moving each point's mass to the other is free
        swap = CostMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        u = ProbabilityVector.uniform(2)
        result = solve_transport(swap, u, u)
        assert calls == [1, 1]
        assert result.report.objective == pytest.approx(0.0, abs=1e-12)
        assert result.plan.entries == pytest.approx(np.array([[0.0, 0.5], [0.5, 0.0]]), abs=1e-12)

    def test_size_mismatch_rejected(self):
        cost = CostMatrix(np.ones((2, 3)))
        p2 = ProbabilityVector.uniform(2)
        with pytest.raises(ValueError):
            solve_transport(cost, p2, p2)


class TestWasserstein2:
    def test_identical_clouds(self):
        pts = PointCloud([[0.0, 0.0], [1.0, 2.0]])
        cost, metric = wasserstein2(pts, pts)
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert metric == pytest.approx(0.0, abs=1e-6)

    def test_point_masses_at_distance_five(self):
        a = PointCloud([[0.0, 0.0]])
        b = PointCloud([[3.0, 4.0]])
        cost, metric = wasserstein2(a, b)
        assert cost == pytest.approx(25.0)
        assert metric == pytest.approx(5.0)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            clouds = [PointCloud(rng.random((4, 2))) for _ in range(3)]
            d = {}
            for i, j in itertools.permutations(range(3), 2):
                d[i, j] = wasserstein2(clouds[i], clouds[j])[1]
            for i, j in itertools.combinations(range(3), 2):
                assert d[i, j] == pytest.approx(d[j, i], abs=1e-9)
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-7


class TestNorthwestCorner:
    def test_worked_two_by_two(self):
        p0 = ProbabilityVector(np.array([0.3, 0.7]))
        p1 = ProbabilityVector(np.array([0.6, 0.4]))
        plan = northwest_corner(p0, p1)
        assert plan.entries == pytest.approx(np.array([[0.3, 0.0], [0.3, 0.4]]))

    def test_feasible_and_sparse(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n, m = rng.integers(1, 8, size=2)
            p0 = ProbabilityVector(rng.dirichlet(np.ones(n)))
            p1 = ProbabilityVector(rng.dirichlet(np.ones(m)))
            plan = northwest_corner(p0, p1)
            assert (plan.entries > 0).sum() <= n + m - 1
            assert plan.entries.sum(axis=1) == pytest.approx(p0.weights, abs=1e-9)
            assert plan.entries.sum(axis=0) == pytest.approx(p1.weights, abs=1e-9)

    def test_walk_is_a_staircase_of_n_plus_m_minus_1_cells(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n, m = (int(k) for k in rng.integers(1, 9, size=2))
            w0, w1 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            w0[rng.random(n) < 0.3] = 0.0
            w1[rng.random(m) < 0.3] = 0.0
            if w0.sum() == 0.0 or w1.sum() == 0.0:
                continue
            p0 = ProbabilityVector(w0 / w0.sum())
            p1 = ProbabilityVector(w1 / w1.sum())
            rows, cols, masses = _staircase(p0.weights, p1.weights)
            assert rows.size == n + m - 1
            assert len(set(zip(rows.tolist(), cols.tolist()))) == n + m - 1
            assert (rows[0], cols[0]) == (0, 0)
            assert (rows[-1], cols[-1]) == (n - 1, m - 1)
            assert (np.diff(rows) + np.diff(cols) == 1).all()
            assert (masses >= 0.0).all()
            plan = np.zeros((n, m))
            plan[rows, cols] = masses
            assert plan == pytest.approx(northwest_corner(p0, p1).entries, abs=1e-15)

    def test_never_beats_the_optimum(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            cost = CostMatrix(rng.random((4, 4)))
            p0 = ProbabilityVector(rng.dirichlet(np.ones(4)))
            p1 = ProbabilityVector(rng.dirichlet(np.ones(4)))
            greedy = transport_cost(cost, northwest_corner(p0, p1).entries)
            best = solve_transport(cost, p0, p1).report.objective
            assert greedy >= best - 1e-9


def _with_zeros(rng, size, zeros):
    w = rng.dirichlet(np.ones(size))
    w[list(zeros)] = 0.0
    return ProbabilityVector(w / w.sum())


def _cold_objective(cost, p0, p1):
    status, sol = two_phase(transport_program(cost, p0, p1))
    assert status == "optimal"
    return sol.objective_value


class TestStaircaseWarmStart:
    """solve_transport starts from the staircase basis; these compare it
    with a cold two-phase solve of the same program by the oracle."""

    @pytest.mark.parametrize(
        "n, m, zeros0, zeros1",
        [
            (1, 1, (), ()),
            (1, 7, (), (0, 3)),
            (7, 1, (2, 6), ()),
            (5, 9, (0,), (8,)),
            (9, 5, (4, 8), (0, 1)),
            (30, 50, (0, 7, 29), (3, 4, 49)),
            (60, 40, (59,), (0, 20, 39)),
        ],
    )
    def test_zero_weights_match_cold_solve(self, n, m, zeros0, zeros1):
        rng = np.random.default_rng(n * 100 + m)
        p0 = _with_zeros(rng, n, zeros0)
        p1 = _with_zeros(rng, m, zeros1)
        cost = CostMatrix(rng.random((n, m)))
        result = solve_transport(cost, p0, p1)
        assert result.report.objective == pytest.approx(
            _cold_objective(cost, p0, p1), abs=1e-9
        )
        assert result.plan.entries.sum(axis=1) == pytest.approx(p0.weights, abs=1e-9)
        assert result.plan.entries.sum(axis=0) == pytest.approx(p1.weights, abs=1e-9)

    def test_duplicate_points_match_cold_solve(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(6, 2))
        source = PointCloud(base[[0, 0, 1, 2, 2, 2, 3]])
        target = PointCloud(base[[1, 1, 4, 5, 5]])
        cost = build_cost_matrix(source, target)
        p0 = _with_zeros(rng, 7, (1,))
        p1 = ProbabilityVector.uniform(5)
        got = solve_transport(cost, p0, p1).report.objective
        assert got == pytest.approx(_cold_objective(cost, p0, p1), abs=1e-9)

    def test_duplicate_points_self_transport_is_free(self):
        cloud = PointCloud(np.repeat([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], 3, axis=0))
        cost = build_cost_matrix(cloud)
        p = _with_zeros(np.random.default_rng(6), 9, (4,))
        result = solve_transport(cost, p, p)
        assert result.report.objective == pytest.approx(0.0, abs=1e-12)

    def test_staircase_basis_is_adopted(self):
        # the oracle's cold two-phase solve takes 3,972 pivots here and the
        # staircase start 315
        source = sample_gaussian_mixture(four_cluster_config())
        target = sample_gaussian_mixture(four_cluster_config(seed=8))
        cost = build_cost_matrix(source, target)
        p = ProbabilityVector.uniform(source.size)
        report = solve_transport(cost, p, p).report
        assert report.status == "optimal"
        assert report.iterations < 500

    @pytest.mark.parametrize("n, m", [(1, 6), (5, 8), (8, 5), (20, 30)])
    def test_sorted_line_starts_at_the_optimum(self, n, m):
        # squared distance between sorted points on a line is a Monge cost,
        # for which the staircase is optimal: no pivot is needed
        rng = np.random.default_rng(n * m)
        x = np.sort(rng.normal(size=n))[:, None]
        y = np.sort(rng.normal(size=m))[:, None]
        cost = build_cost_matrix(PointCloud(x), PointCloud(y))
        p0 = ProbabilityVector(rng.dirichlet(np.ones(n)))
        p1 = ProbabilityVector(rng.dirichlet(np.ones(m)))
        result = solve_transport(cost, p0, p1)
        assert result.report.iterations == 0
        assert result.plan.entries == pytest.approx(
            northwest_corner(p0, p1).entries, abs=1e-12
        )


class TestAgainstAssignmentSolver:
    """Uniform marginals of equal size: the optimum is an assignment, so
    scipy's linear_sum_assignment gives the mean cost independently."""

    @staticmethod
    def _clouds(size):
        if size == 100:
            return (
                sample_gaussian_mixture(ten_cluster_config()),
                sample_gaussian_mixture(ten_cluster_config(seed=3)),
            )
        per = size // 4
        return (
            sample_gaussian_mixture(four_cluster_config(per, seed=7)),
            sample_gaussian_mixture(four_cluster_config(per, seed=8)),
        )

    @pytest.mark.parametrize("size", [40, 80, 100])
    def test_matches_linear_sum_assignment(self, size):
        optimize = pytest.importorskip("scipy.optimize")
        source, target = self._clouds(size)
        assert source.size == target.size == size
        u = ProbabilityVector.uniform(size)
        for a, b in ((source, target), (source, source)):
            cost = build_cost_matrix(a, b)
            rows, cols = optimize.linear_sum_assignment(cost.entries)
            want = float(cost.entries[rows, cols].sum()) / size
            got = solve_transport(cost, u, u).report.objective
            assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("target_seed", [7, 8])
def test_duality_gap_is_rounding(target_seed):
    # objective minus rhs . dual at the optimal basis; seed 7 against itself
    # is the acceptance exact-omt instance
    source = sample_gaussian_mixture(four_cluster_config(seed=7))
    target = sample_gaussian_mixture(four_cluster_config(seed=target_seed))
    u = ProbabilityVector.uniform(source.size)
    report = solve_transport(build_cost_matrix(source, target), u, u).report
    scale = max(1.0, abs(report.objective))
    assert -1e-12 * scale <= report.duality_gap <= _GAP_TOLERANCE * scale
