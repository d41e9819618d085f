import numpy as np
import pytest

from otclust import linf
from otclust.core import (
    CostMatrix,
    PointCloud,
    ProbabilityVector,
    build_cost_matrix,
    transport_cost,
)
from otclust.datagen import builtin_config, four_cluster_config, sample_gaussian_mixture
from otclust.linf import LinfResult, _column_minima, solve_linf

from oracles import enumerate_lp, inner_cost


def random_instance(seed, n, uniform=False):
    rng = np.random.default_rng(seed)
    cost = build_cost_matrix(PointCloud(rng.normal(size=(n, 2)) * 2))
    if uniform:
        return cost, ProbabilityVector.uniform(n)
    w = rng.uniform(0.2, 1.0, size=n)
    return cost, ProbabilityVector(w / w.sum())


def pinned_column_oracle(cost, p0, index, t):
    """Dense exhaustive solve of the inner program."""
    n = cost.shape[0]
    A = np.zeros((n + 1, n * n))
    for j in range(n):
        A[j, j * n : (j + 1) * n] = 1.0
    for j in range(n):
        A[n, j * n + index] = 1.0
    b = np.concatenate([p0.weights, [t]])
    status, x, value = enumerate_lp(cost.entries.reshape(-1), A, b)
    assert status == "optimal"
    return value


class TestInnerCost:
    def test_identity_compatible_mass_is_free(self):
        # placing exactly p0_i on column i needs no movement at all
        cost, p0 = random_instance(0, 4)
        for i in range(4):
            value = inner_cost(cost, p0, i, float(p0.weights[i]))
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_full_mass_must_all_travel(self):
        cost, p0 = random_instance(1, 4)
        for i in range(4):
            expected = float(p0.weights @ cost.entries[:, i])
            assert inner_cost(cost, p0, i, 1.0) == pytest.approx(expected, rel=1e-10)

    def test_matches_exhaustive_oracle_on_grid(self):
        for seed in range(6):
            cost, p0 = random_instance(10 + seed, 3, uniform=seed % 2 == 0)
            i = seed % 3
            for t in np.linspace(0.0, 1.0, 11):
                got = inner_cost(cost, p0, i, float(t))
                ref = pinned_column_oracle(cost, p0, i, float(t))
                assert got == pytest.approx(ref, rel=1e-8, abs=1e-9)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(2, 6))
            cost, p0 = random_instance(100 + trial, n, uniform=trial % 2 == 0)
            i = int(rng.integers(0, n))
            t1, t2 = np.sort(rng.uniform(0.0, 1.0, size=2))
            mid = inner_cost(cost, p0, i, float((t1 + t2) / 2))
            ends = inner_cost(cost, p0, i, float(t1)) + inner_cost(
                cost, p0, i, float(t2)
            )
            assert mid <= ends / 2 + 1e-8

    def test_monotone_beyond_identity_mass(self):
        # pinning more than the stay-put mass forces extra movement
        cost, p0 = random_instance(3, 5)
        i = 2
        values = [
            inner_cost(cost, p0, i, t)
            for t in np.linspace(float(p0.weights[i]), 1.0, 6)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12

    def test_rejects_out_of_range(self):
        cost, p0 = random_instance(4, 3)
        with pytest.raises(ValueError):
            inner_cost(cost, p0, 0, -0.1)
        with pytest.raises(ValueError):
            inner_cost(cost, p0, 0, 1.1)
        with pytest.raises(ValueError):
            inner_cost(cost, p0, 3, 0.5)
        with pytest.raises(ValueError):
            inner_cost(cost, p0, -1, 0.5)


class TestSolveLinf:
    def test_single_point(self):
        cost = build_cost_matrix(PointCloud(np.array([[1.5, -2.0]])))
        res = solve_linf(cost, ProbabilityVector.uniform(1), 3.0)
        assert res.best_index == 0
        assert res.best_mass == 1.0
        assert res.report.objective == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(res.plan.entries, [[1.0]])

    def test_single_column_upper_bound(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            cost, p0 = random_instance(200 + seed, n, uniform=seed % 2 == 0)
            penalty = float(rng.uniform(0.05, 5.0))
            res = solve_linf(cost, p0, penalty)
            witness = penalty + float((p0.weights @ cost.entries).min())
            assert res.report.objective <= witness + 1e-9

    def test_objective_is_min_of_per_index_values(self):
        cost, p0 = random_instance(9, 4)
        res = solve_linf(cost, p0, 0.8)
        assert res.report.objective == res.per_index_values.min()
        assert res.best_index == int(np.argmin(res.per_index_values))
        assert 0.0 < res.best_mass <= 1.0

    def test_plan_feasible_and_pinned(self):
        cost, p0 = random_instance(11, 5)
        res = solve_linf(cost, p0, 1.2)
        entries = res.plan.entries
        assert entries.min() >= 0.0
        assert np.abs(entries.sum(axis=1) - p0.weights).max() <= 1e-8
        pinned = float(entries[:, res.best_index].sum())
        assert pinned == pytest.approx(res.best_mass, abs=1e-8)

    def test_combined_objective_consistent_with_plan(self):
        # reported value uses the pinned mass; evaluating the original
        # objective at the witness plan can only be equal or slightly
        # smaller, when another column edges above the pinned one
        for seed in range(6):
            cost, p0 = random_instance(300 + seed, 4, uniform=seed % 2 == 0)
            penalty = 0.7
            res = solve_linf(cost, p0, penalty)
            max_mass = float(res.plan.entries.sum(axis=0).max())
            combined = transport_cost(cost, res.plan.entries) + penalty / max_mass
            assert combined <= res.report.objective + 1e-9
            if abs(max_mass - res.best_mass) <= 1e-8:
                assert res.report.objective == pytest.approx(
                    combined, rel=1e-6, abs=1e-8
                )

    def test_never_beaten_by_dense_t_grid(self):
        # every grid value is an evaluation of the same convex function the
        # closed form minimizes, so the solver can never sit above the grid
        cost, p0 = random_instance(13, 4)
        penalty = 0.9
        res = solve_linf(cost, p0, penalty)
        grid = np.linspace(0.01, 1.0, 120)
        for i in range(4):
            ref = min(
                inner_cost(cost, p0, i, float(t)) + penalty / float(t)
                for t in grid
            )
            assert res.per_index_values[i] <= ref + 1e-9

    def test_two_point_closed_form(self):
        # with two points and even weights the pinned-column cost is
        # |t - 1/2| * c where c is the pair cost, so the combined curve
        # (t - 1/2) c + penalty / t has an analytic minimizer
        points = PointCloud(np.array([[0.0, 0.0], [1.3, -0.4]]))
        cost = build_cost_matrix(points)
        p0 = ProbabilityVector.uniform(2)
        c = float(cost.entries[0, 1])
        for penalty in [0.3 * c, 0.6 * c, 0.9 * c]:
            t_star = float(np.sqrt(penalty / c))
            assert 0.5 < t_star < 1.0
            expected = (t_star - 0.5) * c + penalty / t_star
            res = solve_linf(cost, p0, penalty)
            assert res.report.objective == pytest.approx(expected, abs=1e-9)
            assert res.best_mass == pytest.approx(t_star, abs=1e-9)
        # beyond the pair cost the curve decreases on all of (0, 1], so the
        # minimum sits on the boundary t = 1
        penalty = 1.5 * c
        res = solve_linf(cost, p0, penalty)
        assert res.best_mass == pytest.approx(1.0, abs=1e-9)
        assert res.report.objective == pytest.approx(0.5 * c + penalty, abs=1e-9)

    def test_per_index_values_follow_point_relabeling(self):
        cost, p0 = random_instance(15, 5)
        penalty = 1.1
        base = solve_linf(cost, p0, penalty)
        rng = np.random.default_rng(0)
        perm = rng.permutation(5)
        permuted_cost = CostMatrix(cost.entries[np.ix_(perm, perm)])
        permuted_p0 = ProbabilityVector(p0.weights[perm])
        permuted = solve_linf(permuted_cost, permuted_p0, penalty)
        assert np.abs(
            permuted.per_index_values - base.per_index_values[perm]
        ).max() <= 1e-9

    def test_rejects_bad_inputs(self):
        cost, p0 = random_instance(17, 3)
        with pytest.raises(ValueError):
            solve_linf(cost, p0, 0.0)
        with pytest.raises(ValueError):
            solve_linf(cost, p0, -1.0)
        with pytest.raises(ValueError):
            solve_linf(cost, ProbabilityVector.uniform(4), 1.0)

    def test_result_type(self):
        cost, p0 = random_instance(19, 3)
        res = solve_linf(cost, p0, 0.5)
        assert isinstance(res, LinfResult)
        assert res.report.status == "optimal"
        assert res.report.iterations == 3
        assert res.per_index_values.shape == (3,)


def edge_instance(rng, n):
    """Random cloud with some points duplicated (zero pulls, tied fill
    orders) and some weights zero (empty fill segments)."""
    points = rng.normal(size=(n, 2))
    for j in range(1, n):
        if rng.uniform() < 0.4:
            points[j] = points[int(rng.integers(0, j))]
    weights = rng.dirichlet(np.full(n, 2.0))
    weights[rng.uniform(size=n) < 0.3] = 0.0
    if weights.sum() == 0.0:
        weights[int(rng.integers(0, n))] = 1.0
    return build_cost_matrix(PointCloud(points)), ProbabilityVector(weights / weights.sum())


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestClosedForm:
    def test_edge_inputs_match_lp_oracle(self):
        # each column minimum is attained by the LP oracle at its mass, and
        # the LP oracle is no lower a step to either side nor on a grid;
        # by convexity that pins the exact minimum over (0, 1]
        rng = np.random.default_rng(2024)
        step = 1e-6
        grid = np.linspace(0.02, 1.0, 50)
        for n in range(2, 7):
            for trial in range(4):
                cost, p0 = edge_instance(rng, n)
                penalty = float([0.05, 0.5, 5.0, 50.0][trial])
                values, masses, _, _ = _column_minima(cost.entries, p0.weights, penalty)
                res = solve_linf(cost, p0, penalty)
                assert np.array_equal(res.per_index_values, values)
                for i in range(n):
                    t = float(masses[i])
                    assert 0.0 < t <= 1.0

                    def h(s):
                        return inner_cost(cost, p0, i, float(s)) + penalty / s

                    assert values[i] == pytest.approx(h(t), rel=1e-9, abs=1e-12)
                    for s in (t - step, t + step):
                        if 0.0 < s <= 1.0:
                            assert values[i] <= h(s) + 1e-12, (n, trial, i)
                    assert values[i] <= min(h(s) for s in grid) + 1e-9

    def test_all_points_coincide(self):
        # every plan costs nothing, so all mass goes to one column at t = 1
        cost = build_cost_matrix(PointCloud(np.zeros((4, 2))))
        res = solve_linf(cost, ProbabilityVector.uniform(4), 0.7)
        assert res.best_index == 0
        assert res.best_mass == 1.0
        assert res.report.objective == pytest.approx(0.7, abs=1e-15)
        assert np.allclose(res.plan.entries.sum(axis=0), [1.0, 0.0, 0.0, 0.0])

    def test_four_cluster_witness_agrees(self, monkeypatch):
        cloud = sample_gaussian_mixture(four_cluster_config())
        p0 = ProbabilityVector.uniform(cloud.size)
        cost = build_cost_matrix(cloud)
        calls = []
        original = linf.solve_lp

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(linf, "solve_lp", counting)
        penalty = 50.0
        res = solve_linf(cost, p0, penalty)
        assert len(calls) == 1
        assert res.report.iterations == cloud.size
        assert float(res.plan.entries[:, res.best_index].sum()) == pytest.approx(
            res.best_mass, abs=1e-12
        )
        witness = transport_cost(cost, res.plan.entries) + penalty / res.best_mass
        assert witness == pytest.approx(res.report.objective, rel=1e-9)
        oracle = inner_cost(cost, p0, res.best_index, res.best_mass)
        assert oracle + penalty / res.best_mass == pytest.approx(
            res.report.objective, rel=1e-9
        )


class TestWitnessStart:
    """The staircase of the fill is an optimal basis of the witness program,
    so the simplex certifies it without a pivot."""

    @staticmethod
    def count_pivots(monkeypatch):
        pivots = []
        original = linf.solve_lp

        def counting(*args, **kwargs):
            solution = original(*args, **kwargs)
            pivots.append(solution.pivots)
            return solution

        monkeypatch.setattr(linf, "solve_lp", counting)
        return pivots

    @pytest.mark.parametrize("name, low", [("four-cluster", 1.0), ("ten-cluster", 0.05)])
    def test_acceptance_grid_takes_no_pivots(self, monkeypatch, name, low):
        cloud = sample_gaussian_mixture(builtin_config(name))
        cost = build_cost_matrix(cloud)
        p0 = ProbabilityVector.uniform(cloud.size)
        pivots = self.count_pivots(monkeypatch)
        masses = [solve_linf(cost, p0, float(penalty)).best_mass
                  for penalty in np.geomspace(low, 2000.0, 30)]
        assert pivots == [0] * 30
        assert 1.0 in masses and min(masses) < 1.0

    def test_edge_instances_take_no_pivots(self, monkeypatch):
        # duplicate points, zero weights, n = 2 and t* = 1 on one fill boundary
        pivots = self.count_pivots(monkeypatch)
        rng = np.random.default_rng(31)
        masses = []
        for n in range(2, 9):
            for penalty in (0.05, 0.5, 5.0, 50.0):
                cost, p0 = edge_instance(rng, n)
                masses.append(solve_linf(cost, p0, penalty).best_mass)
        pair = build_cost_matrix(PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]])))
        for penalty in (0.3, 0.8, 1.5):
            masses.append(solve_linf(pair, ProbabilityVector.uniform(2), penalty).best_mass)
        coincide = build_cost_matrix(PointCloud(np.zeros((3, 2))))
        masses.append(solve_linf(coincide, ProbabilityVector.uniform(3), 1.0).best_mass)
        assert pivots == [0] * len(masses)
        assert 1.0 in masses and min(masses) < 1.0
