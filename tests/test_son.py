import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otclust import (
    CostMatrix,
    PointCloud,
    ProbabilityVector,
    build_cost_matrix,
    four_cluster_config,
    sample_gaussian_mixture,
    support_cardinality,
    ten_cluster_config,
    transport_cost,
)
from otclust.son import (
    _BALANCING_RATIO,
    _MAX_BALANCING_STEPS,
    _RHO_FLOOR,
    AdmmConfig,
    _initial_rho,
    _project_rows,
    group_shrink,
    project_scaled_simplex,
    solve_son,
)

from oracles import (
    projection_threshold_scan,
    reference_project_rows,
    son_reference,
    son_surrogate,
)


def lowest_argmax(row, tol=1e-9):
    return int(np.flatnonzero(row >= row.max() - tol)[0])


class TestProjection:
    def test_already_feasible_is_fixed(self):
        v = np.array([0.5, 0.5])
        assert np.allclose(project_scaled_simplex(v, 1.0), v)

    def test_vertex_is_fixed(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.allclose(project_scaled_simplex(v, 1.0), v)

    def test_uniform_shift(self):
        # all entries equal: the shift spreads the radius evenly
        out = project_scaled_simplex(np.array([0.3, 0.3, 0.3]), 0.3)
        assert np.allclose(out, [0.1, 0.1, 0.1])

    def test_negative_entry_clamped(self):
        out = project_scaled_simplex(np.array([1.0, -1.0]), 1.0)
        assert np.allclose(out, [1.0, 0.0])

    def test_radius_zero(self):
        out = project_scaled_simplex(np.array([3.0, -2.0, 5.0]), 0.0)
        assert np.array_equal(out, np.zeros(3))

    def test_radius_rescales(self):
        # shift 1.5 puts the second entry below zero, so the mass lands on
        # the first coordinate alone
        out = project_scaled_simplex(np.array([2.0, 1.0]), 0.5)
        assert out.sum() == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out, [0.5, 0.0])

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            project_scaled_simplex(np.array([1.0]), -0.1)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            project_scaled_simplex(np.ones((2, 2)), 1.0)

    def test_rejects_empty_vector(self):
        with pytest.raises(ValueError, match="empty"):
            project_scaled_simplex(np.array([]), 1.0)

    def test_rows_match_reference_with_and_without_buffers(self):
        # zero radii and ties included; reused buffers must not carry over
        rng = np.random.default_rng(4)
        out = np.empty((6, 5))
        scratch = (np.empty((6, 5)), np.empty((6, 5), dtype=bool))
        for _ in range(20):
            V = rng.normal(size=(6, 5)).round(1)
            radii = rng.uniform(0.0, 2.0, size=6) * (rng.random(6) < 0.7)
            want = reference_project_rows(V, radii)
            assert np.array_equal(_project_rows(V, radii), want)
            assert _project_rows(V, radii, out=out, scratch=scratch) is out
            assert np.array_equal(out, want)

    def test_feasibility_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            v = rng.normal(size=n) * rng.uniform(0.1, 5.0)
            r = float(rng.uniform(0.01, 3.0))
            z = project_scaled_simplex(v, r)
            assert z.min() >= 0.0
            assert z.sum() == pytest.approx(r, abs=1e-9)

    def test_matches_threshold_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            v = rng.normal(size=n)
            r = float(rng.uniform(0.05, 2.0))
            got = project_scaled_simplex(v, r)
            ref = projection_threshold_scan(v, r)
            assert np.abs(got - ref).max() < 2e-4

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=10),
        st.floats(0.01, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, radius):
        v = np.array(values)
        once = project_scaled_simplex(v, radius)
        twice = project_scaled_simplex(once, radius)
        assert np.abs(once - twice).max() <= 1e-9

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=10),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive(self, values, data):
        u = np.array(values)
        v = np.array(
            data.draw(
                st.lists(
                    st.floats(-10, 10), min_size=len(values), max_size=len(values)
                )
            )
        )
        r = data.draw(st.floats(0.01, 5.0))
        pu = project_scaled_simplex(u, r)
        pv = project_scaled_simplex(v, r)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9

    def test_optimality_against_random_feasible_points(self):
        # the projection must be the closest feasible point
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            v = rng.normal(size=n) * 2
            r = float(rng.uniform(0.1, 2.0))
            z = project_scaled_simplex(v, r)
            base = np.linalg.norm(z - v)
            for _ in range(40):
                w = rng.dirichlet(np.ones(n)) * r
                assert base <= np.linalg.norm(w - v) + 1e-9


class TestGroupShrink:
    def test_norm_below_threshold_zeroes_column(self):
        out = group_shrink(np.array([0.3, 0.4]), 1.0)
        assert np.array_equal(out, np.zeros(2))

    def test_norm_above_threshold_scales(self):
        out = group_shrink(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [2.4, 3.2])

    def test_zero_threshold_is_identity(self):
        v = np.array([[1.0, -2.0], [0.5, 0.0]])
        assert np.array_equal(group_shrink(v, 0.0), v)

    def test_matrix_columns_independent(self):
        V = np.array([[3.0, 0.1], [4.0, 0.1]])
        out = group_shrink(V, 1.0)
        assert np.allclose(out[:, 0], [2.4, 3.2])
        assert np.array_equal(out[:, 1], [0.0, 0.0])

    def test_zero_column_stays_zero(self):
        out = group_shrink(np.zeros((3, 2)), 0.5)
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            group_shrink(np.ones(2), -1.0)

    def test_into_buffer_matches_fresh_result(self):
        rng = np.random.default_rng(5)
        V = rng.normal(size=(4, 6))
        V[:, 2] = 0.0
        out = np.full((4, 6), np.nan)
        assert group_shrink(V, 0.7, out=out) is out
        assert np.array_equal(out, group_shrink(V, 0.7))
        column = np.empty(4)
        group_shrink(V[:, 0], 0.7, out=column)
        assert np.array_equal(column, out[:, 0])

    def test_minimizes_proximal_objective(self):
        # shrink output must beat random perturbations on
        # 0.5 * ||z - v||_F^2 + t * sum_j ||z[:, j]||_2
        rng = np.random.default_rng(3)

        def objective(z, v, t):
            return 0.5 * np.sum((z - v) ** 2) + t * np.linalg.norm(z, axis=0).sum()

        for _ in range(30):
            v = rng.normal(size=(4, 3)) * 2
            t = float(rng.uniform(0.1, 3.0))
            z = group_shrink(v, t)
            base = objective(z, v, t)
            for _ in range(60):
                delta = rng.normal(size=v.shape) * rng.choice([1e-3, 1e-1, 1.0])
                assert base <= objective(z + delta, v, t) + 1e-9


class TestSolveSon:
    def make_instance(self, seed, n):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.normal(size=(n, 2)) * 3)
        return build_cost_matrix(cloud)

    def test_zero_penalty_returns_identity_plan(self):
        cost = self.make_instance(5, 6)
        p0 = ProbabilityVector.uniform(6)
        res = solve_son(cost, p0, 0.0)
        assert res.report.status == "optimal"
        assert np.abs(res.plan.entries - np.diag(p0.weights)).max() <= 1e-9

    def test_zero_penalty_nonuniform_weights(self):
        cost = self.make_instance(6, 4)
        w = np.array([0.4, 0.3, 0.2, 0.1])
        res = solve_son(cost, ProbabilityVector(w), 0.0)
        assert np.abs(res.plan.entries - np.diag(w)).max() <= 1e-9

    def test_dominant_penalty_recovers_best_single_site(self):
        # with the penalty overwhelming transport, the optimum concentrates
        # all mass on the column with the cheapest weighted pull, and that
        # column is checkable by enumeration
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 6))
            cost = self.make_instance(100 + seed, n)
            if seed % 2:
                w = rng.uniform(0.2, 1.0, size=n)
                p0 = ProbabilityVector(w / w.sum())
            else:
                p0 = ProbabilityVector.uniform(n)
            penalty = 1e6 * float(cost.entries.max())
            res = solve_son(cost, p0, penalty)
            medoid = int(np.argmin(p0.weights @ cost.entries))
            labels = [lowest_argmax(r) for r in res.plan.entries]
            assert labels == [medoid] * n

    def test_auxiliary_support_matches_plan_support_at_cost_scale(self):
        # once converged with a penalty at the cost scale, the exactly-zero
        # columns of the consensus copy coincide with the plan columns that
        # carry no mass
        cost = self.make_instance(42, 5)
        p0 = ProbabilityVector.uniform(5)
        res = solve_son(cost, p0, 5.0 * float(cost.entries.max()))
        assert res.report.status == "optimal"
        aux_occupied = np.linalg.norm(res.auxiliary, axis=0) > 1e-12
        plan_norms = np.linalg.norm(res.plan.entries, axis=0)
        plan_occupied = plan_norms > 1e-6 * plan_norms.max()
        assert np.array_equal(aux_occupied, plan_occupied)
        assert 0 < aux_occupied.sum() < 5

    def test_two_site_objective_matches_dense_grid(self):
        # N = 2 admits an exhaustive parametrization by the two diagonal
        # entries; the solver objective must match the grid minimum
        def grid_min(cost, p0, penalty, steps=400):
            w = p0.weights
            a = np.linspace(0, w[0], steps + 1)
            b = np.linspace(0, w[1], steps + 1)
            A, B = np.meshgrid(a, b, indexing="ij")
            c = cost.entries
            trans = (
                c[0, 0] * A
                + c[0, 1] * (w[0] - A)
                + c[1, 0] * B
                + c[1, 1] * (w[1] - B)
            )
            norms = np.sqrt(A**2 + B**2) + np.sqrt((w[0] - A) ** 2 + (w[1] - B) ** 2)
            return float((trans + penalty * norms / p0.norm2()).min())

        for seed in range(8):
            rng = np.random.default_rng(300 + seed)
            cost = build_cost_matrix(PointCloud(rng.normal(size=(2, 2)) * 2))
            w0 = float(rng.uniform(0.3, 0.7))
            p0 = ProbabilityVector(np.array([w0, 1 - w0]))
            penalty = float(rng.uniform(0.05, 2.0))
            res = solve_son(cost, p0, penalty)
            ref = grid_min(cost, p0, penalty)
            assert res.report.objective <= ref + 1e-3 * max(abs(ref), 1.0)
            assert abs(res.report.objective - ref) <= 1e-3 * max(abs(ref), 1.0)

    def test_output_plan_feasible_and_envelope_bounded(self):
        for seed, penalty in [(7, 0.5), (8, 5.0), (9, 50.0)]:
            cost = self.make_instance(seed, 8)
            p0 = ProbabilityVector.uniform(8)
            res = solve_son(cost, p0, penalty)
            entries = res.plan.entries
            assert entries.min() >= 0.0
            assert np.abs(entries.sum(axis=1) - p0.weights).max() <= 1e-8
            env = son_surrogate(res.plan.entries, p0.weights)
            card = support_cardinality(np.linalg.norm(entries, axis=0))
            assert 1.0 - 1e-9 <= env <= card + 1e-9
            assert np.linalg.norm(entries, axis=0).max() <= p0.norm2() + 1e-9

    def test_objective_value_is_consistent(self):
        cost = self.make_instance(11, 5)
        p0 = ProbabilityVector.uniform(5)
        penalty = 2.0
        res = solve_son(cost, p0, penalty)
        expected = transport_cost(cost, res.plan.entries) + (
            penalty / p0.norm2()
        ) * float(np.linalg.norm(res.plan.entries, axis=0).sum())
        assert res.report.objective == pytest.approx(expected, rel=1e-12)

    def test_penalty_monotone_in_support_norm_sum(self):
        # larger penalties cannot increase the column-norm sum of the optimum
        cost = self.make_instance(13, 6)
        p0 = ProbabilityVector.uniform(6)
        sums = []
        for penalty in (0.1, 1.0, 10.0, 100.0):
            res = solve_son(cost, p0, penalty)
            sums.append(float(np.linalg.norm(res.plan.entries, axis=0).sum()))
        for lo, hi in zip(sums, sums[1:]):
            assert hi <= lo + 1e-6

    def test_residual_history_trends_down(self):
        cost = self.make_instance(17, 10)
        p0 = ProbabilityVector.uniform(10)
        res = solve_son(cost, p0, 3.0)
        hist = res.residual_history
        assert hist.shape == (res.report.iterations, 2)
        primal = hist[:, 0]
        if primal.size >= 200:
            # windowed means may wobble but must not grow persistently
            windows = [
                primal[i : i + 100].mean() for i in range(0, primal.size - 99, 100)
            ]
            for earlier, later in zip(windows, windows[2:]):
                assert later <= 2.0 * earlier + 1e-9
        assert res.report.primal_residual is not None
        assert res.report.dual_residual is not None

    def test_iteration_cap_reported(self):
        cost = self.make_instance(19, 6)
        p0 = ProbabilityVector.uniform(6)
        cfg = AdmmConfig(max_iterations=2)
        res = solve_son(cost, p0, 5.0, cfg)
        assert res.report.status == "max_iterations"
        assert res.report.iterations == 2

    def test_rejects_bad_inputs(self):
        cost = self.make_instance(21, 4)
        p0 = ProbabilityVector.uniform(4)
        with pytest.raises(ValueError):
            solve_son(cost, ProbabilityVector.uniform(5), 1.0)
        with pytest.raises(ValueError):
            solve_son(cost, p0, -0.5)
        rect = CostMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            solve_son(rect, ProbabilityVector.uniform(2), 1.0)


class TestAdmmConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("eps_abs", -1.0),
            ("eps_rel", -1e-4),
            # an infinite tolerance stops the solve after one iteration
            ("eps_abs", float("inf")),
            ("eps_rel", float("inf")),
            ("max_iterations", 0),
        ],
    )
    def test_rejects_settings_that_break_the_solver(self, field, value):
        with pytest.raises(ValueError, match=field):
            AdmmConfig(**{field: value})

    def test_accepts_boundary_settings(self):
        cfg = AdmmConfig(eps_abs=0.0, eps_rel=0.0, max_iterations=1)
        cost = build_cost_matrix(PointCloud(np.arange(6.0).reshape(3, 2)))
        res = solve_son(cost, ProbabilityVector.uniform(3), 1.0, cfg)
        assert res.report.iterations == 1


def balancing_steps(history):
    """rho changes the solver made, read off its residual history: every
    iteration but the last whose residuals drift more than the balancing
    ratio apart, up to the step limit."""
    primal, dual = history[:-1, 0], history[:-1, 1]
    drifted = (primal > _BALANCING_RATIO * dual) | (dual > _BALANCING_RATIO * primal)
    return min(int(drifted.sum()), _MAX_BALANCING_STEPS)


class TestInPlaceLoopMatchesReference:
    """solve_son runs its ADMM loop in buffers allocated once per solve;
    tests/oracles.py `son_reference` runs the same operations with a fresh
    array for every intermediate. Every iterate must agree to the bit."""

    def assert_identical(self, cost, p0, penalty, cfg=None):
        got = solve_son(cost, p0, penalty, cfg)
        want = son_reference(cost, p0, penalty, cfg)
        assert np.array_equal(got.plan.entries, want.plan.entries)
        assert np.array_equal(got.auxiliary, want.auxiliary)
        assert got.report == want.report
        assert got.penalty == want.penalty
        assert np.array_equal(got.residual_history, want.residual_history)
        return got

    @pytest.mark.parametrize("make_config", [four_cluster_config, ten_cluster_config])
    def test_builtin_clouds_across_penalty_regimes(self, make_config):
        cloud = sample_gaussian_mixture(make_config())
        cost = build_cost_matrix(cloud)
        p0 = ProbabilityVector.uniform(cloud.size)
        balanced = 0
        for penalty in (0.05, 1.0, 8.8, 228.0, 2000.0):
            res = self.assert_identical(cost, p0, penalty)
            assert res.report.status == "optimal"
            balanced += balancing_steps(res.residual_history) > 0
        assert balanced > 0

    def test_128_point_cloud(self):
        cloud = sample_gaussian_mixture(four_cluster_config(samples_per_component=32))
        cost = build_cost_matrix(cloud)
        p0 = ProbabilityVector.uniform(cloud.size)
        self.assert_identical(cost, p0, 2.0, AdmmConfig(max_iterations=300))

    def test_random_clouds_with_duplicates_and_zero_weights(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            n = int(rng.integers(1, 25))
            points = rng.normal(size=(n, 2)) * 3
            if n >= 4:
                points[rng.integers(0, n, size=2)] = points[0]
            weights = rng.random(n)
            if n >= 3:
                weights[rng.integers(0, n)] = 0.0
            p0 = ProbabilityVector(weights / weights.sum())
            cost = build_cost_matrix(PointCloud(points))
            penalty = float(10 ** rng.uniform(-2, 3.5))
            cfg = AdmmConfig(max_iterations=int(rng.integers(5, 1500)))
            self.assert_identical(cost, p0, penalty, cfg)

    def test_iteration_cutoffs_and_fixed_rho(self):
        cloud = sample_gaussian_mixture(ten_cluster_config(samples_per_component=3))
        cost = build_cost_matrix(cloud)
        p0 = ProbabilityVector.uniform(cloud.size)
        # rho starts above its floor at penalty 500 and on the floor, the
        # fixed start of every moderate penalty, at penalty 5
        assert _initial_rho(500.0 / p0.norm2(), p0.norm2()) > _RHO_FLOOR
        assert _initial_rho(5.0 / p0.norm2(), p0.norm2()) == _RHO_FLOOR
        for cutoff in (1, 2, 5, 37, 400):
            for penalty in (500.0, 5.0):
                cfg = AdmmConfig(max_iterations=cutoff)
                res = self.assert_identical(cost, p0, penalty, cfg)
                assert res.report.iterations <= cutoff
