import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otclust.clustering import extract_clusters
from otclust.core import (
    CostMatrix,
    PointCloud,
    ProbabilityVector,
    build_cost_matrix,
    transport_cost,
)
from otclust.datagen import four_cluster_config, sample_gaussian_mixture, ten_cluster_config
from otclust.facility import solve_facility_relaxation
from otclust.linf import solve_linf
from otclust.son import (
    _BALANCING_RATIO,
    _MAX_BALANCING_STEPS,
    _RHO_FLOOR,
    MAX_ITERATIONS,
    _admm,
    _dual_shift,
    _initial_rho,
    _project_rows,
    group_shrink,
    solve_son,
)

from oracles import (
    dual_shift_bisection,
    medoid_dual_excess,
    projection_threshold_scan,
    reference_project_rows,
    son_reference,
    son_surrogate,
    support_cardinality,
)


def lowest_argmax(row, tol=1e-9):
    return int(np.flatnonzero(row >= row.max() - tol)[0])


def project(values, radius):
    """_project_rows on a single row."""
    return _project_rows(np.array([values], dtype=float), np.array([radius]))[0]


class TestProjection:
    def test_already_feasible_is_fixed(self):
        v = np.array([0.5, 0.5])
        assert np.allclose(project(v, 1.0), v)

    def test_vertex_is_fixed(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.allclose(project(v, 1.0), v)

    def test_uniform_shift(self):
        # all entries equal: the shift spreads the radius evenly
        out = project(np.array([0.3, 0.3, 0.3]), 0.3)
        assert np.allclose(out, [0.1, 0.1, 0.1])

    def test_negative_entry_clamped(self):
        out = project(np.array([1.0, -1.0]), 1.0)
        assert np.allclose(out, [1.0, 0.0])

    def test_radius_zero(self):
        out = project(np.array([3.0, -2.0, 5.0]), 0.0)
        assert np.array_equal(out, np.zeros(3))

    def test_radius_rescales(self):
        # shift 1.5 puts the second entry below zero, so the mass lands on
        # the first coordinate alone
        out = project(np.array([2.0, 1.0]), 0.5)
        assert out.sum() == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out, [0.5, 0.0])

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

    def test_tie_heavy_rows_match_reference_bit_for_bit(self):
        # rounded entries and radii tie often, and +-0.0 entries and zero
        # radii decide the sign of every zero written
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n, m = (int(k) for k in rng.integers(1, 9, size=2))
            V = rng.normal(size=(n, m)) * rng.choice([0.1, 1.0, 10.0])
            V = V.round(int(rng.integers(0, 3)))
            V[rng.random((n, m)) < 0.2] = 0.0
            V[rng.random((n, m)) < 0.2] = -0.0
            radii = rng.uniform(0.0, 2.0, size=n).round(int(rng.integers(0, 3)))
            radii *= rng.random(n) < 0.7
            want = reference_project_rows(V, radii).view(np.uint64)
            scratch = (np.empty((n, m)), np.empty((n, m), dtype=bool))
            buffered = _project_rows(V, radii, out=np.empty((n, m)), scratch=scratch)
            for got in (_project_rows(V, radii), buffered):
                assert np.array_equal(got.view(np.uint64), want)

    def test_batch_matches_rows_projected_one_at_a_time(self):
        # each row is sorted, summed and thresholded on its own
        rng = np.random.default_rng(6)
        for _ in range(20):
            V = rng.normal(size=(7, 9)) * rng.uniform(0.1, 5.0)
            radii = rng.uniform(0.0, 3.0, size=7) * (rng.random(7) < 0.8)
            rows = [project(v, r) for v, r in zip(V, radii)]
            assert np.array_equal(_project_rows(V, radii), np.array(rows))

    def test_feasibility_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            v = rng.normal(size=n) * rng.uniform(0.1, 5.0)
            r = float(rng.uniform(0.01, 3.0))
            z = project(v, r)
            assert z.min() >= 0.0
            assert z.sum() == pytest.approx(r, abs=1e-9)

    def test_matches_threshold_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            v = rng.normal(size=n)
            r = float(rng.uniform(0.05, 2.0))
            got = project(v, r)
            ref = projection_threshold_scan(v, r)
            assert np.abs(got - ref).max() < 2e-4

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=10),
        st.floats(0.01, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, radius):
        v = np.array(values)
        once = project(v, radius)
        twice = project(once, radius)
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
        pu = project(u, r)
        pv = project(v, r)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9

    def test_optimality_against_random_feasible_points(self):
        # the projection must be the closest feasible point
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            v = rng.normal(size=n) * 2
            r = float(rng.uniform(0.1, 2.0))
            z = project(v, r)
            base = np.linalg.norm(z - v)
            for _ in range(40):
                w = rng.dirichlet(np.ones(n)) * r
                assert base <= np.linalg.norm(w - v) + 1e-9


class TestGroupShrink:
    def test_norm_below_threshold_zeroes_column(self):
        out = group_shrink(np.array([[0.3], [0.4]]), 1.0)
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_norm_above_threshold_scales(self):
        out = group_shrink(np.array([[3.0], [4.0]]), 1.0)
        assert np.allclose(out, [[2.4], [3.2]])

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

    def test_into_buffer_matches_fresh_result(self):
        rng = np.random.default_rng(5)
        V = rng.normal(size=(4, 6))
        V[:, 2] = 0.0
        out = np.full((4, 6), np.nan)
        assert group_shrink(V, 0.7, out=out) is out
        assert np.array_equal(out, group_shrink(V, 0.7))
        column = np.empty((4, 1))
        group_shrink(V[:, :1], 0.7, out=column)
        assert np.array_equal(column, out[:, :1])

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

    def test_iteration_cap_reported(self):
        cost = self.make_instance(19, 6)
        p0 = ProbabilityVector.uniform(6)
        res = solve_son(cost, p0, 5.0, max_iterations=2)
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
    """What became of the former AdmmConfig: max_iterations is solve_son's
    one setting, and the residual tolerances are the constants _EPS_ABS and
    _EPS_REL, which no caller can pass."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("eps_abs", -1.0),
            ("eps_rel", -1e-4),
            ("eps_abs", float("inf")),
            ("eps_rel", float("inf")),
            ("max_iterations", 0),
        ],
    )
    def test_rejects_settings_that_break_the_solver(self, field, value):
        cost = build_cost_matrix(PointCloud(np.arange(6.0).reshape(3, 2)))
        error = ValueError if field == "max_iterations" else TypeError
        with pytest.raises(error, match=field):
            solve_son(cost, ProbabilityVector.uniform(3), 1.0, **{field: value})

    def test_accepts_boundary_settings(self):
        cost = build_cost_matrix(PointCloud(np.arange(6.0).reshape(3, 2)))
        res = solve_son(cost, ProbabilityVector.uniform(3), 1.0, max_iterations=1)
        assert res.report.iterations == 1


def balancing_steps(history):
    """rho changes the solver made, read off its residual history: every
    iteration but the last whose residuals drift more than the balancing
    ratio apart, up to the step limit."""
    primal, dual = history[:-1, 0], history[:-1, 1]
    drifted = (primal > _BALANCING_RATIO * dual) | (dual > _BALANCING_RATIO * primal)
    return min(int(drifted.sum()), _MAX_BALANCING_STEPS)


def assert_same_solve(got, want, cost, p0, penalty):
    """got, a solve_son result, carries the ADMM loop result want, the
    (plan, iterations, converged, history) of `_admm`, to the bit."""
    plan, iterations, converged, history = want
    assert np.array_equal(got.plan.entries, plan)
    assert np.array_equal(got.residual_history, history)
    assert got.report.iterations == iterations
    assert got.report.status == ("optimal" if converged else "max_iterations")
    assert got.report.objective == son_value(cost, p0, penalty, plan)


class TestInPlaceLoopMatchesReference:
    """`_admm` runs the ADMM loop in buffers allocated once per solve;
    tests/oracles.py `son_reference` runs the same operations with a fresh
    array for every intermediate. Every iterate must agree to the bit, and
    solve_son must return the same solve wherever the single-site
    certificate fails."""

    def assert_identical(self, cost, p0, penalty, max_iterations=MAX_ITERATIONS):
        kappa = penalty / p0.norm2()
        got = _admm(
            cost.entries, p0.weights, kappa, _initial_rho(kappa, p0.norm2()), max_iterations
        )
        want = son_reference(cost, p0, penalty, max_iterations)
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert np.array_equal(mine, theirs)
        full = solve_son(cost, p0, penalty, max_iterations)
        excess = medoid_dual_excess(cost, p0.weights, penalty)
        slack = 1e-9 * max(kappa, 1.0)
        if full.report.iterations == 0:
            assert excess <= slack
        else:
            assert excess >= -slack
            assert full.report.duality_gap is not None
            assert_same_solve(full, want, cost, p0, penalty)
        return got

    @pytest.mark.parametrize("make_config", [four_cluster_config, ten_cluster_config])
    def test_builtin_clouds_across_penalty_regimes(self, make_config):
        cloud = sample_gaussian_mixture(make_config())
        cost = build_cost_matrix(cloud)
        p0 = ProbabilityVector.uniform(cloud.size)
        balanced = 0
        for penalty in (0.05, 1.0, 8.8, 228.0, 2000.0):
            _, _, converged, history = self.assert_identical(cost, p0, penalty)
            assert converged
            balanced += balancing_steps(history) > 0
        assert balanced > 0

    def test_128_point_cloud(self):
        cloud = sample_gaussian_mixture(four_cluster_config(samples_per_component=32))
        cost = build_cost_matrix(cloud)
        p0 = ProbabilityVector.uniform(cloud.size)
        self.assert_identical(cost, p0, 2.0, max_iterations=300)

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
            self.assert_identical(cost, p0, penalty, int(rng.integers(5, 1500)))

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
                _, iterations, _, _ = self.assert_identical(cost, p0, penalty, cutoff)
                assert iterations <= cutoff


def son_value(cost, p0, penalty, plan):
    return transport_cost(cost, plan) + (penalty / p0.norm2()) * float(
        np.linalg.norm(plan, axis=0).sum()
    )


def two_site_grid(cost, p0, penalty, steps=400):
    """Criterion 4's dense grid over the two free entries of a 2 x 2
    row-feasible plan: the smallest son value found."""
    w = p0.weights
    a = np.linspace(0.0, w[0], steps)[:, None]
    b = np.linspace(0.0, w[1], steps)[None, :]
    C = cost.entries
    transport = C[0, 0] * a + C[0, 1] * (w[0] - a) + C[1, 0] * b + C[1, 1] * (w[1] - b)
    norms = np.sqrt(a**2 + b**2) + np.sqrt((w[0] - a) ** 2 + (w[1] - b) ** 2)
    return float((transport + penalty / p0.norm2() * norms).min())


class TestSingleSiteCertificate:
    """solve_son returns the best single-site plan with no ADMM iteration
    exactly when its closed-form dual is feasible."""

    def assert_certified(self, cost, p0, penalty):
        res = solve_son(cost, p0, penalty)
        medoid = int(np.argmin(p0.weights @ cost.entries))
        want = np.zeros(cost.shape)
        want[:, medoid] = p0.weights
        assert res.report.iterations == 0
        assert res.report.status == "optimal"
        assert res.report.duality_gap == 0.0
        assert np.array_equal(res.plan.entries, want)
        assert res.residual_history.shape == (0, 2)
        assert res.report.objective == son_value(cost, p0, penalty, want)
        return res

    def test_two_sites_certified_iff_grid_optimum_is_the_medoid(self):
        rng = np.random.default_rng(505)
        outcomes = []
        for trial in range(60):
            cost = build_cost_matrix(PointCloud(rng.normal(size=(2, 2)) * 2))
            w0 = float(rng.uniform(0.15, 0.85))
            p0 = ProbabilityVector(np.array([w0, 1 - w0]))
            penalty = float(cost.entries[0, 1] * 10 ** rng.uniform(-1.5, 0.5))
            medoid_value = penalty + float((p0.weights @ cost.entries).min())
            at_medoid = abs(two_site_grid(cost, p0, penalty) - medoid_value) <= 1e-9
            certified = solve_son(cost, p0, penalty).report.iterations == 0
            assert certified == at_medoid, f"trial {trial}"
            outcomes.append(certified)
        assert 10 <= sum(outcomes) <= 50

    def test_single_point(self):
        cost = build_cost_matrix(PointCloud(np.array([[1.5, -2.0]])))
        for penalty in (0.0, 1.0, 1e3):
            res = self.assert_certified(cost, ProbabilityVector.uniform(1), penalty)
            assert res.report.objective == penalty

    def test_all_points_duplicated(self):
        # every column is the same; rounding must not make any of them
        # look cheaper than the first
        rng = np.random.default_rng(8)
        cost = build_cost_matrix(PointCloud(np.tile([[0.3, 7.0]], (7, 1))))
        weights = rng.random(7)
        for p0 in (ProbabilityVector.uniform(7), ProbabilityVector(weights / weights.sum())):
            for penalty in (0.0, 0.1, 10.0, 1e4):
                res = self.assert_certified(cost, p0, penalty)
                assert res.plan.entries[:, 0].sum() == pytest.approx(1.0)
                assert res.report.objective == pytest.approx(penalty, rel=1e-12)

    def test_far_zero_weight_point_does_not_block(self):
        # the far point carries no mass, so its row of the dual is free; with
        # that row counted, column 3 would violate the constraint by ~2000
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [-1000.0, 0.0]])
        cost = build_cost_matrix(PointCloud(points))
        p0 = ProbabilityVector(np.array([0.4, 0.2, 0.2, 0.2, 0.0]))
        res = self.assert_certified(cost, p0, 20.0)
        assert res.plan.entries[:, 0].tolist() == p0.weights.tolist()
        # the same instance without the far point is certified too, at the
        # same value
        near = ProbabilityVector(np.array([0.4, 0.2, 0.2, 0.2]))
        alone = self.assert_certified(build_cost_matrix(PointCloud(points[:4])), near, 20.0)
        assert alone.report.objective == pytest.approx(res.report.objective, rel=1e-12)

    def test_zero_penalty_keeps_the_diagonal_on_distinct_points(self):
        cost = build_cost_matrix(PointCloud(np.random.default_rng(9).normal(size=(6, 2))))
        p0 = ProbabilityVector.uniform(6)
        res = solve_son(cost, p0, 0.0)
        assert res.report.iterations > 0
        assert np.abs(res.plan.entries - np.diag(p0.weights)).max() <= 1e-9
        assert_same_solve(res, son_reference(cost, p0, 0.0), cost, p0, 0.0)

    @pytest.mark.parametrize("per_component, penalty", [(64, 675.0), (128, 300.0)])
    def test_large_clouds_at_large_penalty(self, per_component, penalty):
        # ADMM took 9,570 iterations (256 points) and hit max_iterations
        # (512 points) here
        cloud = sample_gaussian_mixture(
            four_cluster_config(samples_per_component=per_component)
        )
        cost = build_cost_matrix(cloud)
        self.assert_certified(cost, ProbabilityVector.uniform(cloud.size), penalty)

    def test_builtin_clouds_match_the_column_by_column_dual(self):
        for make_config, penalties in (
            (four_cluster_config, (1.0, 74.0, 82.0, 83.0, 228.0, 2000.0)),
            (ten_cluster_config, (0.05, 50.0, 137.0, 138.0, 425.0, 2000.0)),
        ):
            cost = build_cost_matrix(sample_gaussian_mixture(make_config()))
            p0 = ProbabilityVector.uniform(cost.shape[0])
            for penalty in penalties:
                excess = medoid_dual_excess(cost, p0.weights, penalty)
                certified = _certified_without_admm(cost, p0, penalty)
                assert certified == (excess <= 0.0), (make_config, penalty)
                if certified:
                    self.assert_certified(cost, p0, penalty)


def _certified_without_admm(cost, p0, penalty):
    return solve_son(cost, p0, penalty, max_iterations=1).report.iterations == 0


class TestDualShift:
    def test_matches_bisection(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            slack = rng.normal(size=(rows, cols)) * 3
            kappa = float(rng.choice([0.0, rng.uniform(0.01, 4.0)]))
            want = dual_shift_bisection(slack, kappa)
            assert _dual_shift(slack, kappa) == pytest.approx(want, abs=1e-9)

    def test_feasible_slack_needs_no_shift(self):
        assert _dual_shift(np.array([[0.6], [0.8], [-5.0]]), 1.0) == 0.0
        assert _dual_shift(-np.ones((3, 4)), 0.0) == 0.0

    def test_shifted_columns_are_feasible_and_one_is_tight(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            slack = rng.normal(size=(6, 5)) + 2.0
            kappa = float(rng.uniform(0.1, 2.0))
            t = _dual_shift(slack, kappa)
            norms = np.linalg.norm(np.maximum(slack - t, 0.0), axis=0)
            assert norms.max() == pytest.approx(kappa, rel=1e-12)


class TestDualityGap:
    """Every son solve reports objective minus the value of a feasible dual
    point, so objective - duality_gap bounds the optimum from below."""

    def assert_bounds(self, cost, p0, penalty, max_iterations=MAX_ITERATIONS):
        res = solve_son(cost, p0, penalty, max_iterations)
        gap = res.report.duality_gap
        scale = max(abs(res.report.objective), 1.0)
        assert gap >= -1e-12 * scale
        lower = res.report.objective - gap
        medoid = np.zeros(cost.shape)
        medoid[:, int(np.argmin(p0.weights @ cost.entries))] = p0.weights
        facility = solve_facility_relaxation(cost, p0, penalty).plan.entries
        for plan in (res.plan.entries, medoid, facility):
            assert lower <= son_value(cost, p0, penalty, plan) + 1e-12 * scale
        return res

    def test_builtin_clouds(self):
        for make_config, penalties in (
            (four_cluster_config, (1.0, 20.0, 74.0, 220.0)),
            (ten_cluster_config, (0.05, 8.8, 50.0, 425.0)),
        ):
            cost = build_cost_matrix(sample_gaussian_mixture(make_config()))
            p0 = ProbabilityVector.uniform(cost.shape[0])
            for penalty in penalties:
                res = self.assert_bounds(cost, p0, penalty)
                # ADMM stops on its residuals; the gap says how far off it is
                assert res.report.duality_gap <= 5e-3 * res.report.objective

    def test_random_small_clouds(self):
        rng = np.random.default_rng(14)
        for trial in range(40):
            n = int(rng.integers(1, 12))
            points = rng.normal(size=(n, 2)) * 3
            if n >= 4:
                points[rng.integers(0, n)] = points[0]
            weights = rng.random(n)
            if n >= 3:
                weights[rng.integers(0, n)] = 0.0
            p0 = ProbabilityVector(weights / weights.sum())
            cost = build_cost_matrix(PointCloud(points))
            penalty = float(10 ** rng.uniform(-2, 2.5))
            self.assert_bounds(cost, p0, penalty, int(rng.integers(1, 2000)))

    def test_two_sites_below_the_grid_optimum(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            cost = build_cost_matrix(PointCloud(rng.normal(size=(2, 2)) * 2))
            w0 = float(rng.uniform(0.2, 0.8))
            p0 = ProbabilityVector(np.array([w0, 1 - w0]))
            penalty = float(rng.uniform(0.05, 2.0))
            res = solve_son(cost, p0, penalty)
            lower = res.report.objective - res.report.duality_gap
            assert lower <= two_site_grid(cost, p0, penalty) + 1e-12

    def test_linf_reports_no_gap(self):
        # lp and exact transport report theirs (test_facility.py,
        # test_transport.py); linf is the one method without a gap
        cost = build_cost_matrix(PointCloud(np.arange(8.0).reshape(4, 2)))
        p0 = ProbabilityVector.uniform(4)
        assert solve_linf(cost, p0, 1.0).report.duality_gap is None


class TestAcceptanceGrids:
    """solve_son over the 30-point acceptance grids. Over-relaxed ADMM must
    stay well under the iterations of the plain loop (10,209 on four-cluster,
    17,142 on ten-cluster) with every point optimal and its gap at most
    2.7e-3 of the objective. At ten-cluster points 7 and 13 the plain loop
    stopped at 11 clusters; there the representatives must be those of a run
    with _EPS_ABS 1e-10 and _EPS_REL 1e-8."""

    @pytest.mark.parametrize(
        "make_config, low, budget, pinned",
        [
            (four_cluster_config, 1.0, 8000, {}),
            (
                ten_cluster_config,
                0.05,
                12500,
                {
                    7: {4, 15, 20, 33, 46, 54, 64, 74, 83, 99},
                    13: {4, 15, 20, 32, 47, 54, 62, 72, 87, 99},
                },
            ),
        ],
    )
    def test_iterations_status_gap_and_representatives(self, make_config, low, budget, pinned):
        cost = build_cost_matrix(sample_gaussian_mixture(make_config()))
        p0 = ProbabilityVector.uniform(cost.shape[0])
        iterations = 0
        for index, penalty in enumerate(np.geomspace(low, 2000.0, 30)):
            res = solve_son(cost, p0, float(penalty))
            iterations += res.report.iterations
            assert res.report.status == "optimal", penalty
            assert res.report.duality_gap <= 2.7e-3 * res.report.objective, penalty
            if index in pinned:
                assert set(extract_clusters(res.plan).representatives) == pinned[index]
        assert iterations <= budget
