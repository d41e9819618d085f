from itertools import combinations

import numpy as np
import pytest

from otclust import (
    PointCloud,
    ProbabilityVector,
    build_cost_matrix,
    extract_clusters,
    four_cluster_config,
    sample_gaussian_mixture,
)
from otclust.facility import (
    DIRECT_SIZE,
    FacilityResult,
    build_facility_lp,
    solve_facility_relaxation,
    _solve_by_cuts,
    _solve_direct,
)
from otclust.lp import solve_lp


def random_instance(seed, n, scale=3.0, uniform=True):
    rng = np.random.default_rng(seed)
    cost = build_cost_matrix(PointCloud(rng.normal(size=(n, 2)) * scale))
    if uniform:
        p0 = ProbabilityVector.uniform(n)
    else:
        w = rng.uniform(0.2, 1.0, size=n)
        p0 = ProbabilityVector(w / w.sum())
    return cost, p0


def best_integer_value(cost, p0, penalty):
    """Enumerate every nonempty open set; mass goes to the nearest open
    site, which is optimal once the openings are zero or one."""
    n = cost.shape[0]
    best = np.inf
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            transport = (
                p0.weights * cost.entries[:, list(subset)].min(axis=1)
            ).sum()
            best = min(best, penalty * size + transport)
    return float(best)


class TestBuildFacilityLp:
    def test_dimensions(self):
        cost, p0 = random_instance(0, 3)
        form = build_facility_lp(cost, p0, 1.0)
        # 9 plan vars + 3 openings + one slack per coupling and bound row
        assert form.original_count == 12
        assert form.lp.variable_count == 12 + 9 + 3
        assert len(form.lp.rows) == 3 + 9 + 3

    def test_couplings_subset(self):
        cost, p0 = random_instance(1, 3)
        form = build_facility_lp(cost, p0, 1.0, couplings=[(0, 0), (1, 2)])
        assert len(form.lp.rows) == 3 + 2 + 3

    def test_rejects_negative_penalty(self):
        cost, p0 = random_instance(2, 3)
        with pytest.raises(ValueError):
            build_facility_lp(cost, p0, -1.0)

    def test_solving_built_program_matches_solver_wrapper(self):
        cost, p0 = random_instance(3, 4)
        form = build_facility_lp(cost, p0, 2.0)
        raw = solve_lp(form.lp)
        wrapped = solve_facility_relaxation(cost, p0, 2.0)
        assert raw.objective_value == pytest.approx(
            wrapped.report.objective, rel=1e-12
        )


class TestSolveFacility:
    def test_single_site(self):
        cost = build_cost_matrix(PointCloud(np.zeros((1, 2))))
        res = solve_facility_relaxation(cost, ProbabilityVector.uniform(1), 3.0)
        assert np.allclose(res.plan.entries, [[1.0]])
        assert np.allclose(res.openings, [1.0])
        assert res.report.objective == pytest.approx(3.0, abs=1e-9)

    def test_zero_penalty_keeps_mass_in_place(self):
        cost, p0 = random_instance(4, 5, uniform=False)
        res = solve_facility_relaxation(cost, p0, 0.0)
        assert np.abs(res.plan.entries - np.diag(p0.weights)).max() <= 1e-9
        assert np.allclose(res.openings, np.ones(5))
        assert "not unique" in res.report.note

    def test_dominant_penalty_opens_single_best_site(self):
        for seed in range(6):
            cost, p0 = random_instance(10 + seed, 5, uniform=seed % 2 == 0)
            penalty = 1e6 * float(cost.entries.max())
            res = solve_facility_relaxation(cost, p0, penalty)
            medoid = int(np.argmin(p0.weights @ cost.entries))
            expected_y = np.zeros(5)
            expected_y[medoid] = 1.0
            assert np.abs(res.openings - expected_y).max() <= 1e-6
            expected_plan = np.zeros((5, 5))
            expected_plan[:, medoid] = p0.weights
            assert np.abs(res.plan.entries - expected_plan).max() <= 1e-6
            ref = penalty + float(p0.weights @ cost.entries[:, medoid])
            assert res.report.objective == pytest.approx(ref, rel=1e-9)

    def test_relaxation_never_beats_nor_exceeds_integer_enumeration(self):
        for seed in range(10):
            rng = np.random.default_rng(40 + seed)
            n = int(rng.integers(4, 7))
            cost, p0 = random_instance(40 + seed, n, uniform=seed % 2 == 0)
            penalty = float(rng.uniform(0.1, 20.0))
            res = solve_facility_relaxation(cost, p0, penalty)
            integer = best_integer_value(cost, p0, penalty)
            assert res.report.objective <= integer + 1e-9

    def test_cut_path_matches_direct_path(self):
        for seed in range(6):
            rng = np.random.default_rng(60 + seed)
            cost, p0 = random_instance(60 + seed, 10, uniform=seed % 2 == 0)
            penalty = float(rng.uniform(0.0, 25.0))
            direct = _solve_direct(cost, p0, penalty, None)
            cuts = _solve_by_cuts(cost, p0, penalty, None)
            assert cuts.report.objective == pytest.approx(
                direct.report.objective, rel=1e-9, abs=1e-9
            )

    def test_cut_path_output_is_feasible(self):
        cost, p0 = random_instance(70, 20)
        res = solve_facility_relaxation(cost, p0, 2.0)
        assert res.generation_rounds >= 1
        entries = res.plan.entries
        y = res.openings
        assert entries.min() >= -1e-12
        assert np.abs(entries.sum(axis=1) - p0.weights).max() <= 1e-9
        caps = p0.weights[:, None] * y[None, :]
        assert (entries <= caps + 1e-9).all()
        assert y.min() >= 0.0 and y.max() <= 1.0
        assert y.sum() >= 1.0 - 1e-9
        assert "rounds" in res.report.note

    def test_openings_bind_at_positive_penalty(self):
        # on the explicit program, paying for slack opening is never optimal,
        # so every level sits exactly at its largest usage ratio
        cost, p0 = random_instance(80, 6)
        res = solve_facility_relaxation(cost, p0, 1.5)
        ratios = res.plan.entries / p0.weights[:, None]
        assert np.abs(res.openings - ratios.max(axis=0)).max() <= 1e-7

    def test_objective_monotone_and_openings_sum_antitone_in_penalty(self):
        cost, p0 = random_instance(90, 16)
        objectives = []
        sums = []
        for penalty in (0.5, 2.0, 8.0, 32.0, 128.0):
            res = solve_facility_relaxation(cost, p0, penalty)
            objectives.append(res.report.objective)
            sums.append(float(res.openings.sum()))
        for lo, hi in zip(objectives, objectives[1:]):
            assert hi >= lo - 1e-9
        for lo, hi in zip(sums, sums[1:]):
            assert hi <= lo + 1e-9

    def test_dispatch_uses_direct_below_threshold(self):
        cost, p0 = random_instance(95, DIRECT_SIZE)
        res = solve_facility_relaxation(cost, p0, 1.0)
        assert res.generation_rounds == 1
        assert res.report.note is None

    def test_input_validation(self):
        cost, p0 = random_instance(99, 4)
        with pytest.raises(ValueError):
            solve_facility_relaxation(cost, ProbabilityVector.uniform(5), 1.0)
        with pytest.raises(ValueError):
            solve_facility_relaxation(cost, p0, -2.0)

    def test_more_than_128_sites(self):
        cloud = sample_gaussian_mixture(four_cluster_config(samples_per_component=33))
        res = solve_facility_relaxation(
            build_cost_matrix(cloud), ProbabilityVector.uniform(cloud.size), 1.0
        )
        assert cloud.size == 132
        assert res.report.status == "optimal"
        assert extract_clusters(res.plan).cluster_count == 4

    def test_zero_penalty_through_cut_path(self):
        cost, p0 = random_instance(101, 15)
        res = solve_facility_relaxation(cost, p0, 0.0)
        assert res.report.objective == pytest.approx(0.0, abs=1e-9)
        assert np.abs(res.plan.entries - np.diag(p0.weights)).max() <= 1e-9
        assert "not unique" in res.report.note

    def test_result_type(self):
        cost, p0 = random_instance(103, 5)
        res = solve_facility_relaxation(cost, p0, 1.0)
        assert isinstance(res, FacilityResult)
        assert res.report.status == "optimal"
        assert res.report.iterations > 0
