from itertools import combinations

import numpy as np
import pytest

from otclust import facility
from otclust.clustering import extract_clusters
from otclust.core import PointCloud, ProbabilityVector, build_cost_matrix, transport_cost
from otclust.datagen import four_cluster_config, sample_gaussian_mixture, ten_cluster_config
from otclust.facility import FacilityResult, solve_facility_relaxation

from oracles import (
    UNIT_TEST_PENALTIES,
    exact_support,
    facility_lp,
    two_phase,
    unit_scaled_solves,
)


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


def six_point_cloud():
    points = np.array([
        [0.822, 1.066], [2.662, -0.216], [-3.709, -1.459],
        [0.419, -0.049], [-1.703, 3.339], [2.836, 1.154],
    ])
    return build_cost_matrix(PointCloud(points)), ProbabilityVector.uniform(6)


def explicit_optimum(cost, p0, penalty):
    """Optimal value of the relaxation with every coupling row written out."""
    status, solution = two_phase(facility_lp(cost.entries, p0.weights, penalty))
    assert status == "optimal"
    return solution.objective_value


class TestBuildFacilityLp:
    """The explicit reference program in tests/oracles.py."""

    def test_dimensions(self):
        cost, p0 = random_instance(0, 3)
        lp = facility_lp(cost.entries, p0.weights, 1.0)
        # 9 plan vars + 3 openings + one slack per coupling and bound row
        assert lp.variable_count == 12 + 9 + 3
        assert lp.constraint_count == 3 + 9 + 3

    def test_solving_built_program_matches_solver_wrapper(self):
        cost, p0 = random_instance(3, 4)
        wrapped = solve_facility_relaxation(cost, p0, 2.0)
        assert explicit_optimum(cost, p0, 2.0) == pytest.approx(
            wrapped.report.objective, rel=1e-12
        )


class TestSolveFacility:
    def test_single_site(self):
        cost = build_cost_matrix(PointCloud(np.zeros((1, 2))))
        res = solve_facility_relaxation(cost, ProbabilityVector.uniform(1), 3.0)
        assert np.allclose(res.plan.entries, [[1.0]])
        assert np.allclose(res.openings, [1.0])
        assert res.report.objective == pytest.approx(3.0, abs=1e-9)
        assert res.generation_rounds == 1 and res.report.iterations == 0

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
        instances = []
        for seed in range(6):
            rng = np.random.default_rng(60 + seed)
            cost, p0 = random_instance(60 + seed, 10, uniform=seed % 2 == 0)
            instances.append((cost, p0, float(rng.uniform(0.0, 25.0))))
            instances.append((cost, p0, float(10.0 ** rng.uniform(1.5, 7.0))))
        for n in range(1, 13):
            # n >= 2 repeats the first point; n >= 3 gives one point no mass
            rng = np.random.default_rng(200 + n)
            points = rng.normal(size=(n, 2)) * 3.0
            points[-1] = points[0]
            weights = rng.uniform(0.2, 1.0, size=n)
            if n >= 3:
                weights[1] = 0.0
            cost = build_cost_matrix(PointCloud(points))
            p0 = ProbabilityVector(weights / weights.sum())
            instances.append((cost, p0, float(rng.uniform(0.0, 25.0))))
            instances.append((cost, p0, float(10.0 ** rng.uniform(1.5, 7.0))))
        instances.append((*random_instance(66, 8), 1e7))
        for cost, p0, penalty in instances:
            cuts = solve_facility_relaxation(cost, p0, penalty)
            assert cuts.report.objective == pytest.approx(
                explicit_optimum(cost, p0, penalty), rel=1e-9, abs=1e-9
            )

    def test_explicit_program_at_huge_penalty(self):
        # reduced costs of the explicit program carry rounding of order
        # 1e-16 * penalty; an absolute pricing tolerance cycled here
        cost, p0 = six_point_cloud()
        best_site = float((p0.weights @ cost.entries).min())
        for penalty in (25.0, 1e3, 1e5, 1e7):
            status, solution = two_phase(facility_lp(cost.entries, p0.weights, penalty))
            assert status == "optimal"
            assert solution.pivots < 200
        assert solution.objective_value == pytest.approx(1e7 + best_site, rel=1e-12)

    def test_six_points_at_huge_penalty(self):
        cost, p0 = six_point_cloud()
        res = solve_facility_relaxation(cost, p0, 1e7)
        assert res.report.status == "optimal"
        assert extract_clusters(res.plan).cluster_count == 1
        best_site = float((p0.weights @ cost.entries).min())
        assert res.report.objective == pytest.approx(1e7 + best_site, rel=1e-12)
        assert res.report.objective == pytest.approx(
            explicit_optimum(cost, p0, 1e7), rel=1e-12
        )

    def test_penalty_near_the_float_limit_on_a_small_cloud(self):
        # the penalty over this cloud's mean cost, about 1.5e-6, overflows;
        # the loop's unit grows instead, so it stays finite
        cost, p0 = random_instance(7, 8, scale=1e-3)
        for penalty in (1e307, 1.7e308, float(np.finfo(float).max)):
            res = solve_facility_relaxation(cost, p0, penalty)
            assert res.report.status == "optimal"
            assert res.report.objective == pytest.approx(penalty, rel=1e-12)
            assert extract_clusters(res.plan).cluster_count == 1

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


class TestAgainstHighs:
    """HiGHS solves the explicit program independently of the package's
    simplex; the cut path must reach the same optimum."""

    @pytest.mark.parametrize("size", [40, 80])
    def test_matches_highs_on_explicit_program(self, size):
        optimize = pytest.importorskip("scipy.optimize")
        sparse = pytest.importorskip("scipy.sparse")
        cloud = sample_gaussian_mixture(four_cluster_config(size // 4, seed=5))
        cost = build_cost_matrix(cloud)
        p0 = ProbabilityVector.uniform(size)
        for penalty in (0.3, 3.0, 30.0):
            lp = facility_lp(cost.entries, p0.weights, penalty)
            matrix = sparse.csc_matrix(
                (lp.vals, lp.rowidx, lp.colptr),
                shape=(lp.constraint_count, lp.variable_count),
            )
            want = optimize.linprog(
                lp.objective, A_eq=matrix, b_eq=lp.rhs, bounds=(0, None),
                method="highs",
            )
            assert want.status == 0
            got = solve_facility_relaxation(cost, p0, penalty).report.objective
            assert got == pytest.approx(want.fun, rel=1e-9, abs=1e-9)


class TestAgainstExactSupport:
    """`lp` is the LP relaxation of the sparse-support problem with 0/1
    openings, which `exact_support` solves by branch and bound. Where the
    openings come out integral the relaxation is exact; where they do not,
    its bound lies strictly below the integer optimum."""

    @pytest.mark.parametrize(
        "make_config, low, index, fractional, values",
        [
            # criterion-6 grid points 5 and 15, penalties ~3.708 and ~50.98
            (four_cluster_config, 1.0, 5, 0, None),
            (four_cluster_config, 1.0, 15, 0, None),
            # criterion-8 grid points 13 and 16, penalties ~5.78 and ~17.30:
            # (lp bound, exact optimum)
            (ten_cluster_config, 0.05, 13, 3, (37.2494, 37.2689)),
            (ten_cluster_config, 0.05, 16, 6, (71.2983, 71.3387)),
        ],
    )
    def test_lp_bounds_the_exact_optimum(self, make_config, low, index, fractional, values):
        pytest.importorskip("scipy.optimize")
        penalty = float(np.geomspace(low, 2000.0, 30)[index])
        cost = build_cost_matrix(sample_gaussian_mixture(make_config()))
        p0 = ProbabilityVector.uniform(cost.shape[0])
        exact, sites = exact_support(cost, p0, penalty)
        res = solve_facility_relaxation(cost, p0, penalty)
        got = res.report.objective
        openings = res.openings
        integral = np.minimum(openings, 1.0 - openings) <= 1e-9
        assert int((~integral).sum()) == fractional
        if fractional:
            assert (got, exact) == pytest.approx(values, abs=1e-4)
        else:
            assert abs(got - exact) <= 1e-9 * exact
            assert np.flatnonzero(openings > 0.5).tolist() == sites


@pytest.mark.parametrize("name", sorted(UNIT_TEST_PENALTIES))
def test_solve_is_unit_free(name):
    # the cut loop runs in mean-cost units, so a change of length unit
    # changes neither the status, nor the sites, nor the objective in new units
    for answers in unit_scaled_solves(solve_facility_relaxation, name):
        _, representatives, objective = answers[1]
        for status, sites, value in answers:
            assert status == "optimal"
            assert sites == representatives
            assert value == pytest.approx(objective, rel=1e-9)


def cold_masters(monkeypatch):
    """Make every master solve start from the slack columns."""
    warm = facility._MasterColumns.solve

    def cold(master):
        # the slacks come last, past the cuts, the sum column and n bounds
        master.basis = master.objective.size + 1 + master.n + np.arange(master.rhs.size)
        return warm(master)

    monkeypatch.setattr(facility._MasterColumns, "solve", cold)


class TestWarmStartedMaster:
    """Each master solve after the first starts from the previous optimal
    basis; results must match cold solves."""

    @staticmethod
    def _instances():
        for n in range(1, 13):
            rng = np.random.default_rng(500 + n)
            points = rng.normal(size=(n, 2)) * 3.0
            if n >= 2:
                points[-1] = points[0]
            weights = rng.uniform(0.2, 1.0, size=n)
            if n >= 3:
                weights[rng.integers(0, n)] = 0.0
            cost = build_cost_matrix(PointCloud(points))
            p0 = ProbabilityVector(weights / weights.sum())
            for penalty in (0.0, float(rng.uniform(0.1, 5.0)), float(rng.uniform(5.0, 60.0))):
                yield cost, p0, penalty

    def test_round_one_solves_no_master(self, monkeypatch):
        # any unit opening solves the master without cuts, so only rounds
        # after the first solve one
        programs = []
        solve = facility.solve_lp
        monkeypatch.setattr(
            facility, "solve_lp",
            lambda lp, initial_basis: programs.append(lp) or solve(lp, initial_basis),
        )
        for instance in self._instances():
            programs.clear()
            res = solve_facility_relaxation(*instance)
            assert len(programs) == res.generation_rounds - 1

    def test_warm_matches_cold_on_small_instances(self, monkeypatch):
        warm = [solve_facility_relaxation(*instance) for instance in self._instances()]
        cold_masters(monkeypatch)
        cold = [solve_facility_relaxation(*instance) for instance in self._instances()]
        for w, c in zip(warm, cold):
            assert w.report.objective == pytest.approx(
                c.report.objective, rel=1e-9, abs=1e-9
            )
            assert w.report.status == c.report.status == "optimal"

    @pytest.mark.parametrize(
        "config, penalty, ceiling",
        # cold masters take 2,180 and 159 pivots, warm ones 606 and 99; the
        # 650 case holds the cut of solving in mean-cost units (698 before)
        [
            (ten_cluster_config, 1.0, 1000),
            (ten_cluster_config, 1.0, 650),
            (four_cluster_config, 74.0, 200),
        ],
    )
    def test_master_pivot_ceiling(self, config, penalty, ceiling):
        cloud = sample_gaussian_mixture(config())
        cost = build_cost_matrix(cloud)
        p0 = ProbabilityVector.uniform(cloud.size)
        res = solve_facility_relaxation(cost, p0, penalty)
        assert res.report.status == "optimal"
        assert res.report.iterations < ceiling

    def test_warm_start_adopts_the_previous_basis(self, monkeypatch):
        # round 1 solves no master; the first master starts from the slack
        # columns, and every later one from the last optimal basis, its ids
        # remapped past the newly added cut columns
        seen = []
        solve = facility.solve_lp

        def spy(lp, initial_basis):
            solution = solve(lp, initial_basis=initial_basis)
            seen.append((initial_basis, lp, solution))
            return solution

        monkeypatch.setattr(facility, "solve_lp", spy)
        cloud = sample_gaussian_mixture(four_cluster_config())
        res = solve_facility_relaxation(
            build_cost_matrix(cloud), ProbabilityVector.uniform(cloud.size), 74.0
        )
        assert res.generation_rounds - 1 == len(seen) >= 2
        first, program, _ = seen[0]
        rows = program.constraint_count
        assert np.array_equal(first, program.variable_count - rows + np.arange(rows))
        slacks = np.column_stack([program.column(j) for j in first])
        assert np.array_equal(slacks, np.eye(rows))
        for (_, before, previous), (initial, after, _) in zip(seen, seen[1:]):
            # the remapped basis names the same columns of the grown program
            assert len(initial) == len(previous.basis)
            for old, new in zip(previous.basis, initial):
                assert np.array_equal(before.column(old), after.column(new))
                assert before.objective[old] == after.objective[new]


def test_duality_gap_on_acceptance_grid():
    # the gap is the converged round's best fill minus the master bound
    cloud = sample_gaussian_mixture(four_cluster_config())
    cost = build_cost_matrix(cloud)
    p0 = ProbabilityVector.uniform(cloud.size)
    for penalty in np.geomspace(1.0, 2000.0, 30):
        report = solve_facility_relaxation(cost, p0, penalty).report
        scale = max(1.0, abs(report.objective))
        assert -1e-12 * scale <= report.duality_gap <= facility._GAP_TOLERANCE * scale


@pytest.mark.parametrize(
    "config, low, index",
    # four-cluster 2.853 keeps round 4 of 5 and 39.23 round 2 of 3; the
    # ten-cluster points 5.78 and 17.3 have fractional openings
    [
        (four_cluster_config, 1.0, 4),
        (four_cluster_config, 1.0, 14),
        (ten_cluster_config, 0.05, 13),
        (ten_cluster_config, 0.05, 16),
    ],
)
def test_plan_and_openings_come_from_the_same_round(config, low, index):
    # the loop keeps its best round's openings and fills, and scatters the
    # fills into the plan once; priced together they give the objective
    cloud = sample_gaussian_mixture(config())
    cost = build_cost_matrix(cloud)
    p0 = ProbabilityVector.uniform(cloud.size)
    penalty = float(np.geomspace(low, 2000.0, 30)[index])
    res = solve_facility_relaxation(cost, p0, penalty)
    value = transport_cost(cost, res.plan.entries) + penalty * float(res.openings.sum())
    assert value == pytest.approx(res.report.objective, rel=1e-12, abs=0.0)
