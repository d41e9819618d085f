"""End-to-end acceptance checks, one test per numbered criterion.

Each test wraps its body in `criterion(k)` so the session summary prints
one ACCEPTANCE line per criterion; details live in the assertions.
"""

import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from otclust.cli import main
from otclust.clustering import adjusted_rand_index, extract_clusters
from otclust.core import PointCloud, ProbabilityVector, build_cost_matrix
from otclust.datagen import four_cluster_config, sample_gaussian_mixture
from otclust.facility import solve_facility_relaxation
from otclust.linf import solve_linf
from otclust.son import _project_rows, solve_son
from otclust.sweep import ExperimentSpec, run_sweep
from otclust.transport import solve_transport

from oracles import (
    enumerate_lp,
    inner_cost,
    program_from_rows,
    projection_threshold_scan,
    son_surrogate,
    support_cardinality,
    two_phase,
)

CRITERIA = {}


@contextmanager
def criterion(number):
    try:
        yield
    except BaseException:
        CRITERIA[number] = "FAIL"
        print(f"ACCEPTANCE {number}: FAIL")
        raise
    else:
        CRITERIA[number] = "PASS"
        print(f"ACCEPTANCE {number}: PASS")


def random_cloud(rng, n, scale=2.0):
    return PointCloud(rng.normal(size=(n, 2)) * scale)


def longest_run(indices):
    best = run = 0
    previous = None
    for i in indices:
        run = run + 1 if previous is not None and i == previous + 1 else 1
        best = max(best, run)
        previous = i
    return best


def test_criterion_1_transport_matches_permutation_oracle():
    with criterion(1):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        for trial in range(200):
            n = int(rng.integers(3, 7))
            # two clouds: a cloud onto itself is solved in closed form
            cost = build_cost_matrix(random_cloud(rng, n), random_cloud(rng, n))
            marginal = ProbabilityVector.uniform(n)
            result = solve_transport(cost, marginal, marginal)
            best = min(
                float(cost.entries[np.arange(n), perm].sum()) / n
                for perm in itertools.permutations(range(n))
            )
            assert abs(result.report.objective - best) <= 1e-9, f"trial {trial}"
        assert time.perf_counter() - started < 10.0


def test_criterion_2_lp_solver_matches_vertex_enumeration():
    with criterion(2):
        rng = np.random.default_rng(202)
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for trial in range(100):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(1, 4))
            A = rng.uniform(-1.0, 1.0, size=(m, n))
            if trial % 3:
                anchor = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.7)
                b = A @ anchor
            else:
                b = rng.uniform(-1.0, 1.0, size=m)
            c = rng.uniform(-1.0, 1.0, size=n)
            flip = np.where(b < 0, -1.0, 1.0)
            A = A * flip[:, None]
            b = b * flip
            rows = tuple(
                [(j, float(A[r, j])) for j in range(n)] for r in range(m)
            )
            lp = program_from_rows(c, rows, b)
            want_status, _, want_value = enumerate_lp(c, A, b)
            status, solution = two_phase(lp)
            assert status == want_status, f"trial {trial}"
            seen[want_status] += 1
            if want_status == "optimal":
                tolerance = 1e-8 * max(1.0, abs(want_value))
                assert abs(solution.objective_value - want_value) <= tolerance
        assert min(seen.values()) > 0


def test_criterion_3_simplex_projection_matches_grid_search():
    with criterion(3):
        rng = np.random.default_rng(303)
        for trial in range(500):
            n = int(rng.integers(1, 5))
            v = rng.normal(size=n) * 3.0
            radius = np.array([float(rng.uniform(0.05, 2.0))])
            projected = _project_rows(v[None, :], radius)
            reference = projection_threshold_scan(v, radius[0])
            assert np.abs(projected[0] - reference).max() <= 2e-4, f"trial {trial}"
            again = _project_rows(projected, radius)
            assert np.abs(again - projected).max() <= 1e-9
        for trial in range(200):
            n = int(rng.integers(1, 5))
            u = rng.normal(size=n) * 3.0
            v = rng.normal(size=n) * 3.0
            radius = float(rng.uniform(0.05, 2.0))
            pu, pv = _project_rows(np.stack([u, v]), np.array([radius, radius]))
            assert (
                np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9
            ), f"pair {trial}"


def test_criterion_4_son_tiny_instances_match_oracles():
    with criterion(4):
        rng = np.random.default_rng(404)
        # dense grid over the two free entries of a 2x2 row-feasible plan
        steps = 400
        for trial in range(10):
            cost = build_cost_matrix(random_cloud(rng, 2))
            p0 = ProbabilityVector.uniform(2)
            penalty = float(rng.uniform(0.1, 3.0))
            kappa = penalty / float(np.linalg.norm(p0.weights))
            a = np.linspace(0.0, p0.weights[0], steps)[:, None]
            b = np.linspace(0.0, p0.weights[1], steps)[None, :]
            C = cost.entries
            transport = (
                C[0, 0] * a + C[0, 1] * (p0.weights[0] - a)
                + C[1, 0] * b + C[1, 1] * (p0.weights[1] - b)
            )
            norms = np.sqrt(a**2 + b**2) + np.sqrt(
                (p0.weights[0] - a) ** 2 + (p0.weights[1] - b) ** 2
            )
            grid_best = float((transport + kappa * norms).min())
            result = solve_son(cost, p0, penalty)
            assert result.report.objective == pytest.approx(
                grid_best, rel=1e-3
            ), f"trial {trial}"
        # dominant penalty: the whole mass lands on the cost-weighted medoid
        for trial in range(10):
            n = int(rng.integers(3, 6))
            cost = build_cost_matrix(random_cloud(rng, n))
            weights = rng.dirichlet(np.full(n, 3.0))
            p0 = ProbabilityVector(weights)
            medoid = int(np.argmin(p0.weights @ cost.entries))
            penalty = 1e6 * float(cost.entries.max())
            result = solve_son(cost, p0, penalty)
            clusters = extract_clusters(result.plan)
            assert clusters.cluster_count == 1, f"trial {trial}"
            assert clusters.representatives == frozenset({medoid})
            assert all(int(j) == medoid for j in clusters.assignment)


def test_criterion_5_envelope_invariants_never_violated():
    with criterion(5):
        rng = np.random.default_rng(505)
        violations = 0

        def check(entries, weights):
            nonlocal violations
            norm = float(np.linalg.norm(weights))
            column_norms = np.linalg.norm(entries, axis=0)
            if column_norms.max() > norm + 1e-9:
                violations += 1
            envelope = son_surrogate(entries, weights)
            card = support_cardinality(entries.sum(axis=0), 0.0)
            if envelope > card + 1e-9:
                violations += 1

        for _ in range(10000):
            n = int(rng.integers(2, 9))
            weights = rng.dirichlet(np.full(n, 2.0))
            entries = rng.gamma(1.0, size=(n, n))
            entries *= weights[:, None] / entries.sum(axis=1, keepdims=True)
            check(entries, weights)

        for seed in range(6):
            instance_rng = np.random.default_rng(5050 + seed)
            n = int(instance_rng.integers(3, 7))
            cost = build_cost_matrix(random_cloud(instance_rng, n))
            p0 = ProbabilityVector(instance_rng.dirichlet(np.full(n, 3.0)))
            top = float(cost.entries.max())
            for plan in (
                solve_son(cost, p0, 0.5).plan,
                solve_son(cost, p0, 5.0 * top).plan,
                solve_facility_relaxation(cost, p0, 0.3).plan,
                solve_facility_relaxation(cost, p0, 2.0).plan,
                solve_linf(cost, p0, 0.5).plan,
            ):
                check(plan.entries, p0.weights)
        assert violations == 0


FOUR_CLUSTER_GRID = tuple(np.geomspace(1.0, 2000.0, 30))


def test_criterion_6_four_cluster_experiment_son_and_facility():
    with criterion(6):
        started = time.perf_counter()
        for method in ("son", "lp"):
            report = run_sweep(
                ExperimentSpec(
                    dataset="four-cluster",
                    method=method,
                    lambda_grid=FOUR_CLUSTER_GRID,
                )
            )
            counts = [entry["cluster_count"] for entry in report.results]
            qualifying = [
                i
                for i, entry in enumerate(report.results)
                if entry["cluster_count"] == 4 and entry["ari"] >= 0.95
            ]
            assert longest_run(qualifying) >= 3, f"{method}: no 4-cluster interval"
            assert any(c == 1 for c in counts), f"{method}: never one cluster"
            assert counts[-1] == 1, f"{method}: largest penalty not one cluster"
        assert time.perf_counter() - started < 300.0


def test_criterion_7_four_cluster_linf_negative_result():
    with criterion(7):
        started = time.perf_counter()
        cloud = sample_gaussian_mixture(four_cluster_config())
        p0 = ProbabilityVector.uniform(cloud.size)
        cost = build_cost_matrix(cloud)

        def outcome(penalty):
            clusters = extract_clusters(solve_linf(cost, p0, penalty).plan)
            ari = adjusted_rand_index(cloud.labels, clusters.assignment)
            sizes = np.bincount(clusters.assignment)
            sizes = sizes[sizes > 0]
            return clusters.cluster_count, ari, np.sort(sizes)[::-1]

        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(outcome, FOUR_CLUSTER_GRID))

        assert not any(
            count == 4 and ari >= 0.9 for count, ari, _ in outcomes
        ), "a penalty recovered the four planted clusters"
        isolating = [
            (count, ari, sizes)
            for count, ari, sizes in outcomes
            if sizes[0] >= 2
            and cloud.size - sizes[0] >= 1
            and 2 * int((sizes == 1).sum()) >= cloud.size - sizes[0]
        ]
        assert isolating, "no penalty isolated a dominant cluster"
        assert time.perf_counter() - started < 600.0


def test_criterion_8_ten_cluster_experiment_son_and_facility():
    with criterion(8):
        started = time.perf_counter()
        grid = tuple(np.geomspace(0.05, 2000.0, 30))
        for method in ("son", "lp"):
            report = run_sweep(
                ExperimentSpec(
                    dataset="ten-cluster", method=method, lambda_grid=grid
                )
            )
            qualifying = [
                i
                for i, entry in enumerate(report.results)
                if entry["cluster_count"] == 10 and entry["ari"] >= 0.95
            ]
            assert longest_run(qualifying) >= 3, f"{method}: no 10-cluster interval"
        assert time.perf_counter() - started < 600.0


def test_criterion_9_inverse_linf_machinery():
    with criterion(9):
        rng = np.random.default_rng(909)
        for trial in range(100):
            n = int(rng.integers(2, 7))
            cost = build_cost_matrix(random_cloud(rng, n, scale=1.5))
            weights = rng.dirichlet(np.full(n, 3.0))
            p0 = ProbabilityVector(weights)
            index = int(rng.integers(0, n))
            t1, t2 = rng.uniform(0.0, 1.0, size=2)
            middle = inner_cost(cost, p0, index, float((t1 + t2) / 2))
            ends = inner_cost(cost, p0, index, float(t1)) + inner_cost(
                cost, p0, index, float(t2)
            )
            assert middle <= ends / 2 + 1e-8, f"trial {trial}"

        # two even points at pair cost c: the pinned cost is (t - 1/2) c
        # for t >= 1/2, so (t - 1/2) c + penalty / t is least at
        # t* = sqrt(penalty / c) whenever that lies in (1/2, 1)
        two = build_cost_matrix(PointCloud(np.array([[0.0, 0.0], [0.9, 0.7]])))
        c = float(two.entries[0, 1])
        for share in (0.3, 0.5, 0.8):
            penalty = share * c
            location = float(np.sqrt(penalty / c))
            result = solve_linf(two, ProbabilityVector.uniform(2), penalty)
            assert abs(result.best_mass - location) <= 1e-9
            expected = (location - 0.5) * c + penalty / location
            assert abs(result.report.objective - expected) <= 1e-9

        # moderate cost scale keeps the dense grid's kink error well under
        # the agreement tolerance; the grid can never beat an exact minimum,
        # and the LP oracle must confirm the reported optimum
        penalty = 0.1
        grid = np.linspace(0.02, 1.0, 200)
        for seed in range(5):
            instance_rng = np.random.default_rng(seed)
            cost = build_cost_matrix(random_cloud(instance_rng, 5, scale=0.3))
            p0 = ProbabilityVector.uniform(5)
            result = solve_linf(cost, p0, penalty)
            for i in range(5):
                reference = min(
                    inner_cost(cost, p0, i, float(t)) + penalty / float(t)
                    for t in grid
                )
                value = result.per_index_values[i]
                assert value <= reference + 1e-9, f"seed {seed} index {i}"
                assert abs(value - reference) <= 1e-3, f"seed {seed} index {i}"
            confirmed = inner_cost(
                cost, p0, result.best_index, result.best_mass
            ) + penalty / result.best_mass
            assert abs(result.report.objective - confirmed) <= 1e-9, f"seed {seed}"


def test_criterion_10_byte_identical_artifacts(tmp_path, monkeypatch):
    with criterion(10):
        artifacts = {}
        for attempt in ("first", "second"):
            base = tmp_path / attempt
            base.mkdir()
            # identical configs must include identical recorded paths, so
            # each run works with the same relative names from its own cwd
            monkeypatch.chdir(base)
            assert main(
                [
                    "generate", "--config", "four-cluster", "--seed", "7",
                    "--samples-per-component", "6", "--out", "points.csv",
                ]
            ) == 0
            assert main(
                [
                    "sweep", "--points", "points.csv", "--method", "lp",
                    "--lambdas", "0.5,5,500", "--jobs", "2",
                    "--out", "sweep",
                ]
            ) == 0
            main(
                [
                    "cluster", "--points", "points.csv", "--method", "lp",
                    "--lambda", "5.0", "--out", "result.json",
                    "--svg", "figure.svg",
                ]
            )
            artifacts[attempt] = (
                (base / "points.csv").read_bytes(),
                (base / "sweep" / "sweep-lp-points.json").read_bytes(),
                (base / "result.json").read_bytes(),
                (base / "figure.svg").read_bytes(),
            )
        for first, second in zip(artifacts["first"], artifacts["second"]):
            assert first == second
        document = json.loads(artifacts["first"][1])
        assert document["results"][-1]["cluster_count"] == 1
