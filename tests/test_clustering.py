import numpy as np
import pytest

from otclust.clustering import (
    _TIE_TOLERANCE,
    ClusteringResult,
    adjusted_rand_index,
    extract_clusters,
)
from otclust.core import PointCloud, ProbabilityVector, TransportPlan, build_cost_matrix
from otclust.son import solve_son

from oracles import reference_row_assignment, support_cardinality


def plan_from(entries):
    # global rescale to unit mass; preserves every row argmax
    entries = np.asarray(entries, dtype=float)
    entries = entries / entries.sum()
    return TransportPlan(entries=entries, row_target=ProbabilityVector(entries.sum(axis=1)))


class TestExtractClusters:
    def test_diagonal_plan_gives_singletons(self):
        p0 = ProbabilityVector(np.array([0.2, 0.3, 0.5]))
        res = extract_clusters(plan_from(np.diag(p0.weights)))
        assert res.cluster_count == 3
        assert res.representatives == frozenset({0, 1, 2})
        assert list(res.assignment) == [0, 1, 2]
        assert res.zero_mass_rows == ()

    def test_single_column_plan_gives_one_cluster(self):
        p0 = np.array([0.1, 0.2, 0.3, 0.4])
        entries = np.zeros((4, 4))
        entries[:, 3] = p0
        res = extract_clusters(plan_from(entries))
        assert res.cluster_count == 1
        assert res.representatives == frozenset({3})
        assert list(res.assignment) == [3, 3, 3, 3]

    def test_planted_two_cluster_instance(self):
        # two tight pairs far apart; a mid-range penalty merges each pair
        # onto one of its members and nothing else. Unequal weights inside
        # each pair keep the member columns from tying exactly (equal
        # weights would leave a segment of optima and the iterate lands in
        # its interior, where the row argmax stays diagonal).
        points = PointCloud(
            np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        )
        cost = build_cost_matrix(points)
        p0 = ProbabilityVector(np.array([0.3, 0.2, 0.3, 0.2]))
        penalty = 1.0
        kappa = penalty / float(np.linalg.norm(p0.weights))

        def combined(entries):
            cost_part = float((cost.entries * entries).sum())
            return cost_part + kappa * float(np.linalg.norm(entries, axis=0).sum())

        candidates = {}
        for ja in (0, 1):
            for jb in (2, 3):
                e = np.zeros((4, 4))
                e[0, ja] = p0.weights[0]
                e[1, ja] = p0.weights[1]
                e[2, jb] = p0.weights[2]
                e[3, jb] = p0.weights[3]
                candidates[(ja, jb)] = e
        for j in range(4):
            e = np.zeros((4, 4))
            e[:, j] = p0.weights
            candidates[(j,)] = e
        candidates[()] = np.diag(p0.weights)
        best = min(candidates, key=lambda k: combined(candidates[k]))
        assert best == (0, 2)

        res = solve_son(cost, p0, penalty=penalty)
        assert res.report.objective <= combined(candidates[best]) + 1e-3
        clusters = extract_clusters(res.plan)
        assert clusters.cluster_count == 2
        labels = clusters.assignment
        assert labels[0] == labels[1] == 0
        assert labels[2] == labels[3] == 2

    def test_ties_go_to_lowest_index(self):
        entries = np.array(
            [
                [0.25, 0.25, 0.0],
                [0.0, 0.15, 0.15],
                [0.0, 0.0, 0.2],
            ]
        )
        res = extract_clusters(plan_from(entries))
        assert list(res.assignment) == [0, 1, 2]
        # a gap inside the tie tolerance still ties, one beyond it does not
        entries = np.array([[0.3, 0.3 + 5e-10], [0.0, 0.4 - 5e-10]])
        assert list(extract_clusters(plan_from(entries)).assignment) == [0, 1]
        entries = np.array([[0.3, 0.3 + 2e-9], [0.0, 0.4 - 2e-9]])
        assert list(extract_clusters(plan_from(entries)).assignment) == [1, 1]

    def test_zero_mass_rows_flagged_and_self_assigned(self):
        entries = np.array([[0.0, 0.0], [0.0, 1.0]])
        res = extract_clusters(plan_from(entries))
        assert res.zero_mass_rows == (0,)
        assert list(res.assignment) == [0, 1]
        assert res.representatives == frozenset({0, 1})

    def test_representatives_are_image_of_assignment(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            entries = rng.uniform(size=(n, n))
            entries /= entries.sum() * 1.0
            res = extract_clusters(plan_from(entries))
            assert res.representatives == frozenset(int(j) for j in res.assignment)
            assert res.cluster_count == len(res.representatives)

    def test_count_bounded_by_column_support(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            entries = rng.uniform(size=(n, n))
            entries[rng.uniform(size=(n, n)) < 0.5] = 0.0
            entries[:, 0] += 1e-3
            res = extract_clusters(plan_from(entries))
            column_mass = entries.sum(axis=0)
            positive = column_mass[column_mass > 0]
            threshold = float(positive.min()) / 2
            assert res.cluster_count <= support_cardinality(column_mass, threshold)

    def test_invariant_under_row_rescaling(self):
        rng = np.random.default_rng(6)
        entries = rng.uniform(size=(5, 5))
        scales = rng.uniform(0.5, 3.0, size=5)
        base = extract_clusters(plan_from(entries))
        scaled = extract_clusters(plan_from(entries * scales[:, None]))
        assert list(base.assignment) == list(scaled.assignment)

    def test_rejects_non_square_and_bad_tol(self):
        entries = np.array([[0.5, 0.25, 0.25]])
        with pytest.raises(ValueError):
            extract_clusters(plan_from(entries))
        # the tie tolerance is the constant _TIE_TOLERANCE, not an argument
        with pytest.raises(TypeError, match="tie_tol"):
            extract_clusters(plan_from(np.eye(2) / 2), tie_tol=-1.0)

    def test_matches_row_by_row_rule(self):
        # random plans with exact ties, near-ties and empty rows
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            entries = rng.integers(0, 4, size=(n, n)) * 0.1
            entries[rng.uniform(size=(n, n)) < 0.2] += 3e-10
            entries[rng.uniform(size=n) < 0.2] = 0.0
            if not entries.any():
                entries[0, 0] = 1.0
            plan = plan_from(entries)
            res = extract_clusters(plan)
            assignment, zero_rows = reference_row_assignment(plan.entries, _TIE_TOLERANCE)
            assert list(res.assignment) == assignment
            assert res.zero_mass_rows == zero_rows

    def test_assignment_is_read_only(self):
        res = extract_clusters(plan_from(np.eye(3) / 3))
        with pytest.raises(ValueError):
            res.assignment[0] = 2
        assert isinstance(res, ClusteringResult)


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_invariant_to_label_names(self):
        a = [0, 0, 1, 1, 2]
        b = ["x", "x", "q", "q", "z"]
        assert adjusted_rand_index(a, b) == 1.0

    def test_one_cluster_vs_singletons_is_zero(self):
        a = [0] * 6
        b = list(range(6))
        assert adjusted_rand_index(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_contingency(self):
        # contingency [[2,1],[0,3]]: observed=4, rows=[3,3]->6, cols=[2,4]->7,
        # total=15, expected=2.8, max=6.5 -> ari = 1.2/3.7
        a = [0, 0, 0, 1, 1, 1]
        b = [0, 0, 1, 1, 1, 1]
        assert adjusted_rand_index(a, b) == pytest.approx(1.2 / 3.7, rel=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 4, size=n)
            ab = adjusted_rand_index(a, b)
            ba = adjusted_rand_index(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert -1.0 <= ab <= 1.0 + 1e-12

    def test_both_trivial_partitions(self):
        assert adjusted_rand_index([0, 0, 0], [5, 5, 5]) == 1.0
        assert adjusted_rand_index([0, 1, 2], [7, 8, 9]) == 1.0
        assert adjusted_rand_index([], []) == 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])
