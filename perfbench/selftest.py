"""Tests of the benchmark's own checks: each must reject a perturbed result.

    python3 perfbench/selftest.py

Every check gets a result built independently of otclust that it must
accept, then the same result with the objective nudged up or down, or with a
plan whose row was moved, which it must reject. The oracles themselves are
pinned on cases with known answers.
"""

import itertools
import sys
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _instance(n=6, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2)) * 2.0
    return points, checks.squared_distances(points), np.full(n, 1.0 / n)


def _medoid_plan(cost, weights):
    plan = np.zeros_like(cost)
    plan[:, int(np.argmin(weights @ cost))] = weights
    return plan


def _move_row(plan, source=0, target=1):
    """Shift one row's mass onto another row: column sums stay, rows break."""
    moved = plan.copy()
    moved[target] += moved[source]
    moved[source] = 0.0
    return moved


def _greedy_linf_plan(cost, weights, column, mass):
    """Rows fill `column` in order of their extra cost up to `mass`; the
    rest of each row goes to its cheapest other column."""
    n = weights.size
    masked = cost.copy()
    masked[:, column] = np.inf
    alt = np.argmin(masked, axis=1)
    pull = cost[:, column] - masked[np.arange(n), alt]
    plan = np.zeros_like(cost)
    left = mass
    for row in np.argsort(pull, kind="stable"):
        take = min(weights[row], max(left, 0.0))
        plan[row, column] = take
        plan[row, alt[row]] += weights[row] - take
        left -= take
    return plan


class SonCheck(unittest.TestCase):
    def setUp(self):
        _, self.cost, self.weights = _instance()
        self.penalty = 50.0  # large enough that the single medoid is optimal
        self.plan = _medoid_plan(self.cost, self.weights)
        self.value = checks.son_objective(self.cost, self.plan, self.weights, self.penalty)

    def check(self, reported, plan, lp_plan=None):
        return checks.check_son(self.cost, self.weights, self.penalty, reported, plan, lp_plan)

    def test_accepts_consistent_result(self):
        self.assertAlmostEqual(self.check(self.value, self.plan, self.plan), 0.0)

    def test_rejects_nudged_objective(self):
        for factor in (1 + 1e-6, 1 - 1e-6):
            with self.assertRaises(CheckFailed):
                self.check(self.value * factor, self.plan)

    def test_rejects_moved_row(self):
        with self.assertRaises(CheckFailed):
            self.check(self.value, _move_row(self.plan))

    def test_rejects_objective_above_trivial_plans(self):
        diagonal = np.diag(self.weights)
        worse = checks.son_objective(self.cost, diagonal, self.weights, self.penalty)
        self.assertGreater(worse, self.value * (1 + checks.SON_BOUND_RTOL))
        with self.assertRaises(CheckFailed):
            self.check(worse, diagonal)

    def test_rejects_objective_above_lp_plan(self):
        # two far-apart pairs: two open sites beat three, which beat the
        # trivial diagonal and single-medoid plans
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        cost = checks.squared_distances(points)
        weights = np.full(4, 0.25)
        penalty = 10.0
        two_sites = np.zeros((4, 4))
        two_sites[[0, 1], 0] = 0.25
        two_sites[[2, 3], 2] = 0.25
        three_sites = two_sites.copy()
        three_sites[3, 2], three_sites[3, 3] = 0.0, 0.25
        value = checks.son_objective(cost, three_sites, weights, penalty)
        self.assertGreater(value, 1.1 * checks.son_objective(cost, two_sites, weights, penalty))
        checks.check_son(cost, weights, penalty, value, three_sites)
        with self.assertRaises(CheckFailed):
            checks.check_son(cost, weights, penalty, value, three_sites, two_sites)


class LpCheck(unittest.TestCase):
    def setUp(self):
        _, self.cost, self.weights = _instance(n=5, seed=1)

    def test_oracle_at_known_optima(self):
        # no penalty: every point serves itself at zero cost
        self.assertAlmostEqual(checks.facility_lp_value(self.cost, self.weights, 0.0), 0.0)
        # dominant penalty: one fully open site, the best medoid
        penalty = 1e4
        medoid = penalty + float((self.weights @ self.cost).min())
        self.assertAlmostEqual(
            checks.facility_lp_value(self.cost, self.weights, penalty) / medoid, 1.0, places=12
        )

    def test_rejects_nudged_objective(self):
        penalty = 2.0
        value = checks.facility_lp_value(self.cost, self.weights, penalty)
        checks.check_lp(self.cost, self.weights, penalty, value)
        for delta in (1e-6, -1e-6):
            with self.assertRaises(CheckFailed):
                checks.check_lp(self.cost, self.weights, penalty, value * (1 + delta))


class LinfCheck(unittest.TestCase):
    def setUp(self):
        _, self.cost, self.weights = _instance(n=5, seed=2)
        self.penalty = 3.0
        values, masses, _ = checks.linf_exact(self.cost, self.weights, self.penalty)
        self.column = int(np.argmin(values))
        self.value = float(values[self.column])
        self.plan = _greedy_linf_plan(self.cost, self.weights, self.column, masses[self.column])

    def test_exact_minimum_matches_lp_scan(self):
        from scipy.optimize import linprog

        n = self.weights.size

        def pinned(column, t):
            # cheapest transport with rows summing to the weights, mass t on column
            a_eq = np.zeros((n + 1, n * n))
            for row in range(n):
                a_eq[row, row * n:(row + 1) * n] = 1.0
            a_eq[n, column::n] = 1.0
            result = linprog(self.cost.reshape(-1), A_eq=a_eq,
                             b_eq=np.append(self.weights, t), method="highs")
            return result.fun + self.penalty / t

        _, masses, _ = checks.linf_exact(self.cost, self.weights, self.penalty)
        self.assertAlmostEqual(pinned(self.column, masses[self.column]), self.value, places=9)
        scan = min(pinned(c, t) for c in range(n) for t in np.linspace(0.05, 1.0, 120))
        self.assertLessEqual(self.value, scan + 1e-9)
        self.assertLess(scan - self.value, 1e-2 * self.value)

    def test_accepts_exact_value_and_its_plan(self):
        excess = checks.check_linf(self.cost, self.weights, self.penalty, self.value,
                                   self.plan, 1e-5)
        self.assertAlmostEqual(excess, 0.0)

    def test_rejects_nudged_objective(self):
        for factor in (1 - 1e-6, 1 + 1e-2):
            with self.assertRaises(CheckFailed):
                checks.check_linf(self.cost, self.weights, self.penalty,
                                  self.value * factor, self.plan, 1e-5)

    def test_rejects_moved_row(self):
        with self.assertRaises(CheckFailed):
            checks.check_linf(self.cost, self.weights, self.penalty, self.value,
                              _move_row(self.plan), 1e-5)

    def test_rejects_plan_worse_than_reported(self):
        with self.assertRaises(CheckFailed):
            checks.check_linf(self.cost, self.weights, self.penalty, self.value,
                              np.diag(self.weights), 1e-5)


class TransportChecks(unittest.TestCase):
    def test_self_transport(self):
        weights = np.full(4, 0.25)
        plan = np.diag(weights)
        checks.check_self_transport(weights, 0.0, plan)
        with self.assertRaises(CheckFailed):
            checks.check_self_transport(weights, 1e-9, plan)
        with self.assertRaises(CheckFailed):
            checks.check_self_transport(weights, 0.0, _move_row(plan))
        shifted = plan.copy()
        shifted[0, 0], shifted[0, 1] = 0.0, 0.25  # row kept, column sums broken
        with self.assertRaises(CheckFailed):
            checks.check_self_transport(weights, 0.0, shifted)

    def test_wasserstein_against_permutations(self):
        rng = np.random.default_rng(3)
        cost = checks.squared_distances(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        best = min(cost[np.arange(5), list(p)].mean() for p in itertools.permutations(range(5)))
        checks.check_wasserstein(cost, best)
        for delta in (1e-8, -1e-8):
            with self.assertRaises(CheckFailed):
                checks.check_wasserstein(cost, best + delta)


class ClusteringChecks(unittest.TestCase):
    def test_adjusted_rand_known_values(self):
        self.assertEqual(checks.adjusted_rand([0, 0, 1, 1], [5, 5, 7, 7]), 1.0)
        # contingency [[2, 0], [1, 1]]: pairs 1 agreeing, expected 0.5, max 1.5
        self.assertAlmostEqual(checks.adjusted_rand([0, 0, 1, 1], [0, 0, 0, 1]), 0.0)
        self.assertAlmostEqual(checks.adjusted_rand([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2]),
                               0.24242424242424243)

    def test_rejects_wrong_count_or_score(self):
        plan = np.array([[0.3, 0.0, 0.0], [0.2, 0.1, 0.0], [0.0, 0.0, 0.4]])
        labels = np.array([0, 0, 1])
        self.assertEqual(checks.check_clustering(plan, labels, 2, 1.0, "case"), (2, 1.0))
        with self.assertRaises(CheckFailed):
            checks.check_clustering(plan, labels, 3, 1.0, "case")
        with self.assertRaises(CheckFailed):
            checks.check_clustering(plan, labels, 2, 0.9, "case")
        with self.assertRaises(CheckFailed):
            checks.check_clustering(_move_row(plan, 2, 1), labels, 2, 1.0, "case")

    def test_recovery_and_collapse(self):
        outcomes = [(1.0, 5, 0.8), (2.0, 4, 0.97), (9.0, 1, 0.0)]
        checks.check_recovery(outcomes, 4, "case")
        checks.check_collapse(outcomes, "case")
        with self.assertRaises(CheckFailed):
            checks.check_recovery(outcomes, 4 + 1, "case")
        with self.assertRaises(CheckFailed):
            checks.check_recovery([(2.0, 4, 0.94)], 4, "case")
        with self.assertRaises(CheckFailed):
            checks.check_collapse(outcomes[:2], "case")


if __name__ == "__main__":
    unittest.main()
