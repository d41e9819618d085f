import numpy as np
import pytest

from otclust.core import (
    CostMatrix,
    PointCloud,
    ProbabilityVector,
    TransportPlan,
    build_cost_matrix,
)

from oracles import son_surrogate, support_cardinality, support_envelope


def random_row_feasible_plan(rng, p0, m=None):
    """Nonnegative plan whose rows sum to p0, with random support."""
    n = p0.size
    m = m or n
    raw = rng.random((n, m)) ** 3
    raw /= raw.sum(axis=1, keepdims=True)
    return raw * p0.weights[:, None]


class TestProbabilityVector:
    def test_uniform(self):
        p = ProbabilityVector.uniform(4)
        assert np.allclose(p.weights, 0.25)
        assert p.norm2() == pytest.approx(0.5)

    def test_small_negative_clamped(self):
        p = ProbabilityVector(np.array([0.5, 0.5, -1e-12]))
        assert p.weights[2] == 0.0
        assert p.weights.sum() == pytest.approx(1.0)

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityVector(np.array([1.5, -0.5]))

    def test_near_one_renormalized(self):
        w = np.array([0.5, 0.5 + 1e-10])
        p = ProbabilityVector(w)
        assert p.weights.sum() == 1.0

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityVector(np.array([0.5, 0.4]))

    def test_immutable(self):
        p = ProbabilityVector.uniform(3)
        with pytest.raises(ValueError):
            p.weights[0] = 1.0


class TestCostMatrix:
    def test_single_cloud_zero_diagonal_exact(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(7, 3)))
        cost = build_cost_matrix(cloud)
        assert (np.diag(cost.entries) == 0.0).all()
        assert (cost.entries == cost.entries.T).all()

    def test_two_cloud_values(self):
        a = PointCloud([[1.0, 0.0]])
        b = PointCloud([[0.0, 0.0], [2.0, 2.0]])
        cost = build_cost_matrix(a, b)
        assert cost.entries.tolist() == [[1.0, 5.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_cost_matrix(PointCloud([[0.0]]), PointCloud([[0.0, 1.0]]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[0.0, -1.0]]))


class TestTransportPlan:
    def test_row_sum_enforced(self):
        p0 = ProbabilityVector(np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            TransportPlan(np.array([[0.3, 0.0], [0.3, 0.3]]), p0)

    def test_column_target_checked(self):
        p0 = ProbabilityVector(np.array([0.3, 0.7]))
        p1 = ProbabilityVector(np.array([0.6, 0.4]))
        plan = TransportPlan(np.array([[0.3, 0.0], [0.3, 0.4]]), p0, p1)
        assert plan.entries.sum(axis=0) == pytest.approx([0.6, 0.4])
        with pytest.raises(ValueError):
            TransportPlan(np.array([[0.0, 0.3], [0.3, 0.4]]), p0, p1)

    def test_tiny_negative_clamped(self):
        p0 = ProbabilityVector(np.array([0.5, 0.5]))
        plan = TransportPlan(np.array([[0.5, 1e-13], [-1e-13, 0.5]]), p0)
        assert (plan.entries >= 0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_rejected(self, bad):
        # NaN fails both the sign and the row-sum test, so it must be
        # caught before them
        p0 = ProbabilityVector.uniform(2)
        with pytest.raises(ValueError, match="nonfinite"):
            TransportPlan(np.array([[0.5, bad], [0.0, 0.5]]), p0)
        with pytest.raises(ValueError, match="nonfinite"):
            TransportPlan(np.array([[0.5, 0.0], [bad, 0.5]]), p0, p0)


class TestSupportCardinality:
    def test_explicit_threshold(self):
        assert support_cardinality([0.0, 1e-7, 0.2], threshold=1e-6) == 1
        assert support_cardinality([0.0, 1e-7, 0.2], threshold=0.0) == 2

    def test_relative_default(self):
        # default threshold is 1e-6 * max entry magnitude
        assert support_cardinality([1.0, 5e-7, 2e-6]) == 2
        assert support_cardinality(np.zeros(4)) == 0


class TestEnvelopeValue:
    def test_diagonal_uniform(self):
        # diagonal plan, uniform marginal of size 4: sum of column norms is
        # 4 * 0.25 = 1 and the marginal norm is 0.5, so the value is 2
        p0 = ProbabilityVector.uniform(4)
        plan = TransportPlan(np.diag(p0.weights), p0)
        assert son_surrogate(plan.entries, p0.weights) == pytest.approx(2.0)
        assert support_cardinality(plan.entries.sum(axis=0)) == 4

    def test_single_column(self):
        p0 = ProbabilityVector.uniform(4)
        entries = np.zeros((4, 4))
        entries[:, 1] = p0.weights
        assert son_surrogate(entries, p0.weights) == pytest.approx(1.0)

    def test_lower_bounds_hold_on_random_plans(self):
        rng = np.random.default_rng(11)
        p0 = ProbabilityVector(rng.dirichlet(np.ones(5)))
        scale = p0.norm2()
        for _ in range(1000):
            entries = random_row_feasible_plan(rng, p0)
            plan = TransportPlan(entries, p0)
            value = son_surrogate(plan.entries, p0.weights)
            col_norms = np.linalg.norm(entries, axis=0)
            # each column norm bounded by the marginal norm
            assert col_norms.max() <= scale + 1e-9
            # envelope never exceeds the occupied-column count
            assert value <= support_cardinality(plan.entries.sum(axis=0), 0.0) + 1e-9
            # and never drops below 1
            assert value >= 1.0 - 1e-9

    def test_equality_on_parallel_columns(self):
        rng = np.random.default_rng(3)
        p0 = ProbabilityVector(rng.dirichlet(np.ones(6)))
        alpha = rng.dirichlet(np.ones(6))
        plan = TransportPlan(np.outer(p0.weights, alpha), p0)
        assert son_surrogate(plan.entries, p0.weights) == pytest.approx(1.0, abs=1e-12)



def box_envelope(entries, p0):
    """Sum over columns of max_i entries_ij / p0_i: the lp surrogate, the
    per-column convex envelope of occupancy over the box 0 <= x_j <= p0."""
    positive = p0.weights > 0
    return float((entries[positive] / p0.weights[positive, None]).max(axis=0).sum())


class TestSurrogateOrder:
    """son's column norms are the occupancy envelope over a ball that
    contains the box 0 <= x_j <= p0, so they never exceed lp's box envelope,
    which in turn never exceeds the occupied-column count."""

    def test_son_below_lp_below_support_on_random_plans(self):
        rng = np.random.default_rng(12)
        for trial in range(500):
            n = int(rng.integers(1, 8))
            weights = rng.dirichlet(np.ones(n))
            if n >= 3:
                weights[rng.integers(0, n)] = 0.0
                weights /= weights.sum()
            p0 = ProbabilityVector(weights)
            m = int(rng.integers(1, 8))
            raw = rng.random((n, m)) * (rng.random((n, m)) < 0.5)
            raw[np.arange(n), rng.integers(0, m, size=n)] += 0.1 + rng.random(n)
            entries = raw / raw.sum(axis=1, keepdims=True) * p0.weights[:, None]
            plan = TransportPlan(entries, p0)
            son = son_surrogate(plan.entries, p0.weights)
            lp = box_envelope(entries, p0)
            support = support_cardinality(plan.entries.sum(axis=0), 0.0)
            assert son <= lp + 1e-9, f"trial {trial}"
            assert lp <= support + 1e-9, f"trial {trial}"

    def test_lp_below_whole_polytope_envelope_on_random_plans(self):
        # lp's box contains the row-feasible polytope, so its envelope is
        # below the envelope over the polytope, which is below the count
        rng = np.random.default_rng(14)
        strict = 0
        for trial in range(60):
            n = 2 + trial % 3
            weights = rng.dirichlet(np.ones(n))
            if n >= 3 and trial % 2:
                weights[rng.integers(0, n)] = 0.0
                weights /= weights.sum()
            p0 = ProbabilityVector(weights)
            raw = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            raw[np.arange(n), rng.integers(0, n, size=n)] += 0.1 + rng.random(n)
            entries = raw / raw.sum(axis=1, keepdims=True) * p0.weights[:, None]
            plan = TransportPlan(entries, p0)
            lp = box_envelope(plan.entries, p0)
            envelope = support_envelope(plan.entries, p0.weights)
            support = support_cardinality(plan.entries.sum(axis=0), 0.0)
            assert lp <= envelope + 1e-9, f"trial {trial}"
            assert envelope <= support + 1e-9, f"trial {trial}"
            strict += envelope > lp + 1e-6
        assert strict > 0

    def test_diagonal_counterexample_to_tightness(self):
        # p0 = (1/2, 1/2), plan diag(p0): son sqrt(2) < lp 2 = support count
        p0 = ProbabilityVector(np.array([0.5, 0.5]))
        plan = TransportPlan(np.diag(p0.weights), p0)
        assert son_surrogate(plan.entries, p0.weights) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert box_envelope(plan.entries, p0) == pytest.approx(2.0, rel=1e-12)
        assert support_envelope(plan.entries, p0.weights) == pytest.approx(2.0, abs=1e-9)
        assert support_cardinality(plan.entries.sum(axis=0), 0.0) == 2

    def test_box_envelope_is_exact_per_column(self):
        # f(x) = max_i x_i / p0_i is convex, zero at 0 and at most 1 on the
        # box, so it is below the envelope of occupancy; x = f(x) z with z
        # in the box on a cap face writes x as a convex combination of 0
        # and a point of value 1, so the envelope is below f(x) too
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            cap = rng.dirichlet(np.ones(n))
            x = cap * rng.random(n) * (rng.random(n) < 0.8)
            level = lambda v: float((v / cap).max())
            f = level(x)
            assert 0.0 <= f <= 1.0
            assert np.linalg.norm(x) / np.linalg.norm(cap) <= f + 1e-12
            if f == 0.0:
                continue
            z = x / f
            assert (z <= cap * (1 + 1e-12)).all() and np.isclose(level(z), 1.0)
            w = cap * rng.random(n)
            for t in rng.random(5):
                mix = t * x + (1 - t) * w
                assert level(mix) <= t * f + (1 - t) * level(w) + 1e-12

class TestPointCloud:
    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0], [1.0]], labels=[0])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros(3))
