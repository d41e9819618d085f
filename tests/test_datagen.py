import numpy as np
import pytest

from otclust.datagen import (
    MixtureConfig,
    RandomStream,
    builtin_config,
    four_cluster_config,
    sample_gaussian_mixture,
    ten_cluster_config,
)


class TestConfigs:
    def test_builtin_config_overrides_only_what_is_given(self):
        assert builtin_config("four-cluster") == four_cluster_config()
        assert builtin_config("ten-cluster", seed=5) == ten_cluster_config(seed=5)
        assert builtin_config("ten-cluster", 3) == ten_cluster_config(samples_per_component=3)
        assert builtin_config("four-cluster", 2, 0) == four_cluster_config(2, seed=0)
        with pytest.raises(KeyError):
            builtin_config("five-cluster")

    def test_four_cluster_values(self):
        cfg = four_cluster_config()
        assert cfg.component_count == 4
        assert cfg.means[0] == (0.0, 5.0)
        assert cfg.means[1] == pytest.approx((-5.0 * np.sqrt(3.0) / 2.0, -2.5))
        assert cfg.means[2] == pytest.approx((5.0 * np.sqrt(3.0) / 2.0, -2.5))
        assert cfg.means[3] == (8.0, 2.0)
        assert cfg.covariance_diagonal == (0.8, 0.8)
        assert cfg.samples_per_component == 20
        assert cfg.dimension == 2

    def test_ten_cluster_values(self):
        cfg = ten_cluster_config()
        assert cfg.component_count == 10
        assert cfg.means[0] == (-2.5, -12.5)
        assert cfg.means[9] == (10.0, 2.5)
        assert cfg.covariance_diagonal == (0.2, 0.2)
        assert cfg.samples_per_component == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureConfig(means=(), covariance_diagonal=(1.0,), samples_per_component=1, seed=0)
        with pytest.raises(ValueError):
            MixtureConfig(
                means=((0.0, 0.0), (1.0,)),
                covariance_diagonal=(1.0, 1.0),
                samples_per_component=1,
                seed=0,
            )
        with pytest.raises(ValueError):
            MixtureConfig(
                means=((0.0,),), covariance_diagonal=(0.0,), samples_per_component=1, seed=0
            )
        with pytest.raises(ValueError):
            MixtureConfig(
                means=((0.0,),), covariance_diagonal=(1.0,), samples_per_component=0, seed=0
            )
        with pytest.raises(ValueError):
            MixtureConfig(
                means=((0.0,),), covariance_diagonal=(1.0, 1.0), samples_per_component=1, seed=0
            )


class TestRandomStream:
    def test_raw_stream_is_frozen(self):
        # first three outputs for seed 0, pinned so any change to the
        # generator or its seeding is caught immediately
        stream = RandomStream(0)
        observed = [stream.next_raw() for _ in range(3)]
        expected = []
        state = 16294208416658607535  # splitmix64(0)
        for _ in range(3):
            state ^= state >> 12
            state = (state ^ (state << 25)) & ((1 << 64) - 1)
            state ^= state >> 27
            expected.append((state * 0x2545F4914F6CDD1D) & ((1 << 64) - 1))
        assert observed == expected

    def test_seeding_avoids_zero_state(self):
        stream = RandomStream(0)
        assert stream._state != 0
        values = {RandomStream(s).next_raw() for s in range(8)}
        assert len(values) == 8

    def test_uniforms_in_unit_interval(self):
        stream = RandomStream(11)
        draws = [stream.next_uniform() for _ in range(2000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_normal_pair_convention(self):
        # both Box-Muller outputs must be consumed before new raw draws
        a = RandomStream(3)
        first, second = a.next_normal(), a.next_normal()
        b = RandomStream(3)
        u1 = 1.0 - b.next_uniform()
        u2 = b.next_uniform()
        radius = np.sqrt(-2.0 * np.log(u1))
        assert first == radius * np.cos(2.0 * np.pi * u2)
        assert second == radius * np.sin(2.0 * np.pi * u2)

    def test_normal_moments(self):
        stream = RandomStream(5)
        draws = np.array([stream.next_normal() for _ in range(20000)])
        assert abs(draws.mean()) < 0.03
        assert abs(draws.var() - 1.0) < 0.05


class TestSampleMixture:
    def test_determinism(self):
        cfg = four_cluster_config()
        a = sample_gaussian_mixture(cfg)
        b = sample_gaussian_mixture(cfg)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_seed_changes_cloud(self):
        a = sample_gaussian_mixture(four_cluster_config(seed=7))
        b = sample_gaussian_mixture(four_cluster_config(seed=8))
        assert not np.array_equal(a.points, b.points)

    def test_label_counts_and_shape(self):
        cfg = ten_cluster_config()
        cloud = sample_gaussian_mixture(cfg)
        assert cloud.points.shape == (100, 2)
        counts = np.bincount(cloud.labels, minlength=10)
        assert list(counts) == [10] * 10

    def test_vanishing_variance_pins_points_to_means(self):
        cfg = MixtureConfig(
            means=((1.0, -2.0), (3.0, 4.0)),
            covariance_diagonal=(1e-12, 1e-12),
            samples_per_component=5,
            seed=123,
        )
        cloud = sample_gaussian_mixture(cfg)
        means = np.array(cfg.means)[cloud.labels]
        assert np.abs(cloud.points - means).max() < 1e-5

    def test_law_of_large_numbers(self):
        cfg = MixtureConfig(
            means=((2.0, -1.0),),
            covariance_diagonal=(0.8, 0.8),
            samples_per_component=10000,
            seed=42,
        )
        cloud = sample_gaussian_mixture(cfg)
        assert np.abs(cloud.points.mean(axis=0) - np.array([2.0, -1.0])).max() < 0.05
        assert np.abs(cloud.points.var(axis=0) - 0.8).max() < 0.08
