"""Deterministic Gaussian-mixture generators for the benchmark experiments.

Reproducibility across platforms and languages requires a pinned random
number generator, so this module carries its own instead of deferring to
library defaults. The exact recipe:

- seeding: the 64-bit seed is expanded by one splitmix64 step to avoid the
  all-zero state; the result (or 1 if it is 0) is the stream state.
- stream: xorshift64* — ``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` on
  unsigned 64-bit state, output ``x * 0x2545F4914F6CDD1D`` (mod 2^64).
- uniforms: the top 53 bits of each output, ``u = (x >> 53 shift) / 2^53``,
  mapped to (0, 1] as ``1 - u`` where a positive value is required.
- normals: Box-Muller, both outputs of every pair consumed in order.

Points are emitted component by component, sample by sample, coordinate by
coordinate, so identical (config, seed) pairs give bit-identical clouds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, log, pi, sin, sqrt

import numpy as np

from .core import PointCloud

_MASK = (1 << 64) - 1

FOUR_CLUSTER_MEANS = (
    (0.0, 5.0),
    (-5.0 * sqrt(3.0) / 2.0, -2.5),
    (5.0 * sqrt(3.0) / 2.0, -2.5),
    (8.0, 2.0),
)

TEN_CLUSTER_MEANS = (
    (-2.5, -12.5),
    (5.0, -10.0),
    (0.0, -5.0),
    (-4.5, -5.0),
    (-5.0, 0.0),
    (-6.0, 5.0),
    (-1.5, 2.5),
    (3.5, -1.0),
    (7.5, -2.5),
    (10.0, 2.5),
)


@dataclass(frozen=True)
class MixtureConfig:
    """Isotropic Gaussian mixture: equal per-axis variance, equal counts."""

    means: tuple[tuple[float, ...], ...]
    covariance_diagonal: tuple[float, ...]
    samples_per_component: int
    seed: int

    def __post_init__(self):
        if not self.means:
            raise ValueError("mixture needs at least one component")
        dim = len(self.means[0])
        if dim < 1 or any(len(m) != dim for m in self.means):
            raise ValueError("all component means must share one dimension >= 1")
        if len(self.covariance_diagonal) != dim:
            raise ValueError("covariance diagonal length must match dimension")
        if any(v <= 0 for v in self.covariance_diagonal):
            raise ValueError("variances must be positive")
        if self.samples_per_component < 1:
            raise ValueError("need at least one sample per component")

    @property
    def dimension(self) -> int:
        return len(self.means[0])

    @property
    def component_count(self) -> int:
        return len(self.means)


def four_cluster_config(samples_per_component: int = 20, seed: int = 7) -> MixtureConfig:
    """Benchmark mixture: four components, per-axis variance 0.8."""
    return MixtureConfig(
        means=FOUR_CLUSTER_MEANS,
        covariance_diagonal=(0.8, 0.8),
        samples_per_component=samples_per_component,
        seed=seed,
    )


def ten_cluster_config(samples_per_component: int = 10, seed: int = 2) -> MixtureConfig:
    """Benchmark mixture: ten components, per-axis variance 0.2."""
    return MixtureConfig(
        means=TEN_CLUSTER_MEANS,
        covariance_diagonal=(0.2, 0.2),
        samples_per_component=samples_per_component,
        seed=seed,
    )


BUILTIN_CONFIGS = {"four-cluster": four_cluster_config, "ten-cluster": ten_cluster_config}


def builtin_config(
    name: str, samples_per_component: int | None = None, seed: int | None = None
) -> MixtureConfig:
    """The built-in mixture called name; a count or seed given overrides its default."""
    overrides = {"samples_per_component": samples_per_component, "seed": seed}
    return BUILTIN_CONFIGS[name](**{k: v for k, v in overrides.items() if v is not None})


def _splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return value ^ (value >> 31)


class RandomStream:
    """xorshift64* stream with splitmix64 seeding and Box-Muller normals."""

    def __init__(self, seed: int):
        state = _splitmix64(int(seed) & _MASK)
        # the all-zero state is a fixed point of the shift register
        self._state = state if state != 0 else 1
        self._pending_normal: float | None = None

    def next_raw(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def next_uniform(self) -> float:
        # top 53 bits, uniform on [0, 1)
        return (self.next_raw() >> 11) / float(1 << 53)

    def next_normal(self) -> float:
        if self._pending_normal is not None:
            value = self._pending_normal
            self._pending_normal = None
            return value
        u1 = 1.0 - self.next_uniform()
        u2 = self.next_uniform()
        radius = sqrt(-2.0 * log(u1))
        angle = 2.0 * pi * u2
        self._pending_normal = radius * sin(angle)
        return radius * cos(angle)


def sample_gaussian_mixture(config: MixtureConfig) -> PointCloud:
    """Draw the configured mixture; labels record the component of origin."""
    stream = RandomStream(config.seed)
    scale = [sqrt(v) for v in config.covariance_diagonal]
    total = config.component_count * config.samples_per_component
    points = np.empty((total, config.dimension))
    labels = np.empty(total, dtype=int)
    row = 0
    for component, mean in enumerate(config.means):
        for _ in range(config.samples_per_component):
            for axis in range(config.dimension):
                points[row, axis] = mean[axis] + scale[axis] * stream.next_normal()
            labels[row] = component
            row += 1
    return PointCloud(points=points, labels=labels)
