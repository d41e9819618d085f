"""The benchmark's workloads: their clouds, penalty sets and one round.

A round is everything a workload solves once: `run_sweep` (jobs=1) for each
of its sweeps, plus `wasserstein2` on linf-omt. Every round of a run solves
the same problems. The clouds are the package's built-in study clouds; the
seed scales every penalty of a run by one factor JITTER**(u - 1/2), u uniform
in [0, 1), so each seed solves different problems of the same study. The
jitter is kept small because solve time depends steeply on the penalty: a
shift by a whole grid step moved a round's time by about 8% between seeds.
Every jittered grid keeps a penalty inside the 4- and 10-cluster recovery
ranges (see README.md).

Module attributes of otclust are looked up at call time, so the tracer's
patches reach the calls made here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

FOUR = "four-cluster"
TEN = "ten-cluster"


@dataclass(frozen=True)
class Cloud:
    """One input cloud: the mixture it is drawn from and where it is read."""

    key: str
    config: str
    samples_per_component: int | None = None
    seed: int | None = None
    csv: bool = False  # handed to run_sweep as a CSV path, not a built-in name


@dataclass(frozen=True)
class Sweep:
    cloud: str
    method: str
    base: tuple[float, ...]
    recover: int | None = None  # clusters some penalty must recover
    collapse: bool = False  # the top penalty must leave one cluster


@dataclass(frozen=True)
class Workload:
    name: str
    clouds: tuple[Cloud, ...]
    sweeps: tuple[Sweep, ...]
    transport_pair: tuple[str, str] | None = None


def _geometric(lo: float, hi: float, count: int) -> tuple[float, ...]:
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return tuple(lo * ratio**k for k in range(count))


# Penalties of a run are scaled by a factor in [JITTER**-0.5, JITTER**0.5].
JITTER = 1.1

# Acceptance-study ranges, 8 points each: 4 sweeps x 8 = 32 grid points.
_FOUR_GRID = _geometric(1.0, 2000.0, 8)
_TEN_GRID = _geometric(0.05, 2000.0, 8)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="relax-sweep",
            clouds=(Cloud("four", FOUR), Cloud("ten", TEN)),
            sweeps=(
                Sweep("four", "son", _FOUR_GRID, 4, True),
                Sweep("four", "lp", _FOUR_GRID, 4, True),
                Sweep("ten", "son", _TEN_GRID, 10),
                Sweep("ten", "lp", _TEN_GRID, 10),
            ),
        ),
        Workload(
            name="linf-omt",
            clouds=(
                Cloud("four", FOUR),
                Cloud("ten", TEN),
                Cloud("four-8", FOUR, seed=8),
            ),
            sweeps=(
                Sweep("four", "linf", (5.0, 500.0)),
                Sweep("ten", "linf", (50.0,)),
                Sweep("four", "exact-omt", (0.0,)),
                Sweep("ten", "exact-omt", (0.0,)),
            ),
            transport_pair=("four", "four-8"),
        ),
        Workload(
            name="large-cloud",
            clouds=(
                Cloud("four-256", FOUR, samples_per_component=64, csv=True),
                Cloud("four-128", FOUR, samples_per_component=32, csv=True),
            ),
            sweeps=(
                Sweep("four-256", "son", _geometric(1.5, 6.0, 5), 4),
                Sweep("four-128", "lp", (0.25, 0.5, 2.0, 6.0), 4),
            ),
        ),
    )
}


def penalties(sweep: Sweep, seed: int) -> tuple[float, ...]:
    shift = JITTER ** (random.Random(seed).random() - 0.5)
    return tuple(value * shift for value in sweep.base)


def generate(workload: Workload, out_dir: Path):
    """Draw the clouds and build the cost matrices a round starts from.

    Clouds marked csv are written to out_dir for run_sweep to read. Returns
    ({cloud key: PointCloud}, {cloud key: CostMatrix}, {cloud key: dataset}).
    """
    import otclust.core
    import otclust.datagen
    import otclust.pointio

    clouds, datasets = {}, {}
    for cloud in workload.clouds:
        make = (
            otclust.datagen.four_cluster_config
            if cloud.config == FOUR
            else otclust.datagen.ten_cluster_config
        )
        overrides = {}
        if cloud.samples_per_component is not None:
            overrides["samples_per_component"] = cloud.samples_per_component
        if cloud.seed is not None:
            overrides["seed"] = cloud.seed
        clouds[cloud.key] = otclust.datagen.sample_gaussian_mixture(make(**overrides))
        datasets[cloud.key] = cloud.config
        if cloud.csv:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{workload.name}-{cloud.key}.csv"
            otclust.pointio.write_points(clouds[cloud.key], path)
            datasets[cloud.key] = str(path)
    costs = {
        key: otclust.core.build_cost_matrix(clouds[key])
        for key in dict.fromkeys(sweep.cloud for sweep in workload.sweeps)
    }
    if workload.transport_pair is not None:
        a, b = workload.transport_pair
        costs[(a, b)] = otclust.core.build_cost_matrix(clouds[a], clouds[b])
    return clouds, costs, datasets


def run_round(workload: Workload, seed: int, clouds, datasets):
    """Solve every problem of the workload once.

    Returns [(sweep, report document)] and the wasserstein2 value (or None).
    """
    import otclust.sweep
    import otclust.transport

    documents = []
    for sweep in workload.sweeps:
        spec = otclust.sweep.ExperimentSpec(
            dataset=datasets[sweep.cloud],
            method=sweep.method,
            lambda_grid=penalties(sweep, seed),
            jobs=1,
        )
        documents.append((sweep, otclust.sweep.run_sweep(spec).document))
    distance = None
    if workload.transport_pair is not None:
        a, b = workload.transport_pair
        distance = otclust.transport.wasserstein2(clouds[a], clouds[b])[0]
    return documents, distance
