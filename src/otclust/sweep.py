"""Penalty sweeps: one dataset, one method, a grid of penalty values.

Each grid point solves independently, so sweeps parallelize across a
thread pool (the heavy lifting is numpy). Results are serialized with
sorted keys and 12-significant-digit floats; reruns of the same spec
produce byte-identical files. Wall-clock timings go to the log only,
never into the report, for exactly that reason.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clustering import adjusted_rand_index, extract_clusters
from .core import PointCloud, ProbabilityVector, build_cost_matrix
from .datagen import BUILTIN_CONFIGS, builtin_config, sample_gaussian_mixture
from .facility import solve_facility_relaxation
from .linf import solve_linf
from .pointio import read_points
from .son import MAX_ITERATIONS, solve_son
from .transport import solve_transport

logger = logging.getLogger(__name__)

METHODS = ("son", "lp", "linf", "exact-omt")
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one sweep."""

    dataset: str
    method: str
    lambda_grid: tuple[float, ...]
    seed: int | None = None
    max_iterations: int = MAX_ITERATIONS
    jobs: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        grid = tuple(float(v) for v in self.lambda_grid)
        if not grid:
            raise ValueError("penalty grid must be nonempty")
        if any(not np.isfinite(v) or v < 0 for v in grid):
            raise ValueError("penalty grid values must be finite and nonnegative")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed is not None and self.dataset not in BUILTIN_CONFIGS:
            raise ValueError("seed applies only to the built-in datasets")
        object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class SweepReport:
    document: dict
    results: tuple[dict, ...] = ()

    @property
    def all_converged(self) -> bool:
        return all(r.get("status") == "optimal" for r in self.results)


def load_dataset(spec: ExperimentSpec) -> PointCloud:
    """Builtin config name or a CSV path."""
    if spec.dataset in BUILTIN_CONFIGS:
        return sample_gaussian_mixture(builtin_config(spec.dataset, seed=spec.seed))
    return read_points(spec.dataset)


def solve_one(method: str, max_iterations: int, cost, p0, penalty):
    """The solver result, with its plan and report, of method at one penalty;
    max_iterations caps son's ADMM iterations."""
    if method == "son":
        return solve_son(cost, p0, penalty, max_iterations)
    if method == "lp":
        return solve_facility_relaxation(cost, p0, penalty)
    if method == "linf":
        return solve_linf(cost, p0, penalty)
    # exact transport of the cloud onto itself; the penalty plays no role
    return solve_transport(cost, p0, p0)


def twelve_digits(value: float) -> float:
    """Round so json emits a stable, platform-independent literal."""
    return float(f"{float(value):.12g}")


def solution_entry(penalty, result, labels):
    """The report entry of one solver result and the clusters it counts."""
    report = result.report
    clusters = extract_clusters(result.plan)
    entry = {
        "lambda": twelve_digits(penalty),
        "objective": twelve_digits(report.objective),
        "status": report.status,
        "iterations": int(report.iterations),
        "cluster_count": int(clusters.cluster_count),
        "representatives": sorted(int(j) for j in clusters.representatives),
    }
    if report.note:
        entry["note"] = report.note
    if labels is not None:
        entry["ari"] = twelve_digits(adjusted_rand_index(labels, clusters.assignment))
    return entry, clusters


def _result_entry(spec, cost, p0, labels, penalty):
    started = time.perf_counter()
    try:
        result = solve_one(spec.method, spec.max_iterations, cost, p0, penalty)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        logger.warning("penalty %g failed: %s", penalty, error)
        return {"lambda": twelve_digits(penalty), "status": "error", "error": error}
    entry, clusters = solution_entry(penalty, result, labels)
    logger.info(
        "%s penalty %g: %d clusters in %.3fs", spec.method, penalty,
        clusters.cluster_count, time.perf_counter() - started,
    )
    return entry


def format_report_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def run_sweep(spec: ExperimentSpec) -> SweepReport:
    """Solve every grid point, never aborting on per-point failures; the
    report is returned, not written."""
    cloud = load_dataset(spec)
    p0 = ProbabilityVector.uniform(cloud.size)
    cost = build_cost_matrix(cloud)
    labels = cloud.labels

    worker = lambda lam: _result_entry(spec, cost, p0, labels, lam)
    if spec.jobs > 1 and len(spec.lambda_grid) > 1:
        with ThreadPoolExecutor(max_workers=spec.jobs) as pool:
            results = list(pool.map(worker, spec.lambda_grid))
    else:
        results = [worker(lam) for lam in spec.lambda_grid]

    document = {
        "schema_version": SCHEMA_VERSION,
        "dataset": spec.dataset,
        "method": spec.method,
        "seed": spec.seed,
        "point_count": int(cloud.size),
        "lambda_grid": [twelve_digits(v) for v in spec.lambda_grid],
        "results": results,
    }
    return SweepReport(document=document, results=tuple(results))
