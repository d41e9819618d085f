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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import adjusted_rand_index, extract_clusters
from .core import PointCloud, ProbabilityVector, build_cost_matrix
from .datagen import four_cluster_config, sample_gaussian_mixture, ten_cluster_config
from .facility import solve_facility_relaxation
from .linf import solve_linf
from .pointio import atomic_write_text, read_points
from .son import AdmmConfig, solve_son
from .transport import solve_transport

__all__ = ["ExperimentSpec", "SweepReport", "run_sweep", "format_report_json"]

logger = logging.getLogger(__name__)

METHODS = ("son", "lp", "linf", "exact-omt")
BUILTIN_DATASETS = ("four-cluster", "ten-cluster")
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one sweep."""

    dataset: str
    method: str
    lambda_grid: tuple[float, ...]
    seed: int | None = None
    output_directory: str | None = None
    tie_tol: float = 1e-9
    max_iterations: int | None = None
    eps_abs: float | None = None
    eps_rel: float | None = None
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
        if not (np.isfinite(self.tie_tol) and self.tie_tol >= 0):
            raise ValueError("tie_tol must be finite and nonnegative")
        _admm_config(self)  # rejects bad solver settings before any solve
        object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class SweepReport:
    document: dict
    path: Path | None
    results: tuple[dict, ...] = field(default=())

    @property
    def all_converged(self) -> bool:
        return all(r.get("status") == "optimal" for r in self.results)


def load_dataset(spec: ExperimentSpec) -> PointCloud:
    """Builtin config name or a CSV path."""
    if spec.dataset == "four-cluster":
        cfg = four_cluster_config() if spec.seed is None else four_cluster_config(seed=spec.seed)
        return sample_gaussian_mixture(cfg)
    if spec.dataset == "ten-cluster":
        cfg = ten_cluster_config() if spec.seed is None else ten_cluster_config(seed=spec.seed)
        return sample_gaussian_mixture(cfg)
    return read_points(spec.dataset)


def _admm_config(spec) -> AdmmConfig | None:
    overrides = {}
    if spec.max_iterations is not None:
        overrides["max_iterations"] = spec.max_iterations
    if spec.eps_abs is not None:
        overrides["eps_abs"] = spec.eps_abs
    if spec.eps_rel is not None:
        overrides["eps_rel"] = spec.eps_rel
    return AdmmConfig(**overrides) if overrides else None


def solve_one(spec, cost, p0, penalty):
    """(plan, report) of spec.method at one penalty. spec is an
    ExperimentSpec, or the cluster command's parsed flags, which carry the
    same method, max_iterations, eps_abs and eps_rel attributes."""
    if spec.method == "son":
        res = solve_son(cost, p0, penalty, config=_admm_config(spec))
        return res.plan, res.report
    if spec.method == "lp":
        res = solve_facility_relaxation(cost, p0, penalty)
        return res.plan, res.report
    if spec.method == "linf":
        res = solve_linf(cost, p0, penalty)
        return res.plan, res.report
    # exact transport of the cloud onto itself; the penalty plays no role
    res = solve_transport(cost, p0, p0)
    return res.plan, res.report


def twelve_digits(value: float) -> float:
    """Round so json emits a stable, platform-independent literal."""
    return float(f"{float(value):.12g}")


def _result_entry(spec, cost, p0, labels, penalty):
    started = time.perf_counter()
    entry = {"lambda": twelve_digits(penalty)}
    try:
        plan, report = solve_one(spec, cost, p0, penalty)
    except Exception as exc:
        entry["status"] = "error"
        entry["error"] = f"{type(exc).__name__}: {exc}"
        logger.warning("penalty %g failed: %s", penalty, entry["error"])
        return entry
    clusters = extract_clusters(plan, tie_tol=spec.tie_tol)
    entry["objective"] = twelve_digits(report.objective)
    entry["status"] = report.status
    entry["iterations"] = int(report.iterations)
    entry["cluster_count"] = int(clusters.cluster_count)
    entry["representatives"] = sorted(int(j) for j in clusters.representatives)
    if report.note:
        entry["note"] = report.note
    if labels is not None:
        entry["ari"] = twelve_digits(
            adjusted_rand_index(labels, clusters.assignment)
        )
    elapsed = time.perf_counter() - started
    logger.info(
        "%s penalty %g: %d clusters in %.3fs", spec.method, penalty,
        clusters.cluster_count, elapsed,
    )
    return entry


def format_report_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def run_sweep(spec: ExperimentSpec) -> SweepReport:
    """Solve every grid point, never aborting on per-point failures."""
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
    path = None
    if spec.output_directory is not None:
        out_dir = Path(spec.output_directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        dataset_tag = Path(spec.dataset).stem.replace(" ", "_")
        path = out_dir / f"sweep-{spec.method}-{dataset_tag}.json"
        atomic_write_text(path, format_report_json(document))
    return SweepReport(document=document, path=path, results=tuple(results))
