"""Sparse-support approximation of discrete distributions under squared
Euclidean transport cost, with convex clustering built on top."""

from .clustering import ClusteringResult, adjusted_rand_index, extract_clusters
from .core import (
    CostMatrix,
    PointCloud,
    ProbabilityVector,
    SolveReport,
    TransportPlan,
    build_cost_matrix,
    transport_cost,
)
from .datagen import (
    MixtureConfig,
    four_cluster_config,
    sample_gaussian_mixture,
    ten_cluster_config,
)
from .facility import FacilityResult, solve_facility_relaxation
from .linf import LinfResult, solve_linf
from .pointio import read_points, write_points
from .son import SonResult, group_shrink, solve_son
from .svg import emit_scatter_svg
from .sweep import ExperimentSpec, SweepReport, run_sweep
from .transport import TransportResult, solve_transport, wasserstein2

__all__ = [
    "CostMatrix",
    "PointCloud",
    "ProbabilityVector",
    "SolveReport",
    "TransportPlan",
    "build_cost_matrix",
    "transport_cost",
    "TransportResult",
    "solve_transport",
    "wasserstein2",
    "SonResult",
    "group_shrink",
    "solve_son",
    "FacilityResult",
    "solve_facility_relaxation",
    "LinfResult",
    "solve_linf",
    "ClusteringResult",
    "adjusted_rand_index",
    "extract_clusters",
    "MixtureConfig",
    "four_cluster_config",
    "ten_cluster_config",
    "sample_gaussian_mixture",
    "read_points",
    "write_points",
    "emit_scatter_svg",
    "ExperimentSpec",
    "SweepReport",
    "run_sweep",
]
