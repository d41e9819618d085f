"""Command-line front end.

Subcommands: generate, cluster, sweep, plot, omt. All flags are
long-form. The exit code is 0 only when every solve the invocation ran
reported convergence, so shell scripts can gate on it. Output paths
default into the directory named by the OTCLUST_OUTDIR environment
variable when a flag leaves them unset; all files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .clustering import ClusteringResult
from .core import ProbabilityVector, build_cost_matrix
from .datagen import BUILTIN_CONFIGS, builtin_config, sample_gaussian_mixture
from .pointio import atomic_write_text, read_points, write_points
from .son import AdmmConfig
from .svg import emit_scatter_svg
from .sweep import (
    METHODS,
    ExperimentSpec,
    format_report_json,
    run_sweep,
    solution_entry,
    solve_one,
    twelve_digits,
)
from .transport import wasserstein2

__all__ = ["main"]

OUTDIR_VARIABLE = "OTCLUST_OUTDIR"


def _default_path(explicit, filename):
    if explicit is not None:
        return Path(explicit)
    base = os.environ.get(OUTDIR_VARIABLE)
    if base:
        directory = Path(base)
        directory.mkdir(parents=True, exist_ok=True)
        return directory / filename
    return None


def _emit_json(document, path):
    text = format_report_json(document)
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def _admm(args) -> AdmmConfig:
    return AdmmConfig(
        eps_abs=args.eps_abs, eps_rel=args.eps_rel, max_iterations=args.max_iterations
    )


def _cmd_generate(args) -> int:
    config = builtin_config(args.config, args.samples_per_component, args.seed)
    target = _default_path(args.out, "points.csv")
    if target is None:
        raise SystemExit("generate needs --out or OTCLUST_OUTDIR")
    write_points(sample_gaussian_mixture(config), target)
    return 0


def _cmd_cluster(args) -> int:
    cloud = read_points(args.points)
    p0 = ProbabilityVector.uniform(cloud.size)
    cost = build_cost_matrix(cloud)
    result = solve_one(args.method, _admm(args), cost, p0, args.penalty)
    document, clusters = solution_entry(args.penalty, result, cloud.labels, args.tie_tol)
    document.update(method=args.method, assignment=[int(j) for j in clusters.assignment])
    _emit_json(document, _default_path(args.out, f"cluster-{args.method}.json"))
    if args.svg is not None:
        emit_scatter_svg(cloud, clusters, Path(args.svg))
    return 0 if document["status"] == "optimal" else 1


def _parse_grid(args) -> tuple[float, ...]:
    if (args.lambdas is None) == (args.log_grid is None):
        raise SystemExit("pass exactly one of --lambdas or --log-grid")
    if args.lambdas is not None:
        try:
            return tuple(float(part) for part in args.lambdas.split(","))
        except ValueError as exc:
            raise SystemExit(f"bad --lambdas: {exc}")
    parts = args.log_grid.split(",")
    if len(parts) != 3:
        raise SystemExit("--log-grid wants MIN,MAX,COUNT")
    try:
        low, high, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SystemExit(f"bad --log-grid: {exc}")
    if low <= 0 or high < low or count < 1:
        raise SystemExit("--log-grid wants 0 < MIN <= MAX and COUNT >= 1")
    return tuple(float(v) for v in np.geomspace(low, high, count))


def _cmd_sweep(args) -> int:
    if (args.points is None) == (args.config is None):
        raise SystemExit("pass exactly one of --points or --config")
    try:
        spec = ExperimentSpec(
            dataset=args.points if args.points is not None else args.config,
            method=args.method,
            lambda_grid=_parse_grid(args),
            seed=args.seed,
            output_directory=args.out or os.environ.get(OUTDIR_VARIABLE),
            tie_tol=args.tie_tol,
            admm=_admm(args),
            jobs=args.jobs,
        )
    except ValueError as exc:
        args.usage_error(str(exc))
    report = run_sweep(spec)
    if report.path is None:
        sys.stdout.write(format_report_json(report.document))
    return 0 if report.all_converged else 1


def _cmd_plot(args) -> int:
    cloud = read_points(args.points)
    with open(args.result) as stream:
        stored = json.load(stream)
    if "assignment" not in stored:
        raise SystemExit(f"{args.result} carries no per-point assignment")
    assignment = np.asarray(stored["assignment"], dtype=int)
    clusters = ClusteringResult(
        representatives=frozenset(int(j) for j in np.unique(assignment)),
        assignment=assignment,
        cluster_count=int(np.unique(assignment).size),
    )
    target = _default_path(args.out, "clusters.svg")
    if target is None:
        raise SystemExit("plot needs --out or OTCLUST_OUTDIR")
    emit_scatter_svg(cloud, clusters, target)
    return 0


def _cmd_omt(args) -> int:
    source = read_points(args.source)
    target = read_points(args.target)
    cost, distance = wasserstein2(source, target)
    document = {
        "source": str(args.source),
        "target": str(args.target),
        "transport_cost": twelve_digits(cost),
        "wasserstein2": twelve_digits(distance),
    }
    _emit_json(document, _default_path(args.out, "omt.json"))
    return 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text):
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _add_solver_flags(parser):
    parser.add_argument("--tie-tol", type=_tolerance, default=1e-9)
    parser.add_argument("--max-iterations", type=_positive_int, default=AdmmConfig.max_iterations)
    parser.add_argument("--eps-abs", type=_tolerance, default=AdmmConfig.eps_abs)
    parser.add_argument("--eps-rel", type=_tolerance, default=AdmmConfig.eps_rel)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otclust",
        description="Sparse-support approximation of discrete distributions "
        "under transport cost, applied as convex clustering.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="sample a builtin mixture to CSV")
    generate.add_argument("--config", choices=BUILTIN_CONFIGS, required=True)
    generate.add_argument("--samples-per-component", type=_positive_int, default=None)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--out", default=None)
    generate.set_defaults(handler=_cmd_generate)

    cluster = commands.add_parser("cluster", help="cluster one CSV at one penalty")
    cluster.add_argument("--points", required=True)
    cluster.add_argument("--method", choices=("son", "lp", "linf"), required=True)
    cluster.add_argument(
        "--lambda", dest="penalty", type=float, required=True, help="sparsity penalty weight"
    )
    _add_solver_flags(cluster)
    cluster.add_argument("--out", default=None)
    cluster.add_argument("--svg", default=None)
    cluster.set_defaults(handler=_cmd_cluster)

    sweep = commands.add_parser("sweep", help="run a penalty grid")
    sweep.add_argument("--points", default=None)
    sweep.add_argument("--config", choices=BUILTIN_CONFIGS, default=None)
    sweep.add_argument("--method", choices=METHODS, required=True)
    sweep.add_argument("--lambdas", default=None, help="comma-separated penalty values")
    sweep.add_argument("--log-grid", default=None, help="MIN,MAX,COUNT geometric grid")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--jobs", type=_positive_int, default=1)
    _add_solver_flags(sweep)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(handler=_cmd_sweep, usage_error=sweep.error)

    plot = commands.add_parser("plot", help="render a stored clustering as SVG")
    plot.add_argument("--points", required=True)
    plot.add_argument("--result", required=True)
    plot.add_argument("--out", default=None)
    plot.set_defaults(handler=_cmd_plot)

    omt = commands.add_parser("omt", help="exact transport between two CSV clouds")
    omt.add_argument("--source", required=True)
    omt.add_argument("--target", required=True)
    omt.add_argument("--out", default=None)
    omt.set_defaults(handler=_cmd_omt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
