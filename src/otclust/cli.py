"""Command-line front end.

Subcommands: generate, cluster, sweep, plot, omt. All flags are
long-form. The exit code is 0 only when every solve the invocation ran
reported convergence, so shell scripts can gate on it. Output paths
default into the directory named by the OTCLUST_OUTDIR environment
variable when a flag leaves them unset. This module writes every output,
atomically, to a destination it checked with the inputs before any solve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .clustering import ClusteringResult
from .core import ProbabilityVector, build_cost_matrix
from .datagen import BUILTIN_CONFIGS, builtin_config, sample_gaussian_mixture
from .pointio import atomic_write_text, read_points, write_points
from .son import MAX_ITERATIONS
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

OUTDIR_VARIABLE = "OTCLUST_OUTDIR"


def _destination(explicit, filename, directory=None):
    """The checked path of an output: explicit, else filename in directory or
    OTCLUST_OUTDIR, created when missing; None means stdout."""
    if explicit is not None:
        target = Path(explicit)
    else:
        directory = directory or os.environ.get(OUTDIR_VARIABLE)
        if not directory:
            return None
        try:
            Path(directory).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot make output directory {directory}: {exc.strerror}") from None
        target = Path(directory) / filename
    if not target.parent.is_dir() or target.is_dir():
        raise ValueError(f"cannot write {target}: not a file path in an existing directory")
    return target


def _emit_json(document, path):
    text = format_report_json(document)
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


@contextmanager
def _input_checks(args):
    """An unreadable or unfit input, or an unwritable output, is a usage error, exit 2."""
    try:
        yield
    except (OSError, ValueError) as exc:
        args.usage_error(str(exc))


def _cmd_generate(args) -> int:
    config = builtin_config(args.config, args.samples_per_component, args.seed)
    with _input_checks(args):
        target = _destination(args.out, "points.csv")
        if target is None:
            raise ValueError("generate needs --out or OTCLUST_OUTDIR")
    write_points(sample_gaussian_mixture(config), target)
    return 0


def _cmd_cluster(args) -> int:
    if args.method == "linf" and args.penalty == 0:
        args.usage_error("linf needs --lambda > 0")
    with _input_checks(args):
        cloud = read_points(args.points)
        if args.svg is not None and cloud.dimension != 2:
            raise ValueError(f"--svg needs 2-d points, got dimension {cloud.dimension}")
        target = _destination(args.out, f"cluster-{args.method}.json")
        figure = None if args.svg is None else _destination(args.svg, None)
        # the solver's own ValueError, such as a son penalty whose
        # penalty / ||p0||_2 overflows, is an unfit input too
        cost = build_cost_matrix(cloud)
        p0 = ProbabilityVector.uniform(cloud.size)
        result = solve_one(args.method, args.max_iterations, cost, p0, args.penalty)
    document, clusters = solution_entry(args.penalty, result, cloud.labels)
    document.update(method=args.method, assignment=[int(j) for j in clusters.assignment])
    _emit_json(document, target)
    if figure is not None:
        emit_scatter_svg(cloud, clusters, figure)
    return 0 if document["status"] == "optimal" else 1


def _parse_grid(args) -> tuple[float, ...]:
    if (args.lambdas is None) == (args.log_grid is None):
        raise ValueError("pass exactly one of --lambdas or --log-grid")
    if args.lambdas is not None:
        try:
            return tuple(float(part) for part in args.lambdas.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --lambdas: {exc}") from None
    parts = args.log_grid.split(",")
    if len(parts) != 3:
        raise ValueError("--log-grid wants MIN,MAX,COUNT")
    try:
        low, high, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad --log-grid: {exc}") from None
    if not 0 < low <= high < np.inf or count < 1:
        raise ValueError("--log-grid wants finite 0 < MIN <= MAX and COUNT >= 1")
    return tuple(float(v) for v in np.geomspace(low, high, count))


def _cmd_sweep(args) -> int:
    if (args.points is None) == (args.config is None):
        args.usage_error("pass exactly one of --points or --config")
    with _input_checks(args):
        spec = ExperimentSpec(
            dataset=args.points if args.points is not None else args.config,
            method=args.method,
            lambda_grid=_parse_grid(args),
            seed=args.seed,
            max_iterations=args.max_iterations,
            jobs=args.jobs,
        )
        tag = Path(spec.dataset).stem.replace(" ", "_")
        target = _destination(None, f"sweep-{spec.method}-{tag}.json", args.out)
        # an unreadable --points file fails run_sweep's read, before any solve
        report = run_sweep(spec)
    _emit_json(report.document, target)
    return 0 if report.all_converged else 1


def _cmd_plot(args) -> int:
    with _input_checks(args):
        cloud = read_points(args.points)
        if cloud.dimension != 2:
            raise ValueError(f"plot needs 2-d points, got dimension {cloud.dimension}")
        with open(args.result) as stream:
            stored = json.load(stream)
        if not isinstance(stored, dict) or "assignment" not in stored:
            raise ValueError(f"{args.result} carries no per-point assignment")
        assignment, size = stored["assignment"], cloud.size
        if not isinstance(assignment, list) or len(assignment) != size:
            raise ValueError(f"{args.result}: assignment is not a list of {size} entries")
        if any(type(j) is not int or not 0 <= j < size for j in assignment):
            raise ValueError(f"{args.result}: assignment entries must be integers in [0, {size})")
        target = _destination(args.out, "clusters.svg")
        if target is None:
            raise ValueError("plot needs --out or OTCLUST_OUTDIR")
    emit_scatter_svg(cloud, ClusteringResult(assignment), target)
    return 0


def _cmd_omt(args) -> int:
    with _input_checks(args):
        source = read_points(args.source)
        target = read_points(args.target)
        if source.dimension != target.dimension:
            raise ValueError(f"dimension mismatch: {source.dimension} vs {target.dimension}")
        destination = _destination(args.out, "omt.json")
    cost, distance = wasserstein2(source, target)
    document = {
        "source": str(args.source),
        "target": str(args.target),
        "transport_cost": twelve_digits(cost),
        "wasserstein2": twelve_digits(distance),
    }
    _emit_json(document, destination)
    return 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative(text):
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


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
    generate.set_defaults(handler=_cmd_generate, usage_error=generate.error)

    cluster = commands.add_parser("cluster", help="cluster one CSV at one penalty")
    cluster.add_argument("--points", required=True)
    cluster.add_argument("--method", choices=("son", "lp", "linf"), required=True)
    cluster.add_argument(
        "--lambda", dest="penalty", type=_nonnegative, required=True, help="sparsity penalty weight"
    )
    cluster.add_argument("--max-iterations", type=_positive_int, default=MAX_ITERATIONS)
    cluster.add_argument("--out", default=None)
    cluster.add_argument("--svg", default=None)
    cluster.set_defaults(handler=_cmd_cluster, usage_error=cluster.error)

    sweep = commands.add_parser("sweep", help="run a penalty grid")
    sweep.add_argument("--points", default=None)
    sweep.add_argument("--config", choices=BUILTIN_CONFIGS, default=None)
    sweep.add_argument("--method", choices=METHODS, required=True)
    sweep.add_argument("--lambdas", default=None, help="comma-separated penalty values")
    sweep.add_argument("--log-grid", default=None, help="MIN,MAX,COUNT geometric grid")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--jobs", type=_positive_int, default=1)
    sweep.add_argument("--max-iterations", type=_positive_int, default=MAX_ITERATIONS)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(handler=_cmd_sweep, usage_error=sweep.error)

    plot = commands.add_parser("plot", help="render a stored clustering as SVG")
    plot.add_argument("--points", required=True)
    plot.add_argument("--result", required=True)
    plot.add_argument("--out", default=None)
    plot.set_defaults(handler=_cmd_plot, usage_error=plot.error)

    omt = commands.add_parser("omt", help="exact transport between two CSV clouds")
    omt.add_argument("--source", required=True)
    omt.add_argument("--target", required=True)
    omt.add_argument("--out", default=None)
    omt.set_defaults(handler=_cmd_omt, usage_error=omt.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
