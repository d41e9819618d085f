"""What perfbench/ needs of the package, checked without running a benchmark.

perfbench/tracer.py replaces module attributes by name, and perfbench/run.py
keeps each solver result by wrapping otclust.sweep's solver names and reads
per-point times from otclust.sweep's INFO records. A package change that drops
one of those names, stops looking a solver up at call time or rewords the
record would otherwise show only when a benchmark run crashes. The files are
read here, never imported, so nothing is written under perfbench/.
"""

import ast
import dataclasses
import importlib
import logging
import runpy
from pathlib import Path

import numpy as np
import pytest

import otclust.sweep
from otclust.core import PointCloud, ProbabilityVector
from otclust.pointio import write_points
from otclust.sweep import ExperimentSpec, run_sweep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run_py_literal(class_or_none, name):
    """The literal bound to name in perfbench/run.py, at module level or in a class."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    body = tree.body
    if class_or_none is not None:
        (cls,) = [n for n in body if isinstance(n, ast.ClassDef) and n.name == class_or_none]
        body = cls.body
    for node in body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in perfbench/run.py")


def _planted_csv(tmp_path):
    points = np.array([[0.0, 0.0], [0.2, 0.1], [0.1, -0.2], [9.0, 9.0], [9.2, 9.1], [9.1, 8.8]])
    path = tmp_path / "planted.csv"
    write_points(PointCloud(points, labels=np.array([0, 0, 0, 1, 1, 1])), path)
    return str(path)


def test_workloads_build_experiment_specs_from_existing_fields():
    # perfbench/workloads.py builds each sweep's ExperimentSpec by keyword;
    # a field it names that the package drops would crash every benchmark run
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    keywords = {
        keyword.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("ExperimentSpec")
        for keyword in node.keywords
    }
    assert {"dataset", "method", "lambda_grid"} <= keywords
    assert keywords <= {field.name for field in dataclasses.fields(ExperimentSpec)}


def test_every_tracer_hook_resolves():
    hooks = runpy.run_path(str(PERFBENCH / "tracer.py"))["HOOKS"]
    assert hooks
    for module_name, attribute, _, _ in hooks:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute)), f"{module_name}.{attribute}"


@pytest.mark.parametrize("method", ["son", "lp", "linf", "exact-omt"])
def test_run_sweep_calls_each_solver_through_the_sweep_globals(tmp_path, monkeypatch, method):
    attribute = _run_py_literal(None, "_SOLVERS")[method]
    original = getattr(otclust.sweep, attribute)
    calls = []

    def spy(cost, p0, *args, **kwargs):
        calls.append((cost, p0, args))
        return original(cost, p0, *args, **kwargs)

    monkeypatch.setattr(otclust.sweep, attribute, spy)
    grid = (0.5, 5.0)
    report = run_sweep(ExperimentSpec(_planted_csv(tmp_path), method, grid))
    assert [entry["status"] for entry in report.results] == ["optimal", "optimal"]
    assert len(calls) == len(grid)
    for (cost, p0, args), penalty in zip(calls, grid):
        assert cost.shape == (6, 6)
        assert isinstance(p0, ProbabilityVector)
        if method == "exact-omt":
            # the cloud onto itself: the third argument is the target marginal p1
            assert isinstance(args[0], ProbabilityVector)
            np.testing.assert_array_equal(args[0].weights, p0.weights)
        else:
            assert args[0] == penalty


def test_sweep_info_records_keep_the_benchmark_format(tmp_path):
    expected = _run_py_literal("_SolveTimes", "FORMAT")
    records = []
    handler = logging.Handler(level=logging.INFO)
    handler.emit = records.append
    logger = logging.getLogger("otclust.sweep")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        run_sweep(ExperimentSpec(_planted_csv(tmp_path), "lp", (0.5, 5.0)))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    info = [r for r in records if r.levelno == logging.INFO]
    assert len(info) == 2
    for record in info:
        assert record.msg == expected
        assert isinstance(record.args[-1], float)
        record.getMessage()  # the args fill the format
