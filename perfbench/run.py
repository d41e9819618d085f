"""otclust benchmark: one workload, one seed, whole rounds for --seconds.

    python3 perfbench/run.py --workload relax-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (setup_s, sweep_s, solve_s.median, peak_rss_mb); with
--trace 1 the run adds one traced round and reports the per-layer totals.
The full record (round and solve times, check results) goes to
perfbench/out/<workload>-seed<seed>-trace<k>.json, and a traced run's spans
to perfbench/out/<workload>-seed<seed>.spans.jsonl.
"""

from __future__ import annotations

import os

# One BLAS thread: numpy links multithreaded OpenBLAS, and on a two-core
# machine its thread pool only adds scheduling noise to these small matrices.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 7

# lp penalties per sweep checked against HiGHS: the first and the middle one.
HIGHS_POINTS = (0, 0.5)

SWEEP_SEARCH_TOL = 1e-5  # run_sweep's default golden-section tolerance for linf


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(workload_name: str) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class _SolveTimes(logging.Handler):
    """Per-grid-point wall time as run_sweep logs it on otclust.sweep.

    run_sweep times each grid point from before the solve through cluster
    extraction and ARI, and logs the float unrounded in the record's args.
    """

    FORMAT = "%s penalty %g: %d clusters in %.3fs"

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.times: list[float] = []

    def emit(self, record):
        if record.levelno == logging.INFO:
            if record.msg != self.FORMAT:
                raise RuntimeError(f"unexpected otclust.sweep record {record.msg!r}")
            self.times.append(float(record.args[-1]))


@contextmanager
def _logged_solve_times():
    logger = logging.getLogger("otclust.sweep")
    handler = _SolveTimes()
    level, propagate = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate


_SOLVERS = {
    "son": "solve_son",
    "lp": "solve_facility_relaxation",
    "linf": "solve_linf",
    "exact-omt": "solve_transport",
}


@contextmanager
def _kept_results(store: dict):
    """Keep each solver result run_sweep receives, keyed by
    (method, point count, penalty), so the checks can read the plans.
    Only a reference is stored; nothing is timed."""
    import otclust.sweep

    originals = {}

    def keep(method, function):
        def wrapper(cost, p0, *args, **kwargs):
            result = function(cost, p0, *args, **kwargs)
            penalty = args[0] if method != "exact-omt" else 0.0
            store[(method, cost.shape[0], float(penalty))] = result
            return result

        return wrapper

    try:
        for method, attribute in _SOLVERS.items():
            originals[attribute] = getattr(otclust.sweep, attribute)
            setattr(otclust.sweep, attribute, keep(method, originals[attribute]))
        yield store
    finally:
        for attribute, function in originals.items():
            setattr(otclust.sweep, attribute, function)


def median_hd(values) -> float:
    """Harrell-Davis estimate of the median: order statistics weighted by the
    Beta((n+1)/2, (n+1)/2) mass between (i-1)/n and i/n.

    Grid-point times span 30x and cluster, so the plain middle order
    statistic jumps from one cluster to the next when a penalty or the
    machine's speed moves one point past another; the weighted form moves
    smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    shape = (n + 1) / 2.0
    t = np.linspace(0.0, 1.0, 200 * n + 1)
    density = t ** (shape - 1.0) * (1.0 - t) ** (shape - 1.0)
    cdf = np.concatenate([[0.0], np.cumsum(density[1:] + density[:-1])])
    cdf /= cdf[-1]
    return float(np.diff(cdf[::200]) @ x)


def _failed(documents) -> int:
    return sum(
        1 for _, doc in documents for entry in doc["results"]
        if entry.get("status") != "optimal"
    )


def _round(workload, seed, clouds, datasets):
    started = time.perf_counter()
    documents, distance = workloads.run_round(workload, seed, clouds, datasets)
    return time.perf_counter() - started, documents, distance


def _check_all(workload, seed, clouds, costs, rounds, kept):
    """Run every correctness check after timing; returns (problems, extras)."""
    problems: list[str] = []
    son_excess: list[float] = []
    linf_excess: list[float] = []

    def attempt(check, *args):
        try:
            return check(*args)
        except checks.CheckFailed as exc:
            problems.append(str(exc))
            return None

    first = json.dumps([doc for _, doc in rounds[0][1]], sort_keys=True)
    for index, (_, documents, distance) in enumerate(rounds[1:], start=1):
        if json.dumps([doc for _, doc in documents], sort_keys=True) != first:
            problems.append(f"round {index} reports differ from round 0")
        if distance != rounds[0][2]:
            problems.append(f"round {index} wasserstein2 differs from round 0")

    own_costs = {}
    for key, cost in costs.items():
        if isinstance(key, tuple):
            own = checks.squared_distances(clouds[key[0]].points, clouds[key[1]].points)
        else:
            own = checks.squared_distances(clouds[key].points)
        own_costs[key] = own
        error = float(np.abs(cost.entries - own).max())
        if error > 1e-12 * max(1.0, float(own.max())):
            problems.append(f"cost matrix {key} differs from squared distances by {error}")

    documents = rounds[-1][1]
    for sweep, doc in documents:
        cloud = clouds[sweep.cloud]
        cost = own_costs[sweep.cloud]
        n = cloud.size
        weights = np.full(n, 1.0 / n)
        outcomes = []
        lp_indices = {int(f * (len(doc["results"]) - 1)) for f in HIGHS_POINTS}
        for position, (penalty, entry) in enumerate(
            zip(workloads.penalties(sweep, seed), doc["results"])
        ):
            what = f"{sweep.method} on {sweep.cloud} at penalty {penalty:g}"
            result = kept.get((sweep.method, n, penalty))
            if entry.get("status") != "optimal" or result is None:
                problems.append(f"{what}: no optimal result to check")
                continue
            objective = float(result.report.objective)
            if abs(entry["objective"] - objective) > 1e-11 * max(1.0, abs(objective)):
                problems.append(f"{what}: report objective {entry['objective']!r} "
                                f"differs from the solver's {objective!r}")
            plan = np.asarray(result.plan.entries)
            if sweep.method == "son":
                lp = kept.get(("lp", n, penalty))
                excess = attempt(checks.check_son, cost, weights, penalty, objective, plan,
                                 None if lp is None else np.asarray(lp.plan.entries))
                if excess is not None:
                    son_excess.append(excess)
            elif sweep.method == "lp":
                if position in lp_indices:
                    attempt(checks.check_lp, cost, weights, penalty, objective)
            elif sweep.method == "linf":
                excess = attempt(checks.check_linf, cost, weights, penalty, objective,
                                 plan, SWEEP_SEARCH_TOL)
                if excess is not None:
                    linf_excess.append(excess)
            else:
                attempt(checks.check_self_transport, weights, objective, plan)
            counted = attempt(checks.check_clustering, plan, cloud.labels,
                              entry["cluster_count"], entry["ari"], what)
            if counted is not None:
                outcomes.append((penalty, *counted))
        label = f"{sweep.method} on {sweep.cloud}"
        if sweep.recover is not None:
            attempt(checks.check_recovery, outcomes, sweep.recover, label)
        if sweep.collapse:
            attempt(checks.check_collapse, outcomes, label)

    if workload.transport_pair is not None:
        attempt(checks.check_wasserstein, own_costs[workload.transport_pair], rounds[-1][2])

    extras = {
        "son.excess_over_lp": (max(son_excess) if son_excess else 0.0, "ratio"),
        "linf.excess_over_exact": (max(linf_excess) if linf_excess else 0.0, "ratio"),
    }
    return problems, extras


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "otclust" / "__init__.py").is_file():
        print(f"otclust sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_times = _setup_seconds(workload.name)
    clouds, costs, datasets = workloads.generate(workload, OUT)

    kept: dict = {}
    rounds = []
    with _kept_results(kept), _logged_solve_times() as logged:
        started = time.perf_counter()
        while True:
            rounds.append(_round(workload, args.seed, clouds, datasets))
            elapsed = time.perf_counter() - started
            typical = statistics.median(r[0] for r in rounds)
            if elapsed + typical > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    points = len(logged.times) // len(rounds)
    per_point = [
        statistics.median(logged.times[r * points + p] for r in range(len(rounds)))
        for p in range(points)
    ]
    round_times = [r[0] for r in rounds]
    attempted = sum(points + (workload.transport_pair is not None) for _ in rounds)
    failed = sum(_failed(docs) for _, docs, _ in rounds)

    layer = {}
    spans_path = None
    if args.trace:
        traced = tracer.Tracer()
        # the same result-keeping layer as the timed rounds, so that the
        # overhead below is the tracer's alone
        with _kept_results({}), traced.traced():
            workloads.generate(workload, OUT)
            traced_round = _round(workload, args.seed, clouds, datasets)
        rounds.append(traced_round)
        attempted += points + (workload.transport_pair is not None)
        failed += _failed(traced_round[1])
        layer = tracer.layer_metrics(traced)
        layer["trace.overhead_s"] = (traced_round[0] - statistics.median(round_times), "s")
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.jsonl"
        origin = traced.spans[0].start if traced.spans else 0.0
        with open(spans_path, "w") as stream:
            for span in traced.spans:
                stream.write(json.dumps(span.as_dict(origin)) + "\n")

    problems, extras = _check_all(workload, args.seed, clouds, costs, rounds, kept)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        layer.update(extras)
        metrics = layer
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "sweep_s": (statistics.median(round_times), "s"),
            "solve_s.median": (median_hd(per_point), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = dict(
        summary,
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        penalties={
            f"{s.method}/{s.cloud}": list(workloads.penalties(s, args.seed))
            for s in workload.sweeps
        },
        setup_times=setup_times,
        round_times=round_times,
        grid_point_medians=per_point,
        solve_samples=len(logged.times),
        problems=problems,
        spans=None if spans_path is None else str(spans_path.relative_to(HERE.parent)),
    )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
