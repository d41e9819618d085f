import json

import jsonschema
import numpy as np
import pytest

import otclust.cli
import otclust.sweep
from otclust.cli import main
from otclust.core import CostMatrix, PointCloud, ProbabilityVector, build_cost_matrix
from otclust.pointio import read_points, write_points
from otclust.sweep import ExperimentSpec, format_report_json, run_sweep, solve_one

SCHEMA_PATH = "src/otclust/schemas/sweep.schema.json"


def planted_csv(tmp_path, name="tiny.csv"):
    # two tight triples far apart, weights uniform; labels mark the triples
    points = np.array(
        [
            [0.0, 0.0], [0.2, 0.1], [0.1, -0.2],
            [9.0, 9.0], [9.2, 9.1], [9.1, 8.8],
        ]
    )
    labels = np.array([0, 0, 0, 1, 1, 1])
    path = tmp_path / name
    write_points(PointCloud(points, labels=labels), path)
    return path


def load_schema():
    with open(SCHEMA_PATH) as stream:
        return json.load(stream)


class TestExperimentSpec:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentSpec(dataset="four-cluster", method="son", lambda_grid=())

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError):
            ExperimentSpec(dataset="x.csv", method="son", lambda_grid=(1.0, -2.0))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentSpec(dataset="x.csv", method="kmeans", lambda_grid=(1.0,))

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentSpec(dataset="x.csv", method="son", lambda_grid=(1.0,), jobs=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iterations", 0),
            ("max_iterations", -3),
            ("eps_abs", -1.0),
            ("eps_rel", -1e-4),
            ("eps_abs", float("inf")),
            ("eps_rel", float("inf")),
            ("tie_tol", float("nan")),
            ("tie_tol", -1.0),
            ("tie_tol", float("inf")),
        ],
    )
    def test_rejects_bad_solver_settings(self, field, value):
        # max_iterations is the spec's one solver setting; the tolerances
        # are module constants and no longer fields
        error = ValueError if field == "max_iterations" else TypeError
        with pytest.raises(error, match=field):
            ExperimentSpec(dataset="x.csv", method="son", lambda_grid=(1.0,), **{field: value})

    def test_accepts_boundary_solver_settings(self):
        spec = ExperimentSpec(dataset="x.csv", method="son", lambda_grid=(1.0,), max_iterations=1)
        assert spec.max_iterations == 1

    def test_rejects_seed_for_csv_dataset(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec(dataset="x.csv", method="son", lambda_grid=(1.0,), seed=3)
        spec = ExperimentSpec(dataset="ten-cluster", method="son", lambda_grid=(1.0,), seed=3)
        assert spec.seed == 3


class TestRunSweep:
    def test_builtin_four_cluster_counts_reach_one(self):
        spec = ExperimentSpec(
            dataset="four-cluster",
            method="son",
            lambda_grid=(20.0, 100.0, 220.0, 750.0),
        )
        report = run_sweep(spec)
        counts = [entry["cluster_count"] for entry in report.results]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 1
        assert report.all_converged

    def test_exact_omt_self_cost_zero(self, tmp_path):
        spec = ExperimentSpec(
            dataset=str(planted_csv(tmp_path)),
            method="exact-omt",
            lambda_grid=(1.0,),
        )
        report = run_sweep(spec)
        entry = report.results[0]
        assert entry["status"] == "optimal"
        assert entry["objective"] == pytest.approx(0.0, abs=1e-12)
        assert entry["cluster_count"] == 6

    def test_per_point_failure_does_not_abort(self, tmp_path):
        # the reciprocal-mass relaxation rejects a zero penalty
        spec = ExperimentSpec(
            dataset=str(planted_csv(tmp_path)),
            method="linf",
            lambda_grid=(0.0, 0.5),
        )
        report = run_sweep(spec)
        assert report.results[0]["status"] == "error"
        assert "positive" in report.results[0]["error"]
        assert report.results[1]["status"] == "optimal"
        assert not report.all_converged

    def test_json_deterministic_and_schema_valid(self, tmp_path):
        spec = ExperimentSpec(
            dataset=str(planted_csv(tmp_path)),
            method="lp",
            lambda_grid=(0.1, 2.0, 500.0),
            jobs=2,
        )
        text_a, text_b = (format_report_json(run_sweep(spec).document) for _ in range(2))
        assert text_a == text_b
        document = json.loads(text_a)
        jsonschema.validate(document, load_schema())
        assert document["point_count"] == 6
        assert [r["lambda"] for r in document["results"]] == [0.1, 2.0, 500.0]

    def test_ari_recorded_with_labels(self, tmp_path):
        spec = ExperimentSpec(
            dataset=str(planted_csv(tmp_path)),
            method="lp",
            lambda_grid=(2.0,),
        )
        entry = run_sweep(spec).results[0]
        assert entry["cluster_count"] == 2
        assert entry["ari"] == 1.0

    def test_unreadable_dataset_raises(self, tmp_path):
        spec = ExperimentSpec(
            dataset=str(tmp_path / "missing.csv"),
            method="son",
            lambda_grid=(1.0,),
        )
        with pytest.raises(OSError):
            run_sweep(spec)



@pytest.mark.parametrize("method", ["son", "lp", "linf"])
@pytest.mark.parametrize("penalty", [np.nan, np.inf, -1.0])
def test_solvers_reject_nonfinite_penalty(tmp_path, method, penalty):
    # the three relaxations share one input check
    cloud = read_points(planted_csv(tmp_path))
    cost = build_cost_matrix(cloud)
    p0 = ProbabilityVector.uniform(cloud.size)
    with pytest.raises(ValueError, match="finite"):
        solve_one(method, 10, cost, p0, penalty)
    with pytest.raises(ValueError, match="square"):
        solve_one(method, 10, CostMatrix(np.ones((3, 2))), ProbabilityVector.uniform(3), 1.0)
    with pytest.raises(ValueError, match="marginal size"):
        solve_one(method, 10, cost, ProbabilityVector.uniform(cloud.size + 1), 1.0)
    if method == "linf":
        # the reciprocal of the largest column mass needs a positive penalty
        with pytest.raises(ValueError, match="positive"):
            solve_one(method, 10, cost, p0, 0.0)


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("method", ["son", "lp", "linf"])
def test_penalties_near_the_float_limit(method):
    # son's scale penalty / ||p0||_2 overflows above about 2e307 on the
    # 80-point cloud, an error entry; below that, and for lp and linf up to
    # the largest doubles, every solve stays finite and raises no RuntimeWarning
    grid = (1e160, 1e300, 1e307, 1e308, 1.7e308)
    report = run_sweep(ExperimentSpec("four-cluster", method, grid))
    json.loads(format_report_json(report.document), parse_constant=_reject_constant)
    for penalty, entry in zip(grid, report.results):
        if method == "son" and penalty >= 1e308:
            assert entry["status"] == "error"
            assert entry["error"].startswith("ValueError: penalty")
        else:
            assert entry["status"] == "optimal", entry
            assert entry["objective"] == pytest.approx(penalty, rel=1e-12)
            assert entry["cluster_count"] == 1


class TestCli:
    def test_generate_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            code = main(
                [
                    "generate", "--config", "four-cluster",
                    "--samples-per-component", "2", "--out", str(target),
                ]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        cloud = read_points(a)
        assert cloud.points.shape == (8, 2)
        assert list(np.bincount(cloud.labels)) == [2, 2, 2, 2]

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_generate_rejects_nonpositive_sample_count(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "generate", "--config", "four-cluster",
                    "--samples-per-component", value, "--out", str(tmp_path / "p.csv"),
                ]
            )
        assert exc.value.code == 2
        assert "--samples-per-component" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_generate_needs_destination(self, monkeypatch, capsys):
        monkeypatch.delenv("OTCLUST_OUTDIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--config", "ten-cluster"])
        assert exc.value.code == 2
        assert "--out or OTCLUST_OUTDIR" in capsys.readouterr().err

    def test_plot_needs_destination(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("OTCLUST_OUTDIR", raising=False)
        csv_path = str(planted_csv(tmp_path))
        result = tmp_path / "result.json"
        result.write_text(json.dumps({"assignment": [0, 0, 0, 3, 3, 3]}))
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--points", csv_path, "--result", str(result)])
        assert exc.value.code == 2
        assert "--out or OTCLUST_OUTDIR" in capsys.readouterr().err

    def test_generate_uses_outdir_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OTCLUST_OUTDIR", str(tmp_path / "envout"))
        assert main(["generate", "--config", "ten-cluster", "--samples-per-component", "1"]) == 0
        assert (tmp_path / "envout" / "points.csv").exists()

    def test_cluster_writes_json_and_svg(self, tmp_path):
        csv_path = planted_csv(tmp_path)
        out = tmp_path / "result.json"
        fig = tmp_path / "fig.svg"
        code = main(
            [
                "cluster", "--points", str(csv_path), "--method", "lp",
                "--lambda", "2.0", "--out", str(out), "--svg", str(fig),
            ]
        )
        assert code == 0
        stored = json.loads(out.read_text())
        assert stored["cluster_count"] == 2
        assert stored["ari"] == 1.0
        assert len(stored["assignment"]) == 6
        assert fig.read_text().startswith("<svg")

    def test_cluster_exit_code_tracks_convergence(self, tmp_path):
        csv_path = planted_csv(tmp_path)
        out = tmp_path / "result.json"
        code = main(
            [
                "cluster", "--points", str(csv_path), "--method", "son",
                "--lambda", "2.0", "--max-iterations", "1", "--out", str(out),
            ]
        )
        assert code == 1
        assert json.loads(out.read_text())["status"] == "max_iterations"

    def test_sweep_grid_flag_validation(self, tmp_path, monkeypatch):
        solves = []
        monkeypatch.setattr(otclust.sweep, "solve_one", lambda *args: solves.append(args))
        csv_path = str(planted_csv(tmp_path))
        for flags in (
            ["--points", csv_path, "--method", "lp"],
            ["--points", csv_path, "--method", "lp", "--lambdas", "1,2", "--log-grid", "1,10,3"],
            ["--points", csv_path, "--method", "lp", "--log-grid", "0,10,3"],
            ["--points", csv_path, "--method", "lp", "--log-grid", "1,10"],
            ["--points", csv_path, "--method", "lp", "--log-grid", "1,10,x"],
            # a nonfinite bound would reach np.geomspace and its RuntimeWarning
            ["--points", csv_path, "--method", "lp", "--log-grid", "1,inf,3"],
            ["--points", csv_path, "--method", "lp", "--log-grid", "1,1e400,3"],
            ["--points", csv_path, "--method", "lp", "--log-grid", "nan,10,3"],
            ["--points", csv_path, "--method", "lp", "--lambdas", "x"],
            ["--method", "lp", "--lambdas", "1"],
            ["--points", csv_path, "--config", "four-cluster", "--method", "lp", "--lambdas", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", *flags])
            assert exc.value.code == 2, flags
        assert solves == []

    @pytest.mark.parametrize(
        "method, value",
        [
            ("son", "-1"),
            ("son", "nan"),
            ("lp", "inf"),
            ("lp", "-0.5"),
            ("linf", "0"),
            ("linf", "nan"),
        ],
    )
    def test_cluster_bad_penalty_is_usage_error(self, tmp_path, capsys, monkeypatch, method, value):
        solves = []
        monkeypatch.setattr(otclust.cli, "solve_one", lambda *args: solves.append(args))
        csv_path = str(planted_csv(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--points", csv_path, "--method", method, "--lambda", value])
        assert exc.value.code == 2
        assert "--lambda" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize(
        "case",
        [
            "cluster-missing", "cluster-nan", "cluster-svg-line", "omt-dimensions",
            "plot-length", "plot-bad-json", "plot-line", "plot-index-high",
            "plot-index-negative", "plot-index-fraction", "sweep-missing", "sweep-nan",
        ],
    )
    def test_bad_input_file_is_usage_error(self, tmp_path, capsys, monkeypatch, case):
        solves = []
        record = lambda *args: solves.append(args)
        monkeypatch.setattr(otclust.cli, "solve_one", record)
        monkeypatch.setattr(otclust.sweep, "solve_one", record)
        monkeypatch.setattr(otclust.cli, "wasserstein2", record)
        monkeypatch.setattr(otclust.cli, "emit_scatter_svg", record)
        good = str(planted_csv(tmp_path))
        nan = tmp_path / "nan.csv"
        nan.write_text("x0,x1\n0,1\nnan,2\n")
        line = tmp_path / "line.csv"
        line.write_text("x0\n0\n1\n")
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"assignment": [0, 0, 3]}))
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"assignment": [0, 1]}))
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        # each entry of a stored assignment must be a point index in [0, 6)
        stored = {}
        for name, last in (("high", 7), ("negative", -1), ("fraction", 0.7)):
            stored[name] = tmp_path / f"{name}.json"
            stored[name].write_text(json.dumps({"assignment": [0, 0, 0, 3, 3, last]}))
        argv = {
            "cluster-missing": ["cluster", "--points", str(tmp_path / "missing.csv")],
            "cluster-nan": ["cluster", "--points", str(nan)],
            # the scatter SVG needs 2-d points: checked before the solve
            "cluster-svg-line": ["cluster", "--points", str(line), "--svg", str(tmp_path / "o.svg")],
            "omt-dimensions": ["omt", "--source", good, "--target", str(line)],
            "plot-length": ["plot", "--points", good, "--result", str(short)],
            "plot-bad-json": ["plot", "--points", good, "--result", str(broken)],
            "plot-line": ["plot", "--points", str(line), "--result", str(pair)],
            "plot-index-high": ["plot", "--points", good, "--result", str(stored["high"])],
            "plot-index-negative": ["plot", "--points", good, "--result", str(stored["negative"])],
            "plot-index-fraction": ["plot", "--points", good, "--result", str(stored["fraction"])],
            "sweep-missing": ["sweep", "--points", str(tmp_path / "missing.csv")],
            "sweep-nan": ["sweep", "--points", str(nan)],
        }[case]
        if case.startswith("cluster"):
            argv += ["--method", "son", "--lambda", "1"]
        if case.startswith("sweep"):
            argv += ["--method", "lp", "--lambdas", "1"]
        if case.startswith("plot"):
            argv += ["--out", str(tmp_path / "plot.svg")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize(
        "case",
        [
            "sweep-out-file", "cluster-out-no-dir", "cluster-svg-no-dir", "generate-out-no-dir",
            "plot-out-dir", "outdir-file-generate", "outdir-file-cluster", "outdir-file-sweep",
            "outdir-file-plot", "outdir-file-omt",
        ],
    )
    def test_bad_destination_is_usage_error(self, tmp_path, capsys, monkeypatch, case):
        # every destination is checked with the inputs, before any solve or write
        calls = []
        record = lambda *args: calls.append(args)
        monkeypatch.setattr(otclust.cli, "solve_one", record)
        monkeypatch.setattr(otclust.sweep, "solve_one", record)
        monkeypatch.setattr(otclust.cli, "wasserstein2", record)
        monkeypatch.setattr(otclust.cli, "emit_scatter_svg", record)
        monkeypatch.setattr(otclust.cli, "write_points", record)
        monkeypatch.setattr(otclust.cli, "atomic_write_text", record)
        good = str(planted_csv(tmp_path))
        result = tmp_path / "result.json"
        result.write_text(json.dumps({"assignment": [0, 0, 0, 3, 3, 3]}))
        occupied = tmp_path / "occupied"
        occupied.write_text("a file, not a directory\n")
        missing = tmp_path / "missing"
        cluster = ["cluster", "--points", good, "--method", "lp", "--lambda", "1"]
        sweep = ["sweep", "--points", good, "--method", "lp", "--lambdas", "1"]
        generate = ["generate", "--config", "four-cluster", "--samples-per-component", "1"]
        plot = ["plot", "--points", good, "--result", str(result)]
        omt = ["omt", "--source", good, "--target", good]
        argv = {
            "sweep-out-file": [*sweep, "--out", str(occupied)],
            "cluster-out-no-dir": [*cluster, "--out", str(missing / "r.json")],
            "cluster-svg-no-dir": [*cluster, "--svg", str(missing / "r.svg")],
            "generate-out-no-dir": [*generate, "--out", str(missing / "p.csv")],
            "plot-out-dir": [*plot, "--out", str(tmp_path)],
            "outdir-file-generate": generate,
            "outdir-file-cluster": cluster,
            "outdir-file-sweep": sweep,
            "outdir-file-plot": plot,
            "outdir-file-omt": omt,
        }[case]
        if case.startswith("outdir-file"):
            monkeypatch.setenv("OTCLUST_OUTDIR", str(occupied))
        else:
            monkeypatch.delenv("OTCLUST_OUTDIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert calls == []
        assert not missing.exists()

    @pytest.mark.parametrize("command", ["cluster", "sweep"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-iterations", "0"),
            ("--max-iterations", "-1"),
            ("--max-iterations", "ten"),
            # the tolerance flags are gone, so even their old defaults are
            # unrecognized arguments
            ("--eps-abs", "1e-6"),
            ("--eps-rel", "1e-4"),
            ("--tie-tol", "1e-9"),
            ("--eps-abs", "-1"),
            ("--eps-rel", "-1e-4"),
            ("--eps-rel", "nan"),
            ("--eps-abs", "inf"),
            ("--tie-tol", "nan"),
            ("--tie-tol", "-1"),
            ("--tie-tol", "inf"),
        ],
    )
    def test_solver_flags_rejected_as_usage_errors(
        self, tmp_path, capsys, monkeypatch, command, flag, value
    ):
        solves = []
        monkeypatch.setattr(otclust.cli, "solve_one", lambda *args: solves.append(args))
        monkeypatch.setattr(otclust.sweep, "solve_one", lambda *args: solves.append(args))
        csv_path = str(planted_csv(tmp_path))
        grid = ["--lambda", "2.0"] if command == "cluster" else ["--lambdas", "2.0"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--points", csv_path, "--method", "son", *grid, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        if flag != "--max-iterations":
            assert "unrecognized arguments" in err
        assert solves == []

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_jobs_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch, value):
        solves = []
        monkeypatch.setattr(otclust.sweep, "solve_one", lambda *args: solves.append(args))
        csv_path = str(planted_csv(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep", "--points", csv_path, "--method", "lp",
                    "--lambdas", "1,2", "--jobs", value,
                ]
            )
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert solves == []

    def test_sweep_rejects_seed_with_points(self, tmp_path, capsys, monkeypatch):
        # read_points has no use for a seed, so the report must not claim one
        solves = []
        monkeypatch.setattr(otclust.sweep, "solve_one", lambda *args: solves.append(args))
        csv_path = str(planted_csv(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--points", csv_path, "--method", "lp", "--lambdas", "1", "--seed", "3"])
        assert exc.value.code == 2
        assert "seed" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize(
        "method, penalty, extra",
        [
            ("son", "2.0", []),
            ("lp", "2.0", []),
            ("linf", "2.0", []),
            ("son", "2.0", ["--max-iterations", "1"]),
        ],
    )
    def test_cluster_is_the_sweep_entry_plus_assignment(
        self, tmp_path, capsys, monkeypatch, method, penalty, extra
    ):
        monkeypatch.delenv("OTCLUST_OUTDIR", raising=False)
        csv_path = str(planted_csv(tmp_path))
        cluster_code = main(
            ["cluster", "--points", csv_path, "--method", method, "--lambda", penalty, *extra]
        )
        single = json.loads(capsys.readouterr().out)
        sweep_code = main(
            ["sweep", "--points", csv_path, "--method", method, "--lambdas", penalty, *extra]
        )
        (entry,) = json.loads(capsys.readouterr().out)["results"]
        assert single.pop("method") == method
        assert len(single.pop("assignment")) == 6
        assert single == entry
        assert cluster_code == sweep_code == (1 if extra else 0)

    def test_sweep_writes_report(self, tmp_path, monkeypatch, capsys):
        csv_path = planted_csv(tmp_path)
        out = tmp_path / "reports"
        code = main(
            [
                "sweep", "--points", str(csv_path), "--method", "lp",
                "--log-grid", "0.5,50,4", "--out", str(out), "--jobs", "2",
            ]
        )
        assert code == 0
        report_path = out / "sweep-lp-tiny.json"
        document = json.loads(report_path.read_text())
        jsonschema.validate(document, load_schema())
        assert len(document["results"]) == 4
        # the file holds the bytes the same sweep prints without a destination
        monkeypatch.delenv("OTCLUST_OUTDIR", raising=False)
        main(["sweep", "--points", str(csv_path), "--method", "lp", "--log-grid", "0.5,50,4"])
        assert report_path.read_text() == capsys.readouterr().out

    def test_sweep_stdout_when_no_destination(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("OTCLUST_OUTDIR", raising=False)
        csv_path = planted_csv(tmp_path)
        code = main(
            ["sweep", "--points", str(csv_path), "--method", "lp", "--lambdas", "2.0"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["results"][0]["cluster_count"] == 2

    def test_plot_roundtrip(self, tmp_path):
        csv_path = planted_csv(tmp_path)
        result = tmp_path / "result.json"
        main(
            [
                "cluster", "--points", str(csv_path), "--method", "lp",
                "--lambda", "2.0", "--out", str(result),
            ]
        )
        fig = tmp_path / "replot.svg"
        assert main(
            ["plot", "--points", str(csv_path), "--result", str(result), "--out", str(fig)]
        ) == 0
        assert "<svg" in fig.read_text()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"cluster_count": 2}))
        with pytest.raises(SystemExit):
            main(["plot", "--points", str(csv_path), "--result", str(bare), "--out", str(fig)])

    def test_omt_self_distance_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("OTCLUST_OUTDIR", raising=False)
        csv_path = planted_csv(tmp_path)
        code = main(["omt", "--source", str(csv_path), "--target", str(csv_path)])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["transport_cost"] == pytest.approx(0.0, abs=1e-12)
        assert document["wasserstein2"] == pytest.approx(0.0, abs=1e-9)
