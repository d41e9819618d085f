import numpy as np
import pytest

from otclust.clustering import ClusteringResult, extract_clusters
from otclust.core import PointCloud, ProbabilityVector, TransportPlan
from otclust.datagen import four_cluster_config, sample_gaussian_mixture
from otclust.pointio import read_points, write_points
from otclust.svg import PALETTE_SIZE, emit_scatter_svg


class TestPointCsv:
    def test_round_trip_unlabeled(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(17, 3)) * 1e3)
        target = tmp_path / "cloud.csv"
        write_points(cloud, target)
        back = read_points(target)
        assert back.points.tobytes() == cloud.points.tobytes()
        assert back.labels is None

    def test_round_trip_labeled(self, tmp_path):
        cloud = sample_gaussian_mixture(four_cluster_config(samples_per_component=3))
        target = tmp_path / "cloud.csv"
        write_points(cloud, target)
        back = read_points(target)
        assert back.points.tobytes() == cloud.points.tobytes()
        assert list(back.labels) == list(cloud.labels)

    def test_header_written(self, tmp_path):
        cloud = PointCloud(np.zeros((2, 2)), labels=np.array([0, 1]))
        target = tmp_path / "cloud.csv"
        write_points(cloud, target)
        first = target.read_text().splitlines()[0]
        assert first == "x0,x1,label"

    def test_ragged_row_names_line(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("x0,x1\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_points(target)

    def test_non_numeric_cell_names_line(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("x0,x1\n1.0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            read_points(target)

    def test_bad_header_rejected(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_points(target)

    def test_empty_and_headerless(self, tmp_path):
        target = tmp_path / "empty.csv"
        target.write_text("")
        with pytest.raises(ValueError):
            read_points(target)
        target.write_text("x0,x1\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_points(target)


def diagonal_clustering(n):
    plan = TransportPlan(
        entries=np.eye(n) / n,
        row_target=ProbabilityVector.uniform(n),
    )
    return extract_clusters(plan)


def single_cluster(n, rep=0):
    entries = np.zeros((n, n))
    entries[:, rep] = 1.0 / n
    plan = TransportPlan(entries=entries, row_target=ProbabilityVector.uniform(n))
    return extract_clusters(plan)


class TestScatterSvg:
    def test_single_point_single_cluster(self, tmp_path):
        cloud = PointCloud(np.array([[1.0, 2.0]]))
        target = tmp_path / "one.svg"
        emit_scatter_svg(cloud, single_cluster(1), target)
        text = target.read_text()
        assert text.count("<circle") == 1
        assert text.count("<path") == 1
        assert 'stroke="#000000"' in text

    def test_four_clusters_four_styles(self, tmp_path):
        cloud = sample_gaussian_mixture(four_cluster_config(samples_per_component=5))
        plan_entries = np.zeros((20, 20))
        for i in range(20):
            plan_entries[i, (i // 5) * 5] = 0.05
        plan = TransportPlan(
            entries=plan_entries, row_target=ProbabilityVector.uniform(20)
        )
        clustering = extract_clusters(plan)
        assert clustering.cluster_count == 4
        target = tmp_path / "four.svg"
        emit_scatter_svg(cloud, clustering, target)
        text = target.read_text()
        shapes = sum(
            text.count(f"<{tag}")
            for tag in ("circle", "rect", "polygon")
        )
        # one white background rect plus one marker per point
        assert shapes == 21
        assert text.count("<path") == 4
        styles = set()
        for line in text.splitlines():
            if "fill=" in line and "#ffffff" not in line and "none" not in line:
                tag = line.split()[0].lstrip("<")
                color = line.split('fill="')[1][:7]
                styles.add((tag, color))
        assert len(styles) == 4

    def test_identical_inputs_identical_bytes(self, tmp_path):
        cloud = sample_gaussian_mixture(four_cluster_config(samples_per_component=4))
        clustering = single_cluster(16, rep=3)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        emit_scatter_svg(cloud, clustering, a)
        emit_scatter_svg(cloud, clustering, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_non_planar(self, tmp_path):
        cloud = PointCloud(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="2-d"):
            emit_scatter_svg(cloud, diagonal_clustering(3), tmp_path / "x.svg")

    def test_rejects_size_mismatch(self, tmp_path):
        cloud = PointCloud(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="size"):
            emit_scatter_svg(cloud, diagonal_clustering(4), tmp_path / "x.svg")

    @pytest.mark.parametrize("assignment", [[0, 0, 7], [0, -1, -1]])
    def test_rejects_assignment_out_of_range(self, tmp_path, assignment):
        # an entry must name one of the cloud's points
        cloud = PointCloud(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="point indices"):
            emit_scatter_svg(cloud, ClusteringResult(assignment), tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()

    def test_palette_has_twelve_styles(self):
        assert PALETTE_SIZE == 12
