"""Point-cloud loading, downsampling, and colored export."""

import re

import numpy as np
import pytest

from skelgrow.cli import EXIT_IO, main
from skelgrow.cloud import (PointCloud, crop_cloud, export_cloud,
                            export_colored, load_cloud, random_downsample)
from skelgrow.errors import CloudFormatError
from skelgrow.labels import Label
from skelgrow.skeleton import LabeledSkeleton


def test_xyz_text_two_points(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("0 0 0\n1 0 0\n")
    cloud = load_cloud(path)
    assert len(cloud) == 2
    np.testing.assert_array_equal(cloud.points,
                                  [[0, 0, 0], [1, 0, 0]])


def test_xyz_text_comments_and_blank_lines(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# header\n1 2 3\n\n4 5 6  # inline\n")
    cloud = load_cloud(path)
    assert len(cloud) == 2


def test_xyz_text_malformed_row_names_line(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("1 2 3\n4 5\n")
    with pytest.raises(CloudFormatError, match="2"):
        load_cloud(path)


def test_xyz_text_empty_file(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# nothing\n")
    with pytest.raises(CloudFormatError):
        load_cloud(path)


def test_ascii_ply_three_vertices(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n1 0 0\n0 1 0\n")
    cloud = load_cloud(path)
    assert len(cloud) == 3
    np.testing.assert_array_equal(cloud.points[2], [0, 1, 0])


def test_ply_extra_vertex_properties_skipped(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\n"
        "end_header\n0 0 1 255\n0 0 2 0\n")
    cloud = load_cloud(path)
    assert len(cloud) == 2
    np.testing.assert_array_equal(cloud.points[:, 2], [1, 2])


def test_ply_bad_magic(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_bytes(b"not a ply file")
    with pytest.raises(CloudFormatError, match="byte 0"):
        load_cloud(path)


def test_binary_ply_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(257, 3)).astype(np.float32))
    path = tmp_path / "cloud.ply"
    export_cloud(cloud, path)
    again = load_cloud(path)
    np.testing.assert_array_equal(again.points, cloud.points)


def test_empty_cloud_rejected():
    with pytest.raises(CloudFormatError):
        PointCloud(np.zeros((0, 3), dtype=np.float32))


def test_nonfinite_cloud_rejected():
    with pytest.raises(CloudFormatError):
        PointCloud(np.array([[0, 0, np.nan]], dtype=np.float32))


def test_downsample_identity_when_n_large():
    cloud = PointCloud(np.arange(30, dtype=np.float32).reshape(10, 3))
    assert random_downsample(cloud, 10, 0) is cloud
    assert random_downsample(cloud, 50, 0) is cloud


def test_downsample_deterministic_subset():
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.normal(size=(100, 3)).astype(np.float32))
    a = random_downsample(cloud, 30, 7)
    b = random_downsample(cloud, 30, 7)
    np.testing.assert_array_equal(a.points, b.points)
    assert len(a) == 30
    rows = {tuple(p) for p in cloud.points}
    assert all(tuple(p) in rows for p in a.points)


def test_downsample_zero_invalid():
    cloud = PointCloud(np.zeros((4, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        random_downsample(cloud, 0, 0)


def test_crop_cloud():
    cloud = PointCloud(np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]],
                                dtype=np.float32))
    cropped = crop_cloud(cloud, (0.5, 0.5, 0.5), (1.5, 1.5, 1.5))
    assert len(cropped) == 1
    with pytest.raises(CloudFormatError):
        crop_cloud(cloud, (5, 5, 5), (6, 6, 6))


def _edges(path):
    """The (m, 2) vertex pairs of the ``edge`` element that export_colored
    writes after the vertices: binary little-endian, two int properties."""
    header, _, body = path.read_bytes().partition(b"end_header\n")
    match = re.search(rb"\nelement edge (\d+)\nproperty int vertex1\n"
                      rb"property int vertex2\n$", header)
    assert match, header
    count = int(match.group(1))
    return np.frombuffer(body[len(body) - 8 * count:],
                         dtype="<i4").reshape(count, 2)


def test_export_colored_empty_skeleton(tmp_path):
    cloud = PointCloud(np.zeros((5, 3), dtype=np.float32))
    path = tmp_path / "out.ply"
    export_colored(cloud, LabeledSkeleton(0), {0: (0.0, 0.0, 0.0)}, path)
    assert len(load_cloud(path)) == 5 + 1  # cloud plus the lone base vertex
    assert len(_edges(path)) == 0


def test_export_colored_one_edge_counts(tmp_path):
    cloud = PointCloud(np.zeros((5, 3), dtype=np.float32))
    skel = LabeledSkeleton(0).attach((0, 1), Label.TRUNK)
    positions = {0: (0.0, 0.0, 0.0), 1: (0.0, 0.0, 1.0)}
    path = tmp_path / "out.ply"
    export_colored(cloud, skel, positions, path)
    assert len(load_cloud(path)) == 5 + 2
    assert _edges(path).tolist() == [[5, 6]]


def test_export_colored_edge_count_matches_skeleton(tmp_path):
    cloud = PointCloud(np.zeros((3, 3), dtype=np.float32))
    skel = LabeledSkeleton(0)
    positions = {0: (0.0, 0.0, 0.0)}
    for k in range(6):
        skel = skel.attach((k, k + 1), Label.TRUNK)
        positions[k + 1] = (0.0, 0.0, 0.1 * (k + 1))
    path = tmp_path / "out.ply"
    export_colored(cloud, skel, positions, path)
    assert len(_edges(path)) == skel.num_edges



_XYZ = ["property float x", "property float y", "property float z"]


@pytest.mark.parametrize("header, bad, body", [
    (["format ascii 1.0", "element vertex", *_XYZ], 3, b"0 0 0\n"),
    (["format ascii 1.0", "element vertex 1", "property float"], 4, b"0\n"),
    # A negative count made numpy read the whole binary body.
    (["format binary_little_endian 1.0", "element vertex -1", *_XYZ], 3,
     np.arange(30, dtype="<f4").tobytes()),
    (["format ascii 1.0", "element vertex 2.5", *_XYZ], 3,
     b"0 0 0\n1 1 1\n"),
    (["format", "element vertex 1", *_XYZ], 2, b"0 0 0\n"),
], ids=["no-count", "no-property-name", "negative-count", "float-count",
        "no-format"])
def test_ply_header_fault_exits_2(tmp_path, capsys, header, bad, body):
    """A malformed header line ends ``skeletonize`` with exit 2 and an
    error naming the file and the line, not a traceback or a silent
    read."""
    path = tmp_path / "cloud.ply"
    lines = ["ply", *header, "end_header"]
    path.write_bytes("\n".join(lines).encode() + b"\n" + body)
    code = main(["skeletonize", "--cloud", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_IO == 2
    err = capsys.readouterr().err
    assert f"{path}:{bad}:" in err and repr(lines[bad - 1]) in err
