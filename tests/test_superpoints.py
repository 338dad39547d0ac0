"""Superpoint cover and dense candidate edges."""

import numpy as np
import pytest

from skelgrow.cloud import PointCloud
from skelgrow.superpoints import (build_dense_edges, build_graph,
                                  build_superpoints, graph_from_dict,
                                  graph_to_dict)


def test_single_sphere_cluster():
    pts = np.array([[0, 0, 0], [0.01, 0, 0], [0, 0.02, 0],
                    [0.01, 0.01, 0], [0.02, 0, 0.01]], dtype=np.float32)
    sps = build_superpoints(PointCloud(pts), 0.10, seed=0)
    assert len(sps) == 1
    np.testing.assert_allclose(sps[0].position,
                               pts.astype(np.float64).mean(axis=0),
                               atol=1e-12)
    assert sorted(sps[0].member_indices) == [0, 1, 2, 3, 4]


def test_two_isolated_points():
    pts = np.array([[0, 0, 0], [0.3, 0, 0]], dtype=np.float32)
    sps = build_superpoints(PointCloud(pts), 0.10, seed=0)
    assert len(sps) == 2


def test_superpoints_deterministic_per_seed():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(size=(500, 3)).astype(np.float32))
    a = build_superpoints(cloud, 0.10, seed=9)
    b = build_superpoints(cloud, 0.10, seed=9)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.member_indices, sb.member_indices)


def test_cover_property_random_cloud():
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.uniform(0, 1, size=(2000, 3)).astype(np.float32))
    sps = build_superpoints(cloud, 0.10, seed=1)
    covered = np.zeros(len(cloud), dtype=bool)
    for sp in sps:
        covered[sp.member_indices] = True
        seed_pt = cloud.points[sp.seed_index].astype(np.float64)
        members = cloud.points[sp.member_indices].astype(np.float64)
        assert np.linalg.norm(members - seed_pt, axis=1).max() <= 0.10 + 1e-9
    assert covered.all()


def test_dense_edge_boundary_inclusive():
    # 0.25 is exactly representable, so the pair sits exactly on the
    # inclusive 2 * r boundary.
    pts = [[0, 0, 0], [0.25, 0, 0]]
    sps = build_superpoints(
        PointCloud(np.asarray(pts, dtype=np.float32)), 0.01, seed=0)
    edges, lengths = build_dense_edges(sps, 0.125)
    assert edges.tolist() == [[0, 1]]
    assert lengths[0] == pytest.approx(0.25)


def test_dense_edge_boundary_exclusive():
    pts = [[0, 0, 0], [0.2501, 0, 0]]
    sps = build_superpoints(
        PointCloud(np.asarray(pts, dtype=np.float32)), 0.01, seed=0)
    edges, _ = build_dense_edges(sps, 0.125)
    assert len(edges) == 0


def test_dense_edges_match_brute_force():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 0.6, size=(20, 3)).astype(np.float32)
    # Spread the points so each becomes its own superpoint.
    sps = build_superpoints(PointCloud(pts), 1e-6, seed=0)
    assert len(sps) == 20
    edges, lengths = build_dense_edges(sps, 0.10)
    pos = np.asarray([sp.position for sp in sps])
    expected = sorted(
        (i, j)
        for i in range(20) for j in range(i + 1, 20)
        if np.linalg.norm(pos[i] - pos[j]) <= 0.2)
    assert [tuple(e) for e in edges] == expected
    for (i, j), length in zip(edges, lengths):
        assert length == pytest.approx(np.linalg.norm(pos[i] - pos[j]))


def test_graph_neighbors_and_edge_id():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(0, 0.5, size=(300, 3)).astype(np.float32))
    graph = build_graph(cloud, 0.10, seed=0)
    for i, j in graph.edges[:20]:
        i, j = int(i), int(j)
        k = graph.edge_id(i, j)
        assert graph.edge_id(j, i) == k
        assert graph.has_edge(i, j)
        assert (j, k) in graph.neighbors(i)
        assert (i, k) in graph.neighbors(j)


def test_graph_json_round_trip():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.uniform(0, 0.5, size=(200, 3)).astype(np.float32))
    graph = build_graph(cloud, 0.10, seed=0)
    again = graph_from_dict(graph_to_dict(graph))
    assert again.num_nodes == graph.num_nodes
    np.testing.assert_array_equal(again.edges, graph.edges)
    np.testing.assert_allclose(again.positions, graph.positions, atol=1e-12)


def test_nonpositive_radius_invalid():
    cloud = PointCloud(np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        build_superpoints(cloud, -1.0, seed=0)
