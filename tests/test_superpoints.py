"""Superpoint cover, the graph built on it and its JSON document."""

import json

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from conftest import edge_id
from skelgrow import superpoints
from skelgrow.cloud import PointCloud
from skelgrow.spatial import GridIndex
from skelgrow.superpoints import (SuperpointGraph, UnionFind, build_graph,
                                  build_superpoints, graph_from_dict,
                                  graph_to_dict)
from skelgrow.synth import SynthSpec, generate


def test_single_sphere_cluster():
    pts = np.array([[0, 0, 0], [0.01, 0, 0], [0, 0.02, 0],
                    [0.01, 0.01, 0], [0.02, 0, 0.01]], dtype=np.float32)
    seeds, positions = build_superpoints(PointCloud(pts), 0.10, seed=0)
    assert len(seeds) == 1 and positions.shape == (1, 3)
    np.testing.assert_allclose(positions[0],
                               pts.astype(np.float64).mean(axis=0),
                               atol=1e-12)
    graph = build_graph(PointCloud(pts), 0.10, seed=0)
    assert graph.num_nodes == 1 and graph.edges.shape == (0, 2)


def test_superpoint_positions_equal_numpy_means():
    cloud, _ = generate(SynthSpec(n_side_branches=2, points_per_meter=8000,
                                  seed=0))
    seeds, positions = build_superpoints(cloud, 0.10, seed=0)
    assert len(seeds) == len(positions)
    tree = cKDTree(cloud.points)
    for idx, position in zip(seeds, positions):
        members = sorted(tree.query_ball_point(cloud.points[idx], 0.10))
        assert np.array_equal(position, cloud.points[members].astype(
            np.float64).mean(axis=0))


def _sequential_cover(cloud, r, seed):
    """(seed index, members) of each superpoint of the one-seed-at-a-time
    cover: the next uncovered point of one permutation takes the ball."""
    index = GridIndex(cloud.points, r)
    order = np.random.default_rng(seed).permutation(len(cloud))
    covered = np.zeros(len(cloud), dtype=bool)
    out = []
    for idx in order.tolist():
        if not covered[idx]:
            members = index.ball(cloud.points[idx])
            covered[members] = True
            out.append((idx, members))
    return out


@pytest.mark.parametrize("batch, chunk", [
    (1, 2**40), (2, 2**40), (16, 2**40), (10_000, 2**40),
    (16, superpoints.BALL_CHUNK), (16, 300)])
def test_speculative_cover_equals_sequential_cover(batch, chunk,
                                                   monkeypatch):
    """Whatever the number of seeds queried together (at most ``batch``,
    fewer for balls that fill a ``chunk``), the cover takes the seeds and
    positions of the one-seed-at-a-time cover."""
    monkeypatch.setattr(superpoints, "COVER_BATCH", batch)
    monkeypatch.setattr(superpoints, "BALL_CHUNK", chunk)
    cloud, _ = generate(SynthSpec(n_leaders=3, seed=4))
    rng = np.random.default_rng(1)
    noise = PointCloud(rng.uniform(-1, 1, size=(300, 3)).astype(np.float32))
    for cl in (cloud, noise):
        seeds, positions = build_superpoints(cl, 0.10, seed=5)
        expected = _sequential_cover(cl, 0.10, 5)
        assert seeds == [i for i, _ in expected]
        assert np.array_equal(positions, [cl.points[members].astype(
            np.float64).mean(axis=0) for _, members in expected])


def test_two_isolated_points():
    pts = np.array([[0, 0, 0], [0.3, 0, 0]], dtype=np.float32)
    seeds, positions = build_superpoints(PointCloud(pts), 0.10, seed=0)
    assert sorted(seeds) == [0, 1] and positions.shape == (2, 3)


def test_superpoints_deterministic_per_seed():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(size=(500, 3)).astype(np.float32))
    seeds_a, positions_a = build_superpoints(cloud, 0.10, seed=9)
    seeds_b, positions_b = build_superpoints(cloud, 0.10, seed=9)
    assert seeds_a == seeds_b
    np.testing.assert_array_equal(positions_a, positions_b)


def test_dense_edge_boundary_inclusive():
    # 0.25 is exactly representable, so the pair sits exactly on the
    # inclusive 2 * r boundary, and each point is its own superpoint.
    pts = [[0, 0, 0], [0.25, 0, 0]]
    graph = build_graph(
        PointCloud(np.asarray(pts, dtype=np.float32)), 0.125, seed=0)
    assert graph.edges.tolist() == [[0, 1]]
    assert graph.lengths[0] == pytest.approx(0.25)


def test_dense_edge_boundary_exclusive():
    pts = [[0, 0, 0], [0.2501, 0, 0]]
    graph = build_graph(
        PointCloud(np.asarray(pts, dtype=np.float32)), 0.125, seed=0)
    assert graph.num_nodes == 2 and graph.num_edges == 0


def test_dense_edges_match_brute_force():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 0.6, size=(300, 3)).astype(np.float32)
    graph = build_graph(PointCloud(pts), 0.10, seed=0)
    pos = graph.positions
    assert graph.num_nodes > 20
    expected = sorted(
        (i, j)
        for i in range(len(pos)) for j in range(i + 1, len(pos))
        if np.linalg.norm(pos[i] - pos[j]) <= 0.2)
    assert [tuple(e) for e in graph.edges.tolist()] == expected
    for (i, j), length in zip(expected, graph.lengths):
        assert length == pytest.approx(np.linalg.norm(pos[i] - pos[j]))


def test_graph_neighbors_and_edge_id():
    """Each edge's id is its row in ``edges``; ``neighbors`` lists it at
    both ends and nowhere else."""
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(0, 0.5, size=(300, 3)).astype(np.float32))
    graph = build_graph(cloud, 0.10, seed=0)
    for k, (i, j) in enumerate(graph.edges.tolist()):
        assert (j, k) in graph.neighbors(i)
        assert (i, k) in graph.neighbors(j)
        assert edge_id(graph, i, j) == edge_id(graph, j, i) == k
    assert sum(map(len, map(graph.neighbors, range(graph.num_nodes)))) \
        == 2 * graph.num_edges


def test_graph_json_round_trip():
    """The document holds the positions only; reading it back with the
    same r_super rebuilds the same edges."""
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.uniform(0, 0.5, size=(200, 3)).astype(np.float32))
    graph = build_graph(cloud, 0.10, seed=0)
    doc = graph_to_dict(graph)
    assert list(doc) == ["positions"]
    again = graph_from_dict(json.loads(json.dumps(doc)), 0.10)
    assert again.num_nodes == graph.num_nodes
    np.testing.assert_array_equal(again.edges, graph.edges)
    np.testing.assert_array_equal(again.positions, graph.positions)
    np.testing.assert_array_equal(again.lengths, graph.lengths)
    # Writing the loaded graph again gives the same cache document.
    assert graph_to_dict(again) == doc


def test_graph_without_edges():
    graph = SuperpointGraph([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [])
    assert graph.num_nodes == 2 and graph.num_edges == 0
    assert graph.lengths.shape == (0,)
    assert graph.lengths.dtype == np.float64
    assert graph.neighbors(0) == () and graph.neighbors(1) == ()


def test_graph_vector_matches_positions():
    rng = np.random.default_rng(4)
    graph = SuperpointGraph(rng.uniform(-1, 1, size=(6, 3)), [(0, 1)])
    for u in range(6):
        for v in range(6):
            vec = graph.vector(u, v)
            assert all(type(x) is float for x in vec)
            assert vec == tuple(graph.positions[v] - graph.positions[u])
            assert graph.vector(v, u) == tuple(-x for x in vec)


def test_nonpositive_radius_invalid():
    cloud = PointCloud(np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        build_superpoints(cloud, -1.0, seed=0)


def test_union_find_matches_scipy_components():
    """Same partition as scipy on random graphs with isolated nodes and
    self-loops; each node's root is its component's smallest id."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        roots = UnionFind(range(n), edges.tolist()).roots()
        count, labels = connected_components(coo_matrix(
            (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)),
            directed=False)
        assert len(set(roots.values())) == count
        for node in range(n):
            assert roots[node] == np.flatnonzero(labels == labels[node]).min()


def test_union_find_any_int_ids():
    uf = UnionFind(edges=[(10**12, -3), (-3, 5)])
    assert uf.find(10**12) == -3
    assert not uf.union(5, 10**12)
    assert uf.find(-10**12) == -10**12  # an unseen id is its own set
