"""Edge rasterization and the pluggable confidence scorers."""

import json
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import edge_id, make_graph
from raster_reference import (reference_frame, reference_grid,
                              reference_heuristic)
from skelgrow import edge_scoring
from skelgrow.cli import _bench_spec
from skelgrow.cloud import PointCloud
from skelgrow.config import SearchConfig
from skelgrow.edge_scoring import (GRID_ALONG, GRID_LATERAL, DenseModel,
                                   _heuristic_scores, edge_key,
                                   load_override, score_all_edges)
from skelgrow.errors import (DegenerateGeometryError, ModelFormatError,
                             OverrideError)
from skelgrow.geometry import grow_angle
from skelgrow.spatial import GridIndex
from skelgrow.synth import SynthSpec, generate
from skelgrow.superpoints import build_graph

CFG = SearchConfig()


def _edge_fixture(points):
    """Cloud plus a 2-node graph with one edge along +X of length 0.15."""
    cloud = PointCloud(np.asarray(points, dtype=np.float32))
    graph = make_graph([(0.0, 0.0, 0.0), (0.15, 0.0, 0.0)], [(0, 1)])
    return cloud, graph


def _edge_grid(cloud, graph, edge=0):
    """Edge ``edge``'s grid as the block rasteriser that score_all_edges
    runs makes it, or None when the edge is degenerate."""
    index = GridIndex(cloud.points, CFG.r_super)
    for edges, grids, _ in edge_scoring._raster_blocks(
            cloud, graph, CFG.r_super, index):
        if edge in edges:
            return grids[edges.index(edge)]
    return None


def test_project_edge_collinear_points_central_rows():
    xs = np.linspace(-0.05, 0.20, 60)
    pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
    cloud, graph = _edge_fixture(pts)
    grid = _edge_grid(cloud, graph)
    assert grid.shape == (GRID_ALONG, GRID_LATERAL)
    assert grid.max() == pytest.approx(1.0)
    lateral_mass = grid.sum(axis=0)
    occupied = np.nonzero(lateral_mass)[0]
    center = GRID_LATERAL // 2
    assert set(occupied) <= {center - 1, center}
    # Columns along the edge are uniformly hit over the sampled span.
    col_mass = grid.sum(axis=1)
    assert (col_mass[col_mass > 0] > 0).all()


def test_project_edge_rigid_invariance_up_to_lateral_flip():
    rng = np.random.default_rng(4)
    pts = np.column_stack([
        rng.uniform(-0.05, 0.2, 300),
        rng.normal(scale=0.01, size=300),
        rng.normal(scale=0.005, size=300),
    ])
    cloud, graph = _edge_fixture(pts)
    base = _edge_grid(cloud, graph)

    # Random rigid motion applied to cloud and node positions together.
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta), 0],
                    [math.sin(theta), math.cos(theta), 0],
                    [0, 0, 1.0]])
    axis_tilt = np.array([[1, 0, 0],
                          [0, math.cos(0.4), -math.sin(0.4)],
                          [0, math.sin(0.4), math.cos(0.4)]])
    rot = rot @ axis_tilt
    shift = np.array([0.3, -0.2, 0.7])
    moved_cloud = PointCloud((pts @ rot.T + shift).astype(np.float32))
    moved_graph = make_graph(
        (np.asarray([(0, 0, 0), (0.15, 0, 0)]) @ rot.T + shift), [(0, 1)])
    moved = _edge_grid(moved_cloud, moved_graph)
    same = np.allclose(moved, base)
    flipped = np.allclose(moved, base[:, ::-1])
    assert same or flipped


def test_project_edge_gap_fixture_has_zero_band():
    # Two runs parallel to the edge, offset laterally by +-r/4: a false
    # "gap-jumping" edge shows two bands with an empty lateral band
    # between them.
    xs = np.linspace(-0.05, 0.2, 80)
    off = CFG.r_super / 4
    pts = np.concatenate([
        np.stack([xs, np.full_like(xs, off), np.zeros_like(xs)], axis=1),
        np.stack([xs, np.full_like(xs, -off), np.zeros_like(xs)], axis=1),
    ])
    cloud, graph = _edge_fixture(pts)
    lateral_mass = _edge_grid(cloud, graph).sum(axis=0)
    occupied = np.nonzero(lateral_mass)[0]
    assert len(occupied) >= 2
    gap = [k for k in range(occupied.min(), occupied.max() + 1)
           if lateral_mass[k] == 0]
    assert gap, "expected an all-zero lateral band between the two runs"


def test_project_edge_too_few_points():
    cloud, graph = _edge_fixture([[0.0, 0.0, 0.0], [0.15, 0.0, 0.0]])
    index = GridIndex(cloud.points, CFG.r_super)
    ((edge, idx),) = edge_scoring._edge_points(graph, index)
    with pytest.raises(DegenerateGeometryError):
        edge_scoring._edge_frame(cloud.points, graph, edge, idx)
    assert _edge_grid(cloud, graph) is None
    assert score_all_edges(cloud, graph, ("heuristic",), CFG, index)[0] == 0.0


def _heuristic(grid):
    return _heuristic_scores(np.asarray(grid, dtype=np.float64)[None])[0]


def test_heuristic_all_zero_grid():
    assert _heuristic(np.zeros((GRID_ALONG, GRID_LATERAL))) == 0.0


def test_heuristic_central_rows_high_score():
    grid = np.zeros((GRID_ALONG, GRID_LATERAL))
    grid[:, GRID_LATERAL // 2 - 1:GRID_LATERAL // 2 + 1] = 1.0
    assert _heuristic(grid) >= 0.9


def test_heuristic_half_columns_half_score():
    full = np.zeros((GRID_ALONG, GRID_LATERAL))
    full[:, GRID_LATERAL // 2] = 1.0
    half = full.copy()
    half[GRID_ALONG // 2:] = 0.0
    compactness = _heuristic(full)  # coverage is 1 here
    assert _heuristic(half) == pytest.approx(0.5 * compactness, rel=1e-9)


def _bias_only_model(bias):
    """A one-layer model with zero weights: logit ``bias`` for any input."""
    n_in = GRID_ALONG * GRID_LATERAL + 4
    return DenseModel.from_dict({"layers": [
        {"rows": 1, "cols": n_in, "weights": [0.0] * n_in, "bias": [bias]}]})


def _line_edge_fixture():
    """An edge along a sampled line: non-degenerate, with a full grid."""
    xs = np.linspace(-0.05, 0.20, 60)
    return _edge_fixture(np.stack(
        [xs, 0.01 * np.sin(40 * xs), np.zeros_like(xs)], axis=1))


def test_model_zero_weights_gives_half():
    cloud, graph = _line_edge_fixture()
    conf = score_all_edges(cloud, graph, ("model", _bias_only_model(0.0)),
                           CFG)
    assert conf[0] == pytest.approx(0.5)


def test_model_large_bias_saturates():
    cloud, graph = _line_edge_fixture()
    conf = score_all_edges(cloud, graph, ("model", _bias_only_model(10.0)),
                           CFG)
    assert conf[0] == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), rel=1e-12)


def test_model_very_negative_logit_gives_zero():
    model = _bias_only_model(-1000.0)
    assert model.forward(np.zeros(GRID_ALONG * GRID_LATERAL + 4)) == 0.0
    cloud, graph = _line_edge_fixture()
    assert _edge_grid(cloud, graph) is not None  # not a degenerate 0
    assert score_all_edges(cloud, graph, ("model", model), CFG)[0] == 0.0


def test_model_two_layers_match_manual_forward():
    rng = np.random.default_rng(8)
    n_in = GRID_ALONG * GRID_LATERAL + 4
    w1 = rng.normal(scale=0.05, size=(6, n_in))
    b1 = rng.normal(size=6)
    w2 = rng.normal(size=(1, 6))
    b2 = rng.normal(size=1)
    model = DenseModel.from_dict({"layers": [
        {"rows": 6, "cols": n_in, "weights": w1.reshape(-1).tolist(),
         "bias": b1.tolist()},
        {"rows": 1, "cols": 6, "weights": w2.reshape(-1).tolist(),
         "bias": b2.tolist()},
    ]})
    # A tilted edge: its midpoint and growth angle are not zero.
    pts = np.column_stack([np.linspace(0.1, 0.25, 200),
                           rng.normal(scale=0.01, size=200),
                           np.linspace(0.2, 0.4, 200)])
    cloud = PointCloud(pts.astype(np.float32))
    graph = make_graph([(0.1, 0.0, 0.2), (0.25, 0.0, 0.4)], [(0, 1)])
    mid = np.array([0.175, 0.0, 0.3])
    angle = grow_angle(np.array([0.15, 0.0, 0.2]))
    x = np.concatenate([_edge_grid(cloud, graph).reshape(-1), mid, [angle]])
    hidden = np.maximum(w1 @ x + b1, 0.0)
    logit = float((w2 @ hidden + b2)[0])
    expected = 1.0 / (1.0 + math.exp(-logit))
    conf = score_all_edges(cloud, graph, ("model", model), CFG)
    assert conf[0] == pytest.approx(expected, rel=1e-12)


def test_model_dimension_mismatch():
    with pytest.raises(ModelFormatError):
        DenseModel.from_dict({"layers": [
            {"rows": 1, "cols": 7, "weights": [0.0] * 7, "bias": [0.0]}]})
    with pytest.raises(ModelFormatError):
        DenseModel.from_dict({"layers": []})
    n_in = GRID_ALONG * GRID_LATERAL + 4
    with pytest.raises(ModelFormatError):
        DenseModel.from_dict({"layers": [
            {"rows": 2, "cols": n_in, "weights": [0.0] * (2 * n_in),
             "bias": [0.0, 0.0]}]})  # final layer must output one row


def test_model_weight_layouts():
    """A layer's weights are read as a flat row-major list or as one list
    per row; the same numbers as one list per column are refused, not read
    scrambled."""
    n_in = GRID_ALONG * GRID_LATERAL + 4
    w1 = np.arange(2 * n_in, dtype=np.float64).reshape(2, n_in)

    def model(weights):
        return DenseModel.from_dict({"layers": [
            {"rows": 2, "cols": n_in, "weights": weights, "bias": [0, 0]},
            {"rows": 1, "cols": 2, "weights": [[1, 1]], "bias": [0]}]})

    for layout in (w1.reshape(-1), w1):
        np.testing.assert_array_equal(model(layout.tolist()).weights[0], w1)
    with pytest.raises(ModelFormatError, match="as 2 rows of 516"):
        model(w1.T.tolist())


def test_override_full_coverage():
    graph = make_graph([(0, 0, 0), (0.1, 0, 0), (0.2, 0, 0)],
                       [(0, 1), (1, 2)])
    table = {"0-1": 1.0, "1-2": 1.0}
    conf = score_all_edges(None, graph, ("override", table), CFG)
    np.testing.assert_array_equal(conf.values, [1.0, 1.0])


def test_override_missing_edges_listed():
    graph = make_graph([(0, 0, 0), (0.1, 0, 0), (0.2, 0, 0)],
                       [(0, 1), (1, 2)])
    with pytest.raises(OverrideError, match="1-2"):
        score_all_edges(None, graph, ("override", {"0-1": 1.0}), CFG)


def test_override_out_of_range_rejected():
    graph = make_graph([(0, 0, 0), (0.1, 0, 0)], [(0, 1)])
    with pytest.raises(OverrideError):
        score_all_edges(None, graph, ("override", {"0-1": 1.5}), CFG)


def test_override_file_round_trip(tmp_path):
    graph = make_graph([(0, 0, 0), (0.1, 0, 0)], [(0, 1)])
    path = tmp_path / "override.json"
    path.write_text(json.dumps({"scores": {"0-1": 0.25}}))
    conf = score_all_edges(None, graph, ("override", load_override(path)),
                           CFG)
    assert conf[0] == pytest.approx(0.25)


def test_edge_key_sorted():
    assert edge_key(4, 2) == "2-4"
    assert edge_key(2, 4) == "2-4"


def test_heuristic_penalizes_gap_jumping_cross_edge():
    # Two parallel vertical chains 0.18 apart with a horizontal cross edge
    # between them: the cross edge spans empty space, so its heuristic
    # confidence must fall well below the within-chain edges'.
    zs = np.linspace(0.0, 0.6, 240)
    pts = np.concatenate([
        np.stack([np.zeros_like(zs), np.zeros_like(zs), zs], axis=1),
        np.stack([np.full_like(zs, 0.18), np.zeros_like(zs), zs], axis=1),
    ]).astype(np.float32)
    cloud = PointCloud(pts)
    positions = ([(0.0, 0.0, 0.15 * k) for k in range(5)]
                 + [(0.18, 0.0, 0.15 * k) for k in range(5)])
    chain_edges = ([(k, k + 1) for k in range(4)]
                   + [(5 + k, 6 + k) for k in range(4)])
    cross = (2, 7)
    graph = make_graph(positions, chain_edges + [cross])
    conf = score_all_edges(cloud, graph, ("heuristic",), CFG)
    assert conf.values.min() >= 0.0 and conf.values.max() <= 1.0
    cross_score = conf[edge_id(graph, *cross)]
    chain_scores = [conf[edge_id(graph, i, j)] for i, j in chain_edges]
    assert cross_score < 0.5 * min(chain_scores)


def test_heuristic_scores_synthetic_tree_edges_high():
    spec = SynthSpec(n_leaders=2, leader_height=1.0, seed=3)
    cloud, truth = generate(spec)
    graph = build_graph(cloud, CFG.r_super, 3)
    oracle = truth.oracle_confidences(graph)
    conf = score_all_edges(cloud, graph, ("heuristic",), CFG)
    true_scores = conf.values[oracle.values == 1.0]
    assert len(true_scores)
    assert true_scores.mean() > 0.4
    assert conf.values.min() >= 0.0 and conf.values.max() <= 1.0


# -- block rasteriser against the per-edge reference ------------------------

@pytest.fixture(scope="module", params=[
    _bench_spec(100, 0), _bench_spec(400, 0),
    SynthSpec(n_side_branches=2, points_per_meter=8000, seed=0),
    SynthSpec(n_side_branches=2, points_per_meter=16000, seed=1)],
    ids=["bench-100", "bench-400", "dense-8000", "dense-16000"])
def tree(request):
    """(cloud, graph, index) of a `skelgrow bench` tree or a dense one."""
    cloud, _ = generate(request.param)
    index = GridIndex(cloud.points, CFG.r_super)
    return cloud, build_graph(cloud, CFG.r_super, 0, index), index


def _random_model(n_hidden=5, seed=2):
    rng = np.random.default_rng(seed)
    n_in = GRID_ALONG * GRID_LATERAL + 4
    return DenseModel.from_dict({"layers": [
        {"rows": n_hidden, "cols": n_in,
         "weights": rng.normal(scale=0.05, size=n_hidden * n_in).tolist(),
         "bias": rng.normal(size=n_hidden).tolist()},
        {"rows": 1, "cols": n_hidden,
         "weights": rng.normal(size=n_hidden).tolist(),
         "bias": rng.normal(size=1).tolist()}]})


def _reference_scores(cloud, graph, index, model=None):
    """Per-edge scores from the per-edge reference raster: the heuristic,
    or ``model``'s confidence; 0 for a degenerate edge."""
    scores = np.zeros(graph.num_edges)
    for k in range(graph.num_edges):
        grid = reference_grid(cloud, graph, k, CFG.r_super, index)
        if grid is None:
            continue
        if model is None:
            scores[k] = reference_heuristic(grid)
        else:
            pa, pb = graph.positions[graph.edges[k]]
            scores[k] = model.forward(np.concatenate(
                [grid.reshape(-1), 0.5 * (pa + pb), [grow_angle(pb - pa)]]))
    return scores


def test_block_rasters_equal_per_edge_reference(tree):
    cloud, graph, index = tree
    seen = []
    for edges, grids, _ in edge_scoring._raster_blocks(
            cloud, graph, CFG.r_super, index):
        for k, grid in zip(edges, grids):
            assert np.array_equal(
                grid, reference_grid(cloud, graph, k, CFG.r_super, index))
        seen += edges
    assert seen == list(range(graph.num_edges))


def test_edge_points_and_frames_equal_per_edge_reference(tree):
    """Each edge's points, the union of its two node balls, are cKDTree's
    points within r_super of either end, and its frame is the reference's,
    bit for bit."""
    cloud, graph, index = tree
    kd_tree = cKDTree(cloud.points)
    seen = []
    for k, idx in edge_scoring._edge_points(graph, index):
        near = kd_tree.query_ball_point(graph.positions[graph.edges[k]],
                                        CFG.r_super)
        assert np.array_equal(idx, np.union1d(*near))
        expected = reference_frame(cloud, graph, k, index)
        if expected is None:
            with pytest.raises(DegenerateGeometryError):
                edge_scoring._edge_frame(cloud.points, graph, k, idx)
        else:
            for got, want in zip(edge_scoring._edge_frame(
                    cloud.points, graph, k, idx), expected):
                assert np.array_equal(got, want)
        seen.append(k)
    assert seen == list(range(graph.num_edges))


def test_block_heuristic_equals_per_edge_reference(tree):
    cloud, graph, index = tree
    conf = score_all_edges(cloud, graph, ("heuristic",), CFG, index)
    assert np.array_equal(conf.values,
                          _reference_scores(cloud, graph, index))


def test_block_model_equals_per_edge_reference(tree):
    cloud, graph, index = tree
    model = _random_model()
    conf = score_all_edges(cloud, graph, ("model", model), CFG, index)
    assert np.array_equal(conf.values,
                          _reference_scores(cloud, graph, index, model))


def test_blocks_split_by_points_score_the_same(monkeypatch):
    cloud, _ = generate(_bench_spec(100, 0))
    index = GridIndex(cloud.points, CFG.r_super)
    graph = build_graph(cloud, CFG.r_super, 0, index)
    whole = score_all_edges(cloud, graph, ("heuristic",), CFG, index)
    monkeypatch.setattr(edge_scoring, "BLOCK_POINTS", 1000)
    blocks = list(edge_scoring._raster_blocks(cloud, graph, CFG.r_super,
                                              index))
    # Runs of several edges, each ending at the first edge that takes the
    # block past the point budget.
    assert 10 < len(blocks) < graph.num_edges // 3
    for edges, grids, frames in blocks:
        assert len(edges) == len(grids) == len(frames)
    split = score_all_edges(cloud, graph, ("heuristic",), CFG, index)
    assert np.array_equal(split.values, whole.values)
    assert np.array_equal(split.values,
                          _reference_scores(cloud, graph, index))


def test_degenerate_edges_score_zero_among_others():
    # Edge (0, 1) runs along a dense line of points, (1, 2) has coincident
    # endpoints, and (3, 4) lies far from every point.
    xs = np.linspace(-0.05, 0.20, 60)
    pts = np.stack([xs, 0.01 * np.sin(40 * xs), np.zeros_like(xs)], axis=1)
    cloud = PointCloud(pts.astype(np.float32))
    graph = make_graph([(0.0, 0.0, 0.0), (0.15, 0.0, 0.0), (0.15, 0.0, 0.0),
                        (5.0, 5.0, 5.0), (5.15, 5.0, 5.0)],
                       [(0, 1), (1, 2), (3, 4)])
    index = GridIndex(cloud.points, CFG.r_super)
    for scorer in (("heuristic",), ("model", _random_model())):
        conf = score_all_edges(cloud, graph, scorer, CFG, index)
        assert conf[edge_id(graph, 0, 1)] > 0
        assert conf[edge_id(graph, 1, 2)] == 0.0
        assert conf[edge_id(graph, 3, 4)] == 0.0
        assert np.array_equal(conf.values, _reference_scores(
            cloud, graph, index, scorer[1] if len(scorer) > 1 else None))
    for k, idx in edge_scoring._edge_points(graph, index):
        if k != edge_id(graph, 0, 1):
            with pytest.raises(DegenerateGeometryError):
                edge_scoring._edge_frame(cloud.points, graph, k, idx)
