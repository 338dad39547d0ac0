"""GridIndex answers exactly as scipy's cKDTree does, which it replaces."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from skelgrow import spatial
from skelgrow.spatial import (GridIndex, ball_union, coordinate_bounds,
                              coordinate_rows)
from skelgrow.superpoints import build_graph, build_superpoints
from skelgrow.synth import SynthSpec, generate


def _tree_ball(tree, r, *centres):
    found = set()
    for c in centres:
        found.update(tree.query_ball_point(c, r))
    return np.asarray(sorted(found), dtype=np.int64)


def _tree_pairs(tree, r):
    return np.asarray(sorted(tree.query_pairs(r)),
                      dtype=np.int64).reshape(-1, 2)


def assert_same_as_tree(points, r, centres, edges=()):
    """Balls around each centre and around both ends of each edge, and all
    pairs, equal cKDTree's exactly. ``points`` may be float32, as a
    cloud's are; both indexes test distances in float64."""
    points = np.asarray(points)
    index, tree = GridIndex(points, r), cKDTree(points)
    centres = np.asarray(centres, dtype=np.float64).reshape(-1, 3)
    balls = list(index.balls(centres))
    assert len(balls) == len(centres)
    for c, ball in zip(centres, balls):
        assert np.array_equal(index.ball(c), _tree_ball(tree, r, c)), c
        assert np.array_equal(ball, _tree_ball(tree, r, c)), c
    for a, b in edges:
        assert np.array_equal(ball_union(index.ball(a), index.ball(b)),
                              _tree_ball(tree, r, a, b))
    assert np.array_equal(index.pairs(), _tree_pairs(tree, r))


@pytest.mark.parametrize("seed", range(6))
def test_random_clouds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 2000))
    scale = float(rng.uniform(0.2, 5.0))
    points = rng.uniform(-scale, scale, size=(n, 3))
    r = float(rng.uniform(0.02, 0.5)) * scale
    # Centres inside, on and far outside the cloud's box.
    centres = np.concatenate([points[:40], rng.uniform(
        -3 * scale, 3 * scale, size=(20, 3))])
    assert_same_as_tree(points, r, centres, zip(points[:20], points[-20:]))


def test_superpoint_seeds_and_edge_ends_of_a_synth_tree():
    cloud, _ = generate(SynthSpec(n_leaders=2, leader_height=1.0, seed=3))
    r = 0.10
    seeds, positions = build_superpoints(cloud, r, seed=3)
    points = cloud.points  # float32
    graph = build_graph(cloud, r, seed=3)
    assert np.array_equal(graph.positions, positions)
    assert graph.num_edges > 20
    assert_same_as_tree(points, r, points[seeds], positions[graph.edges])
    assert_same_as_tree(positions, 2 * r, positions)
    assert np.all(graph.lengths <= 2 * r)


@pytest.mark.parametrize("r", [0.125, 0.25])
def test_points_at_r_and_one_step_either_side(r):
    """Points at multiples of r along each axis, and one float step either
    side of each, so that neighbours lie exactly at r or one step inside
    or outside it, and straddle cell boundaries. With cells exactly r wide,
    (r - step) and 2r are neighbours that land two cells apart."""
    steps = []
    for k in range(5):
        x = k * r
        steps += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    points = [(0.0, 0.0, 0.0)]
    for axis in range(3):
        for x in steps:
            p = [0.5, 0.5, 0.5]
            p[axis] = x
            points.append(tuple(p))
    points = np.asarray(points)
    assert_same_as_tree(points, r, points, zip(points[1:], points[4:]))


def test_points_near_the_sphere_round_like_the_tree():
    """Random directions at distance r from a centre: the summation order
    (dx*dx + dy*dy) + dz*dz decides membership, as in cKDTree."""
    rng = np.random.default_rng(7)
    centre = np.array([0.3, -1.7, 2.2])
    for r in (0.125, 0.1, 0.25):
        u = rng.normal(size=(3000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        points = np.concatenate([[centre], centre + r * u])
        tree_ball = _tree_ball(cKDTree(points), r, centre)
        assert 1 < len(tree_ball) < len(points)  # rounding splits them
        assert np.array_equal(GridIndex(points, r).ball(centre), tree_ball)


def test_tiny_radius_over_a_large_extent():
    """A cell key per r-wide cell would overflow int64 here."""
    rng = np.random.default_rng(11)
    r = 1e-7
    clusters = rng.uniform(-1e6, 1e6, size=(4, 3))
    points = np.concatenate([
        c + rng.uniform(-2 * r, 2 * r, size=(60, 3)) for c in clusters])
    index = GridIndex(points, r)
    assert len(index.pairs()) > 0
    assert_same_as_tree(points, r, points, zip(points[:30], points[1:31]))
    # Key order is the cells' lexicographic order: no key wrapped around.
    cells = index._cells(points[index._order]).T.tolist()
    assert cells == sorted(cells)


def test_single_point_and_bad_radius():
    index = GridIndex([[1.0, 2.0, 3.0]], 0.5)
    assert index.ball([1.0, 2.0, 3.4]).tolist() == [0]
    assert index.ball([1.0, 2.0, 3.6]).tolist() == []
    assert index.pairs().shape == (0, 2)
    for r in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            GridIndex([[0.0, 0.0, 0.0]], r)


# -- node balls, coordinate rows and block-wise bounds -----------------------

def test_ball_union_equals_two_centre_ball():
    rng = np.random.default_rng(4)
    points = rng.uniform(0, 1, size=(5000, 3)).astype(np.float32)
    r = 0.15
    index, tree = GridIndex(points, r), cKDTree(points)
    a = np.array([0.3, 0.5, 0.5])
    cases = {
        "overlapping": (a, a + [0.5 * r, 0.3 * r, 0.0]),
        "disjoint": (a, a + [0.4, 0.0, 0.0]),
        "identical": (a, a.copy()),
        # Outside the cloud's box, so they take the nearest grid cells.
        "out of grid": (np.array([-0.03, 0.5, 0.5]),
                        np.array([0.5, 1.03, 0.5])),
        "one empty": (a, np.array([5.0, 5.0, 5.0])),
        "both empty": (np.array([-5.0, 0.0, 0.0]), np.array([5.0, 5.0, 5.0])),
    }
    sizes = {}
    for name, (p, q) in cases.items():
        union = ball_union(index.ball(p), index.ball(q))
        assert np.array_equal(union, _tree_ball(tree, r, p, q)), name
        sizes[name] = len(index.ball(p)), len(index.ball(q)), len(union)
    assert 0 < sizes["overlapping"][2] < sum(sizes["overlapping"][:2])
    assert 0 < sizes["disjoint"][2] == sum(sizes["disjoint"][:2])
    assert sizes["identical"][0] == sizes["identical"][2] > 0
    assert sizes["out of grid"][:2] > (0, 0)
    assert sizes["one empty"][1] == 0 < sizes["one empty"][0]
    assert sizes["both empty"] == (0, 0, 0)


@pytest.mark.parametrize("chunk", [1, 50, 2**13, 2**20])
def test_balls_equal_one_centre_balls_across_chunks(chunk, monkeypatch):
    """Many centres in chunks of at most ``chunk`` candidates (or one
    centre with more): each ball equals ``ball`` of its centre alone, with
    its dtype, in centre order, empty balls and repeated centres
    included."""
    monkeypatch.setattr(spatial, "BALL_CHUNK", chunk)
    rng = np.random.default_rng(12)
    points = rng.uniform(0, 1, size=(4000, 3)).astype(np.float32)
    index = GridIndex(points, 0.12)
    centres = np.concatenate([
        points[:150].astype(np.float64), rng.uniform(-2, 3, size=(30, 3)),
        [[9.0, 9.0, 9.0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]])
    rng.shuffle(centres)
    balls = list(index.balls(centres))
    tree = cKDTree(points)
    assert len(balls) == len(centres)
    for c, ball in zip(centres, balls):
        expected = _tree_ball(tree, 0.12, c)
        assert ball.dtype == expected.dtype
        assert np.array_equal(ball, expected)
    assert any(len(b) == 0 for b in balls)
    assert list(index.balls(np.empty((0, 3)))) == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_coordinate_rows_mean_equals_numpy_mean(dtype):
    rng = np.random.default_rng(8)
    cloud = (rng.normal(size=(80_000, 3)) * [3.0, 0.5, 40.0] + 17.0).astype(
        dtype)
    for n in (1, 2, 7, 8, 9, 4097, 70_000):
        m = np.sort(rng.choice(len(cloud), n, replace=False))
        rows, mean = coordinate_rows(np.take(cloud, m, axis=0))
        assert np.array_equal(mean, cloud[m].astype(np.float64).mean(axis=0))
        assert rows.dtype == np.float64 and rows.flags["C_CONTIGUOUS"]
        assert np.array_equal(rows, cloud[m].astype(np.float64).T)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_coordinate_bounds_equal_axis_zero_min_max(dtype, monkeypatch):
    rng = np.random.default_rng(9)
    points = rng.normal(size=(2 * spatial.BLOCK_ROWS + 5, 3)).astype(dtype)
    points[-1] = [9.0, -9.0, 0.5]  # extremes in the last, short block
    for block_rows in (spatial.BLOCK_ROWS, 7):
        monkeypatch.setattr(spatial, "BLOCK_ROWS", block_rows)
        for n in (1, 7, 8, len(points)):
            lo, hi = coordinate_bounds(points[-n:])
            assert lo.dtype == hi.dtype == dtype
            assert np.array_equal(lo, points[-n:].min(axis=0))
            assert np.array_equal(hi, points[-n:].max(axis=0))
