"""Superpoint cover of the point cloud and the :class:`SuperpointGraph`
of its positions and candidate edges that the rest of the pipeline reads."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CloudFormatError
from .cloud import PointCloud
from .spatial import BALL_CHUNK, GridIndex, coordinate_rows
from .values import is_int, is_point


#: Seeds queried together by :func:`build_superpoints`.
COVER_BATCH = 16


class UnionFind:
    """Connected components over int node ids.

    Nodes are keyed through a dict, so ids need not be 0..n-1; ``find``
    adds an unseen node as its own set. Each set's root is its smallest
    member.
    """

    def __init__(self, nodes=(), edges=()):
        self.parent = {n: n for n in nodes}
        for a, b in edges:
            self.union(a, b)

    def find(self, a: int) -> int:
        parent = self.parent
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False when they already share one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def roots(self) -> dict[int, int]:
        """Root of every node seen so far."""
        return {n: self.find(n) for n in self.parent}


@dataclass
class SuperpointGraph:
    """Superpoint positions plus undirected candidate edges (i < j); edge
    lengths, adjacency and edge vectors are derived from these two, once.
    An edge's id is its row in ``edges``."""

    positions: np.ndarray  # (n, 3) float64
    edges: np.ndarray  # (m, 2) int64, i < j
    lengths: np.ndarray = field(init=False)  # (m,) float64
    _points: list = field(init=False, repr=False)
    _adjacency: list = field(init=False, repr=False)

    def __post_init__(self):
        self.positions = np.asarray(
            self.positions, dtype=np.float64).reshape(-1, 3)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.lengths = np.linalg.norm(
            self.positions[self.edges[:, 0]]
            - self.positions[self.edges[:, 1]], axis=1)
        self._points = self.positions.tolist()
        adjacency = [[] for _ in self._points]
        for k, (i, j) in enumerate(self.edges.tolist()):
            adjacency[i].append((j, k))
            adjacency[j].append((i, k))
        self._adjacency = [tuple(a) for a in adjacency]

    @property
    def num_nodes(self) -> int:
        return len(self.positions)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, i: int) -> tuple:
        """Tuple of (neighbor node id, edge id)."""
        return self._adjacency[i]

    def vector(self, u: int, v: int) -> tuple:
        """Vector from node u to node v as three Python floats; the
        vector from v to u is its exact negation."""
        (ux, uy, uz), (vx, vy, vz) = self._points[u], self._points[v]
        return (vx - ux, vy - uy, vz - uz)


def build_superpoints(cloud: PointCloud, r_super: float, seed: int,
                      index: GridIndex | None = None
                      ) -> tuple[list[int], np.ndarray]:
    """Cover the cloud with spheres of radius r_super around random
    uncovered seed points; returns the seeds' indices into the cloud and
    the (n, 3) float64 means of their spheres, the superpoint positions.
    Each sphere's members are dropped once its mean is taken.

    Walking a single upfront permutation and skipping already-covered
    points draws each seed uniformly from the remaining uncovered set
    (the relative order of uncovered points stays a uniform permutation).
    ``index`` is a GridIndex over the cloud with radius r_super, if given.

    The balls are queried in speculative batches: the next few uncovered
    seeds in the permutation are queried together, then taken in
    permutation order, each skipped if an earlier ball of the batch
    covered it. That is exactly the one-seed-at-a-time cover. A batch
    holds at most COVER_BATCH seeds, and about as many as the last ball's
    size lets share one chunk of :meth:`GridIndex.balls`: big balls gain
    nothing from a batch, and a skipped seed's ball is wasted work.
    """
    index = index or GridIndex(cloud.points, r_super)
    pts = cloud.points
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pts))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    uncovered = np.ones(len(pts), dtype=bool)  # by rank in ``order``
    seed_indices: list[int] = []
    positions: list[np.ndarray] = []
    batch_size = COVER_BATCH
    k = 0
    while uncovered[k]:
        batch = [k]  # ranks of the next uncovered seeds
        while len(batch) < batch_size and batch[-1] + 1 < len(order):
            nxt = batch[-1] + 1
            nxt += int(np.argmax(uncovered[nxt:]))
            if not uncovered[nxt]:
                break
            batch.append(nxt)
        seeds = order[batch]
        for r, idx, members in zip(batch, seeds.tolist(),
                                   index.balls(pts[seeds])):
            if not uncovered[r]:
                continue
            uncovered[rank[members]] = False
            seed_indices.append(idx)
            positions.append(
                coordinate_rows(np.take(pts, members, axis=0))[1])
        batch_size = max(1, min(COVER_BATCH, BALL_CHUNK // len(members)))
        # Every seed of the batch is covered now; k stays put once no
        # point is left.
        k = batch[-1]
        k += int(np.argmax(uncovered[k:]))
    return seed_indices, np.asarray(positions)


def build_graph(cloud: PointCloud, r_super: float, seed: int,
                index: GridIndex | None = None) -> SuperpointGraph:
    """The superpoints of :func:`build_superpoints`, joined by an edge
    wherever two lie within 2*r_super (inclusive) of each other."""
    _, positions = build_superpoints(cloud, r_super, seed, index)
    return SuperpointGraph(positions,
                           GridIndex(positions, 2.0 * r_super).pairs())


def graph_to_dict(graph: SuperpointGraph) -> dict:
    return {"positions": graph.positions.tolist(),
            "edges": graph.edges.tolist()}


def graph_from_dict(doc: dict) -> SuperpointGraph:
    """The graph of a :func:`graph_to_dict` document; raises
    CloudFormatError unless positions are finite 3-vectors and edges are
    int pairs 0 <= i < j < n in strictly increasing order."""
    positions = doc["positions"]
    if not all(map(is_point, positions)):
        raise CloudFormatError("graph JSON positions must be finite 3-vectors")
    edges = [tuple(e) for e in doc["edges"]]
    # Ordered pairs in ascending rows also rule out duplicates.
    if not all(len(e) == 2 and is_int(e[0]) and is_int(e[1])
               and 0 <= e[0] < e[1] < len(positions) for e in edges) or any(
                   a >= b for a, b in zip(edges, edges[1:])):
        raise CloudFormatError("graph JSON edges must be int pairs i < j of "
                               "position rows in strictly increasing order")
    return SuperpointGraph(positions, edges)
