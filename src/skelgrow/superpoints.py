"""Superpoint cover of the point cloud and the dense candidate-edge set."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import CloudFormatError
from .cloud import PointCloud


@dataclass(frozen=True)
class Superpoint:
    """Mean of the cloud points within r_super of the covering seed point."""

    id: int
    position: np.ndarray  # (3,) float64
    member_indices: np.ndarray  # indices into the cloud
    seed_index: int


@dataclass
class SuperpointGraph:
    """Superpoint nodes plus undirected candidate edges (i < j)."""

    nodes: list[Superpoint]
    edges: np.ndarray  # (m, 2) int64, i < j
    lengths: np.ndarray  # (m,) float64
    positions: np.ndarray = field(init=False)  # (n, 3) float64
    _edge_index: dict = field(init=False, repr=False)
    _adjacency: list = field(init=False, repr=False)

    def __post_init__(self):
        self.positions = np.asarray(
            [sp.position for sp in self.nodes], dtype=np.float64
        ).reshape(-1, 3)
        self._edge_index = {
            (int(i), int(j)): k for k, (i, j) in enumerate(self.edges)}
        adjacency = [[] for _ in self.nodes]
        for k, (i, j) in enumerate(self.edges):
            adjacency[int(i)].append((int(j), k))
            adjacency[int(j)].append((int(i), k))
        self._adjacency = [tuple(a) for a in adjacency]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_id(self, i: int, j: int) -> int:
        """Edge id for an unordered node pair."""
        key = (i, j) if i < j else (j, i)
        return self._edge_index[key]

    def has_edge(self, i: int, j: int) -> bool:
        key = (i, j) if i < j else (j, i)
        return key in self._edge_index

    def neighbors(self, i: int) -> tuple:
        """Tuple of (neighbor node id, edge id)."""
        return self._adjacency[i]


def build_superpoints(cloud: PointCloud, r_super: float,
                      seed: int) -> list[Superpoint]:
    """Cover the cloud with spheres of radius r_super around random
    uncovered seed points; each sphere's mean becomes a superpoint.

    Walking a single upfront permutation and skipping already-covered
    points draws each seed uniformly from the remaining uncovered set
    (the relative order of uncovered points stays a uniform permutation).
    """
    if len(cloud) == 0:
        raise ValueError("cannot build superpoints over an empty cloud")
    if r_super <= 0:
        raise ValueError("r_super must be > 0")
    pts = cloud.points.astype(np.float64)
    tree = cKDTree(pts)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pts))
    covered = np.zeros(len(pts), dtype=bool)
    out: list[Superpoint] = []
    for idx in order:
        if covered[idx]:
            continue
        members = np.asarray(
            sorted(tree.query_ball_point(pts[idx], r_super)), dtype=np.int64)
        covered[members] = True
        out.append(Superpoint(
            id=len(out),
            position=pts[members].mean(axis=0),
            member_indices=members,
            seed_index=int(idx),
        ))
    return out


def build_dense_edges(nodes: list[Superpoint],
                      r_super: float) -> tuple[np.ndarray, np.ndarray]:
    """All node pairs within 2*r_super (inclusive), each once with i < j.

    Returns (edges, lengths).
    """
    if len(nodes) < 2:
        raise ValueError("need at least 2 superpoints for dense edges")
    positions = np.asarray([sp.position for sp in nodes], dtype=np.float64)
    tree = cKDTree(positions)
    pairs = sorted(tree.query_pairs(2.0 * r_super))
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(edges):
        lengths = np.linalg.norm(
            positions[edges[:, 0]] - positions[edges[:, 1]], axis=1)
    else:
        lengths = np.zeros(0, dtype=np.float64)
    return edges, lengths


def build_graph(cloud: PointCloud, r_super: float, seed: int) -> SuperpointGraph:
    nodes = build_superpoints(cloud, r_super, seed)
    if len(nodes) >= 2:
        edges, lengths = build_dense_edges(nodes, r_super)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        lengths = np.zeros(0, dtype=np.float64)
    return SuperpointGraph(nodes=nodes, edges=edges, lengths=lengths)


def graph_to_dict(graph: SuperpointGraph) -> dict:
    return {
        "nodes": [{"id": sp.id, "pos": [float(x) for x in sp.position]}
                  for sp in graph.nodes],
        "edges": [[int(i), int(j)] for i, j in graph.edges],
    }


def graph_from_dict(doc: dict) -> SuperpointGraph:
    nodes = []
    for k, n in enumerate(doc["nodes"]):
        if n["id"] != k:
            raise CloudFormatError("graph JSON node ids must be 0..n-1")
        pos = np.asarray(n["pos"], dtype=np.float64)
        nodes.append(Superpoint(id=k, position=pos,
                                member_indices=np.zeros(0, dtype=np.int64),
                                seed_index=-1))
    edges = np.asarray(doc["edges"], dtype=np.int64).reshape(-1, 2)
    positions = np.asarray([n.position for n in nodes]).reshape(-1, 3)
    lengths = (np.linalg.norm(positions[edges[:, 0]] - positions[edges[:, 1]],
                              axis=1)
               if len(edges) else np.zeros(0, dtype=np.float64))
    return SuperpointGraph(nodes=nodes, edges=edges, lengths=lengths)
