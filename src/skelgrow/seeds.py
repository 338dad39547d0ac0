"""Tip candidates via a confidence-weighted minimum spanning forest, and
base-node resolution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SearchConfig
from .edge_scoring import ConfidenceMap
from .geometry import grow_angle
from .superpoints import SuperpointGraph


@dataclass(frozen=True)
class SeedSet:
    tips: tuple[int, ...]
    base: int

    def __post_init__(self):
        if len(set(self.tips)) != len(self.tips):
            raise ValueError("tips must be distinct")
        if self.base in self.tips:
            raise ValueError("base cannot be a tip")


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def minimum_spanning_forest(graph: SuperpointGraph,
                            conf: ConfidenceMap,
                            alpha_conf: float) -> list[int]:
    """Kruskal forest over edges with conf >= alpha_conf, weighted by
    Len(e) * (1 - Conf(e)). Ties broken by the lower-id node pair."""
    candidates = []
    for k, (i, j) in enumerate(graph.edges):
        c = conf[k]
        if c < alpha_conf:
            continue
        w = float(graph.lengths[k]) * (1.0 - c)
        candidates.append((w, int(i), int(j), k))
    candidates.sort()
    uf = _UnionFind(graph.num_nodes)
    forest = []
    for w, i, j, k in candidates:
        if uf.union(i, j):
            forest.append(k)
    return forest


def find_tips(graph: SuperpointGraph, conf: ConfidenceMap,
              cfg: SearchConfig) -> list[int]:
    """Per-component maximum-Z nodes of the filtered spanning forest.

    Forest edges that are not sufficiently vertical (growth angle < pi/4)
    or that touch the bottom of the tree (endpoint Z below the alpha_tip
    band over all superpoints) are removed before taking components.
    """
    forest = minimum_spanning_forest(graph, conf, cfg.alpha_conf)
    if not forest:
        return []
    z = graph.positions[:, 2]
    z_min, z_max = float(z.min()), float(z.max())
    z_thresh = z_max - cfg.alpha_tip * (z_max - z_min)
    kept = []
    for k in forest:
        i, j = (int(v) for v in graph.edges[k])
        if grow_angle(graph.vector(i, j)) < math.pi / 4:
            continue
        if z[i] < z_thresh or z[j] < z_thresh:
            continue
        kept.append(k)
    if not kept:
        return []
    uf = _UnionFind(graph.num_nodes)
    touched = set()
    for k in kept:
        i, j = (int(v) for v in graph.edges[k])
        uf.union(i, j)
        touched.update((i, j))
    best: dict[int, int] = {}
    for node in sorted(touched):
        root = uf.find(node)
        cur = best.get(root)
        if cur is None or z[node] > z[cur]:
            best[root] = node
    return sorted(best.values())


def resolve_base(graph: SuperpointGraph, spec) -> int:
    """Base node from an explicit id, a world point, or the lowest-Z
    heuristic ("lowest-z")."""
    if graph.num_nodes == 0:
        raise ValueError("empty superpoint graph")
    if isinstance(spec, int):
        if not (0 <= spec < graph.num_nodes):
            raise ValueError(f"base node id {spec} out of range")
        return spec
    if spec == "lowest-z":
        return int(np.argmin(graph.positions[:, 2]))
    point = np.asarray(spec, dtype=np.float64)
    if point.shape != (3,):
        raise ValueError(f"base spec must be id, 3D point or 'lowest-z'; "
                         f"got {spec!r}")
    return int(np.argmin(np.linalg.norm(graph.positions - point, axis=1)))
