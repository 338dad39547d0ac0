"""Tip candidates via a confidence-weighted minimum spanning forest, and
base-node resolution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SearchConfig
from .edge_scoring import ConfidenceMap
from .geometry import edge_cost, grow_angle
from .superpoints import SuperpointGraph, UnionFind


@dataclass(frozen=True)
class SeedSet:
    tips: tuple[int, ...]
    base: int

    def __post_init__(self):
        if len(set(self.tips)) != len(self.tips):
            raise ValueError("tips must be distinct")
        if self.base in self.tips:
            raise ValueError("base cannot be a tip")


def minimum_spanning_forest(graph: SuperpointGraph, conf: ConfidenceMap,
                            cfg: SearchConfig) -> list[int]:
    """Kruskal forest over edges with conf >= alpha_conf, weighted by
    the path-start edge cost Len(e) * (1 - Conf(e)). Ties broken by the
    lower-id node pair."""
    candidates = []
    for k, (i, j) in enumerate(graph.edges):
        c = conf[k]
        if c < cfg.alpha_conf:
            continue
        w = edge_cost(None, None, float(graph.lengths[k]), c, cfg)
        candidates.append((w, int(i), int(j), k))
    candidates.sort()
    uf = UnionFind()
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
    forest = minimum_spanning_forest(graph, conf, cfg)
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
    roots = UnionFind(edges=graph.edges[kept].tolist()).roots()
    best: dict[int, int] = {}
    for node in sorted(roots):
        cur = best.get(roots[node])
        if cur is None or z[node] > z[cur]:
            best[roots[node]] = node
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
