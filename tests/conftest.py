"""Shared fixtures and hand-built graph helpers."""

import numpy as np
import pytest

from skelgrow.edge_scoring import ConfidenceMap
from skelgrow.superpoints import SuperpointGraph


def make_graph(positions, edges):
    """SuperpointGraph over explicit node positions and an explicit
    undirected edge list (pairs of node ids)."""
    return SuperpointGraph(
        positions, sorted((min(i, j), max(i, j)) for i, j in edges))


def edge_id(graph, i, j):
    """Id of the edge between nodes i and j, read from ``neighbors``."""
    return next(k for w, k in graph.neighbors(i) if w == j)


def uniform_conf(graph, value=1.0):
    return ConfidenceMap(values=np.full(graph.num_edges, float(value)))


def conf_from_dict(graph, table, default=0.0):
    """Confidences from {(i, j): score} with unordered pair keys."""
    values = np.full(graph.num_edges, float(default))
    for (i, j), c in table.items():
        values[edge_id(graph, i, j)] = c
    return ConfidenceMap(values=values)


def recomputed_score(skel, ctx):
    """The search's score of a skeleton: the sum of its edges' rewards
    under a :class:`SearchContext`."""
    total = 0.0
    for (p, c), lab in skel.edge_labels.items():
        pred_tail, pred_label = skel.parent_of(p) or (None, None)
        total += ctx.reward((p, c), lab, pred_tail, pred_label)
    return total


@pytest.fixture
def chain_graph():
    """Vertical 5-node chain, 0 at the bottom, consecutive edges only."""
    positions = [(0.0, 0.0, 0.15 * k) for k in range(5)]
    edges = [(k, k + 1) for k in range(4)]
    return make_graph(positions, edges)
