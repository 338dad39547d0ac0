"""Near-orthogonal side-branch attachment after the main search."""

import ast

import numpy as np

from conftest import conf_from_dict, make_graph, uniform_conf
from skelgrow.config import SearchConfig
from skelgrow.labels import Label
from skelgrow import side_branches
from skelgrow.side_branches import find_side_branches
from skelgrow.skeleton import LabeledSkeleton

CFG = SearchConfig()


def _leader_skeleton():
    skel = LabeledSkeleton(0)
    skel = skel.attach((0, 1), Label.TRUNK)
    skel = skel.attach((1, 2), Label.LEADER)
    skel = skel.attach((2, 3), Label.LEADER)
    return skel


_CHAIN_POS = [(0.0, 0.0, 0.15 * k) for k in range(4)]
_CHAIN_EDGES = [(0, 1), (1, 2), (2, 3)]


def test_orthogonal_stub_attached_as_side_branch():
    positions = _CHAIN_POS + [(0.15, 0.0, 0.30), (0.30, 0.0, 0.30),
                              (0.45, 0.0, 0.30)]
    edges = _CHAIN_EDGES + [(2, 4), (4, 5), (5, 6)]
    graph = make_graph(positions, edges)
    skel = _leader_skeleton()
    grown = find_side_branches(skel, graph, uniform_conf(graph), CFG)
    new_edges = {e: lab for e, lab in grown.edge_labels.items()
                 if e not in skel.edge_labels}
    assert new_edges == {(2, 4): Label.SIDE_BRANCH,
                         (4, 5): Label.SIDE_BRANCH,
                         (5, 6): Label.SIDE_BRANCH}
    assert grown.topology_violations() == []
    assert grown.label_violations() == []


def test_shallow_stub_not_attached():
    # Stub at ~30 degrees from the leader direction: below the 45-degree
    # attachment window, so it stays off the skeleton.
    positions = _CHAIN_POS + [(0.075, 0.0, 0.43)]
    edges = _CHAIN_EDGES + [(2, 4)]
    graph = make_graph(positions, edges)
    skel = _leader_skeleton()
    grown = find_side_branches(skel, graph, uniform_conf(graph), CFG)
    assert grown == skel


def test_low_confidence_stub_not_attached():
    positions = _CHAIN_POS + [(0.15, 0.0, 0.30)]
    edges = _CHAIN_EDGES + [(2, 4)]
    graph = make_graph(positions, edges)
    conf = conf_from_dict(graph, {e: 1.0 for e in _CHAIN_EDGES}
                          | {(2, 4): 0.2})
    skel = _leader_skeleton()
    grown = find_side_branches(skel, graph, conf, CFG)
    assert grown == skel


def test_no_candidates_returns_skeleton_unchanged():
    graph = make_graph(_CHAIN_POS, _CHAIN_EDGES)
    skel = _leader_skeleton()
    assert find_side_branches(skel, graph, uniform_conf(graph), CFG) == skel


def test_component_attached_once_via_cheapest_entry():
    # Both leader nodes 2 and 3 see the same off-skeleton component; only
    # the cheapest entry edge is used, yielding one branch path.
    positions = _CHAIN_POS + [(0.15, 0.0, 0.30), (0.15, 0.0, 0.45)]
    edges = _CHAIN_EDGES + [(2, 4), (3, 5), (4, 5)]
    graph = make_graph(positions, edges)
    skel = _leader_skeleton()
    grown = find_side_branches(skel, graph, uniform_conf(graph), CFG)
    new_edges = {e for e in grown.edge_labels if e not in skel.edge_labels}
    assert new_edges == {(2, 4), (4, 5)}
    assert all(grown.label_of(e) is Label.SIDE_BRANCH for e in new_edges)
    assert grown.topology_violations() == []



def test_post_processing_does_not_import_the_search():
    """Side branches take their geometry from the graph and ``geometry``,
    not from the search's tables."""
    tree = ast.parse(open(side_branches.__file__).read())
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    assert "geometry" in modules
    assert not {"search", "skelgrow.search"} & modules
