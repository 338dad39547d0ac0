"""Tip detection via the confidence-weighted spanning forest, and base
resolution."""

import itertools

import numpy as np
import pytest

from conftest import conf_from_dict, make_graph, uniform_conf
from skelgrow.config import SearchConfig
from skelgrow.seeds import (SeedSet, find_tips, minimum_spanning_forest,
                            resolve_base)
from skelgrow.superpoints import build_graph
from skelgrow.synth import SynthSpec, generate

CFG = SearchConfig()


def test_seed_set_invariants():
    SeedSet(tips=(1, 2), base=0)
    with pytest.raises(ValueError):
        SeedSet(tips=(1, 1), base=0)
    with pytest.raises(ValueError):
        SeedSet(tips=(0, 1), base=0)


def test_single_vertical_chain_one_tip(chain_graph):
    tips = find_tips(chain_graph, uniform_conf(chain_graph), CFG)
    assert tips == [4]


def test_two_vertical_chains_two_tips():
    positions = ([(0.0, 0.0, 0.15 * k) for k in range(5)]
                 + [(2.0, 0.0, 0.15 * k) for k in range(5)])
    edges = [(k, k + 1) for k in range(4)] + [(5 + k, 6 + k) for k in range(4)]
    graph = make_graph(positions, edges)
    tips = find_tips(graph, uniform_conf(graph), CFG)
    assert tips == [4, 9]


def test_low_confidence_edges_excluded():
    graph = make_graph([(0.0, 0.0, 0.15 * k) for k in range(5)],
                       [(k, k + 1) for k in range(4)])
    conf = conf_from_dict(graph, {(k, k + 1): 0.1 for k in range(4)})
    assert find_tips(graph, conf, CFG) == []


def test_horizontal_edges_filtered():
    # A horizontal run at the top of the Z band yields no tips: every
    # surviving forest edge must be sufficiently vertical.
    positions = [(0.1 * k, 0.0, 1.0) for k in range(5)] + [(0.0, 0.0, 0.0)]
    edges = [(k, k + 1) for k in range(4)]
    graph = make_graph(positions, edges)
    assert find_tips(graph, uniform_conf(graph), CFG) == []


def _forest_weight(graph, conf, alpha, edge_ids):
    return sum(float(graph.lengths[k]) * (1.0 - conf[k]) for k in edge_ids)


def _brute_force_forest_weight(graph, conf, alpha):
    """Minimum total weight over all maximal acyclic subsets of the
    confidence-filtered edges (exhaustive; for tiny graphs)."""
    kept = [k for k in range(graph.num_edges) if conf[k] >= alpha]

    def components(edge_ids):
        parent = list(range(graph.num_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for k in edge_ids:
            i, j = (int(v) for v in graph.edges[k])
            parent[find(i)] = find(j)
        return frozenset(find(n) for n in range(graph.num_nodes))

    full = components(kept)
    best = None
    for r in range(len(kept) + 1):
        for subset in itertools.combinations(kept, r):
            if len(components(subset)) != len(full):
                continue
            # Acyclic spanning subset: edges = nodes - components.
            if len(subset) != graph.num_nodes - len(full):
                continue
            w = _forest_weight(graph, conf, alpha, subset)
            if best is None or w < best:
                best = w
    return best


def test_forest_weight_matches_brute_force():
    rng = np.random.default_rng(13)
    for trial in range(5):
        positions = rng.uniform(0, 0.4, size=(6, 3))
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
                 if np.linalg.norm(positions[i] - positions[j]) <= 0.2]
        if len(edges) < 3:
            continue
        graph = make_graph(positions, edges)
        conf = conf_from_dict(
            graph,
            {e: rng.uniform(0.2, 1.0) for e in edges})
        forest = minimum_spanning_forest(graph, conf, CFG)
        got = _forest_weight(graph, conf, CFG.alpha_conf, forest)
        expected = _brute_force_forest_weight(graph, conf, CFG.alpha_conf)
        assert got == pytest.approx(expected, rel=1e-9)


def test_tips_deterministic(chain_graph):
    conf = uniform_conf(chain_graph)
    assert find_tips(chain_graph, conf, CFG) == find_tips(
        chain_graph, conf, CFG)


def test_synthetic_tree_tip_per_leader():
    spec = SynthSpec(n_leaders=8, leader_spacing=0.35, leader_height=2.0,
                     seed=1)
    cloud, truth = generate(spec)
    graph = build_graph(cloud, CFG.r_super, 1)
    conf = truth.oracle_confidences(graph)
    tips = find_tips(graph, conf, CFG)
    assert len(tips) == 8
    tops = [b.p1 for b in truth.branches if str(b.label) == "Leader"]
    for top in tops:
        dists = np.linalg.norm(graph.positions[tips] - top, axis=1)
        assert dists.min() <= 2 * CFG.r_super


def test_resolve_base_variants(chain_graph):
    assert resolve_base(chain_graph, 3) == 3
    assert resolve_base(chain_graph, "lowest-z") == 0
    assert resolve_base(chain_graph, (0.0, 0.0, 0.29)) == 2
    with pytest.raises(ValueError):
        resolve_base(chain_graph, 99)
    with pytest.raises(ValueError):
        resolve_base(chain_graph, (1.0, 2.0))


def test_resolve_base_synthetic_near_trunk_bottom():
    spec = SynthSpec(n_leaders=4, leader_height=1.0, seed=2)
    cloud, truth = generate(spec)
    graph = build_graph(cloud, CFG.r_super, 2)
    base = resolve_base(graph, "lowest-z")
    assert np.linalg.norm(graph.positions[base]
                          - truth.branches[0].p0) <= 2 * CFG.r_super
