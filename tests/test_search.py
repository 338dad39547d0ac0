"""Path priors, eligibility, potentials, resampling, and the growth loop."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import conf_from_dict, make_graph, uniform_conf
from skelgrow.config import SearchConfig
from skelgrow.errors import NoTipsError, SearchStalledError
from skelgrow.geometry import edge_cost, reward, turn_penalty
from skelgrow.labels import Label, STRUCTURAL_LABELS
from skelgrow.search import (PathPrior, SearchContext,
                             eligible_pairs, grow_candidate,
                             make_root_candidate, potential, rank, resample,
                             run_search, weight)
from skelgrow.seeds import SeedSet, find_tips, resolve_base
from skelgrow.superpoints import build_graph
from skelgrow.synth import SynthSpec, generate
from skelgrow.evaluation import edit_distance

CFG = SearchConfig()


# -- edge cost -------------------------------------------------------------

def test_edge_cost_perfect_collinear():
    assert edge_cost((1, 0, 0), (1, 0, 0), 0.2, 1.0, CFG) == 0.0


def test_edge_cost_pure_length_term():
    assert edge_cost((1, 0, 0), None, 0.15, 0.0, CFG) == pytest.approx(0.15)
    assert edge_cost((1, 0, 0), (1, 0, 0), 0.15, 0.0, CFG) == pytest.approx(
        0.15)


def test_edge_cost_composite():
    expected = 0.1 + 0.5 * (math.pi / 4) ** 2
    got = edge_cost((0, 0, 1), (1, 0, 0), 0.2, 0.5, CFG)
    assert got == pytest.approx(expected, rel=1e-9)


# -- rank / weight ---------------------------------------------------------

def test_rank_worked_example():
    got = rank([4, 5, 5, 3, 7])
    np.testing.assert_allclose(got, [2 / 5, 7 / 10, 7 / 10, 1 / 5, 1.0])


def test_rank_singleton_and_ties():
    np.testing.assert_allclose(rank([3.5]), [1.0])
    np.testing.assert_allclose(rank([2, 2, 2, 2]), [5 / 8] * 4)
    with pytest.raises(ValueError):
        rank([])


def test_rank_sorted_distinct_is_uniform_sequence():
    n = 6
    np.testing.assert_allclose(rank(list(range(n))),
                               [(k + 1) / n for k in range(n)])


def test_weight_is_product():
    assert weight(1.0, 1.0) == 1.0
    assert weight(0.5, 0.4) == pytest.approx(0.2)


def test_weight_table_small_case():
    skel_ranks = rank([1.0, 2.0])
    pair_ranks = rank([0.3, 0.2, 0.1])
    table = [weight(s, p) for s in skel_ranks for p in pair_ranks]
    expected = [s * p for s in (0.5, 1.0) for p in (1.0, 2 / 3, 1 / 3)]
    np.testing.assert_allclose(table, expected)


# -- resample --------------------------------------------------------------

def test_resample_single_candidate_cap_and_fill():
    rng = np.random.default_rng(0)
    chosen = resample([1.0], K=5, k_max_rep=3, rng=rng)
    assert chosen == [0, 0, 0, 0, 0]  # 3 capped draws + fill cycling


def test_resample_zero_weight_never_chosen():
    rng = np.random.default_rng(1)
    for _ in range(50):
        chosen = resample([1.0, 0.0], K=3, k_max_rep=10, rng=rng)
        assert 1 not in chosen


def test_resample_empty_stalls():
    with pytest.raises(SearchStalledError):
        resample([], K=3, k_max_rep=3, rng=np.random.default_rng(0))


def test_resample_uniform_matches_multinomial():
    n = 8
    counts = np.zeros(n)
    for seed in range(4000):
        rng = np.random.default_rng(seed)
        # Single draw per call isolates the multinomial behavior from the
        # per-call repetition cap.
        idx = resample([1.0] * n, K=1, k_max_rep=3, rng=rng)[0]
        counts[idx] += 1
    _, p = chisquare(counts)
    assert p > 1e-3


def test_resample_respects_cap_until_fill():
    rng = np.random.default_rng(2)
    chosen = resample([0.5, 0.5], K=10, k_max_rep=3, rng=rng)
    # 6 capped draws, then fill cycles both entries twice.
    assert sorted(chosen) == [0] * 5 + [1] * 5


# -- path priors -----------------------------------------------------------

def test_prior_straight_chain_zero_cost(chain_graph):
    ctx = SearchContext(chain_graph, uniform_conf(chain_graph), CFG)
    prior = PathPrior(ctx, tip=4)
    for k in range(4):
        state = (k, k + 1)
        assert state in prior.cost
        assert prior.cost[state] == pytest.approx(0.0, abs=1e-12)
        path, cur = [], state
        while cur is not None:
            path.append(cur)
            cur = prior.succ[cur]
        assert path == [(j, j + 1) for j in range(k, 4)]
    assert prior.path_nodes((0, 1)) == frozenset({1, 2, 3, 4})


def test_prior_isolated_tip_unreachable():
    graph = make_graph([(0, 0, 0), (0.1, 0, 0), (5, 5, 5)], [(0, 1)])
    ctx = SearchContext(graph, uniform_conf(graph), CFG)
    prior = PathPrior(ctx, tip=2)
    assert (0, 1) not in prior.cost
    assert (1, 0) not in prior.cost


def _brute_force_costs(ctx, tip):
    """Exhaustive minimum costs to the tip over every directed edge
    sequence without repeated directed edges (trails).  The cost of a
    sequence is the sum of each edge's confidence-weighted length plus the
    turn penalty at every interior node."""
    states = sorted(ctx.len_noconf)
    out_states = {}
    for (u, v) in states:
        out_states.setdefault(u, []).append((u, v))
    full = {}
    for start in states:
        minimum = math.inf
        stack = [(start, frozenset({start}), 0.0)]
        while stack:
            state, used, cost = stack.pop()
            if state[1] == tip:
                minimum = min(minimum, cost + ctx.len_noconf[state])
                continue
            for nxt in out_states.get(state[1], ()):
                if nxt in used:
                    continue
                step = (ctx.len_noconf[state]
                        + ctx.turn_pen_none(state[0], state[1], nxt[1]))
                stack.append((nxt, used | {nxt}, cost + step))
        if math.isfinite(minimum):
            full[start] = minimum
    return full


def _sparse_instance(rng):
    """Random geometric graph kept sparse enough for trail enumeration."""
    while True:
        n = int(rng.integers(4, 9))
        positions = rng.uniform(0, 0.6, size=(n, 3))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if np.linalg.norm(positions[i] - positions[j]) <= 0.25]
        if 1 <= len(edges) <= n + 2:
            return positions, edges


def test_prior_matches_brute_force_small_instances():
    rng = np.random.default_rng(21)
    for trial in range(20):
        positions, edges = _sparse_instance(rng)
        graph = make_graph(positions, edges)
        conf = conf_from_dict(graph,
                              {e: rng.uniform(0, 1) for e in edges})
        ctx = SearchContext(graph, conf, CFG)
        tip = int(rng.integers(len(positions)))
        prior = PathPrior(ctx, tip)
        expected = _brute_force_costs(ctx, tip)
        assert set(prior.cost) == set(expected)
        for state, cost in expected.items():
            assert prior.cost[state] == pytest.approx(cost, abs=1e-9)


def test_prior_dropped_penalty_rule():
    prior = object.__new__(PathPrior)
    # Penalties {0.3, 0.1}: (sum, sum - top1, sum - top1 - top2).
    prior.pen_minus = {("s",): (0.4, 0.1, 0.0)}
    assert prior.dropped_pen(("s",), Label.LEADER) == pytest.approx(0.4)
    assert prior.dropped_pen(("s",), Label.SUPPORT) == pytest.approx(0.1)
    assert prior.dropped_pen(("s",), Label.TRUNK) == pytest.approx(0.0)


# -- eligibility and potential --------------------------------------------

def _t_fixture():
    """4-node path: base 0 at bottom, tip 3 on top."""
    positions = [(0, 0, 0), (0, 0, 0.15), (0, 0, 0.30), (0, 0, 0.45)]
    graph = make_graph(positions, [(0, 1), (1, 2), (2, 3)])
    conf = uniform_conf(graph)
    ctx = SearchContext(graph, conf, CFG)
    return graph, conf, ctx


def test_eligible_empty_skeleton_trunk_only():
    graph, conf, ctx = _t_fixture()
    prior = PathPrior(ctx, tip=3)
    root = make_root_candidate(0, ctx)
    pairs = eligible_pairs(root, prior, ctx)
    assert pairs == [((0, 1), Label.TRUNK)]


def test_eligible_after_leader_only_leader():
    graph, conf, ctx = _t_fixture()
    prior = PathPrior(ctx, tip=3)
    root = make_root_candidate(0, ctx)
    cand = root
    for state, lab in (((0, 1), Label.TRUNK), ((1, 2), Label.LEADER)):
        cand = grow_candidate(cand, state, lab,
                              cand.score + ctx.reward(state, lab, None, None),
                              ctx)
    pairs = eligible_pairs(cand, prior, ctx)
    assert pairs == [((2, 3), Label.LEADER)]


def test_eligible_tip_already_reached_empty():
    graph, conf, ctx = _t_fixture()
    prior = PathPrior(ctx, tip=3)
    cand = make_root_candidate(0, ctx)
    for k in range(3):
        state = (k, k + 1)
        cand = grow_candidate(cand, state, Label.TRUNK, 0.0, ctx)
    assert eligible_pairs(cand, prior, ctx) == []


def _synthetic_context():
    cloud, truth = generate(SynthSpec(n_leaders=3, seed=2))
    graph = build_graph(cloud, CFG.r_super, 2)
    conf = truth.oracle_confidences(graph)
    return graph, conf, SearchContext(graph, conf, CFG)


def test_context_tables_match_geometry():
    """The search's cached turn penalties and rewards equal the geometry
    formulas exactly, for every directed edge and turn of a tree."""
    graph, conf, ctx = _synthetic_context()
    edge_data = {}
    for k, (i, j) in enumerate(graph.edges):
        edge_data[(i, j)] = edge_data[(j, i)] = (float(graph.lengths[k]),
                                                 conf[k])
    for (u, v), vec in ctx.vec.items():
        length, c = edge_data[(u, v)]
        for lab in STRUCTURAL_LABELS:
            assert ctx.reward((u, v), lab, None, None) == reward(
                vec, length, c, lab, None, None, CFG)
        for w, _eid in ctx.adj[u]:
            if w == v:
                continue
            pvec = ctx.vec[(w, u)]
            assert ctx.turn_pen_none(w, u, v) == turn_penalty(
                vec, pvec, Label.NONE, Label.NONE, CFG)
            for lab in STRUCTURAL_LABELS:
                for plab in STRUCTURAL_LABELS:
                    assert ctx.reward((u, v), lab, w, plab) == reward(
                        vec, length, c, lab, pvec, plab, CFG)


def test_eligible_labels_match_check_all():
    """Along random lineages on a synthetic tree, every frontier state that
    passes the prior's reachability and path filters gets exactly the
    labels ``check_all`` accepts (Trunk alone for the first edge)."""
    graph, conf, ctx = _synthetic_context()
    base = resolve_base(graph, "lowest-z")
    tips = frozenset(t for t in find_tips(graph, conf, CFG) if t != base)
    priors = [PathPrior(ctx, t) for t in sorted(tips)]
    rng = np.random.default_rng(11)
    checked = 0
    for _lineage in range(30):
        cand = make_root_candidate(base, ctx)
        for _step in range(80):
            prior = priors[int(rng.integers(len(priors)))]
            pairs = eligible_pairs(cand, prior, ctx)
            skel = cand.skeleton
            for state in sorted(cand.frontier):
                if state not in prior.cost or not prior.path_nodes(
                        state).isdisjoint(cand.nodes):
                    continue
                if skel.num_edges == 0:
                    expected = [Label.TRUNK]
                else:
                    expected = [lab for lab in STRUCTURAL_LABELS
                                if skel.check_all(state, lab) is None]
                assert [lab for s, lab in pairs if s == state] == expected
                checked += 1
            if pairs:
                state, lab = pairs[int(rng.integers(len(pairs)))]
                cand = grow_candidate(cand, state, lab, 0.0, ctx)
    assert checked > 1000


def test_potential_no_penalties_is_score_plus_esum():
    graph, conf, ctx = _t_fixture()
    prior = PathPrior(ctx, tip=3)
    new_score = ctx.reward((0, 1), Label.TRUNK, None, None)
    got = potential(prior, ((0, 1), Label.TRUNK), new_score)
    assert got == pytest.approx(new_score + prior.esum[(0, 1)], rel=1e-9)
    # Straight chain: no turn penalties, so all labels agree.
    assert potential(prior, ((0, 1), Label.LEADER),
                     new_score) == pytest.approx(got, rel=1e-9)


def test_potential_unreachable_rejected():
    graph = make_graph([(0, 0, 0), (0.1, 0, 0), (5, 5, 5)], [(0, 1)])
    ctx = SearchContext(graph, uniform_conf(graph), CFG)
    prior = PathPrior(ctx, tip=2)
    with pytest.raises(ValueError):
        potential(prior, ((0, 1), Label.TRUNK), 0.0)


# -- run_search ------------------------------------------------------------

def _recomputed_score(skel, ctx):
    total = 0.0
    for (p, c), lab in skel.edge_labels.items():
        pred = skel.parent_edge(p)
        pred_label = None if pred is None else skel.label_of(pred)
        pred_tail = None if pred is None else pred[0]
        total += ctx.reward((p, c), lab, pred_tail, pred_label)
    return total


def test_run_search_linear_chain(chain_graph):
    conf = uniform_conf(chain_graph)
    cfg = SearchConfig(K=10, seed=0)
    skel, info = run_search(chain_graph, conf,
                            SeedSet(tips=(4,), base=0), cfg)
    assert sorted(skel.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    orders = [skel.label_of((k, k + 1)).order for k in range(4)]
    assert orders == sorted(orders)
    assert skel.topology_violations() == []
    assert skel.label_violations() == []
    assert info["reached_tips"] == [4]
    ctx = SearchContext(chain_graph, conf, cfg)
    assert info["best_score"] == pytest.approx(_recomputed_score(skel, ctx),
                                               rel=1e-9)


def test_run_search_no_tips(chain_graph):
    with pytest.raises(NoTipsError):
        run_search(chain_graph, uniform_conf(chain_graph),
                   SeedSet(tips=(), base=0), CFG)


def test_run_search_deterministic(chain_graph):
    conf = uniform_conf(chain_graph)
    cfg = SearchConfig(K=10, seed=5)
    a, _ = run_search(chain_graph, conf, SeedSet(tips=(4,), base=0), cfg)
    b, _ = run_search(chain_graph, conf, SeedSet(tips=(4,), base=0), cfg)
    assert a == b


def test_run_search_best_score_monotone(chain_graph):
    conf = uniform_conf(chain_graph)
    _, info = run_search(chain_graph, conf, SeedSet(tips=(4,), base=0),
                         SearchConfig(K=10, seed=0))
    hist = info["best_score_history"]
    assert all(a <= b + 1e-12 for a, b in zip(hist, hist[1:]))


def test_run_search_two_leader_tree_exact():
    spec = SynthSpec(n_leaders=2, leader_height=1.0, seed=1)
    cloud, truth = generate(spec)
    graph = build_graph(cloud, CFG.r_super, 1)
    conf = truth.oracle_confidences(graph)
    ref, _ = truth.reference_skeleton(graph)
    cfg = SearchConfig(K=50, seed=1)
    tips = tuple(t for t in find_tips(graph, conf, cfg) if t != ref.base)
    assert len(tips) == 2
    skel, info = run_search(graph, conf,
                            SeedSet(tips=tips, base=ref.base), cfg)
    # The tree's topology is recovered exactly; at the support-to-leader
    # junction the first leader edge may legitimately carry either label,
    # so allow at most that one relabel.
    assert set(skel.edges()) == set(ref.edges())
    distance, ratio = edit_distance(skel, ref)
    assert distance <= 1
    labels = set(skel.edge_labels.values())
    assert labels == {Label.TRUNK, Label.SUPPORT, Label.LEADER}
    ctx = SearchContext(graph, conf, cfg)
    assert info["best_score"] == pytest.approx(_recomputed_score(skel, ctx),
                                               rel=1e-9)
