"""Path priors, eligibility, potentials, resampling, and the growth loop."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare, rankdata

from conftest import (conf_from_dict, make_graph, recomputed_score,
                      uniform_conf)
from label_rules import label_violations
from prior_reference import brute_force_costs
from reward_reference import reward
from skelgrow.cloud import random_downsample
from skelgrow.config import SearchConfig
from skelgrow.edge_scoring import score_all_edges
from skelgrow.errors import NoTipsError, SearchStalledError
from skelgrow.geometry import bend_penalty, edge_cost
from skelgrow.labels import Label, STRUCTURAL_LABELS
from skelgrow import search
from skelgrow.search import (PathPrior, SearchContext, _child_key,
                             eligible_pairs, grow_candidate, lineage_edges,
                             make_root_candidate, rank, resample, run_search,
                             step)
from skelgrow.skeleton import LabeledSkeleton, skeleton_from_edges
from skelgrow.seeds import SeedSet, find_tips, resolve_base
from skelgrow.superpoints import UnionFind, build_graph
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


# -- rank ------------------------------------------------------------------

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


def test_rank_matches_scipy_rankdata_exactly():
    """Bit-identical to scipy's average rank over n, which it replaces."""
    rng = np.random.default_rng(4)
    for trial in range(3000):
        n = int(rng.integers(1, 301))
        if trial % 3 == 0:
            values = rng.normal(size=n)  # distinct
        elif trial % 3 == 1:
            values = rng.integers(0, max(1, n // 4), size=n).astype(float)
        else:  # ties between floats that are not exact fractions
            values = rng.integers(0, 7, size=n) / 3.0 + 0.1
        expected = rankdata(values, method="average") / n
        got = rank(values.tolist())
        assert isinstance(got, list)
        assert got == expected.tolist()


def test_rank_rejects_nan():
    with pytest.raises(ValueError):
        rank([0.5, math.nan, 0.2])
    with pytest.raises(ValueError):
        rank([math.nan])


def test_rank_one_value_matches_scipy_rankdata():
    # A one-value NaN still raises: see test_rank_rejects_nan.
    for value in (0.0, -0.0, 2.5, -1e300, math.inf, -math.inf, 7):
        assert rank([value]) == rankdata([value]).tolist() == [1.0]


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


def _random_weights(rng, n):
    """Positive weights; a third of the sets rounded into ties, as rank
    products often are, and a third with some zeros."""
    w = rng.random(n) + 1e-3
    kind = rng.integers(3)
    if kind == 1:
        w = np.round(w * 8) / 8 + 0.125
    elif kind == 2:
        w[rng.random(n) < 0.3] = 0.0
        w[0] = 1.0
    return w


def _capped_expectations(w, K, k_max_rep):
    """The capped expected counts, by a reference water-filling: the
    largest entries are capped one at a time while the rest's share of the
    slots left puts them at or above the cap."""
    order = np.argsort(-w, kind="stable")
    expected = np.zeros(w.size)
    left = float(K)
    for m, i in enumerate(order):
        rest = order[m:]
        total = w[rest].sum()
        if total > 0 and left * w[i] / total >= k_max_rep:
            expected[i] = k_max_rep
            left -= k_max_rep
            continue
        # Only zero weights left: the slots left spread evenly.
        expected[rest] = (left * w[rest] / total if total > 0
                          else left / rest.size)
        break
    return expected


def test_resample_counts_are_capped_floors_or_ceilings():
    """Exactly K ascending draws, none above the cap, and each entry's
    count the floor or the ceiling of its capped expectation."""
    rng = np.random.default_rng(7)
    for trial in range(600):
        n = int(rng.integers(1, 300))
        w = _random_weights(rng, n)
        K = int(rng.choice([1, 7, 20, 50, 200, 500]))
        k_max_rep = int(rng.choice([1, 2, 3, 5]))
        if n * k_max_rep <= K:
            continue
        chosen = resample(w.tolist(), K, k_max_rep, rng)
        assert len(chosen) == K and chosen == sorted(chosen)
        counts = np.bincount(chosen, minlength=n)
        assert counts.max() <= k_max_rep
        expected = _capped_expectations(w, K, k_max_rep)
        assert expected.sum() == pytest.approx(K)
        assert np.all(counts >= np.floor(expected - 1e-9))
        assert np.all(counts <= np.ceil(expected + 1e-9))


def test_resample_fallback_cycles_by_descending_weight():
    """When every entry fits under the cap, each takes k_max_rep copies
    and the slots left cycle the entries in descending weight order, ties
    by index, without reading the generator."""
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    # 4 entries x 2 copies, then 3 slots: entries 1, 3 and 0.
    chosen = resample([1.0, 3.0, 0.5, 2.0], K=11, k_max_rep=2, rng=rng)
    assert chosen == [0] * 3 + [1] * 3 + [2] * 2 + [3] * 3
    # 2 entries x 1 copy, then 5 slots: two rounds, then the tie's first.
    assert resample([1.0, 1.0], K=7, k_max_rep=1, rng=rng) == \
        [0] * 4 + [1] * 3
    assert rng.bit_generator.state == state


def test_resample_same_rng_same_draws():
    for seed in range(20):
        w = _random_weights(np.random.default_rng(seed), 40).tolist()
        a = resample(w, 50, 3, np.random.default_rng((seed, 1)))
        assert a == resample(w, 50, 3, np.random.default_rng((seed, 1)))


class _FixedDraws:
    """A generator stand-in whose uniform draws are given in advance."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_resample_draw_on_a_cdf_step_takes_the_next_index():
    # A point that falls on a boundary of the cumulative expected counts
    # belongs to the entry after it, so a zero-weight entry gets none.
    chosen = resample([0.0, 1.0, 1.0, 0.0, 2.0], K=3, k_max_rep=5,
                      rng=_FixedDraws([0.0]))
    assert chosen == [1, 2, 4]


def test_resample_reads_one_uniform_unless_every_slot_is_filled():
    """The generator advances by one uniform, or by none when
    ``len(weights) * k_max_rep <= K`` and the fallback fills every slot."""
    cases = [([1.0, 0.0, 2.0], 10, 2), ([0.5] * 5, 3, 2), ([0.0, 1.0], 1, 4),
             ([3.0, 1.0, 0.0, 1.0], 200, 5), ([1.0] * 40, 200, 5),
             ([1.0] * 40, 200, 6)]
    for seed, (weights, K, k_max_rep) in enumerate(cases):
        rng = np.random.default_rng(seed)
        resample(weights, K, k_max_rep, rng)
        ref = np.random.default_rng(seed)
        if len(weights) * k_max_rep > K:
            ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state


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
    assert prior.path_mask[(0, 1)] == 0b11110  # nodes 1, 2, 3 and 4


def test_prior_isolated_tip_unreachable():
    graph = make_graph([(0, 0, 0), (0.1, 0, 0), (5, 5, 5)], [(0, 1)])
    ctx = SearchContext(graph, uniform_conf(graph), CFG)
    prior = PathPrior(ctx, tip=2)
    assert (0, 1) not in prior.cost
    assert (1, 0) not in prior.cost


def test_priors_cover_exactly_the_base_component():
    """On the README's default tree (``synth --seed 0``, heuristic scores),
    the prior of each tip in the base's component holds every directed
    edge of that component, and the prior of each tip outside it holds
    none, so ``eligible_pairs`` needs no default on its path-mask lookup."""
    cloud = random_downsample(generate(SynthSpec(seed=0))[0], 50000, 0)
    graph = build_graph(cloud, CFG.r_super, 0)
    conf = score_all_edges(cloud, graph, ("heuristic",), CFG)
    base = resolve_base(graph, "lowest-z")
    tips = [t for t in find_tips(graph, conf, CFG) if t != base]
    roots = UnionFind(range(graph.num_nodes), graph.edges.tolist()).roots()
    component = {(u, v) for i, j in graph.edges.tolist()
                 for u, v in ((i, j), (j, i)) if roots[u] == roots[base]}
    ctx = SearchContext(graph, conf, CFG)
    outside = []
    for tip in tips:
        states = PathPrior(ctx, tip).path_mask.keys()
        if roots[tip] == roots[base]:
            assert states == component
        else:
            assert states.isdisjoint(component)
            outside.append(tip)
    assert len(tips) == 9 and outside == [86, 109, 126]
    assert len({n for n in roots if roots[n] == roots[base]}) == 140


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
        expected = brute_force_costs(ctx, tip)
        assert set(prior.cost) == set(expected)
        for state, cost in expected.items():
            assert prior.cost[state] == pytest.approx(cost, abs=1e-9)
        # Each path mask holds the head of every state on the succ chain.
        assert set(prior.path_mask) == set(prior.cost)
        for state in prior.cost:
            mask, cur = 0, state
            while cur is not None:
                mask |= 1 << cur[1]
                cur = prior.succ[cur]
            assert prior.path_mask[state] == mask


def test_prior_dropped_penalty_rule():
    """The per-label turn-penalty table of a path with two known turns: a
    label of order o drops the 2 - o largest, so Leader keeps the sum,
    Support drops the larger turn and Trunk drops both."""
    # 0 -> 1 -> 2 -> 3 with a 60 degree turn at node 1 and a 90 degree
    # turn at node 2; the tip is node 3. Base 4 leads straight into 0.
    s3 = math.sqrt(3) / 2
    positions = [(0, 0, 0), (0.1, 0, 0), (0.1 + 0.05, 0.1 * s3, 0),
                 (0.15, 0.1 * s3, 0.1), (-0.1, 0, 0)]
    graph = make_graph(positions, [(0, 1), (1, 2), (2, 3), (4, 0)])
    ctx = SearchContext(graph, uniform_conf(graph), CFG)
    prior = PathPrior(ctx, tip=3)
    big = CFG.c_turn * (math.pi / 2 - CFG.theta_turn_min) ** CFG.p_turn
    small = CFG.c_turn * (math.pi / 3 - CFG.theta_turn_min) ** CFG.p_turn
    assert ctx.turn_pen_none(1, 2, 3) == pytest.approx(big)
    assert ctx.turn_pen_none(0, 1, 2) == pytest.approx(small)
    table = prior.turn_pen[(0, 1)]
    assert table[Label.LEADER.order] == pytest.approx(big + small)
    assert table[Label.SUPPORT.order] == pytest.approx(small)
    # Rounding leaves sum - t1 - t2 near 0; the clamp keeps it >= 0.
    assert 0.0 <= table[Label.TRUNK.order] <= 1e-12
    # One turn ahead: Support already drops it; a turnless state keeps 0.
    assert prior.turn_pen[(1, 2)] == pytest.approx((0.0, 0.0, big))
    assert prior.turn_pen[(2, 3)] == (0.0, 0.0, 0.0)
    # Each proposal's potential subtracts its label's entry.
    root = make_root_candidate(4, ctx, ())
    cand = grow_candidate(root, (4, 0), Label.TRUNK, 0.5,
                          _child_key(root.key, (4, 0), Label.TRUNK), ctx)
    pairs = eligible_pairs(cand, prior, ctx)
    assert [(s, lab) for s, lab, _, _ in pairs] == [
        ((0, 1), lab) for lab in STRUCTURAL_LABELS]
    for state, lab, new_score, pot in pairs:
        assert pot == new_score + prior.esum[(0, 1)] - table[lab.order]


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
    root = make_root_candidate(0, ctx, ())
    pairs = eligible_pairs(root, prior, ctx)
    new_score = ctx.reward((0, 1), Label.TRUNK, None, None)
    assert pairs == [((0, 1), Label.TRUNK, new_score,
                      new_score + prior.esum[(0, 1)]
                      - prior.turn_pen[(0, 1)][Label.TRUNK.order])]


def test_eligible_after_leader_only_leader():
    graph, conf, ctx = _t_fixture()
    prior = PathPrior(ctx, tip=3)
    root = make_root_candidate(0, ctx, ())
    cand = root
    for state, lab in (((0, 1), Label.TRUNK), ((1, 2), Label.LEADER)):
        cand = grow_candidate(cand, state, lab,
                              cand.score + ctx.reward(state, lab, None, None),
                              _child_key(cand.key, state, lab), ctx)
    pairs = eligible_pairs(cand, prior, ctx)
    # The grown score counts the turn from the Leader edge (1, 2).
    new_score = cand.score + ctx.reward((2, 3), Label.LEADER, 1, Label.LEADER)
    assert pairs == [((2, 3), Label.LEADER, new_score,
                      new_score + prior.esum[(2, 3)]
                      - prior.turn_pen[(2, 3)][Label.LEADER.order])]


def test_eligible_tip_already_reached_empty():
    graph, conf, ctx = _t_fixture()
    prior = PathPrior(ctx, tip=3)
    cand = make_root_candidate(0, ctx, (3,))
    for k in range(3):
        assert cand.open == (3,)
        state = (k, k + 1)
        cand = grow_candidate(cand, state, Label.TRUNK, 0.0,
                              _child_key(cand.key, state, Label.TRUNK), ctx)
    assert cand.open == ()  # reaching the tip closes it
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
    for k, (i, j) in enumerate(graph.edges.tolist()):
        edge_data[(i, j)] = edge_data[(j, i)] = (float(graph.lengths[k]),
                                                 conf[k])
    for (u, v), (length, c) in edge_data.items():
        vec = graph.vector(u, v)
        for lab in STRUCTURAL_LABELS:
            assert ctx.reward((u, v), lab, None, None) == reward(
                vec, length, c, lab, None, None, CFG)
        for w, _eid in ctx.adj[u]:
            if w == v:
                continue
            pvec = graph.vector(w, u)
            assert ctx.turn_pen_none(w, u, v) == bend_penalty(vec, pvec,
                                                              CFG)
            for lab in STRUCTURAL_LABELS:
                for plab in STRUCTURAL_LABELS:
                    assert ctx.reward((u, v), lab, w, plab) == reward(
                        vec, length, c, lab, pvec, plab, CFG)


def _path_avoids_skeleton(prior, state, skel):
    """Whether the state reaches the prior's tip along ``prior.succ``
    without entering a skeleton node (the state's tail excluded)."""
    if state not in prior.cost:
        return False
    cur = state
    while cur is not None:
        if skel.has_node(cur[1]):
            return False
        cur = prior.succ[cur]
    return True


def test_eligible_labels_match_check_all():
    """Along random lineages on a synthetic tree, every frontier state that
    passes the prior's reachability and path filters gets exactly the
    labels ``check_all`` accepts on the skeleton of the candidate's lineage
    (Trunk alone for the first edge), and no other state gets any. Each
    proposal's grown score adds the edge's reward after the parent edge to
    the candidate's score, and its potential adds the prior's path terms."""
    graph, conf, ctx = _synthetic_context()
    base = resolve_base(graph, "lowest-z")
    tips = frozenset(t for t in find_tips(graph, conf, CFG) if t != base)
    priors = [PathPrior(ctx, t) for t in sorted(tips)]
    rng = np.random.default_rng(11)
    checked = 0
    for _lineage in range(30):
        cand = make_root_candidate(base, ctx, ())
        for _step in range(80):
            prior = priors[int(rng.integers(len(priors)))]
            pairs = eligible_pairs(cand, prior, ctx)
            skel = skeleton_from_edges(base, lineage_edges(cand.lineage))
            for state in sorted(cand.frontier):
                if not _path_avoids_skeleton(prior, state, skel):
                    assert all(s != state for s, _, _, _ in pairs)
                    continue
                if skel.num_edges == 0:
                    expected = [Label.TRUNK]
                else:
                    expected = [lab for lab in STRUCTURAL_LABELS
                                if skel.check_all(state, lab) is None]
                assert [lab for s, lab, _, _ in pairs if s == state] == \
                    expected
                checked += 1
            for state, lab, new_score, pot in pairs:
                pred_tail, pred_label = \
                    skel.parent_of(state[0]) or (None, None)
                assert new_score == cand.score + ctx.reward(
                    state, lab, pred_tail, pred_label)
                assert pot == new_score + prior.esum[state] - \
                    prior.turn_pen[state][lab.order]
            if pairs:
                state, lab, new_score, _ = \
                    pairs[int(rng.integers(len(pairs)))]
                cand = grow_candidate(cand, state, lab, new_score,
                                      _child_key(cand.key, state, lab), ctx)
    assert checked > 1000


def _lineage_records(base, lineage):
    """Per-node (parent, label of the edge into it, child edge labels) of
    a lineage, rebuilt from its growth steps."""
    records = {base: (None, None, ())}
    for tail, head, label in lineage_edges(lineage):
        parent, parent_label, children = records[tail]
        records[tail] = (parent, parent_label, children + (label,))
        records[head] = (tail, label, ())
    return records


@pytest.mark.parametrize("fixture", ["two_leader", "three_leader", "chain"])
def test_frontier_records_match_lineage(fixture, chain_graph):
    """Along random growth sequences, each candidate's frontier holds
    exactly the directed edges from its skeleton to the rest of the graph,
    and each entry holds its tail's record as rebuilt from the lineage:
    parent, label in, child labels in growth order, and the labels
    ``check_all`` accepts on that skeleton (Trunk alone for the first
    edge). Its node mask and open tips follow the lineage too."""
    if fixture == "chain":
        graph, base = chain_graph, 0
    else:
        graph, *_, seeds = (_two_leader_tree() if fixture == "two_leader"
                            else _three_leader_tree())
        base = seeds.base
    ctx = SearchContext(graph, uniform_conf(graph), CFG)
    tips = tuple(sorted({graph.num_nodes - 1, *range(3, graph.num_nodes, 7)}
                        - {base}))
    rng = np.random.default_rng(3)
    checked = 0
    for _lineage in range(12):
        cand = make_root_candidate(base, ctx, tips)
        for _step in range(40):
            records = _lineage_records(base, cand.lineage)
            skel = skeleton_from_edges(base, lineage_edges(cand.lineage))
            assert cand.nodes == sum(1 << n for n in records)
            assert cand.open == tuple(t for t in tips if t not in records)
            assert set(cand.frontier) == {
                (u, w) for u in records for w, _ in ctx.adj[u]
                if w not in records}
            for (u, w), record in cand.frontier.items():
                allowed = (Label.TRUNK,) if skel.num_edges == 0 else tuple(
                    lab for lab in STRUCTURAL_LABELS
                    if skel.check_all((u, w), lab) is None)
                assert record == records[u] + (allowed,)
                checked += 1
            # Any frontier edge with any label its tail allows.
            options = [(state, lab) for state, record
                       in sorted(cand.frontier.items())
                       for lab in record[3]]
            if not options:
                break
            state, lab = options[int(rng.integers(len(options)))]
            cand = grow_candidate(cand, state, lab, 0.0,
                                  _child_key(cand.key, state, lab), ctx)
    assert checked >= 48


def test_potential_no_penalties_is_score_plus_esum():
    graph, conf, ctx = _t_fixture()
    prior = PathPrior(ctx, tip=3)
    cand = make_root_candidate(0, ctx, ())
    [(state, lab, new_score, pot)] = eligible_pairs(cand, prior, ctx)
    assert pot == pytest.approx(new_score + prior.esum[(0, 1)], rel=1e-9)
    # Straight chain: no turn penalties, so every label's potential is its
    # grown score plus the path's edge scores.
    cand = grow_candidate(cand, state, lab, new_score,
                          _child_key(cand.key, state, lab), ctx)
    pairs = eligible_pairs(cand, prior, ctx)
    assert [lab for _, lab, _, _ in pairs] == list(STRUCTURAL_LABELS)
    for state, lab, new_score, pot in pairs:
        assert pot == pytest.approx(new_score + prior.esum[(1, 2)],
                                    rel=1e-9)


# -- run_search ------------------------------------------------------------

def test_run_search_linear_chain(chain_graph):
    conf = uniform_conf(chain_graph)
    cfg = SearchConfig(K=10, seed=0)
    skel, info = run_search(chain_graph, conf,
                            SeedSet(tips=(4,), base=0), cfg)
    assert sorted(skel.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    orders = [skel.edge_labels[(k, k + 1)].order for k in range(4)]
    assert orders == sorted(orders)
    assert skel.topology_violations() == []
    assert label_violations(skel) == []
    assert info["reached_tips"] == [4]
    ctx = SearchContext(chain_graph, conf, cfg)
    assert info["best_score"] == pytest.approx(recomputed_score(skel, ctx),
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


def test_run_search_skips_tip_outside_base_component(monkeypatch):
    """Two vertical chains with no edge between them: tip 8 on the second
    chain gets no prior and no scan, and candidates that draw it carry on
    with it abandoned. The skeleton, draws and counts are pinned."""
    positions = [(0.0, 0.0, 0.15 * k) for k in range(5)]
    positions += [(1.0, 0.0, 0.15 * k) for k in range(1, 5)]
    graph = make_graph(positions, [(k, k + 1) for k in range(4)]
                       + [(k, k + 1) for k in range(5, 8)])
    real_prior, real_eligible = search.PathPrior, search.eligible_pairs
    prior_tips, scanned = [], []

    def prior(ctx, tip):
        prior_tips.append(tip)
        return real_prior(ctx, tip)

    def eligible(cand, prior, ctx):
        scanned.append(prior)
        return real_eligible(cand, prior, ctx)

    monkeypatch.setattr(search, "PathPrior", prior)
    monkeypatch.setattr(search, "eligible_pairs", eligible)
    skel, info = run_search(graph, uniform_conf(graph),
                            SeedSet(tips=(4, 8), base=0), SearchConfig(K=5))
    assert prior_tips == [4]
    assert len(scanned) == info["search_counts"]["scans"]
    assert info["tip_outcomes"] == {4: "reached",
                                    8: "outside_base_component"}
    assert info["graph"] == {"components": 2, "base_component_size": 5,
                             "tips_outside_base_component": 1}
    assert [(e, skel.edge_labels[e]) for e in sorted(skel.edges())] == [
        ((0, 1), Label.TRUNK), ((1, 2), Label.TRUNK),
        ((2, 3), Label.TRUNK), ((3, 4), Label.LEADER)]
    assert (info["iterations"], info["tip_draws"]) == (5, 7)
    assert info["search_counts"] == {"scans": 8, "proposals": 14,
                                     "grows": 11, "resample_draws": 4}


def _two_leader_tree():
    """(graph, oracle confidences, reference skeleton, seeds) of the
    two-leader synthetic tree."""
    cloud, truth = generate(SynthSpec(n_leaders=2, leader_height=1.0, seed=1))
    graph = build_graph(cloud, CFG.r_super, 1)
    conf = truth.oracle_confidences(graph)
    ref, _ = truth.reference_skeleton(graph)
    tips = tuple(t for t in find_tips(graph, conf, CFG) if t != ref.base)
    return graph, conf, ref, SeedSet(tips=tips, base=ref.base)


def test_run_search_two_leader_tree_exact():
    graph, conf, ref, seeds = _two_leader_tree()
    assert len(seeds.tips) == 2
    cfg = SearchConfig(K=50, seed=1)
    skel, info = run_search(graph, conf, seeds, cfg)
    # The tree's topology is recovered exactly; at the support-to-leader
    # junction the first leader edge may legitimately carry either label,
    # so allow at most that one relabel.
    assert set(skel.edges()) == set(ref.edges())
    distance, ratio = edit_distance(skel, ref)
    assert distance <= 1
    labels = set(skel.edge_labels.values())
    assert labels == {Label.TRUNK, Label.SUPPORT, Label.LEADER}
    ctx = SearchContext(graph, conf, cfg)
    assert info["best_score"] == pytest.approx(recomputed_score(skel, ctx),
                                               rel=1e-9)


def _three_leader_tree():
    """(graph, oracle confidences, seeds) of the tree behind
    ``_synthetic_context``."""
    graph, conf, _ = _synthetic_context()
    base = resolve_base(graph, "lowest-z")
    tips = tuple(t for t in find_tips(graph, conf, CFG) if t != base)
    return graph, conf, SeedSet(tips=tips, base=base)


def test_run_search_builds_one_generator_per_iteration(monkeypatch):
    """Each iteration constructs one generator, at (seed, iteration), and
    draws its tips and its resampling from it."""
    graph, conf, _, seeds = _two_leader_tree()
    made = []
    real = np.random.default_rng

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(search.np.random, "default_rng", counting)
    _, info = run_search(graph, conf, seeds, SearchConfig(K=50, seed=1))
    assert info["tip_draws"] > 0
    assert made == [((1, it),) for it in range(info["iterations"])]


def test_run_search_attaches_only_the_result(monkeypatch):
    """Growth is not validated edge by edge: of all the candidates grown,
    the search calls ``attach`` only for the edges of the skeleton it
    returns, to build that skeleton."""
    graph, conf, _, seeds = _two_leader_tree()
    calls, grown = [], []
    real_attach, real_grow = LabeledSkeleton.attach, search.grow_candidate

    def counting_attach(self, e_new, l_new):
        calls.append(e_new)
        return real_attach(self, e_new, l_new)

    def counting_grow(*args):
        grown.append(args[1])
        return real_grow(*args)

    monkeypatch.setattr(LabeledSkeleton, "attach", counting_attach)
    monkeypatch.setattr(search, "grow_candidate", counting_grow)
    skel, _ = run_search(graph, conf, seeds, SearchConfig(K=50, seed=1))
    assert len(grown) > 10 * skel.num_edges > 0
    assert calls == skel.edges()


class _CountingRng:
    """Passes uniform draws through from a generator, counting them."""

    def __init__(self, rng, counter):
        self.rng, self.counter = rng, counter

    def random(self, size=None):
        self.counter.append(1 if size is None else size)
        return self.rng.random(size)


def test_run_search_counts_its_work(monkeypatch):
    """``search_counts`` holds the eligibility scans, the proposals they
    return, the candidates grown and the uniforms resampling draws, as
    counted at the calls; a second run counts the same."""
    graph, conf, _, seeds = _two_leader_tree()
    cfg = SearchConfig(K=50, seed=1)
    skel, info = run_search(graph, conf, seeds, cfg)
    scans, grows, uniforms = [], [], []
    real_eligible = search.eligible_pairs
    real_grow, real_resample = search.grow_candidate, search.resample

    def eligible(*args):
        out = real_eligible(*args)
        scans.append(len(out))
        return out

    def grow(*args):
        grows.append(args[1])
        return real_grow(*args)

    def counted_resample(weights, K, k_max_rep, rng):
        return real_resample(weights, K, k_max_rep,
                             _CountingRng(rng, uniforms))

    monkeypatch.setattr(search, "eligible_pairs", eligible)
    monkeypatch.setattr(search, "grow_candidate", grow)
    monkeypatch.setattr(search, "resample", counted_resample)
    traced_skel, traced = run_search(graph, conf, seeds, cfg)
    assert traced_skel == skel
    assert info["search_counts"] == traced["search_counts"] == {
        "scans": len(scans), "proposals": sum(scans), "grows": len(grows),
        "resample_draws": sum(uniforms)}
    assert all(v > 0 for v in info["search_counts"].values())


def test_step_keeps_k_candidates_and_counts_them():
    """``step``, from the root population of the two-leader tree on: K
    candidates in ascending key order; the finished candidates plus the
    unfinished ones, which fall into the groups, make K; no more grows than
    pool entries; the same arguments give the same keys and record; and
    the records are the columns of ``run_search``'s iteration_counts."""
    graph, conf, _, seeds = _two_leader_tree()
    cfg = SearchConfig(K=50, seed=1)
    ctx = SearchContext(graph, conf, cfg)
    tips = tuple(sorted(seeds.tips))
    priors = {t: PathPrior(ctx, t) for t in tips}
    population = [make_root_candidate(seeds.base, ctx, tips)] * cfg.K
    records = []
    while any(c.open for c in population):
        scores = [c.score for c in population]
        args = (population, scores, len(records), priors, ctx)
        population, record = step(*args)
        keys = [c.key for c in population]
        assert len(keys) == cfg.K and keys == sorted(keys)
        unfinished = [c for c in args[0] if c.open]
        assert record["finished"] + len(unfinished) == cfg.K
        assert 0 < record["groups"] <= len(unfinished)
        assert record["tip_draws"] == sum(len(c.open) > 1
                                          for c in unfinished)
        assert record["grows"] <= record["pool"]
        again, again_record = step(*args)
        assert [c.key for c in again] == keys and again_record == record
        records.append(record)
    assert any(r["finished"] for r in records)
    _, info = run_search(graph, conf, seeds, cfg)
    assert info["iteration_counts"] == {
        name: [r[name] for r in records] for name in records[0]}
