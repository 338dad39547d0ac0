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
from skelgrow.draws import BLOCK_WORDS, TipDraws, first_words
from skelgrow.search import (PathPrior, SearchContext, _child_key,
                             eligible_pairs, grow_candidate, lineage_edges,
                             make_root_candidate, rank, resample, run_search)
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


def _resample_per_draw_choice(weights, K, k_max_rep, rng):
    """``resample`` as it was written with one ``rng.choice`` per draw."""
    w = np.asarray(weights, dtype=np.float64).copy()
    orig = w.copy()
    counts = np.zeros(w.size, dtype=np.int64)
    chosen = []
    for _ in range(K):
        total = w.sum()
        if total <= 0:
            break
        idx = int(rng.choice(w.size, p=w / total))
        chosen.append(idx)
        counts[idx] += 1
        if counts[idx] >= k_max_rep:
            w[idx] = 0.0
    order = np.lexsort((np.arange(orig.size), -orig))
    k = 0
    while len(chosen) < K:
        chosen.append(int(order[k % orig.size]))
        k += 1
    return chosen


def test_resample_matches_per_draw_choice():
    """Draw for draw, the kept CDF gives the indices ``rng.choice`` gave
    and consumes the same generator stream, including when every cap is
    hit and the fill takes over."""
    rng = np.random.default_rng(7)
    exhausted = 0
    for trial in range(400):
        n = int(rng.integers(1, 400))
        w = rng.random(n)
        w[rng.random(n) < 0.3] = 0.0
        if trial % 4 == 0:  # rank-product weights: many ties
            w = np.round(w * 8) / 8
        if not w.any():
            w[0] = 1.0
        K = int(rng.choice([1, 7, 50, 200, 500]))
        k_max_rep = int(rng.choice([1, 2, 3, 5]))
        exhausted += K > np.count_nonzero(w) * k_max_rep
        a = np.random.default_rng((trial, 1))
        b = np.random.default_rng((trial, 1))
        assert resample(w.tolist(), K, k_max_rep, a) == \
            _resample_per_draw_choice(w, K, k_max_rep, b)
        assert a.random() == b.random()
    assert exhausted > 50


class _FixedDraws:
    """A generator stand-in whose uniform draws are given in advance."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size=None):
        if size is None:
            return self.draws.pop(0)
        taken, self.draws = self.draws[:size], self.draws[size:]
        return np.array(taken)


def test_resample_draw_on_a_cdf_step_takes_the_next_index():
    # Like rng.choice, a draw equal to a CDF value picks the first index
    # whose CDF exceeds it, so a zero-weight entry is never chosen.
    chosen = resample([0.0, 1.0, 1.0, 0.0, 2.0], K=3, k_max_rep=5,
                      rng=_FixedDraws([0.0, 0.25, 0.5]))
    assert chosen == [1, 2, 4]


def test_resample_reads_min_k_nnz_cap_uniforms():
    """The generator advances by exactly min(K, nnz * k_max_rep) uniforms,
    nnz being the number of positive weights: the draws the per-draw loop
    made, so the stream after resampling is unchanged."""
    cases = [([1.0, 0.0, 2.0], 10, 2), ([0.5] * 5, 3, 2), ([0.0, 1.0], 1, 4),
             ([3.0, 1.0, 0.0, 1.0], 200, 5), ([0.0, 0.0], 4, 3),
             ([1.0] * 40, 200, 5), ([1.0] * 40, 200, 3)]
    for seed, (weights, K, k_max_rep) in enumerate(cases):
        nnz = sum(w > 0 for w in weights)
        rng = np.random.default_rng(seed)
        resample(weights, K, k_max_rep, rng)
        ref = np.random.default_rng(seed)
        ref.random(min(K, nnz * k_max_rep))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_resample_respects_cap_until_fill():
    rng = np.random.default_rng(2)
    chosen = resample([0.5, 0.5], K=10, k_max_rep=3, rng=rng)
    # 6 capped draws, then fill cycles both entries twice.
    assert sorted(chosen) == [0] * 5 + [1] * 5


# -- tip draws -------------------------------------------------------------

def _numpy_draws(seed, iteration, cis, ns):
    """The per-candidate generators that ``TipDraws`` replays."""
    return [int(np.random.default_rng((seed, iteration, ci)).integers(n))
            for ci, n in zip(cis, ns)]


def test_candidate_draws_match_numpy():
    """Draw for draw, the batched tip draws equal numpy's, for seeds of one
    to three entropy words, iterations 0-5000, ci 0-600 and bounds 2-64."""
    rng = np.random.default_rng(11)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5]
    seeds += rng.integers(0, 2**62, size=4).tolist()
    for seed in seeds:
        for iteration in [0, 1, 5000] + rng.integers(2, 5000, 3).tolist():
            cis = np.flatnonzero(rng.random(601) < 0.5).tolist()
            ns = rng.integers(2, 65, size=len(cis)).tolist()
            assert TipDraws(seed, 601)(iteration, cis, ns) == \
                _numpy_draws(seed, iteration, cis, ns)
    assert TipDraws(3, 601)(4, [], []) == []


def test_candidate_draws_match_numpy_through_rejection():
    """With n = 3 * 2**30 the first uint32 of a quarter of the streams
    falls below Lemire's threshold, so the draw reads further words."""
    n = 3 * 2**30
    threshold = (2**32 - n) % n
    rejected = 0
    for seed, iteration in ((0, 0), (5, 17), (2**40 + 3, 4999)):
        cis = list(range(601))
        assert TipDraws(seed, 601)(iteration, cis, [n] * len(cis)) == \
            _numpy_draws(seed, iteration, cis, [n] * len(cis))
        for ci in cis:
            gen = np.random.default_rng((seed, iteration, ci)).bit_generator
            rejected += (gen.random_raw() & 0xFFFFFFFF) * n % 2**32 \
                < threshold
    assert 300 < rejected < 600


@pytest.mark.parametrize("size", [1, 2, 20, 200])
def test_candidate_draws_match_numpy_at_batch_sizes(size):
    """Batches of 1 to 200 draws, bounds from 2 up to 2**32 - 1 (the
    larger ones often enter Lemire's rejection test)."""
    rng = np.random.default_rng(size)
    for seed, iteration in ((0, 0), (9, 311), (2**33 + 1, 4999)):
        cis = np.sort(rng.choice(600, size, replace=False)).tolist()
        ns = np.where(rng.random(size) < 0.5, rng.integers(2, 65, size),
                      rng.integers(2, 2**32, size)).tolist()
        assert TipDraws(seed, 601)(iteration, cis, ns) == \
            _numpy_draws(seed, iteration, cis, ns)


def test_candidate_draws_replay_only_draws_entering_rejection(monkeypatch):
    """In a batch that mixes bounds 2-64 with bounds near 3 * 2**30, only
    draws whose first uint32 enters Lemire's rejection test build numpy's
    generator, and every draw still equals numpy's."""
    cis = list(range(400))
    ns = [3 * 2**30 + ci if ci % 2 else 2 + ci % 63 for ci in cis]
    expected = _numpy_draws(5, 17, cis, ns)
    built = []
    real = np.random.default_rng

    def counting(seed):
        built.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    assert TipDraws(5, 601)(17, cis, ns) == expected
    # A draw with bound n enters the test with chance n / 2**32: about
    # 3 in 4 of the large bounds, next to none of the small ones.
    assert 100 < len(built) < 200


def test_first_words_match_numpy_streams():
    """Each (iteration, ci) cell holds the low uint32 of the first raw
    word of numpy's generator, for seeds of one to three entropy words."""
    for seed in (0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 5):
        iterations, cis = [0, 1, 2, 999, 2**32 - 1], [0, 1, 5, 63, 2**31]
        words = first_words(seed, iterations, cis)
        assert words.shape == (5, 5)
        for row, it in zip(words.tolist(), iterations):
            assert row == [np.random.default_rng(
                (seed, it, ci)).bit_generator.random_raw() & 0xFFFFFFFF
                for ci in cis]


@pytest.mark.parametrize("seed", [3, 2**32 + 5])
@pytest.mark.parametrize("K", [1, 7, 200])
def test_tip_draws_match_numpy_across_blocks(seed, K):
    """Iteration by iteration, as the search asks, the block draws equal
    numpy's per-candidate draws, on both sides of block boundaries, for
    one candidate and for many, and for a seed of two entropy words."""
    draw_tips = TipDraws(seed, K)
    rows = draw_tips.rows
    assert rows == max(1, BLOCK_WORDS // K)
    rng = np.random.default_rng(K)
    iterations = sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows - 1,
                         2 * rows, 2 * rows + 1, 5 * rows + 3})
    if K > 1:  # every iteration through two block boundaries
        iterations = range(2 * rows + 2)
    for it in iterations:
        cis = np.flatnonzero(rng.random(K) < 0.7).tolist()
        ns = rng.integers(2, 65, size=len(cis)).tolist()
        assert draw_tips(it, cis, ns) == _numpy_draws(seed, it, cis, ns)
    assert draw_tips(2 * rows + 2, [], []) == []


def test_tip_draws_match_numpy_through_rejection():
    """Bounds near 3 * 2**30 send about 3 in 4 block draws through
    Lemire's rejection test; each still equals numpy's."""
    draw_tips = TipDraws(5, 100)
    cis = list(range(100))
    for it in (0, draw_tips.rows - 1, draw_tips.rows):
        ns = [3 * 2**30 + ci if ci % 2 else 2 + ci % 63 for ci in cis]
        assert draw_tips(it, cis, ns) == _numpy_draws(5, it, cis, ns)


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
    with it abandoned. The skeleton, draws and counts are those of the
    search that still scanned toward tip 8, less its 4 empty scans."""
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
        ((2, 3), Label.LEADER), ((3, 4), Label.LEADER)]
    assert (info["iterations"], info["tip_draws"]) == (5, 13)
    assert info["search_counts"] == {"scans": 10, "proposals": 19,
                                     "grows": 11, "resample_draws": 25}


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
    """The tip draws of this run build no generator (none enters Lemire's
    rejection test): each iteration constructs only the resampling one, at
    (seed, iteration, 1 << 30)."""
    graph, conf, _, seeds = _two_leader_tree()
    made = []
    real = np.random.default_rng

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(search.np.random, "default_rng", counting)
    _, info = run_search(graph, conf, seeds, SearchConfig(K=50, seed=1))
    assert info["tip_draws"] > 0
    assert made == [((1, it, 1 << 30),) for it in range(info["iterations"])]


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


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5])
@pytest.mark.parametrize("fixture", [_two_leader_tree, _three_leader_tree])
def test_run_search_matches_per_candidate_generators(monkeypatch, seed,
                                                     fixture):
    """A run with the tip draws computed in blocks of iterations equals the
    run with one numpy generator per draw, skeleton and manifest alike,
    also for a seed of two entropy words; ``tip_draws`` counts the draws
    made."""
    graph, conf, *_, seeds = fixture()
    assert len(seeds.tips) >= 2
    cfg = SearchConfig(K=40, seed=seed)
    skel, info = run_search(graph, conf, seeds, cfg)
    drawn = []

    def per_candidate(seed, K):
        def draws(iteration, cis, ns):
            drawn.extend(cis)
            return _numpy_draws(seed, iteration, cis, ns)
        return draws

    monkeypatch.setattr(search, "TipDraws", per_candidate)
    ref_skel, ref_info = run_search(graph, conf, seeds, cfg)
    assert skel == ref_skel
    del info["prior_seconds"], ref_info["prior_seconds"]
    assert info == ref_info
    assert info["tip_draws"] == len(drawn) > 0


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
