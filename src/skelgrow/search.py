"""Population-based skeleton growth.

Path priors are Dijkstra shortest paths on the directed line graph:
states are directed dense edges, transition cost is the confidence-length
term of the entered edge plus its bend penalty. A population of
candidate skeletons grows one edge-label pair per iteration, with
rank-product weighted resampling.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import time
from dataclasses import dataclass, replace
from itertools import pairwise

import numpy as np

from .config import SearchConfig
from .edge_scoring import ConfidenceMap
from .errors import SearchStalledError, NoTipsError
from .geometry import bend_penalty, edge_cost, edge_score, grow_penalty
from .labels import Label, STRUCTURAL_LABELS
from .seeds import SeedSet
from .skeleton import LabeledSkeleton, label_rule_violation
from .superpoints import SuperpointGraph

DirEdge = tuple[int, int]  # directed (tail, head): traversal tail -> head


class SearchContext:
    """Precomputed per-directed-edge quantities shared by priors and the
    growth loop."""

    def __init__(self, graph: SuperpointGraph, conf: ConfidenceMap,
                 cfg: SearchConfig):
        self.cfg = cfg
        self.adj = [graph.neighbors(i) for i in range(graph.num_nodes)]
        self.vector = graph.vector
        self.escore: dict[DirEdge, float] = {}
        self.len_noconf: dict[DirEdge, float] = {}
        # Growth penalty of each structural label, indexed by label order.
        self.grow_pen: dict[DirEdge, tuple] = {}
        for k, (i, j) in enumerate(graph.edges):
            i, j = int(i), int(j)
            length = float(graph.lengths[k])
            c = conf[k]
            es = edge_score(length, c, cfg.alpha_conf)
            lnc = edge_cost(None, None, length, c, cfg)
            for u, v in ((i, j), (j, i)):
                vec = graph.vector(u, v)
                self.escore[(u, v)] = es
                self.len_noconf[(u, v)] = lnc
                self.grow_pen[(u, v)] = tuple(
                    grow_penalty(vec, lab, cfg) for lab in STRUCTURAL_LABELS)
        self._pen_cache: dict[tuple, float] = {}

    def turn_pen_none(self, a: int, b: int, c: int) -> float:
        """Bend penalty of the turn a->b then b->c, whatever the labels."""
        key = (a, b, c)
        pen = self._pen_cache.get(key)
        if pen is None:
            pen = bend_penalty(self.vector(b, c), self.vector(a, b),
                               self.cfg)
            self._pen_cache[key] = pen
            self._pen_cache[(c, b, a)] = pen
        return pen

    def reward(self, state: DirEdge, label: Label,
               pred_tail: int | None, pred_label: Label | None) -> float:
        """:func:`geometry.reward` of the edge, from the cached tables."""
        r = self.escore[state]
        if pred_tail is not None and pred_label is label:
            r -= self.turn_pen_none(pred_tail, state[0], state[1])
        return r - self.grow_pen[state][label.order]


class PathPrior:
    """Per-tip minimum-cost edge paths for every directed dense edge.

    For each reachable state the prior caches the path cost, successor
    state, the bitmask of the path's nodes without the state's tail node,
    edge-score sum over the path (including the state itself), and the
    path's turn-penalty sum after the label-dependent drop of the growth
    potential: a label of order o drops the 2 - o largest turns, clamped
    at 0, so ``turn_pen[state]`` is ``(max(sum - t1 - t2, 0),
    max(sum - t1, 0), sum)`` for Trunk, Support and Leader, with t1 >= t2
    the two largest turn penalties.
    """

    def __init__(self, ctx: SearchContext, tip: int):
        self.cost: dict[DirEdge, float] = {}
        self.succ: dict[DirEdge, DirEdge | None] = {}
        self.path_mask: dict[DirEdge, int] = {}  # bit n set: node n on path
        self.esum: dict[DirEdge, float] = {}
        self.turn_pen: dict[DirEdge, tuple] = {}  # indexed by label order
        self._run(ctx, tip)

    def _run(self, ctx: SearchContext, tip: int):
        dist: dict[DirEdge, float] = {}
        top2: dict[DirEdge, tuple] = {}  # two largest turn penalties
        heap = []
        for nbr, _eid in ctx.adj[tip]:
            state = (nbr, tip)
            d = ctx.len_noconf[state]
            dist[state] = d
            heapq.heappush(heap, (d, state, None))
        final = self.cost
        while heap:
            d, state, via = heapq.heappop(heap)
            if state in final:
                continue
            final[state] = d
            self.succ[state] = via
            if via is None:
                self.path_mask[state] = 1 << state[1]
                self.esum[state] = ctx.escore[state]
                top2[state] = (0.0, 0.0)
                self.turn_pen[state] = (0.0, 0.0, 0.0)
            else:
                pen = ctx.turn_pen_none(state[0], state[1], via[1])
                self.path_mask[state] = 1 << state[1] | self.path_mask[via]
                self.esum[state] = ctx.escore[state] + self.esum[via]
                t1, t2 = top2[via]
                if pen >= t1:
                    t1, t2 = pen, t1
                elif pen > t2:
                    t2 = pen
                top2[state] = (t1, t2)
                total = self.turn_pen[via][2] + pen
                self.turn_pen[state] = (max(total - t1 - t2, 0.0),
                                        max(total - t1, 0.0), total)
            u, v = state
            base = ctx.len_noconf
            for w, _eid in ctx.adj[u]:
                prev = (w, u)
                if prev in final:
                    continue
                nd = d + base[prev] + ctx.turn_pen_none(w, u, v)
                old = dist.get(prev)
                if old is None or nd < old - 1e-15:
                    dist[prev] = nd
                    heapq.heappush(heap, (nd, prev, state))


@dataclass(frozen=True)
class Candidate:
    """One population member: a growth record per node plus cached growth
    state. ``records`` maps each node, in growth order, to (parent, label
    of the edge into it, labels of its child edges, labels a new child edge
    may take); parent and label are None at the base."""

    records: dict
    score: float
    nodes: int  # bitmask of the skeleton's nodes: bit n set for node n
    frontier: frozenset  # directed edges (in-skeleton -> outside)
    abandoned: int  # bitmask of tips with no eligible pair left
    key: tuple  # (edge count, order-independent 64-bit content hash)


def _child_key(key: tuple, state: DirEdge, label: Label) -> tuple:
    """Content key of the candidate keyed ``key`` grown by (state, label)."""
    # Stable 64-bit mix (independent of PYTHONHASHSEED) so candidate
    # content keys, and therefore run output, are identical across runs.
    x = (state[0] * 0x9E3779B97F4A7C15
         + state[1] * 0xC2B2AE3D27D4EB4F
         + label.order * 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 32
    return (key[0] + 1, key[1] ^ x)


def make_root_candidate(base: int, ctx: SearchContext) -> Candidate:
    # The skeleton's first edge is always Trunk.
    records = {base: (None, None, (), (Label.TRUNK,))}
    frontier = frozenset((base, w) for w, _ in ctx.adj[base])
    return Candidate(
        records=records, score=0.0, nodes=1 << base,
        frontier=frontier, abandoned=0, key=(0, 0))


# Memoised: the arguments range over a few short label tuples, so the
# cache stays small, and it spares the search most rule evaluations.
@functools.cache
def _allowed_labels(pred_label: Label | None, siblings: tuple) -> tuple:
    """The structural labels that break no label rule below ``pred_label``
    next to ``siblings``."""
    return tuple(lab for lab in STRUCTURAL_LABELS
                 if label_rule_violation(pred_label, siblings, lab) is None)


def grow_candidate(cand: Candidate, state: DirEdge, label: Label,
                   new_score: float, key: tuple,
                   ctx: SearchContext) -> Candidate:
    """``cand`` grown by an :func:`eligible_pairs` pair (state, label),
    keyed ``key`` (its child key)."""
    u, v = state
    records = dict(cand.records)
    parent, parent_label, children, _ = records[u]
    children += (label,)
    records[u] = (parent, parent_label, children,
                  _allowed_labels(parent_label, children))
    records[v] = (u, label, (), _allowed_labels(label, ()))
    nodes = cand.nodes | 1 << v
    frontier = set(cand.frontier)
    for w, _eid in ctx.adj[v]:
        frontier.discard((w, v))
        if not nodes >> w & 1:
            frontier.add((v, w))
    return Candidate(
        records=records, score=new_score, nodes=nodes,
        frontier=frozenset(frontier), abandoned=cand.abandoned, key=key)


def skeleton_from_records(records: dict) -> LabeledSkeleton:
    """The skeleton of a candidate's records, attached edge by edge in
    growth order, so that every attach rule checks it."""
    (base, _), *grown = records.items()
    skel = LabeledSkeleton(base)
    for node, (parent, label, _, _) in grown:
        skel = skel.attach((parent, node), label)
    return skel


def eligible_pairs(cand: Candidate, prior: PathPrior, ctx: SearchContext
                   ) -> list[tuple[DirEdge, Label, float, float]]:
    """All (directed edge, label, grown score, potential) proposals that
    extend the candidate toward the prior's tip without topology or label
    violations (the labels its tail's record allows), in frontier order:
    order-free ranks, distinct child keys and the key-sorted pool keep that
    order out of the output. The potential adds the prior path's edge
    scores and subtracts its turn penalties after the label-dependent drop.
    """
    records = cand.records
    nodes = cand.nodes
    score = cand.score
    proposals = []
    for state in cand.frontier:
        # The path to the tip must avoid the skeleton. An unreachable state
        # has no path: its default, the skeleton's own mask, fails too.
        if prior.path_mask.get(state, nodes) & nodes:
            continue
        pred_tail, pred_label, _, labels = records[state[0]]
        esum = prior.esum[state]
        turn_pen = prior.turn_pen[state]
        for lab in labels:
            new_score = score + ctx.reward(state, lab, pred_tail, pred_label)
            proposals.append((state, lab, new_score,
                              new_score + esum - turn_pen[lab.order]))
    return proposals


def rank(values) -> list[float]:
    """Ascending 1-indexed ranks divided by n, ties averaged (the same
    floats as ``scipy.stats.rankdata(values) / n``). Raises ValueError on
    an empty list or a NaN."""
    n = len(values)
    if n == 0:
        raise ValueError("rank of empty list")
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        v = values[order[i]]
        if v != v:  # NaN equals nothing, so it always starts a run
            raise ValueError("rank of NaN")
        j = i + 1
        while j < n and values[order[j]] == v:
            j += 1
        # The tie run holds sorted positions i..j-1, ranks i+1..j.
        r = 0.5 * (i + j + 1) / n
        for k in range(i, j):
            ranks[order[k]] = r
        i = j
    return ranks


def resample(weights, K: int, k_max_rep: int, rng) -> list[int]:
    """K weighted draws with replacement, each index capped at k_max_rep
    copies. A capped index's weight is zeroed and the rest renormalized;
    if all weights hit zero, remaining slots cycle the distinct indices in
    descending original-weight order."""
    w = np.asarray(weights, dtype=np.float64).copy()
    if w.size == 0:
        raise SearchStalledError("no next-generation candidates to resample")
    orig = w.copy()
    counts = [0] * w.size
    chosen: list[int] = []
    cdf = None
    while len(chosen) < K:
        if cdf is None:
            # The CDF ``rng.choice(w.size, p=w / total)`` would build; the
            # weights, and so the CDF, change only when a cap is hit.
            total = w.sum()
            if total <= 0:
                break
            cum = (w / total).cumsum()
            cum /= cum[-1]
            cdf = cum.tolist()
        idx = bisect.bisect_right(cdf, rng.random())
        chosen.append(idx)
        counts[idx] += 1
        if counts[idx] >= k_max_rep:
            w[idx] = 0.0
            cdf = None
    if len(chosen) < K:
        # Stable descending weight order; ties by index.
        order = np.lexsort((np.arange(orig.size), -orig))
        k = 0
        while len(chosen) < K:
            chosen.append(int(order[k % orig.size]))
            k += 1
    return chosen


# numpy's SeedSequence hash constants and pool size, and PCG64's 128-bit
# LCG multiplier: ``candidate_draws`` replays both algorithms.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def _hash_constants(c: int, mult: int):
    """SeedSequence's running hash constant: ``c * mult**k`` mod 2**32."""
    while True:
        yield c
        c = c * mult & _M32


# (pool word, xor constant, multiplier) of each uint32 word that
# ``generate_state(4, np.uint64)`` emits.
_STATE_HASHES = [
    (i % _POOL_SIZE, xor, mult) for i, (xor, mult) in zip(
        range(2 * _POOL_SIZE), pairwise(_hash_constants(_INIT_B, _MULT_B)))]


def _uint32_words(x: int) -> list[int]:
    """SeedSequence's entropy words of the int ``x`` >= 0: its 32-bit
    words, least significant first, and ``[0]`` for 0."""
    words = [x & _M32]
    x >>= 32
    while x:
        words.append(x & _M32)
        x >>= 32
    return words


def _pcg64_uint32s(state: int, inc: int):
    """The uint32 stream ``Generator.integers`` reads from PCG64 in
    ``state``: each XSL-RR 64-bit output's low half, then its high half."""
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << 64 - rot) & _M64
        yield x & _M32
        yield x >> 32


def candidate_draws(seed: int, iteration: int, cis: list[int],
                    ns: list[int]) -> list[int]:
    """``[int(np.random.default_rng((seed, iteration, ci)).integers(n))
    for ci, n in zip(cis, ns)]``, bit for bit, without building a generator
    per draw. Each ``ci`` is below 2**32 and each ``n`` below 2**32.

    SeedSequence's entropy mixing and ``generate_state`` run as uint32
    array arithmetic over every ``ci`` at once. Their words seed PCG64,
    whose uint32 stream feeds ``integers``' bounded Lemire draw, rejection
    loop included.
    """
    hashes = pairwise(_hash_constants(_INIT_A, _MULT_A))

    def hashmix(value):
        xor, mult = next(hashes)
        value = (value ^ xor) * mult
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ value >> 16

    # Only the last entropy word, ci's, differs between the draws.
    entropy = [np.array([w], dtype=np.uint32)
               for w in _uint32_words(seed) + _uint32_words(iteration)]
    entropy.append(np.array(cis, dtype=np.uint32))
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    for src, xor, mult in _STATE_HASHES:
        value = (pool[src] ^ xor) * mult
        state.append((value ^ value >> 16).astype(np.uint64))
    # Little-endian word pairs: PCG64's seed (s0, s1) and sequence (q0, q1).
    state64 = [(state[2 * j] | state[2 * j + 1] << 32).tolist()
               for j in range(4)]
    draws = []
    for s0, s1, q0, q1, n in zip(*state64, ns):
        inc = (q0 << 65 | q1 << 1 | 1) & _M128
        # PCG64 seeding: state 0, one step, add the seed, one more step.
        seeded = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _M128
        words = _pcg64_uint32s(seeded, inc)
        m = next(words) * n
        if m & _M32 < n:
            threshold = (0x100000000 - n) % n
            while m & _M32 < threshold:
                m = next(words) * n
        draws.append(m >> 32)
    return draws


def run_search(graph: SuperpointGraph, conf: ConfidenceMap, seeds: SeedSet,
               cfg: SearchConfig):
    """Grow the population until every candidate has reached or abandoned
    every tip; returns (best skeleton, manifest dict)."""
    if not seeds.tips:
        raise NoTipsError("no tip candidates; nothing to grow toward")
    ctx = SearchContext(graph, conf, cfg)
    tips = tuple(sorted(seeds.tips))
    t0 = time.perf_counter()
    priors = {t: PathPrior(ctx, t) for t in tips}
    prior_time = time.perf_counter() - t0

    root = make_root_candidate(seeds.base, ctx)
    population: list[Candidate] = [root] * cfg.K
    best = root
    # Never binds: the search ends in num_nodes - 1 + len(tips) iterations.
    max_iter = 10 * max(graph.num_nodes, 1)
    history = []
    iteration = 0
    tip_draws = 0

    while iteration < max_iter:
        for cand in population:
            if cand.score > best.score:
                best = cand
        history.append(best.score)

        # Each unfinished candidate draws one of its open tips (neither
        # reached nor abandoned). Candidate ci with n >= 2 open tips takes
        # ``default_rng((seed, iteration, ci)).integers(n)``; all of an
        # iteration's draws are computed in one batch.
        open_tips = []
        for cand in population:
            done = cand.nodes | cand.abandoned
            open_tips.append([t for t in tips if not done >> t & 1])
        drawing = [ci for ci, ts in enumerate(open_tips) if len(ts) > 1]
        draws = iter(candidate_draws(cfg.seed, iteration, drawing,
                                     [len(open_tips[ci]) for ci in drawing]))
        tip_draws += len(drawing)
        # Identical (skeleton, tip) pairs are grouped so eligibility and
        # potential are computed once per group.
        groups: dict[tuple, list[int]] = {}
        finished: list[int] = []
        for ci, ts in enumerate(open_tips):
            if not ts:
                finished.append(ci)
                continue
            t = ts[next(draws)] if len(ts) > 1 else ts[0]
            groups.setdefault((population[ci].key, t), []).append(ci)
        if not groups:
            break

        score_ranks = rank([c.score for c in population])

        # child key -> [weight, candidate, proposal or None if carried]
        pool: dict[tuple, list] = {}

        def add(key: tuple, w: float, cand: Candidate, proposal=None):
            entry = pool.get(key)
            if entry is None:
                pool[key] = [w, cand, proposal]
            else:
                entry[0] += w

        for ci in finished:
            add(population[ci].key, score_ranks[ci], population[ci])

        for (_, tip), members in sorted(groups.items()):
            cand = population[members[0]]
            prior = priors[tip]
            proposals = eligible_pairs(cand, prior, ctx)
            if not proposals:
                for ci in members:
                    stuck = population[ci]
                    add(stuck.key, score_ranks[ci], replace(
                        stuck, abandoned=stuck.abandoned | 1 << tip))
                continue
            pot_ranks = rank([p[3] for p in proposals])
            group_score_rank = sum(score_ranks[ci] for ci in members)
            for proposal, pot_rank in zip(proposals, pot_ranks):
                add(_child_key(cand.key, proposal[0], proposal[1]),
                    group_score_rank * pot_rank, cand, proposal)

        if not pool:
            break
        entries = sorted(pool.items())  # (child key, entry); keys unique
        rng_rs = np.random.default_rng((cfg.seed, iteration, 1 << 30))
        chosen = resample([e[0] for _, e in entries], cfg.K,
                          cfg.k_max_rep, rng_rs)
        realized: dict[int, Candidate] = {}
        new_pop = []
        for idx in chosen:
            cand = realized.get(idx)
            if cand is None:
                key, (_, cand, proposal) = entries[idx]
                if proposal is not None:
                    cand = grow_candidate(cand, *proposal[:3], key, ctx)
                realized[idx] = cand
            new_pop.append(cand)
        population = new_pop
        iteration += 1

    for cand in population:
        if cand.score > best.score:
            best = cand

    if len(best.records) == 1:
        raise SearchStalledError(
            "no eligible first edge from the base; nothing was grown")

    info = {
        "tips": list(tips),
        "base": seeds.base,
        "iterations": iteration,
        "tip_draws": tip_draws,
        "best_score_history": history,
        "best_score": best.score,
        "reached_tips": [t for t in tips if best.nodes >> t & 1],
        "abandoned_tips": [t for t in tips if best.abandoned >> t & 1],
        "prior_seconds": prior_time,
    }
    return skeleton_from_records(best.records), info
