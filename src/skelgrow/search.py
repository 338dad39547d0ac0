"""Population-based skeleton growth.

Path priors are Dijkstra shortest paths on the directed line graph:
states are directed dense edges, transition cost is the confidence-length
term of the entered edge plus the unlabeled turn penalty. A population of
candidate skeletons grows one edge-label pair per iteration, with
rank-product weighted resampling.
"""

from __future__ import annotations

import functools
import heapq
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import rankdata

from .config import SearchConfig
from .edge_scoring import ConfidenceMap
from .errors import SearchStalledError, NoTipsError
from .geometry import edge_cost, edge_score, grow_penalty, turn_penalty
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
        pos = graph.positions
        self.vec: dict[DirEdge, tuple] = {}
        self.escore: dict[DirEdge, float] = {}
        self.len_noconf: dict[DirEdge, float] = {}
        self.grow_pen: dict[DirEdge, dict] = {}  # label -> penalty
        for k, (i, j) in enumerate(graph.edges):
            i, j = int(i), int(j)
            length = float(graph.lengths[k])
            c = conf[k]
            es = edge_score(length, c, cfg.alpha_conf)
            lnc = edge_cost(None, None, length, c, cfg)
            for u, v in ((i, j), (j, i)):
                d = pos[v] - pos[u]
                vec = (float(d[0]), float(d[1]), float(d[2]))
                self.vec[(u, v)] = vec
                self.escore[(u, v)] = es
                self.len_noconf[(u, v)] = lnc
                self.grow_pen[(u, v)] = {
                    lab: grow_penalty(vec, lab, cfg) for lab in Label}
        self._pen_cache: dict[tuple, float] = {}

    def turn_pen_none(self, a: int, b: int, c: int) -> float:
        """Unlabeled turn penalty of the turn a->b then b->c."""
        key = (a, b, c)
        pen = self._pen_cache.get(key)
        if pen is None:
            pen = turn_penalty(self.vec[(b, c)], self.vec[(a, b)],
                               Label.NONE, Label.NONE, self.cfg)
            self._pen_cache[key] = pen
            self._pen_cache[(c, b, a)] = pen
        return pen

    def reward(self, state: DirEdge, label: Label,
               pred_tail: int | None, pred_label: Label | None) -> float:
        """:func:`geometry.reward` of the edge, from the cached tables."""
        r = self.escore[state]
        if pred_tail is not None and pred_label is label:
            r -= self.turn_pen_none(pred_tail, state[0], state[1])
        return r - self.grow_pen[state][label]


class PathPrior:
    """Per-tip minimum-cost edge paths for every directed dense edge.

    For each reachable state the prior caches the path cost, successor
    state, edge-score sum over the path (including the state itself), and
    the turn-penalty sum with its two largest terms (for the label-based
    drop rule of the growth potential).
    """

    def __init__(self, ctx: SearchContext, tip: int):
        self.tip = tip
        self.ctx = ctx
        self.cost: dict[DirEdge, float] = {}
        self.succ: dict[DirEdge, DirEdge | None] = {}
        self.esum: dict[DirEdge, float] = {}
        # pen_minus[state] = (sum, sum - top1, sum - top1 - top2)
        self.pen_minus: dict[DirEdge, tuple] = {}
        self._nodes: dict[DirEdge, frozenset] = {}
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
                self.esum[state] = ctx.escore[state]
                top2[state] = (0.0, 0.0)
                self.pen_minus[state] = (0.0, 0.0, 0.0)
            else:
                pen = ctx.turn_pen_none(state[0], state[1], via[1])
                self.esum[state] = ctx.escore[state] + self.esum[via]
                t1, t2 = top2[via]
                if pen >= t1:
                    t1, t2 = pen, t1
                elif pen > t2:
                    t2 = pen
                top2[state] = (t1, t2)
                total = self.pen_minus[via][0] + pen
                self.pen_minus[state] = (total, total - t1, total - t1 - t2)
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

    def path_nodes(self, state: DirEdge) -> frozenset:
        """Nodes on the path excluding the state's tail node."""
        cached = self._nodes.get(state)
        if cached is not None:
            return cached
        chain = []
        cur: DirEdge | None = state
        while cur is not None and cur not in self._nodes:
            chain.append(cur)
            cur = self.succ[cur]
        acc = set() if cur is None else set(self._nodes[cur])
        for st in reversed(chain):
            acc.add(st[1])
            self._nodes[st] = frozenset(acc)
        return self._nodes[state]

    def dropped_pen(self, state: DirEdge, label: Label) -> float:
        """Turn-penalty sum after dropping the 2 - Order(label) largest."""
        sums = self.pen_minus[state]
        drop = 2 - label.order
        if drop <= 0:
            return sums[0]
        return max(sums[min(drop, 2)], 0.0)


@dataclass(frozen=True)
class Candidate:
    """One population member: a skeleton plus cached growth state."""

    skeleton: LabeledSkeleton
    score: float
    nodes: frozenset
    frontier: frozenset  # directed edges (in-skeleton -> outside)
    abandoned: frozenset  # tips with no eligible pair left
    key: tuple  # (edge count, order-independent 64-bit content hash)


def _edge_label_hash(state: DirEdge, label: Label) -> int:
    # Stable 64-bit mix (independent of PYTHONHASHSEED) so candidate
    # content keys, and therefore run output, are identical across runs.
    x = (state[0] * 0x9E3779B97F4A7C15
         + state[1] * 0xC2B2AE3D27D4EB4F
         + label.order * 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 32
    return x


def make_root_candidate(base: int, ctx: SearchContext) -> Candidate:
    skel = LabeledSkeleton(base)
    frontier = frozenset((base, w) for w, _ in ctx.adj[base])
    return Candidate(
        skeleton=skel, score=0.0, nodes=frozenset((base,)),
        frontier=frontier, abandoned=frozenset(), key=(0, 0))


def grow_candidate(cand: Candidate, state: DirEdge, label: Label,
                   new_score: float, ctx: SearchContext) -> Candidate:
    u, v = state
    skel = cand.skeleton.attach((u, v), label)
    nodes = cand.nodes | {v}
    frontier = set(cand.frontier)
    for w, _eid in ctx.adj[v]:
        frontier.discard((w, v))
        if w not in nodes:
            frontier.add((v, w))
    return Candidate(
        skeleton=skel, score=new_score, nodes=frozenset(nodes),
        frontier=frozenset(frontier), abandoned=cand.abandoned,
        key=(cand.key[0] + 1, cand.key[1] ^ _edge_label_hash(state, label)))


# Memoised: the arguments range over a few short label tuples, so the
# cache stays small, and it spares the search most rule evaluations.
@functools.cache
def _allowed_labels(pred_label: Label | None, siblings: tuple,
                    candidates: tuple) -> tuple:
    """The candidate labels that break no label rule below ``pred_label``
    next to ``siblings``."""
    return tuple(lab for lab in candidates
                 if label_rule_violation(pred_label, siblings, lab) is None)


def eligible_pairs(cand: Candidate, prior: PathPrior,
                   ctx: SearchContext) -> list[tuple[DirEdge, Label]]:
    """All (directed edge, label) pairs that may extend the candidate
    toward the prior's tip without topology or label violations."""
    skel = cand.skeleton
    # The skeleton's first edge is always Trunk.
    candidates = (Label.TRUNK,) if skel.num_edges == 0 else STRUCTURAL_LABELS
    pairs = []
    pred_cache: dict[int, tuple] = {}  # parent node -> allowed labels
    for state in sorted(cand.frontier):
        if state not in prior.cost:
            continue
        if not prior.path_nodes(state).isdisjoint(cand.nodes):
            continue
        u = state[0]
        labels = pred_cache.get(u)
        if labels is None:
            pred = skel.parent_edge(u)
            labels = _allowed_labels(
                None if pred is None else skel.label_of(pred),
                tuple(lab for _, lab in skel.children_of(u)), candidates)
            pred_cache[u] = labels
        for lab in labels:
            pairs.append((state, lab))
    return pairs


def potential(prior: PathPrior, pair, new_score: float) -> float:
    """``new_score`` (the grown skeleton's score) plus the path prior's
    edge scores minus its turn penalties after the label-dependent drop."""
    state, label = pair
    if state not in prior.cost:
        raise ValueError(f"edge {state} unreachable from tip {prior.tip}")
    return new_score + prior.esum[state] - prior.dropped_pen(state, label)


def rank(values) -> np.ndarray:
    """Ascending 1-indexed ranks divided by n, ties averaged."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("rank of empty list")
    return rankdata(arr, method="average") / arr.size


def weight(skeleton_rank: float, pair_rank: float) -> float:
    return skeleton_rank * pair_rank


def resample(weights, K: int, k_max_rep: int, rng) -> list[int]:
    """K weighted draws with replacement, each index capped at k_max_rep
    copies. A capped index's weight is zeroed and the rest renormalized;
    if all weights hit zero, remaining slots cycle the distinct indices in
    descending original-weight order."""
    w = np.asarray(weights, dtype=np.float64).copy()
    if w.size == 0:
        raise SearchStalledError("no next-generation candidates to resample")
    orig = w.copy()
    counts = np.zeros(w.size, dtype=np.int64)
    chosen: list[int] = []
    for _ in range(K):
        total = w.sum()
        if total <= 0:
            break
        idx = int(rng.choice(w.size, p=w / total))
        chosen.append(idx)
        counts[idx] += 1
        if counts[idx] >= k_max_rep:
            w[idx] = 0.0
    if len(chosen) < K:
        # Stable descending weight order; ties by index.
        order = np.lexsort((np.arange(orig.size), -orig))
        k = 0
        while len(chosen) < K:
            chosen.append(int(order[k % orig.size]))
            k += 1
    return chosen


@dataclass
class _PoolEntry:
    weight: float
    cand: Candidate
    proposal: tuple | None  # (state, label, new_score) or None for carried


def run_search(graph: SuperpointGraph, conf: ConfidenceMap, seeds: SeedSet,
               cfg: SearchConfig, manifest: dict | None = None):
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
    max_iter = cfg.resolve_max_iterations(graph.num_nodes)
    history = []
    iteration = 0

    while iteration < max_iter:
        for cand in population:
            if cand.score > best.score:
                best = cand
        history.append(best.score)

        # Each unfinished candidate draws one open tip (neither reached nor
        # abandoned); identical (skeleton, tip) pairs are grouped so
        # eligibility and potential are computed once per group.
        groups: dict[tuple, list[int]] = {}
        finished: list[int] = []
        for ci, cand in enumerate(population):
            open_tips = [t for t in tips
                         if t not in cand.nodes and t not in cand.abandoned]
            if not open_tips:
                finished.append(ci)
                continue
            rng = np.random.default_rng((cfg.seed, iteration, ci))
            t = open_tips[int(rng.integers(len(open_tips)))]
            groups.setdefault((cand.key, t), []).append(ci)
        if not groups:
            break

        score_ranks = rank([c.score for c in population])

        pool: dict[tuple, _PoolEntry] = {}

        def add_carried(cand: Candidate, w: float):
            entry = pool.get(cand.key)
            if entry is None:
                pool[cand.key] = _PoolEntry(w, cand, None)
            else:
                entry.weight += w

        for ci in finished:
            add_carried(population[ci], float(score_ranks[ci]))

        for gkey in sorted(groups):
            members = groups[gkey]
            cand = population[members[0]]
            tip = gkey[1]
            prior = priors[tip]
            pairs = eligible_pairs(cand, prior, ctx)
            if not pairs:
                for ci in members:
                    stuck = population[ci]
                    add_carried(
                        replace(stuck, abandoned=stuck.abandoned | {tip}),
                        float(score_ranks[ci]))
                continue
            new_scores = []
            pots = []
            for state, lab in pairs:
                pred = cand.skeleton.parent_edge(state[0])
                pred_label = None if pred is None else \
                    cand.skeleton.label_of(pred)
                pred_tail = None if pred is None else pred[0]
                ns = cand.score + ctx.reward(state, lab, pred_tail,
                                             pred_label)
                new_scores.append(ns)
                pots.append(potential(prior, (state, lab), ns))
            pot_ranks = rank(pots)
            group_score_rank = sum(float(score_ranks[ci]) for ci in members)
            for p, (state, lab) in enumerate(pairs):
                pkey = (cand.key[0] + 1,
                        cand.key[1] ^ _edge_label_hash(state, lab))
                w = weight(group_score_rank, float(pot_ranks[p]))
                entry = pool.get(pkey)
                if entry is None:
                    pool[pkey] = _PoolEntry(
                        w, cand, (state, lab, new_scores[p]))
                else:
                    entry.weight += w

        if not pool:
            break
        entries = [pool[k] for k in sorted(pool)]
        rng_rs = np.random.default_rng((cfg.seed, iteration, 1 << 30))
        chosen = resample([e.weight for e in entries], cfg.K,
                          cfg.k_max_rep, rng_rs)
        realized: dict[int, Candidate] = {}
        new_pop = []
        for idx in chosen:
            cand = realized.get(idx)
            if cand is None:
                entry = entries[idx]
                if entry.proposal is None:
                    cand = entry.cand
                else:
                    state, lab, ns = entry.proposal
                    cand = grow_candidate(entry.cand, state, lab, ns, ctx)
                realized[idx] = cand
            new_pop.append(cand)
        population = new_pop
        iteration += 1

    for cand in population:
        if cand.score > best.score:
            best = cand

    if best.skeleton.num_edges == 0:
        raise SearchStalledError(
            "no eligible first edge from the base; nothing was grown")

    info = manifest if manifest is not None else {}
    info.update({
        "tips": list(tips),
        "base": seeds.base,
        "iterations": iteration,
        "best_score_history": history,
        "best_score": best.score,
        "reached_tips": sorted(best.nodes.intersection(tips)),
        "abandoned_tips": sorted(best.abandoned),
        "prior_seconds": prior_time,
    })
    return best.skeleton, info
