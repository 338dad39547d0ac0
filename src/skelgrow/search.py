"""Population-based skeleton growth.

Path priors are Dijkstra shortest paths on the directed line graph:
states are directed dense edges, transition cost is the confidence-length
term of the entered edge plus its bend penalty. A population of
candidate skeletons grows one edge-label pair per iteration, with
rank-product weighted resampling, until each candidate has reached or
abandoned every tip; the best of that final population is the result.

A candidate holds its growth steps as a lineage, a linked list shared
with its ancestors, and the record of each frontier edge's tail node, so a
growth costs what it changes; only the winner's edges are walked out of
its lineage. Each iteration draws its tips and its resampling from one
generator, seeded with (seed, iteration).
"""

from __future__ import annotations

import functools
import heapq
import logging
import time

import numpy as np

from .config import SearchConfig
from .edge_scoring import ConfidenceMap
from .errors import SearchStalledError, NoTipsError
from .geometry import bend_penalty, edge_cost, edge_score, grow_penalty
from .labels import Label, STRUCTURAL_LABELS
from .seeds import SeedSet
from .skeleton import label_rule_violation, skeleton_from_edges
from .superpoints import SuperpointGraph, UnionFind

log = logging.getLogger("skelgrow")

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
        for k, (i, j) in enumerate(graph.edges.tolist()):
            length = float(graph.lengths[k])
            c = conf[k]
            es = edge_score(length, c, cfg.alpha_conf)
            lnc = edge_cost(None, None, length, c, cfg)
            # grow_penalty reads only |x| and |z| of the edge vector, and
            # vector(j, i) is the exact negation of vector(i, j).
            pen = tuple(grow_penalty(graph.vector(i, j), lab, cfg)
                        for lab in STRUCTURAL_LABELS)
            for state in ((i, j), (j, i)):
                self.escore[state] = es
                self.len_noconf[state] = lnc
                self.grow_pen[state] = pen
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
        """The edge's score minus its growth penalty and, after a
        predecessor with the same label, the turn penalty; from the cached
        tables."""
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


class Candidate:
    """One population member: its lineage plus cached growth state.

    ``lineage`` is None at the root and ``(parent's lineage, tail, head,
    label)`` after each growth, so candidates share their ancestors' steps
    (:func:`lineage_edges` walks them out). ``frontier`` maps each directed
    edge from a skeleton node to a node outside the skeleton to its tail
    node's record: (parent, label of the edge into it, labels of its child
    edges, labels a new child edge may take); parent and label are None at
    the base. Frontier dicts and lineages are never changed once built."""

    __slots__ = ("lineage", "score", "nodes", "frontier", "open", "key")

    def __init__(self, lineage: tuple | None, score: float, nodes: int,
                 frontier: dict, open: tuple, key: int):
        self.lineage = lineage
        self.score = score
        self.nodes = nodes  # bitmask of the skeleton's nodes: bit n for n
        self.frontier = frontier
        self.open = open  # ascending tips neither reached nor abandoned
        # Edge count << 64 | order-independent 64-bit content hash: one
        # int that sorts as the (count, hash) pair does.
        self.key = key


# Memoised: a search hashes each proposed (state, label) step many times.
@functools.lru_cache(maxsize=1 << 14)
def _step_hash(state: DirEdge, label: Label) -> int:
    """Stable 64-bit mix of one growth step (independent of
    PYTHONHASHSEED), so candidate content keys, and therefore run output,
    are identical across runs."""
    x = (state[0] * 0x9E3779B97F4A7C15
         + state[1] * 0xC2B2AE3D27D4EB4F
         + label.order * 0x165667B19E3779F9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    return x ^ x >> 32


def _child_key(key: int, state: DirEdge, label: Label) -> int:
    """Content key of the candidate keyed ``key`` grown by (state, label)."""
    # The step hash only touches the hash bits; the count sits above them.
    return (key ^ _step_hash(state, label)) + (1 << 64)


def make_root_candidate(base: int, ctx: SearchContext,
                        tips: tuple) -> Candidate:
    # The skeleton's first edge is always Trunk.
    record = (None, None, (), (Label.TRUNK,))
    frontier = {(base, w): record for w, _ in ctx.adj[base]}
    return Candidate(None, 0.0, 1 << base, frontier, tips, 0)


def lineage_edges(lineage: tuple | None) -> list[tuple[int, int, Label]]:
    """The (tail, head, label) growth steps of a lineage, oldest first."""
    edges = []
    while lineage is not None:
        lineage, tail, head, label = lineage
        edges.append((tail, head, label))
    edges.reverse()
    return edges


# Memoised: the arguments range over a few short label tuples, so the
# cache stays small, and it spares the search most rule evaluations.
@functools.cache
def _allowed_labels(pred_label: Label | None, siblings: tuple) -> tuple:
    """The structural labels that break no label rule below ``pred_label``
    next to ``siblings``."""
    return tuple(lab for lab in STRUCTURAL_LABELS
                 if label_rule_violation(pred_label, siblings, lab) is None)


def grow_candidate(cand: Candidate, state: DirEdge, label: Label,
                   new_score: float, key: int,
                   ctx: SearchContext) -> Candidate:
    """``cand`` grown by an :func:`eligible_pairs` pair (state, label),
    keyed ``key`` (its child key). The tail's frontier edges take its
    updated record, the head's its new one."""
    u, v = state
    frontier = dict(cand.frontier)
    parent, parent_label, children, _ = frontier[state]
    children += (label,)
    tail = (parent, parent_label, children,
            _allowed_labels(parent_label, children))
    head = (u, label, (), _allowed_labels(label, ()))
    # The frontier holds (w, v) exactly for the skeleton's neighbours w
    # of v, and (u, w) for u's neighbours w outside it.
    for w, _eid in ctx.adj[u]:
        if (u, w) in frontier:
            frontier[(u, w)] = tail
    for w, _eid in ctx.adj[v]:
        if frontier.pop((w, v), None) is None:
            frontier[(v, w)] = head
    open_tips = cand.open
    if v in open_tips:
        open_tips = tuple(t for t in open_tips if t != v)
    return Candidate((cand.lineage, u, v, label), new_score,
                     cand.nodes | 1 << v, frontier, open_tips, key)


def eligible_pairs(cand: Candidate, prior: PathPrior, ctx: SearchContext
                   ) -> list[tuple[DirEdge, Label, float, float]]:
    """All (directed edge, label, grown score, potential) proposals that
    extend the candidate toward the prior's tip without topology or label
    violations (the labels its tail's record allows), in frontier order:
    order-free ranks, distinct child keys and the key-sorted pool keep that
    order out of the output. The potential adds the prior path's edge
    scores and subtracts its turn penalties after the label-dependent drop.
    """
    nodes = cand.nodes
    score = cand.score
    frontier = cand.frontier
    path_mask, reward = prior.path_mask, ctx.reward
    proposals = []
    # The path to the tip must avoid the skeleton. The prior of a tip in
    # the base's component holds every state of that component.
    for state in [s for s in frontier if not path_mask[s] & nodes]:
        pred_tail, pred_label, _, labels = frontier[state]
        esum = prior.esum[state]
        turn_pen = prior.turn_pen[state]
        for lab in labels:
            new_score = score + reward(state, lab, pred_tail, pred_label)
            proposals.append((state, lab, new_score,
                              new_score + esum - turn_pen[lab.order]))
    return proposals


def rank(values) -> list[float]:
    """Ascending 1-indexed ranks divided by n, ties averaged (the same
    floats as ``scipy.stats.rankdata(values) / n``). Raises ValueError on
    an empty list or a NaN."""
    n = len(values)
    if n == 1:  # most proposal lists hold one value
        v = values[0]
        if v != v:
            raise ValueError("rank of NaN")
        return [1.0]
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
    """K indices into ``weights``, ascending, none more than k_max_rep
    times: capped systematic resampling (Kitagawa 1996).

    The expected counts ``K * w / sum(w)`` are capped at k_max_rep, and the
    excess is spread over the uncapped entries in proportion to their
    weights. One uniform ``u = rng.random()`` then places the points
    ``u + j``, j < K, on the cumulative capped counts, so each entry gets
    the floor or the ceiling of its capped expectation. When every entry
    can take k_max_rep copies and still leave slots (``len(weights) *
    k_max_rep <= K``), each takes k_max_rep and the slots left cycle the
    entries in descending weight order, ties by index; no uniform is read.
    The weights must not be negative.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    if n == 0:
        raise SearchStalledError("no next-generation candidates to resample")
    counts = np.full(n, k_max_rep)
    if n * k_max_rep <= K:
        order = np.lexsort((np.arange(n), -w))
        left = K - n * k_max_rep
        counts[order] += left // n
        counts[order[:left % n]] += 1
        return np.repeat(np.arange(n), counts).tolist()
    # Cap every entry whose expectation reaches the cap until none does:
    # capping only raises the others' expectations.
    capped = np.zeros(n, dtype=bool)
    while True:
        free = np.where(capped, 0.0, w)
        if not free.any():  # only zero weights are left uncapped
            free = (~capped).astype(np.float64)
        expected = (K - k_max_rep * capped.sum()) * free / free.sum()
        over = expected >= k_max_rep
        if not over.any():
            break
        capped |= over
    # A capped entry's interval holds k_max_rep points wherever it starts,
    # so the points fall on the uncapped entries alone as on the whole line.
    cum = expected[~capped].cumsum()
    cum[-1] = K - k_max_rep * capped.sum()
    counts[~capped] = np.diff(np.ceil(cum - rng.random()), prepend=0.0)
    return np.repeat(np.arange(n), counts).tolist()


def run_search(graph: SuperpointGraph, conf: ConfidenceMap, seeds: SeedSet,
               cfg: SearchConfig):
    """Grow the population until every candidate has reached or abandoned
    every tip; returns (skeleton, manifest dict). The population is kept in
    pool-key order, so the winner is the final population's top-scoring
    candidate with the smallest key. Only it becomes
    a :class:`LabeledSkeleton`, built from its lineage by the loader's
    :func:`skeleton_from_edges`, which checks the topology and every
    attach rule. Only tips in the base's component of the dense graph get
    a :class:`PathPrior` and scans; a candidate that draws one outside it
    carries on with it abandoned, as after an empty scan."""
    if not seeds.tips:
        raise NoTipsError("no tip candidates; nothing to grow toward")
    ctx = SearchContext(graph, conf, cfg)
    tips = tuple(sorted(seeds.tips))
    base = seeds.base
    roots = UnionFind(range(graph.num_nodes), graph.edges.tolist()).roots()
    n_components = len(set(roots.values()))
    base_size = sum(r == roots[base] for r in roots.values())
    outside = [t for t in tips if roots[t] != roots[base]]
    if outside:
        log.warning(
            "%d of %d tips lie outside the base's component of the dense "
            "graph (%d of %d superpoints, %d components); the skeleton "
            "cannot reach them", len(outside), len(tips), base_size,
            graph.num_nodes, n_components)
    t0 = time.perf_counter()
    priors = {t: PathPrior(ctx, t) for t in tips if t not in outside}
    prior_time = time.perf_counter() - t0

    root = make_root_candidate(base, ctx, tips)
    population: list[Candidate] = [root] * cfg.K
    best_score = root.score  # running maximum of the iterations' top scores
    history = []
    iteration = 0
    tip_draws = 0
    scans = n_proposals = grows = resample_draws = 0

    # Each iteration grows or abandons a tip in every unfinished candidate,
    # so the search ends within num_nodes - 1 + len(tips) iterations.
    while True:
        scores = [cand.score for cand in population]
        top = max(scores)
        best_score = max(best_score, top)
        history.append(best_score)
        member_tips = [cand.open for cand in population]
        if not any(member_tips):
            final = population[scores.index(top)]
            break

        # Each unfinished candidate draws one of its open tips (neither
        # reached nor abandoned): those with two or more draw, in population
        # order, from the iteration's generator, which then resamples.
        rng = np.random.default_rng((cfg.seed, iteration))
        open_counts = [len(ts) for ts in member_tips if len(ts) > 1]
        draws = iter(rng.integers(open_counts).tolist() if open_counts
                     else ())
        tip_draws += len(open_counts)
        # Identical (skeleton, tip) pairs are grouped so eligibility and
        # potential are computed once per group.
        groups: dict[tuple, list[int]] = {}
        finished: list[int] = []
        for ci, ts in enumerate(member_tips):
            if len(ts) > 1:
                group = (population[ci].key, ts[next(draws)])
            elif ts:
                group = (population[ci].key, ts[0])
            else:
                finished.append(ci)
                continue
            members = groups.get(group)
            if members is None:
                groups[group] = [ci]
            else:
                members.append(ci)

        score_ranks = rank(scores)

        # child key -> [weight, candidate, proposal or None if carried];
        # a key met again only adds its weight.
        pool: dict[int, list] = {}
        for ci in finished:
            cand = population[ci]
            entry = pool.get(cand.key)
            if entry is None:
                pool[cand.key] = [score_ranks[ci], cand, None]
            else:
                entry[0] += score_ranks[ci]

        for (key, tip), members in sorted(groups.items()):
            cand = population[members[0]]
            prior = priors.get(tip)
            proposals = []  # for a tip outside the base's component
            if prior is not None:
                proposals = eligible_pairs(cand, prior, ctx)
                scans += 1
                n_proposals += len(proposals)
            if not proposals:
                # Carried with the tip abandoned.
                entry = pool.get(key)
                for ci in members:
                    if entry is None:
                        entry = pool[key] = [score_ranks[ci], Candidate(
                            cand.lineage, cand.score, cand.nodes,
                            cand.frontier,
                            tuple(t for t in cand.open if t != tip), key),
                            None]
                    else:
                        entry[0] += score_ranks[ci]
                continue
            pot_ranks = rank([p[3] for p in proposals])
            group_score_rank = sum([score_ranks[ci] for ci in members])
            for proposal, pot_rank in zip(proposals, pot_ranks):
                child = _child_key(key, proposal[0], proposal[1])
                entry = pool.get(child)
                if entry is None:
                    pool[child] = [group_score_rank * pot_rank, cand,
                                   proposal]
                else:
                    entry[0] += group_score_rank * pot_rank

        keys = sorted(pool)
        entries = [pool[key] for key in keys]
        # Ascending indices, so the population stays in pool-key order.
        chosen = resample([e[0] for e in entries], cfg.K, cfg.k_max_rep, rng)
        # One uniform, unless every entry fits under the cap.
        resample_draws += len(entries) * cfg.k_max_rep > cfg.K
        realized: dict[int, Candidate] = {}
        population = []
        for idx in chosen:
            cand = realized.get(idx)
            if cand is None:
                _, cand, proposal = entries[idx]
                if proposal is not None:
                    cand = grow_candidate(cand, *proposal[:3], keys[idx],
                                          ctx)
                    grows += 1
                realized[idx] = cand
            population.append(cand)
        iteration += 1

    if final.lineage is None:
        raise SearchStalledError(
            "no eligible first edge from the base; nothing was grown")

    tip_outcomes = {
        t: "reached" if final.nodes >> t & 1
        else "outside_base_component" if t in outside
        else "abandoned_reachable" for t in tips}
    abandoned = [t for t in tips if tip_outcomes[t] == "abandoned_reachable"]
    if abandoned:
        log.warning("the skeleton abandons tips %s although the base's "
                    "component of the dense graph holds them", abandoned)
    info = {
        "tips": list(tips),
        "base": base,
        "graph": {"components": n_components,
                  "base_component_size": base_size,
                  "tips_outside_base_component": len(outside)},
        "tip_outcomes": tip_outcomes,
        "iterations": iteration,
        "tip_draws": tip_draws,
        "search_counts": {"scans": scans, "proposals": n_proposals,
                          "grows": grows, "resample_draws": resample_draws},
        "best_score_history": history,
        "best_score": final.score,
        "reached_tips": [t for t in tips if final.nodes >> t & 1],
        "prior_seconds": prior_time,
    }
    return skeleton_from_edges(base, lineage_edges(final.lineage)), info
