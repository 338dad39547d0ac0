"""Post-processing: attach side branches coming off leaders near-orthogonally."""

from __future__ import annotations

import logging
import math

from .config import SearchConfig
from .edge_scoring import ConfidenceMap
from .geometry import edge_cost, turn_angle
from .labels import Label
from .skeleton import LabeledSkeleton
from .superpoints import SuperpointGraph

log = logging.getLogger(__name__)

_ANGLE_LO = math.pi / 4
_ANGLE_HI = 3 * math.pi / 4


def _vec(graph: SuperpointGraph, u: int, v: int) -> tuple:
    """Edge vector u -> v."""
    d = graph.positions[v] - graph.positions[u]
    return (float(d[0]), float(d[1]), float(d[2]))


def _leader_direction(skeleton: LabeledSkeleton, node: int,
                      graph: SuperpointGraph):
    """Direction of the leader at an attachment node: the Leader edge into
    the node, else its first Leader child edge."""
    pred = skeleton.parent_edge(node)
    if pred is not None and skeleton.label_of(pred) is Label.LEADER:
        return _vec(graph, *pred)
    for child, lab in sorted(skeleton.children_of(node)):
        if lab is Label.LEADER:
            return _vec(graph, node, child)
    return None


def find_side_branches(skeleton: LabeledSkeleton, graph: SuperpointGraph,
                       conf: ConfidenceMap,
                       cfg: SearchConfig) -> LabeledSkeleton:
    """Grow side-branch paths from leader nodes through the off-skeleton
    part of the confident dense graph.

    Candidate first edges leave a leader node at 45-135 degrees from the
    local leader direction; each connected component of the remaining
    graph is grown as one minimum-cost path whose consecutive turn angles
    stay within pi/2.
    """
    in_skel = set(skeleton.nodes)
    leader_nodes = set()
    for (p, c), lab in skeleton.edge_labels.items():
        if lab is Label.LEADER:
            leader_nodes.update((p, c))

    confident = [k for k in range(graph.num_edges)
                 if conf[k] >= cfg.alpha_conf]
    # Components of the confident dense graph restricted to off-skeleton
    # nodes.
    comp: dict[int, int] = {}
    adj_free: dict[int, list[int]] = {}
    for k in confident:
        i, j = (int(v) for v in graph.edges[k])
        if i in in_skel or j in in_skel:
            continue
        adj_free.setdefault(i, []).append(j)
        adj_free.setdefault(j, []).append(i)
    for start in sorted(adj_free):
        if start in comp:
            continue
        stack = [start]
        comp[start] = start
        while stack:
            node = stack.pop()
            for nbr in adj_free.get(node, ()):
                if nbr not in comp:
                    comp[nbr] = start
                    stack.append(nbr)
    for k in confident:
        i, j = (int(v) for v in graph.edges[k])
        for n in (i, j):
            if n not in in_skel and n not in comp:
                comp[n] = n

    # Candidate attachment edges grouped by the component they lead into.
    attachments: dict[int, list] = {}
    for a in sorted(leader_nodes):
        direction = _leader_direction(skeleton, a, graph)
        if direction is None:
            continue
        for x, eid in graph.neighbors(a):
            if x in in_skel or conf[eid] < cfg.alpha_conf:
                continue
            ang = turn_angle(_vec(graph, a, x), direction)
            if not (_ANGLE_LO <= ang <= _ANGLE_HI):
                continue
            cost = edge_cost(None, None, float(graph.lengths[eid]),
                             conf[eid], cfg)
            attachments.setdefault(comp[x], []).append((cost, a, x))

    result = skeleton
    claimed = set(in_skel)
    for comp_id in sorted(attachments):
        entries = sorted(attachments[comp_id])
        cost0, a, x = entries[0]
        if x in claimed:
            continue
        path = _grow_path(a, x, graph, conf, cfg, claimed)
        try:
            for parent, child in path:
                result = result.attach((parent, child), Label.SIDE_BRANCH)
                claimed.add(child)
        except Exception as exc:  # pragma: no cover - defensive
            log.warning("side-branch component at node %d skipped: %s",
                        x, exc)
    return result


def _grow_path(a: int, x: int, graph: SuperpointGraph, conf, cfg, claimed):
    """Greedy minimum-cost extension until no neighbor qualifies."""
    path = [(a, x)]
    on_path = {a, x}
    cur = x
    while True:
        best = None
        into = _vec(graph, path[-1][0], cur)
        for nbr, eid in graph.neighbors(cur):
            if nbr in claimed or nbr in on_path:
                continue
            if conf[eid] < cfg.alpha_conf:
                continue
            out = _vec(graph, cur, nbr)
            if turn_angle(out, into) > math.pi / 2:
                continue
            step = edge_cost(out, into, float(graph.lengths[eid]),
                             conf[eid], cfg)
            if best is None or step < best[0] or \
                    (step == best[0] and nbr < best[1]):
                best = (step, nbr)
        if best is None:
            return path
        nbr = best[1]
        path.append((cur, nbr))
        on_path.add(nbr)
        cur = nbr
