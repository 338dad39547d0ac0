"""Post-processing: attach side branches coming off leaders near-orthogonally."""

from __future__ import annotations

import math

from .config import SearchConfig
from .edge_scoring import ConfidenceMap
from .geometry import edge_cost, turn_angle
from .labels import Label
from .skeleton import LabeledSkeleton
from .superpoints import SuperpointGraph, UnionFind

_ANGLE_LO = math.pi / 4
_ANGLE_HI = 3 * math.pi / 4


def _leader_direction(skeleton: LabeledSkeleton, node: int,
                      graph: SuperpointGraph):
    """Direction of the leader at an attachment node: the Leader edge into
    the node, else its first Leader child edge."""
    pred = skeleton.parent_of(node)
    if pred is not None and pred[1] is Label.LEADER:
        return graph.vector(pred[0], node)
    for child, lab in sorted(skeleton.children_of(node)):
        if lab is Label.LEADER:
            return graph.vector(node, child)
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

    # Components of the confident dense graph restricted to off-skeleton
    # nodes, each named by its smallest node.
    components = UnionFind(edges=(
        (i, j) for k, (i, j) in enumerate(graph.edges.tolist())
        if conf[k] >= cfg.alpha_conf
        and i not in in_skel and j not in in_skel))

    # Candidate attachment edges grouped by the component they lead into.
    attachments: dict[int, list] = {}
    for a in sorted(leader_nodes):
        direction = _leader_direction(skeleton, a, graph)
        if direction is None:
            continue
        for x, eid in graph.neighbors(a):
            if x in in_skel or conf[eid] < cfg.alpha_conf:
                continue
            ang = turn_angle(graph.vector(a, x), direction)
            if not (_ANGLE_LO <= ang <= _ANGLE_HI):
                continue
            cost = edge_cost(None, None, float(graph.lengths[eid]),
                             conf[eid], cfg)
            attachments.setdefault(components.find(x), []).append(
                (cost, a, x))

    result = skeleton
    claimed = set(in_skel)
    for comp_id in sorted(attachments):
        _, a, x = min(attachments[comp_id])
        if x in claimed:
            continue
        for parent, child in _grow_path(a, x, graph, conf, cfg, claimed):
            result = result.attach((parent, child), Label.SIDE_BRANCH)
            claimed.add(child)
    return result


def _grow_path(a: int, x: int, graph: SuperpointGraph, conf, cfg, claimed):
    """Greedy minimum-cost extension until no neighbor qualifies."""
    path = [(a, x)]
    on_path = {a, x}
    cur = x
    while True:
        best = None
        into = graph.vector(path[-1][0], cur)
        for nbr, eid in graph.neighbors(cur):
            if nbr in claimed or nbr in on_path:
                continue
            if conf[eid] < cfg.alpha_conf:
                continue
            out = graph.vector(cur, nbr)
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
