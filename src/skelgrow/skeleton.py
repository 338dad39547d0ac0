"""Labeled out-tree skeleton: topology rules, label rules, JSON interchange.

Skeletons are immutable values; ``attach`` returns a new skeleton. Each
edge is stored once, as the record ``child -> (parent, label)`` of the
node it enters; the children index ``_succ`` is the only other map, and
every other view (edges, labels, nodes, equality) is derived from the
records.
"""

from __future__ import annotations

from pathlib import Path

from .errors import AttachmentError
from .labels import Label, parse_label
from .values import is_int, is_point, read_json, write_json

Edge = tuple[int, int]  # (parent, child)


class LabeledSkeleton:
    """Directed out-tree over superpoint node ids with one label per edge."""

    __slots__ = ("base", "_parent", "_succ")

    def __init__(self, base: int, _parent=None, _succ=None):
        self.base = base
        # child -> (parent, label) of the edge into it, in attach order
        self._parent: dict[int, tuple[int, Label]] = \
            _parent if _parent is not None else {}
        # node -> tuple of (child, label) for its outgoing edges
        self._succ: dict[int, tuple] = _succ if _succ is not None else {}

    # -- read access ------------------------------------------------------
    @property
    def nodes(self) -> set[int]:
        used = set(self._parent)
        used.add(self.base)
        return used

    @property
    def edge_labels(self) -> dict[Edge, Label]:
        """(parent, child) -> label, in attach order."""
        return {(p, c): lab for c, (p, lab) in self._parent.items()}

    @property
    def num_edges(self) -> int:
        return len(self._parent)

    def has_node(self, node: int) -> bool:
        return node == self.base or node in self._parent

    def edges(self) -> list[Edge]:
        return [(p, c) for c, (p, _) in self._parent.items()]

    def parent_of(self, node: int) -> tuple[int, Label] | None:
        """(parent, label) of the unique edge into ``node``, or None for
        the base."""
        return self._parent.get(node)

    def children_of(self, node: int) -> tuple:
        return self._succ.get(node, ())

    def __eq__(self, other):
        return (isinstance(other, LabeledSkeleton)
                and self.base == other.base and self._parent == other._parent)

    # -- label rules ------------------------------------------------------
    def check_all(self, e_new: Edge, l_new: Label) -> str | None:
        """Name of the first violated rule, or None if the attach is legal."""
        parent, child = e_new
        if parent == child:
            return "out-tree"
        if not self.has_node(parent):
            return "out-tree"
        if self.has_node(child):
            return "out-tree"
        pred = self._parent.get(parent)
        return label_rule_violation(
            None if pred is None else pred[1],
            tuple(lab for _, lab in self.children_of(parent)), l_new)

    # -- growth -----------------------------------------------------------
    def attach(self, e_new: Edge, l_new: Label) -> "LabeledSkeleton":
        """New skeleton with (edge, label) added; raises on any violation."""
        rule = self.check_all(e_new, l_new)
        if rule is not None:
            raise AttachmentError(
                rule, f"cannot attach edge {e_new} with label {l_new}")
        parent, child = e_new
        new_parent = dict(self._parent)
        new_parent[child] = (parent, l_new)
        new_succ = dict(self._succ)
        new_succ[parent] = new_succ.get(parent, ()) + ((child, l_new),)
        return LabeledSkeleton(self.base, new_parent, new_succ)

    # -- validation -------------------------------------------------------
    def topology_violations(self) -> list[str]:
        return topology_violations(self.base, self.edges())


def label_rule_violation(pred_label: Label | None, sibling_labels: tuple,
                         new_label: Label) -> str | None:
    """Name of the label rule broken by a new edge labelled ``new_label``,
    or None.

    ``pred_label`` is the label of the edge into the new edge's parent node
    (None at the base) and ``sibling_labels`` the labels of the parent
    node's existing child edges. The rules, checked in this order:

    - label-progression: the predecessor's order must not exceed the new
      label's;
    - label-linearity: an edge may not have two successors with its own
      label (no same-label Y junctions);
    - trunk-support-split: the successors of a Trunk edge are either all
      Trunk, or all non-Trunk with at most two Supports.
    """
    if pred_label is None:
        return None
    if pred_label.order > new_label.order:
        return "label-progression"
    if pred_label is new_label and new_label in sibling_labels:
        return "label-linearity"
    if pred_label is Label.TRUNK:
        combined = sibling_labels + (new_label,)
        trunks = sum(lab is Label.TRUNK for lab in combined)
        if 0 < trunks < len(combined):
            return "trunk-support-split"
        if sum(lab is Label.SUPPORT for lab in combined) > 2:
            return "trunk-support-split"
    return None


def topology_violations(base: int, edges: list[Edge]) -> list[str]:
    """Out-tree violations of a raw edge list: duplicates, multi-parent,
    edges into the base, cycles, disconnection."""
    out = []
    seen = set()
    parent_of: dict[int, int] = {}
    children: dict[int, list[int]] = {}
    for parent, child in edges:
        if (parent, child) in seen:
            out.append(f"duplicate-edge: ({parent},{child})")
            continue
        seen.add((parent, child))
        if child == base:
            out.append(f"edge-into-base: ({parent},{child})")
        if child in parent_of:
            out.append(f"multi-parent: node {child}")
        else:
            parent_of[child] = parent
        children.setdefault(parent, []).append(child)
    # BFS from base; anything unreached is disconnected or on a cycle.
    reached = {base}
    frontier = [base]
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            if child not in reached:
                reached.add(child)
                frontier.append(child)
    unreached = ({p for p, _ in seen} | {c for _, c in seen}) - reached
    for node in sorted(unreached):
        if node in parent_of and _on_cycle(node, parent_of):
            out.append(f"cycle: node {node}")
        else:
            out.append(f"disconnected: node {node}")
    return out


def _on_cycle(node: int, parent_of: dict[int, int]) -> bool:
    slow = fast = node
    while fast in parent_of and parent_of[fast] in parent_of:
        slow = parent_of[slow]
        fast = parent_of[parent_of[fast]]
        if slow == fast:
            return True
    return False


# -- JSON interchange -----------------------------------------------------

def skeleton_to_dict(skeleton: LabeledSkeleton, positions) -> dict:
    """Canonical skeleton JSON: {base, nodes:[{id,pos}], edges:[...]}.

    ``positions`` maps node id to a 3-sequence.
    """
    nodes = sorted(skeleton.nodes)
    return {
        "base": skeleton.base,
        "nodes": [{"id": nid, "pos": [float(x) for x in positions[nid]]}
                  for nid in nodes],
        "edges": [{"parent": p, "child": c, "label": str(lab)}
                  for (p, c), lab in sorted(skeleton.edge_labels.items())],
    }


def skeleton_from_edges(base: int, edges) -> LabeledSkeleton:
    """Skeleton from a list of (parent, child, label) triples.

    Raises ValueError on topology violations in the edge list, including
    an edge listed twice.
    """
    violations = topology_violations(base, [(p, c) for p, c, _ in edges])
    if violations:
        raise ValueError("invalid skeleton document: " + "; ".join(violations))
    labels = {(p, c): lab for p, c, lab in edges}
    # Attach in BFS order from the base so every parent exists first.
    children: dict[int, list[int]] = {}
    for parent, child in labels:
        children.setdefault(parent, []).append(child)
    skeleton = LabeledSkeleton(base)
    queue = [base]
    while queue:
        node = queue.pop(0)
        for child in sorted(children.get(node, ())):
            skeleton = skeleton.attach((node, child), labels[(node, child)])
            queue.append(child)
    return skeleton


def _records(doc: dict, key: str, fields: dict) -> list:
    """``doc[key]`` checked to be a list of objects whose ``fields`` pass
    their checks; raises ValueError naming the first bad entry."""
    records = doc.get(key)
    if not isinstance(records, list):
        raise ValueError(f"invalid skeleton document: {key!r} must be a list")
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or not all(
                name in rec and ok(rec[name]) for name, ok in fields.items()):
            raise ValueError(
                f"invalid skeleton document: {key}[{k}] must be an object "
                f"with {', '.join(fields)}; got {rec!r}")
    return records


def skeleton_from_dict(doc: dict) -> tuple[LabeledSkeleton, dict]:
    """Parse skeleton JSON; returns (skeleton, node positions).

    Raises ValueError on a missing key, a value of the wrong shape, a
    position that is not finite, a node (the base or an edge end) listed
    twice or not at all or a topology violation in the document.
    """
    if not isinstance(doc, dict) or not is_int(doc.get("base")):
        raise ValueError("invalid skeleton document: must be an object with "
                         "an int 'base'")
    nodes = _records(doc, "nodes", {"id": is_int, "pos": is_point})
    edges = _records(doc, "edges", {"parent": is_int, "child": is_int,
                                    "label": lambda v: isinstance(v, str)})
    positions = {n["id"]: tuple(float(x) for x in n["pos"]) for n in nodes}
    unlisted = {doc["base"]}.union(
        *((e["parent"], e["child"]) for e in edges)) - positions.keys()
    if len(positions) < len(nodes) or unlisted:
        raise ValueError(
            f"invalid skeleton document: nodes must list each node once; "
            f"{len(nodes) - len(positions)} listed twice, "
            f"{sorted(unlisted)[:20]} not listed")
    edges = [(e["parent"], e["child"], parse_label(e["label"]))
             for e in edges]
    return skeleton_from_edges(doc["base"], edges), positions


def save_skeleton(skeleton: LabeledSkeleton, positions,
                  path: str | Path) -> None:
    write_json(path, skeleton_to_dict(skeleton, positions))


def load_skeleton(path: str | Path) -> tuple[LabeledSkeleton, dict]:
    return skeleton_from_dict(read_json(path))
