"""Output checks on `skeleton.json`, from properties the method must have
and from the generator's ground truth (`truth.json`).

Written against the JSON files alone, without `skelgrow.evaluation` or
`skelgrow.skeleton`, so that a change to the program cannot change what
is checked.
"""

from __future__ import annotations

import json

import numpy as np

#: Label progression order along every root-to-tip path.
LABEL_ORDER = {"Trunk": 0, "Support": 1, "Leader": 2, "SideBranch": 3}

#: Default superpoint radius; no workload overrides it.
R_SUPER = 0.10

#: An edge matches the truth when its midpoint lies this close (metres) to
#: a same-label centreline segment: half a superpoint radius, the
#: tolerance the generator uses to assign superpoints to branches.
MATCH_TOL = 0.05


def skeleton_problems(doc: dict) -> list[str]:
    """Violations of the out-tree, label-order and edge-length rules."""
    problems = []
    pos = {n["id"]: np.asarray(n["pos"], dtype=np.float64)
           for n in doc["nodes"]}
    base = doc["base"]
    if base not in pos:
        return [f"base {base} is not a node"]
    if not doc["edges"]:
        return ["skeleton has no edges"]
    parent_label: dict[int, str] = {}
    children: dict[int, list[int]] = {}
    for e in doc["edges"]:
        p, c, lab = e["parent"], e["child"], e["label"]
        if p not in pos or c not in pos:
            problems.append(f"edge ({p},{c}) names an unknown node")
            continue
        if lab not in LABEL_ORDER:
            problems.append(f"edge ({p},{c}) has unknown label {lab!r}")
            continue
        if c == base or c in parent_label:
            problems.append(f"node {c} has more than one parent")
            continue
        parent_label[c] = lab
        children.setdefault(p, []).append(c)
        length = float(np.linalg.norm(pos[c] - pos[p]))
        if length > 2 * R_SUPER + 1e-9:
            problems.append(f"edge ({p},{c}) is {length:.4f} m long")
    seen = {base}
    stack = [base]
    while stack:
        node = stack.pop()
        for c in children.get(node, ()):
            if node in parent_label and (LABEL_ORDER[parent_label[c]]
                                         < LABEL_ORDER[parent_label[node]]):
                problems.append(f"label order drops at edge ({node},{c})")
            seen.add(c)
            stack.append(c)
    if seen != set(pos):
        problems.append(f"{len(set(pos) - seen)} nodes unreachable from base")
    lowest = min(pos, key=lambda n: (pos[n][2], n))
    if pos[lowest][2] < pos[base][2]:
        problems.append(f"base {base} is not the lowest node ({lowest})")
    return problems


def load_truth(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centreline segments of `truth.json`: (starts, ends, labels)."""
    with open(path) as fh:
        doc = json.load(fh)
    pos = {n["id"]: n["pos"] for n in doc["nodes"]}
    starts = np.asarray([pos[e["parent"]] for e in doc["edges"]], dtype=float)
    ends = np.asarray([pos[e["child"]] for e in doc["edges"]], dtype=float)
    labels = np.asarray([e["label"] for e in doc["edges"]])
    return starts, ends, labels


def matched_edges(doc: dict, truth) -> tuple[int, int]:
    """(edges within MATCH_TOL of a same-label centreline, edges within
    MATCH_TOL of any centreline)."""
    starts, ends, labels = truth
    pos = {n["id"]: n["pos"] for n in doc["nodes"]}
    mids = np.asarray([np.add(pos[e["parent"]], pos[e["child"]]) / 2
                       for e in doc["edges"]], dtype=float).reshape(-1, 3)
    edge_labels = np.asarray([e["label"] for e in doc["edges"]])
    seg = ends - starts
    t = ((mids[:, None, :] - starts[None]) * seg[None]).sum(-1)
    t = np.clip(t / (seg * seg).sum(-1)[None], 0.0, 1.0)
    closest = starts[None] + t[..., None] * seg[None]
    near = np.linalg.norm(mids[:, None, :] - closest, axis=-1) <= MATCH_TOL
    same = edge_labels[:, None] == labels[None, :]
    return int((near & same).any(1).sum()), int(near.any(1).sum())
