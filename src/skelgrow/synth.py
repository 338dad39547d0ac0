"""Procedural trellised-tree point clouds with exact ground truth.

The generated structure is a vertical trunk, two horizontal supports
leaving the trunk top in opposite directions, vertical leaders rising
from the supports, and optional near-orthogonal side branches. Points
are sampled on branch cylinders with Gaussian surface noise; dropout
segments simulate occlusion gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .labels import Label
from .skeleton import LabeledSkeleton
from .superpoints import SuperpointGraph
from .edge_scoring import ConfidenceMap, edge_key
from .values import check_field_types


@dataclass(frozen=True)
class SynthSpec:
    n_leaders: int = 8
    leader_spacing: float = 0.30      # 0.15-0.45 m in the field
    leader_height: float = 2.4        # leader length; tree tops out near 3 m
    support_height: float = 0.6
    branch_radius: float = 0.02
    points_per_meter: float = 800.0
    noise_sigma: float = 0.004
    gap_probability: float = 0.0
    gap_length: float = 0.15
    n_side_branches: int = 0          # per leader
    side_branch_length: float = 0.25
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.n_leaders < 1:
            raise ValueError("n_leaders must be >= 1")
        for name in ("leader_spacing", "leader_height", "support_height",
                     "branch_radius", "side_branch_length",
                     "points_per_meter", "gap_length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("noise_sigma", "n_side_branches", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 <= self.gap_probability <= 1:
            raise ValueError("gap_probability must be in [0, 1]")


@dataclass(frozen=True)
class Branch:
    """One straight centerline segment of the ground truth."""

    id: int
    label: Label
    p0: np.ndarray
    p1: np.ndarray
    parent: int          # -1 for the trunk
    t_attach: float      # arc position on the parent where p0 sits

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))

    @property
    def direction(self) -> np.ndarray:
        return (self.p1 - self.p0) / self.length

    def point_at(self, t: float) -> np.ndarray:
        return self.p0 + self.direction * t


class SynthTruth:
    """Ground-truth centerlines and the skeletons and oracle scores drawn
    from them."""

    def __init__(self, branches: list[Branch]):
        self.branches = branches
        self._starts = np.asarray([b.p0 for b in branches])
        self._dirs = np.asarray([b.direction for b in branches])
        self._lengths = np.asarray([b.length for b in branches])
        self._children: dict[int, list[int]] = {}
        for b in branches:
            if b.parent >= 0:
                self._children.setdefault(b.parent, []).append(b.id)

    def centerline_coords(self, point) -> tuple[np.ndarray, np.ndarray]:
        """(arc position, distance) of a point's nearest spot on each
        branch centerline, one entry per branch."""
        p = np.asarray(point, dtype=np.float64)
        rel = p[None, :] - self._starts
        t = np.clip((rel * self._dirs).sum(axis=1), 0.0, self._lengths)
        d = np.linalg.norm(
            self._starts + self._dirs * t[:, None] - p[None, :], axis=1)
        return t, d

    def _ancestors(self, b: int) -> list[int]:
        chain = [b]
        while self.branches[chain[-1]].parent >= 0:
            chain.append(self.branches[chain[-1]].parent)
        return chain

    # -- skeleton views ---------------------------------------------------
    def polyline_skeleton_dict(self) -> dict:
        """Ground-truth centerlines in the skeleton JSON schema, with
        nodes at every junction and branch endpoint."""
        node_ids: dict[tuple, int] = {}
        nodes = []

        def node_for(pos) -> int:
            key = tuple(round(float(x), 9) for x in pos)
            if key not in node_ids:
                node_ids[key] = len(nodes)
                nodes.append({"id": len(nodes),
                              "pos": [float(x) for x in pos]})
            return node_ids[key]

        edges = []
        base = node_for(self.branches[0].p0)
        for b in self.branches:
            cuts = {0.0, b.length}
            for c in self._children.get(b.id, ()):
                cuts.add(self.branches[c].t_attach)
            ordered = sorted(cuts)
            for ta, tb in zip(ordered, ordered[1:]):
                if tb - ta < 1e-9:
                    continue
                edges.append({
                    "parent": node_for(b.point_at(ta)),
                    "child": node_for(b.point_at(tb)),
                    "label": str(b.label),
                })
        return {"base": base, "nodes": nodes, "edges": edges}

    def oracle_confidences(self, graph: SuperpointGraph) -> ConfidenceMap:
        """True-adjacency scores: 1.0 exactly for edges that connect
        tree-adjacent superpoints, 0.0 otherwise.

        A superpoint pair is tree-adjacent when the pair is consecutive
        along one branch's discretized centerline, or forms the junction
        link between a branch chain and its parent chain. Edges that skip
        over an intermediate superpoint (or bridge unrelated branches)
        score 0, mirroring an ideal connectivity classifier.
        """
        skel, _ = self.reference_skeleton(graph)
        true_edges = {(min(p, c), max(p, c)) for p, c in skel.edges()}
        values = np.zeros(graph.num_edges, dtype=np.float64)
        for k, (i, j) in enumerate(graph.edges):
            if (int(i), int(j)) in true_edges:
                values[k] = 1.0
        return ConfidenceMap(values=values)

    def oracle_override_table(self, graph: SuperpointGraph) -> dict[str, float]:
        conf = self.oracle_confidences(graph)
        return {edge_key(int(i), int(j)): float(conf[k])
                for k, (i, j) in enumerate(graph.edges)}

    def reference_skeleton(self, graph: SuperpointGraph):
        """Ground-truth labeled skeleton over a superpoint graph's nodes.

        Superpoints are assigned to every branch centerline within
        0.05 m (junction superpoints straddle a branch and its parent
        and belong to both chains), chained along each branch in arc
        order; each branch chain attaches to the parent-chain superpoint
        nearest its junction.
        """
        per_branch: dict[int, list] = {b.id: [] for b in self.branches}
        for n in range(graph.num_nodes):
            t, d = self.centerline_coords(graph.positions[n])
            close = set(int(b) for b in np.nonzero(d <= 0.05)[0])
            if not close:
                close = {int(np.argmin(d))}
            # At a terminal junction (a child attached at its parent's far
            # end) the parent has no continuation, so a straddling
            # superpoint belongs to whichever arm it is actually nearer;
            # keeping it on the parent would add a spurious sideways step
            # at the parent chain's end.
            for b in sorted(close):
                branch = self.branches[b]
                parent = branch.parent
                if (parent in close
                        and branch.t_attach
                        >= self.branches[parent].length - 1e-9
                        and d[b] < d[parent]):
                    close.discard(parent)
            for b in sorted(close):
                per_branch[b].append((float(t[b]), n))
        for rows in per_branch.values():
            rows.sort()
        trunk_rows = per_branch[0]
        if not trunk_rows:
            raise ValueError("no superpoints project onto the trunk")
        base = trunk_rows[0][1]
        skel = LabeledSkeleton(base)

        def attach_chain(rows, label, first_parent):
            # Chain in arc order over edges the dense graph can express; a
            # consecutive pair farther apart than the dense-edge radius
            # severs the chain, and the unreachable remainder is dropped
            # from the reference (the superpoint cover, not the search,
            # loses that part of the tree).
            nonlocal skel
            parent = first_parent
            for _, n in rows:
                if n == parent or skel.has_node(n):
                    continue
                if all(w != n for w, _ in graph.neighbors(parent)):
                    return
                skel = skel.attach((parent, n), label)
                parent = n

        attach_chain(trunk_rows, Label.TRUNK, base)

        def anchor_node(branch: Branch):
            """Reference-skeleton superpoint nearest the branch's junction."""
            b, t = branch.parent, branch.t_attach
            while b >= 0:
                rows = [r for r in per_branch[b] if skel.has_node(r[1])]
                if rows:
                    return min(rows, key=lambda r: (abs(r[0] - t), r[1]))[1]
                t = self.branches[b].t_attach
                b = self.branches[b].parent
            return base

        order = sorted(
            (b for b in self.branches if b.id != 0),
            key=lambda b: (len(self._ancestors(b.id)), b.id))
        for branch in order:
            rows = [r for r in per_branch[branch.id]
                    if not skel.has_node(r[1])]
            if not rows:
                continue
            attach_chain(rows, branch.label, anchor_node(branch))
        positions = {n: tuple(graph.positions[n]) for n in skel.nodes}
        return skel, positions


def _build_structure(spec: SynthSpec) -> list[Branch]:
    sh = spec.support_height
    branches = [Branch(0, Label.TRUNK, np.array([0.0, 0.0, 0.0]),
                       np.array([0.0, 0.0, sh]), -1, 0.0)]
    top = np.array([0.0, 0.0, sh])
    n_right = (spec.n_leaders + 1) // 2
    n_left = spec.n_leaders - n_right
    sp = spec.leader_spacing
    right_len = sp * n_right
    left_len = sp * n_left if n_left else 0.5 * sp
    branches.append(Branch(1, Label.SUPPORT, top.copy(),
                           top + np.array([right_len, 0.0, 0.0]), 0, sh))
    branches.append(Branch(2, Label.SUPPORT, top.copy(),
                           top + np.array([-left_len, 0.0, 0.0]), 0, sh))
    leader_specs = [(1, sp * (i + 1)) for i in range(n_right)]
    leader_specs += [(2, sp * (i + 1)) for i in range(n_left)]
    leaders = []
    for support_id, t in leader_specs:
        support = branches[support_id]
        p0 = support.point_at(t)
        p1 = p0 + np.array([0.0, 0.0, spec.leader_height])
        bid = len(branches)
        branches.append(Branch(bid, Label.LEADER, p0, p1, support_id, t))
        leaders.append(bid)
    return branches


def _add_side_branches(branches: list[Branch], spec: SynthSpec, rng):
    leaders = [b for b in branches if b.label is Label.LEADER]
    for leader in leaders:
        for _ in range(spec.n_side_branches):
            frac = rng.uniform(0.25, 0.85)
            t = frac * leader.length
            # Near-orthogonal take-off, kept inside the 45-135 degree
            # detection window; azimuth biased toward the Y axis so side
            # branches do not run into neighboring leaders.
            theta = math.pi / 2 + rng.uniform(-0.25, 0.25)
            phi = rng.choice([math.pi / 2, -math.pi / 2]) \
                + rng.uniform(-0.5, 0.5)
            direction = np.array([
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ])
            p0 = leader.point_at(t)
            p1 = p0 + direction * spec.side_branch_length
            bid = len(branches)
            branches.append(Branch(bid, Label.SIDE_BRANCH, p0, p1,
                                   leader.id, t))


def _sample_branch(branch: Branch, spec: SynthSpec, rng) -> np.ndarray:
    n = max(4, int(round(branch.length * spec.points_per_meter)))
    ts = rng.uniform(0.0, branch.length, n)
    if spec.gap_probability > 0 and rng.random() < spec.gap_probability:
        margin = 0.15 * branch.length
        hi = max(branch.length - margin - spec.gap_length, margin)
        g0 = rng.uniform(margin, hi)
        keep = (ts < g0) | (ts > g0 + spec.gap_length)
        if keep.any():
            ts = ts[keep]
    axis = branch.direction
    raw = rng.normal(size=(len(ts), 3))
    radial = raw - np.outer(raw @ axis, axis)
    norms = np.linalg.norm(radial, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    radial /= norms
    pts = (branch.p0[None, :] + np.outer(ts, axis)
           + radial * spec.branch_radius
           + rng.normal(scale=spec.noise_sigma, size=(len(ts), 3)))
    return pts


def generate(spec: SynthSpec) -> tuple[PointCloud, SynthTruth]:
    """Deterministic synthetic cloud plus its ground truth."""
    rng = np.random.default_rng(spec.seed)
    branches = _build_structure(spec)
    _add_side_branches(branches, spec, rng)
    clouds = [_sample_branch(b, spec, rng) for b in branches]
    points = np.vstack(clouds).astype(np.float32)
    return PointCloud(points), SynthTruth(branches)
