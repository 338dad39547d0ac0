"""Edit-distance comparison of labeled skeletons.

Global distance counts edges present in exactly one skeleton plus label
mismatches on shared edges. Per-label ratios normalize the label-subset
symmetric difference by the reference segment count times a corpus-wide
mean of edges per contiguous segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorrectionError, EvalError
from .labels import Label, parse_label
from .skeleton import LabeledSkeleton, skeleton_from_edges
from .superpoints import UnionFind
from .values import is_int, is_number, read_json

REPORT_LABELS = (Label.TRUNK, Label.SUPPORT, Label.LEADER, Label.SIDE_BRANCH)

#: Labels that form one contiguous run per tree by construction, so their
#: segment count is fixed at 1 regardless of observed connectivity.
SINGLE_SEGMENT_LABELS = frozenset({Label.TRUNK, Label.SUPPORT})


def count_segments(skeleton: LabeledSkeleton, label: Label) -> int:
    """Maximal connected groups of edges carrying ``label``.

    Two edges belong to one segment when they share a node. Trunk and
    Support are treated as a single segment whenever present.
    """
    edges = [e for e, lab in skeleton.edge_labels.items() if lab is label]
    if not edges:
        return 0
    if label in SINGLE_SEGMENT_LABELS:
        return 1
    return len(set(UnionFind(edges=edges).roots().values()))


@dataclass(frozen=True)
class SegmentStats:
    """Corpus-wide mean edges per contiguous segment, per label."""

    mean_edges_per_segment: dict[Label, float]

    def to_dict(self) -> dict:
        return {str(lab): v for lab, v in
                self.mean_edges_per_segment.items()}

    @classmethod
    def from_dict(cls, doc: dict) -> "SegmentStats":
        if not isinstance(doc, dict) or not all(
                is_number(v) and v >= 0 for v in doc.values()):
            raise ValueError("segment stats must be an object mapping "
                             "labels to finite numbers >= 0")
        return cls({parse_label(k): float(v) for k, v in doc.items()})


def compute_segment_stats(corpus) -> SegmentStats:
    """Aggregate edges-per-segment over an iterable of reference skeletons."""
    edge_total = {lab: 0 for lab in REPORT_LABELS}
    seg_total = {lab: 0 for lab in REPORT_LABELS}
    for skel in corpus:
        for lab in REPORT_LABELS:
            edge_total[lab] += sum(
                1 for v in skel.edge_labels.values() if v is lab)
            seg_total[lab] += count_segments(skel, lab)
    means = {}
    for lab in REPORT_LABELS:
        if seg_total[lab] > 0:
            means[lab] = edge_total[lab] / seg_total[lab]
    return SegmentStats(means)


@dataclass(frozen=True)
class EvalReport:
    global_distance: int
    global_ratio: float
    per_label: dict = field(default_factory=dict)  # Label -> (dist, ratio|None)
    segment_stats: SegmentStats | None = None

    def to_dict(self) -> dict:
        doc = {
            "global": {"distance": self.global_distance,
                       "ratio": self.global_ratio},
            "per_label": {
                str(lab): {"distance": d,
                           "ratio": r if r is not None else "n/a"}
                for lab, (d, r) in self.per_label.items()},
        }
        if self.segment_stats is not None:
            doc["segment_stats"] = self.segment_stats.to_dict()
        return doc

    def table(self) -> str:
        rows = [f"{'label':<12} {'distance':>8} {'ratio':>8}",
                f"{'global':<12} {self.global_distance:>8} "
                f"{self.global_ratio:>8.3f}"]
        for lab, (d, r) in self.per_label.items():
            shown = f"{r:.3f}" if r is not None else "n/a"
            rows.append(f"{str(lab):<12} {d:>8} {shown:>8}")
        return "\n".join(rows)


def edit_distance(s: LabeledSkeleton,
                  s_star: LabeledSkeleton) -> tuple[int, float]:
    """(distance, ratio): |E symmetric-difference E*| plus label mismatches
    on shared edges, divided by |E*|."""
    e = s.edge_labels
    e_star = s_star.edge_labels
    if not e_star:
        raise EvalError("reference skeleton has no edges; ratio undefined")
    shared = e.keys() & e_star.keys()
    sym_diff = len(e.keys() ^ e_star.keys())
    relabels = sum(1 for edge in shared if e[edge] is not e_star[edge])
    distance = sym_diff + relabels
    return distance, distance / len(e_star)


def per_label_ratio(s: LabeledSkeleton, s_star: LabeledSkeleton,
                    label: Label,
                    stats: SegmentStats) -> tuple[int, float | None]:
    """(distance, ratio) for one label; ratio is None when the reference
    has no such segments or the corpus mean is unavailable."""
    mine = {edge for edge, lab in s.edge_labels.items() if lab is label}
    theirs = {edge for edge, lab in s_star.edge_labels.items()
              if lab is label}
    distance = len(mine ^ theirs)
    segments = count_segments(s_star, label)
    mean = stats.mean_edges_per_segment.get(label)
    if segments == 0 or not mean:
        return distance, None
    return distance, distance / (segments * mean)


def evaluate(s: LabeledSkeleton, s_star: LabeledSkeleton,
             stats: SegmentStats | None = None) -> EvalReport:
    if stats is None:
        stats = compute_segment_stats([s_star])
    distance, ratio = edit_distance(s, s_star)
    per_label = {lab: per_label_ratio(s, s_star, lab, stats)
                 for lab in REPORT_LABELS}
    return EvalReport(global_distance=distance, global_ratio=ratio,
                      per_label=per_label, segment_stats=stats)


# -- corrections -----------------------------------------------------------

def apply_corrections(s: LabeledSkeleton, script: list) -> LabeledSkeleton:
    """Apply an ordered edit script; every intermediate state must be a
    valid labeled skeleton.

    Operations (JSON objects): {"op": "add-edge", "parent", "child",
    "label"}, {"op": "remove-edge", "parent", "child"}, {"op": "relabel",
    "parent", "child", "label"}.
    """
    labels = dict(s.edge_labels)
    result = s
    for step, op in enumerate(script):
        try:
            kind = op["op"]
            edge = (op["parent"], op["child"])
            if not all(map(is_int, edge)):
                raise ValueError("parent and child must be int node ids")
            if kind == "add-edge":
                if edge in labels:
                    raise ValueError(f"edge {edge} already present")
                labels[edge] = parse_label(op["label"])
            elif kind == "remove-edge":
                del labels[edge]
            elif kind == "relabel":
                if edge not in labels:
                    raise KeyError(edge)
                labels[edge] = parse_label(op["label"])
            else:
                raise ValueError(f"unknown op {kind!r}")
            result = skeleton_from_edges(
                s.base,
                [(p, c, lab) for (p, c), lab in sorted(labels.items())])
        except Exception as exc:
            raise CorrectionError(step, f"{op!r} failed: {exc}") from exc
    return result


def load_script(path: str | Path) -> list:
    doc = read_json(path)
    ops = doc.get("operations") if isinstance(doc, dict) else doc
    if not isinstance(ops, list):
        raise EvalError("correction file must hold a list of operations")
    return ops
