"""Synthetic trellised trees: sampling, ground truth, oracles."""

import numpy as np
import pytest

from conftest import edge_id, make_graph
from label_rules import label_violations
from skelgrow.labels import Label
from skelgrow.skeleton import skeleton_from_dict
from skelgrow.superpoints import build_graph
from skelgrow.synth import (SynthSpec, SynthTruth, _build_structure, generate)


def test_generate_deterministic():
    spec = SynthSpec(n_leaders=3, seed=11)
    a, _ = generate(spec)
    b, _ = generate(spec)
    np.testing.assert_array_equal(a.points, b.points)


def test_generate_seed_changes_cloud():
    a, _ = generate(SynthSpec(n_leaders=3, seed=0))
    b, _ = generate(SynthSpec(n_leaders=3, seed=1))
    assert a.points.shape != b.points.shape or \
        not np.array_equal(a.points, b.points)


def test_structure_layout():
    branches = _build_structure(SynthSpec(n_leaders=5, leader_spacing=0.4))
    labels = [str(b.label) for b in branches]
    assert labels == ["Trunk", "Support", "Support"] + ["Leader"] * 5
    # 3 leaders ride the right support, 2 the left.
    assert sum(1 for b in branches[3:] if b.p0[0] > 0) == 3
    assert sum(1 for b in branches[3:] if b.p0[0] < 0) == 2
    for b in branches[3:]:
        assert b.direction == pytest.approx([0.0, 0.0, 1.0])


def test_polyline_skeleton_parses_cleanly():
    _, truth = generate(SynthSpec(n_leaders=3, seed=0))
    doc = truth.polyline_skeleton_dict()
    skel, positions = skeleton_from_dict(doc)
    assert skel.topology_violations() == []
    assert label_violations(skel) == []
    from collections import Counter
    counts = Counter(str(lab) for lab in skel.edge_labels.values())
    assert counts["Trunk"] == 1
    assert counts["Leader"] == 3
    assert counts["Support"] == 3  # right support is split at its leader


def test_cloud_hugs_centerline():
    spec = SynthSpec(n_leaders=1, seed=4)
    cloud, truth = generate(spec)
    bound = spec.branch_radius + 6 * spec.noise_sigma + 0.01
    for p in cloud.points[::17]:
        _, d = truth.centerline_coords(p)
        assert d.min() <= bound


def test_gap_sampling_removes_points():
    dense, _ = generate(SynthSpec(n_leaders=2, seed=6))
    gappy, _ = generate(SynthSpec(n_leaders=2, seed=6, gap_probability=1.0))
    assert len(gappy) < len(dense)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_leaders=0)
    with pytest.raises(ValueError):
        SynthSpec(leader_spacing=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(branch_radius=0.0)


# -- reference skeleton on a hand-checkable micro tree ---------------------

_MICRO_POSITIONS = [
    (0.0, 0.0, 0.0), (0.0, 0.0, 0.2), (0.0, 0.0, 0.4), (0.0, 0.0, 0.6),
    (0.15, 0.0, 0.6), (0.3, 0.0, 0.6), (0.3, 0.0, 0.75), (0.3, 0.0, 0.9),
    (-0.15, 0.0, 0.6), (-0.3, 0.0, 0.6), (-0.3, 0.0, 0.75), (-0.3, 0.0, 0.9),
]
_MICRO_TRUE = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
               (3, 8), (8, 9), (9, 10), (10, 11)]
_MICRO_FALSE = [(1, 3), (2, 4), (4, 8), (7, 11), (5, 7), (4, 6)]


def _micro_truth():
    return SynthTruth(_build_structure(
        SynthSpec(n_leaders=2, leader_spacing=0.3, leader_height=0.4)))


def test_micro_tree_reference_skeleton():
    truth = _micro_truth()
    graph = make_graph(_MICRO_POSITIONS, _MICRO_TRUE + _MICRO_FALSE)
    skel, positions = truth.reference_skeleton(graph)
    assert skel.base == 0
    expected = {
        (0, 1): Label.TRUNK, (1, 2): Label.TRUNK, (2, 3): Label.TRUNK,
        (3, 4): Label.SUPPORT, (4, 5): Label.SUPPORT,
        (3, 8): Label.SUPPORT, (8, 9): Label.SUPPORT,
        (5, 6): Label.LEADER, (6, 7): Label.LEADER,
        (9, 10): Label.LEADER, (10, 11): Label.LEADER,
    }
    assert skel.edge_labels == expected
    assert skel.topology_violations() == []
    assert label_violations(skel) == []
    assert positions[5] == pytest.approx((0.3, 0.0, 0.6))


def test_micro_tree_oracle_confidences():
    truth = _micro_truth()
    graph = make_graph(_MICRO_POSITIONS, _MICRO_TRUE + _MICRO_FALSE)
    conf = truth.oracle_confidences(graph)
    for i, j in _MICRO_TRUE:
        assert conf[edge_id(graph, i, j)] == 1.0
    for i, j in _MICRO_FALSE:
        assert conf[edge_id(graph, i, j)] == 0.0
    table = truth.oracle_override_table(graph)
    assert table["0-1"] == 1.0
    assert table["1-3"] == 0.0
    assert len(table) == graph.num_edges


def test_reference_skeleton_on_generated_tree():
    spec = SynthSpec(n_leaders=4, leader_height=1.0, seed=1)
    cloud, truth = generate(spec)
    graph = build_graph(cloud, 0.10, 1)
    skel, positions = truth.reference_skeleton(graph)
    assert skel.topology_violations() == []
    assert label_violations(skel) == []
    assert set(positions) == skel.nodes
    # The base sits at the trunk bottom.
    assert np.linalg.norm(np.asarray(positions[skel.base])
                          - truth.branches[0].p0) <= 0.2
    labels = set(skel.edge_labels.values())
    assert labels == {Label.TRUNK, Label.SUPPORT, Label.LEADER}
