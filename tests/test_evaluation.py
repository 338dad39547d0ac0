"""Edit distance, per-label ratios, segment statistics, corrections."""

import json

import pytest

from skelgrow.errors import CorrectionError, EvalError
from skelgrow.evaluation import (SegmentStats, apply_corrections,
                                 compute_segment_stats, count_segments,
                                 edit_distance, evaluate, load_script,
                                 per_label_ratio)
from skelgrow.labels import Label
from skelgrow.skeleton import LabeledSkeleton, skeleton_from_edges


def chain(*labels, base=0):
    skel = LabeledSkeleton(base)
    for k, lab in enumerate(labels):
        skel = skel.attach((base + k, base + k + 1), lab)
    return skel


def test_identity_distance_zero():
    skel = chain(Label.TRUNK, Label.SUPPORT, Label.LEADER)
    assert edit_distance(skel, skel) == (0, 0.0)


def test_single_relabel_on_ten_edge_chain():
    ref = chain(*([Label.TRUNK] * 2 + [Label.LEADER] * 8))
    mine = chain(*([Label.TRUNK] * 3 + [Label.LEADER] * 7))
    distance, ratio = edit_distance(mine, ref)
    assert distance == 1
    assert ratio == pytest.approx(0.1)


def test_shifted_chain_hand_case():
    mine = chain(Label.TRUNK, Label.TRUNK, Label.TRUNK, base=0)
    ref = chain(Label.TRUNK, Label.TRUNK, Label.TRUNK, base=1)
    distance, ratio = edit_distance(mine, ref)
    assert distance == 2  # edges (0,1) and (3,4) each appear in one tree
    assert ratio == pytest.approx(2 / 3)


def test_empty_reference_rejected():
    skel = chain(Label.TRUNK)
    with pytest.raises(EvalError):
        edit_distance(skel, LabeledSkeleton(0))


# -- segments --------------------------------------------------------------

def _two_leader_runs():
    skel = chain(Label.TRUNK, Label.SUPPORT)
    skel = skel.attach((2, 3), Label.LEADER).attach((3, 4), Label.LEADER)
    skel = skel.attach((1, 5), Label.SUPPORT)
    skel = skel.attach((5, 6), Label.LEADER)
    return skel


def test_count_segments():
    skel = _two_leader_runs()
    assert count_segments(skel, Label.LEADER) == 2
    assert count_segments(skel, Label.SUPPORT) == 1
    assert count_segments(skel, Label.TRUNK) == 1
    assert count_segments(skel, Label.SIDE_BRANCH) == 0


def test_count_segments_any_int_node_ids():
    big = 10**12
    skel = skeleton_from_edges(-5, [
        (-5, big, Label.TRUNK), (big, -big, Label.SUPPORT),
        (-big, 2 * big, Label.LEADER), (2 * big, -3, Label.LEADER),
        (big, 7, Label.SUPPORT), (7, -big - 1, Label.LEADER),
        (-3, 3 * big, Label.SIDE_BRANCH)])
    assert count_segments(skel, Label.LEADER) == 2
    assert count_segments(skel, Label.SUPPORT) == 1
    assert count_segments(skel, Label.SIDE_BRANCH) == 1


def test_compute_segment_stats():
    stats = compute_segment_stats([_two_leader_runs()])
    means = stats.mean_edges_per_segment
    assert means[Label.LEADER] == pytest.approx(3 / 2)
    assert means[Label.SUPPORT] == pytest.approx(2.0)
    assert means[Label.TRUNK] == pytest.approx(1.0)
    assert Label.SIDE_BRANCH not in means
    again = SegmentStats.from_dict(stats.to_dict())
    assert again.mean_edges_per_segment == means


# -- per-label ratios ------------------------------------------------------

def _wide_tree(leader_offset):
    """Trunk edge, support chain over nodes 1..9, one single-edge leader
    per support node 2..9 whose child id starts at ``leader_offset``."""
    skel = LabeledSkeleton(0).attach((0, 1), Label.TRUNK)
    for k in range(1, 9):
        skel = skel.attach((k, k + 1), Label.SUPPORT)
    for i in range(8):
        skel = skel.attach((2 + i, leader_offset + i), Label.LEADER)
    return skel


def test_per_label_ratio_normalization():
    ref = _wide_tree(20)
    mine = _wide_tree(40)  # all 8 leader edges differ -> 16 in the sym diff
    stats = SegmentStats({Label.LEADER: 10.0})
    distance, ratio = per_label_ratio(mine, ref, Label.LEADER, stats)
    assert distance == 16
    assert ratio == pytest.approx(16 / (8 * 10.0))


def test_per_label_ratio_trunk_single_segment():
    ref = chain(Label.TRUNK, Label.SUPPORT)
    mine = chain(Label.SUPPORT, Label.SUPPORT)
    stats = SegmentStats({Label.TRUNK: 1.6})
    distance, ratio = per_label_ratio(mine, ref, Label.TRUNK, stats)
    assert distance == 1
    assert ratio == pytest.approx(1 / 1.6)


def test_per_label_ratio_none_cases():
    ref = chain(Label.TRUNK)
    mine = chain(Label.TRUNK)
    # Reference has no leader segments.
    assert per_label_ratio(mine, ref, Label.LEADER,
                           SegmentStats({Label.LEADER: 5.0})) == (0, None)
    # Corpus mean unavailable for the label.
    assert per_label_ratio(mine, ref, Label.TRUNK,
                           SegmentStats({})) == (0, None)


def test_evaluate_report():
    skel = chain(Label.TRUNK, Label.SUPPORT, Label.LEADER)
    report = evaluate(skel, skel)
    assert report.global_distance == 0
    assert report.global_ratio == 0.0
    assert report.per_label[Label.LEADER][0] == 0
    doc = report.to_dict()
    assert doc["global"]["distance"] == 0
    assert doc["per_label"]["SideBranch"]["ratio"] == "n/a"
    assert "global" in report.table()


# -- corrections -----------------------------------------------------------

def test_corrections_empty_script_identity():
    skel = chain(Label.TRUNK, Label.LEADER)
    assert apply_corrections(skel, []) == skel


def test_corrections_add_remove_relabel():
    skel = chain(Label.TRUNK, Label.SUPPORT)
    script = [
        {"op": "add-edge", "parent": 2, "child": 3, "label": "Leader"},
        {"op": "relabel", "parent": 1, "child": 2, "label": "Trunk"},
        {"op": "remove-edge", "parent": 2, "child": 3},
    ]
    result = apply_corrections(skel, script)
    assert result.edge_labels == {(0, 1): Label.TRUNK, (1, 2): Label.TRUNK}


def test_corrections_bad_step_reports_index():
    skel = chain(Label.TRUNK)
    script = [
        {"op": "relabel", "parent": 0, "child": 1, "label": "Trunk"},
        {"op": "remove-edge", "parent": 7, "child": 8},
    ]
    with pytest.raises(CorrectionError) as err:
        apply_corrections(skel, script)
    assert err.value.step == 1


def test_corrections_invalid_intermediate_state():
    skel = chain(Label.TRUNK)
    script = [{"op": "add-edge", "parent": 5, "child": 6, "label": "Leader"}]
    with pytest.raises(CorrectionError):  # disconnected from the base
        apply_corrections(skel, script)


def test_correction_error_names_its_step_once():
    script = [{"op": "remove-edge", "parent": 0}]
    with pytest.raises(CorrectionError) as err:
        apply_corrections(chain(Label.TRUNK), script)
    assert str(err.value) == (
        "correction step 0: {'op': 'remove-edge', 'parent': 0} failed: "
        "'child'")


def test_load_script_forms(tmp_path):
    ops = [{"op": "remove-edge", "parent": 0, "child": 1}]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(ops))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"operations": ops}))
    assert load_script(bare) == ops
    assert load_script(wrapped) == ops
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    with pytest.raises(EvalError):
        load_script(bad)
