"""Labeled out-tree rules, attachment, validation, JSON interchange."""

import numpy as np
import pytest

from label_rules import label_violations
from skelgrow.errors import AttachmentError
from skelgrow.labels import Label, parse_label
from skelgrow.skeleton import (LabeledSkeleton, skeleton_from_dict,
                               skeleton_to_dict, topology_violations)


def chain(*labels, base=0):
    skel = LabeledSkeleton(base)
    for k, lab in enumerate(labels):
        skel = skel.attach((base + k, base + k + 1), lab)
    return skel


def test_label_order():
    assert [lab.order for lab in Label] == [0, 1, 2, 3]
    assert list(Label) == [Label.TRUNK, Label.SUPPORT, Label.LEADER,
                           Label.SIDE_BRANCH]


def test_parse_label_round_trip():
    for lab in Label:
        assert parse_label(str(lab)) is lab
    with pytest.raises(ValueError):
        parse_label("Stem")


def test_attach_simple_chain():
    skel = chain(Label.TRUNK, Label.SUPPORT, Label.LEADER)
    assert skel.num_edges == 3
    assert skel.nodes == {0, 1, 2, 3}
    assert skel.edge_labels[(1, 2)] is Label.SUPPORT
    assert skel.topology_violations() == []
    assert label_violations(skel) == []


def test_attach_is_immutable():
    skel = LabeledSkeleton(0)
    grown = skel.attach((0, 1), Label.TRUNK)
    assert skel.num_edges == 0
    assert grown.num_edges == 1


def test_progression_support_to_leader_ok():
    skel = chain(Label.TRUNK, Label.SUPPORT)
    assert skel.check_all((2, 3), Label.LEADER) is None


def test_progression_leader_to_support_rejected():
    skel = chain(Label.TRUNK, Label.SUPPORT, Label.LEADER)
    assert skel.check_all((3, 4), Label.SUPPORT) == "label-progression"
    with pytest.raises(AttachmentError) as err:
        skel.attach((3, 4), Label.SUPPORT)
    assert err.value.rule == "label-progression"


def test_progression_first_edge_any_label():
    skel = LabeledSkeleton(0)
    for lab in (Label.TRUNK, Label.SUPPORT, Label.LEADER, Label.SIDE_BRANCH):
        assert skel.check_all((0, 1), lab) is None


def test_linearity_same_label_y_junction_rejected():
    skel = chain(Label.TRUNK, Label.LEADER, Label.LEADER)
    # Edge (1,2) is Leader with Leader successor (2,3); a second Leader
    # child of node 2 would make a same-label Y junction.
    assert skel.check_all((2, 4), Label.LEADER) == "label-linearity"
    with pytest.raises(AttachmentError) as err:
        skel.attach((2, 4), Label.LEADER)
    assert err.value.rule == "label-linearity"


def test_linearity_differing_successor_ok():
    skel = chain(Label.TRUNK, Label.LEADER)
    skel = skel.attach((2, 3), Label.SIDE_BRANCH)
    assert skel.check_all((2, 4), Label.LEADER) is None
    skel.attach((2, 4), Label.LEADER)


def test_linearity_no_successors_ok():
    skel = chain(Label.TRUNK, Label.LEADER)
    assert skel.check_all((2, 3), Label.LEADER) is None


def test_trunk_split_two_supports_ok():
    skel = chain(Label.TRUNK)
    skel = skel.attach((1, 2), Label.SUPPORT)
    assert skel.check_all((1, 3), Label.SUPPORT) is None
    skel = skel.attach((1, 3), Label.SUPPORT)
    assert label_violations(skel) == []


def test_trunk_split_third_support_rejected():
    skel = chain(Label.TRUNK)
    skel = skel.attach((1, 2), Label.SUPPORT).attach((1, 3), Label.SUPPORT)
    assert skel.check_all((1, 4), Label.SUPPORT) == "trunk-support-split"
    with pytest.raises(AttachmentError) as err:
        skel.attach((1, 4), Label.SUPPORT)
    assert err.value.rule == "trunk-support-split"


def test_trunk_split_trunk_after_support_rejected():
    skel = chain(Label.TRUNK)
    skel = skel.attach((1, 2), Label.SUPPORT)
    assert skel.check_all((1, 3), Label.TRUNK) == "trunk-support-split"


def test_trunk_split_all_trunk_ok():
    skel = chain(Label.TRUNK)
    assert skel.check_all((1, 2), Label.TRUNK) is None
    skel = skel.attach((1, 2), Label.TRUNK)
    # All-Trunk successors pass the split rule; a second Trunk successor
    # is still a same-label Y junction.
    assert skel.check_all((1, 3), Label.TRUNK) == "label-linearity"


def _unchecked(base, edges):
    """A skeleton over (parent, child, label) edges, built without the
    attach rules."""
    parent, succ = {}, {}
    for p, c, lab in edges:
        parent[c] = (p, lab)
        succ[p] = succ.get(p, ()) + ((c, lab),)
    return LabeledSkeleton(base, parent, succ)


def test_label_violations_oracle_flags_each_rule():
    T, S, L = Label.TRUNK, Label.SUPPORT, Label.LEADER
    assert label_violations(_unchecked(0, [(0, 1, L), (1, 2, S)])) == [
        "label-progression: (0, 1) Leader -> (1,2) Support"]
    assert label_violations(_unchecked(
        0, [(0, 1, S), (1, 2, S), (1, 3, S)])) == [
        "label-linearity: node 1 label Support"]
    assert label_violations(_unchecked(
        0, [(0, 1, T), (1, 2, T), (1, 3, S)])) == [
        "trunk-support-split: node 1 mixed"]
    assert label_violations(_unchecked(
        0, [(0, 1, T)] + [(1, c, S) for c in (2, 3, 4)])) == [
        "trunk-support-split: node 1 >2 supports"]


def test_attach_rejects_cycle_and_reuse():
    skel = chain(Label.TRUNK, Label.TRUNK)
    with pytest.raises(AttachmentError) as err:
        skel.attach((2, 0), Label.TRUNK)  # edge back into the base
    assert err.value.rule == "out-tree"
    with pytest.raises(AttachmentError):
        skel.attach((0, 2), Label.TRUNK)  # second parent for node 2
    with pytest.raises(AttachmentError):
        skel.attach((5, 6), Label.TRUNK)  # parent not in skeleton
    with pytest.raises(AttachmentError):
        skel.attach((2, 2), Label.TRUNK)  # self-loop


def test_edges_equal_nodes_minus_one():
    skel = chain(Label.TRUNK, Label.SUPPORT, Label.LEADER, Label.LEADER)
    assert skel.num_edges == len(skel.nodes) - 1


def test_topology_violations_multi_parent():
    out = topology_violations(0, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert any("multi-parent" in v for v in out)


def test_topology_violations_cycle():
    out = topology_violations(0, [(0, 1), (2, 3), (3, 2)])
    assert any(v.startswith("cycle") for v in out)


def test_topology_violations_disconnected():
    out = topology_violations(0, [(0, 1), (5, 6)])
    assert any("disconnected" in v for v in out)


def test_topology_violations_duplicate_and_into_base():
    out = topology_violations(0, [(0, 1), (0, 1), (1, 0)])
    assert any("duplicate-edge" in v for v in out)
    assert any("edge-into-base" in v for v in out)


def test_topology_clean_tree():
    assert topology_violations(0, [(0, 1), (1, 2), (1, 3)]) == []


def test_json_round_trip():
    skel = chain(Label.TRUNK, Label.SUPPORT)
    skel = skel.attach((2, 5), Label.LEADER).attach((2, 7), Label.LEADER)
    positions = {n: (0.1 * n, 0.0, 0.2 * n) for n in skel.nodes}
    doc = skeleton_to_dict(skel, positions)
    again, pos = skeleton_from_dict(doc)
    assert again == skel
    assert pos[5] == pytest.approx((0.5, 0.0, 1.0))


def test_from_dict_rejects_invalid_topology():
    doc = {"base": 0,
           "nodes": [{"id": n, "pos": [0, 0, 0]} for n in range(3)],
           "edges": [{"parent": 0, "child": 1, "label": "Trunk"},
                     {"parent": 2, "child": 1, "label": "Trunk"}]}
    with pytest.raises(ValueError):
        skeleton_from_dict(doc)


@pytest.mark.parametrize("second_label", ["Trunk", "Support"])
def test_from_dict_rejects_repeated_edge(second_label):
    doc = {"base": 0,
           "nodes": [{"id": n, "pos": [0, 0, 0]} for n in range(3)],
           "edges": [{"parent": 0, "child": 1, "label": "Trunk"},
                     {"parent": 1, "child": 2, "label": "Trunk"},
                     {"parent": 1, "child": 2, "label": second_label}]}
    with pytest.raises(ValueError, match="duplicate-edge"):
        skeleton_from_dict(doc)


def test_random_growth_fuzz_small():
    rng = np.random.default_rng(17)
    labels = (Label.TRUNK, Label.SUPPORT, Label.LEADER, Label.SIDE_BRANCH)
    for _ in range(200):
        skel = LabeledSkeleton(0)
        attached = []  # (parent, child, label) in attach order
        next_node = 1
        for _ in range(int(rng.integers(3, 15))):
            nodes = sorted(skel.nodes)
            parent = nodes[int(rng.integers(len(nodes)))]
            options = [lab for lab in labels
                       if skel.check_all((parent, next_node), lab) is None]
            if not options:
                continue
            lab = options[int(rng.integers(len(options)))]
            skel = skel.attach((parent, next_node), lab)
            attached.append((parent, next_node, lab))
            next_node += 1
        assert skel.topology_violations() == []
        assert label_violations(skel) == []
        assert list(skel.edge_labels.items()) == [
            ((p, c), lab) for p, c, lab in attached]
        assert skel.nodes == {0} | {c for _, c, _ in attached}
        assert skel.parent_of(0) is None
        for p, c, lab in attached:
            assert skel.parent_of(c) == (p, lab)
            assert skel.edge_labels[(p, c)] is lab
