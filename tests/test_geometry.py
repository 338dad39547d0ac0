"""Scalar scoring formulas against hand-computed values."""

import math

import pytest

from conftest import conf_from_dict, make_graph
from reward_reference import turn_penalty
from skelgrow.config import SearchConfig
from skelgrow.errors import ConfigError, DegenerateGeometryError
from skelgrow.geometry import (bend_penalty, edge_score, grow_angle,
                               grow_penalty, turn_angle)
from skelgrow.labels import Label
from skelgrow.search import SearchContext

CFG = SearchConfig()
REL = 1e-9


def test_turn_angle_collinear():
    assert turn_angle((1, 0, 0), (1, 0, 0)) == 0.0


def test_turn_angle_orthogonal():
    assert turn_angle((0, 0, 1), (1, 0, 0)) == pytest.approx(
        math.pi / 2, rel=REL)


def test_turn_angle_reversal():
    assert turn_angle((-1, 0, 0), (1, 0, 0)) == pytest.approx(
        math.pi, rel=REL)


def test_turn_angle_symmetric():
    a, b = (0.3, -0.1, 0.9), (1.0, 0.2, 0.1)
    assert turn_angle(a, b) == pytest.approx(turn_angle(b, a), rel=REL)


def test_turn_angle_zero_vector_raises():
    with pytest.raises(DegenerateGeometryError):
        turn_angle((0, 0, 0), (1, 0, 0))


def test_grow_angle_horizontal_vertical_diagonal():
    assert grow_angle((1, 0, 0)) == 0.0
    assert grow_angle((0, 0, 1)) == pytest.approx(math.pi / 2, rel=REL)
    assert grow_angle((1, 0, 1)) == pytest.approx(math.pi / 4, rel=REL)


def test_grow_angle_ignores_y_and_scale():
    assert grow_angle((2, 5, 2)) == pytest.approx(
        grow_angle((1, 0, 1)), rel=REL)


def test_grow_angle_pure_y_is_degenerate():
    assert grow_angle((0, 1, 0)) == pytest.approx(math.pi / 2, rel=REL)


def test_grow_angle_zero_vector_raises():
    with pytest.raises(DegenerateGeometryError):
        grow_angle((0, 0, 0))


def test_edge_score_threshold_zero():
    assert edge_score(0.37, 0.4, 0.4) == pytest.approx(0.0, abs=1e-12)


def test_edge_score_perfect_confidence():
    assert edge_score(0.2, 1.0, 0.4) == pytest.approx(0.2, rel=REL)


def test_edge_score_zero_confidence():
    expected = 0.2 * (1.0 - 1.0 / 0.6)
    assert edge_score(0.2, 0.0, 0.4) == pytest.approx(expected, rel=REL)


def test_edge_score_monotone_in_conf_linear_in_len():
    scores = [edge_score(0.2, c / 10, 0.4) for c in range(11)]
    assert all(a < b for a, b in zip(scores, scores[1:]))
    assert edge_score(0.4, 0.7, 0.4) == pytest.approx(
        2 * edge_score(0.2, 0.7, 0.4), rel=REL)


def test_edge_score_alpha_one_invalid():
    with pytest.raises(ConfigError):
        edge_score(0.2, 0.5, 1.0)


def test_turn_penalty_label_change_is_free():
    assert turn_penalty((0, 0, 1), (1, 0, 0), Label.LEADER, Label.SUPPORT,
                        CFG) == 0.0


def test_turn_penalty_at_threshold():
    assert turn_penalty((1, 0, 1), (1, 0, 0), Label.LEADER, Label.LEADER,
                        CFG) == pytest.approx(0.0, abs=1e-12)


def test_turn_penalty_same_label_right_angle():
    expected = 0.5 * (math.pi / 4) ** 2
    got = turn_penalty((0, 0, 1), (1, 0, 0), Label.LEADER, Label.LEADER, CFG)
    assert got == pytest.approx(expected, rel=REL)


def test_turn_penalty_none_label_always_applies():
    # The bend penalty is charged whatever the labels.
    expected = 0.5 * (math.pi / 4) ** 2
    got = bend_penalty((0, 0, 1), (1, 0, 0), CFG)
    assert got == pytest.approx(expected, rel=REL)


def test_grow_penalty_vertical_leader_free():
    assert grow_penalty((0, 0, 1), Label.LEADER, CFG) == 0.0


def test_grow_penalty_trunk_exempt():
    assert grow_penalty((1, 0, 0), Label.TRUNK, CFG) == 0.0
    assert grow_penalty((0, 0, 1), Label.SIDE_BRANCH, CFG) == 0.0


def test_grow_penalty_vertical_support():
    expected = 0.3 * (math.pi / 4)
    got = grow_penalty((0, 0, 1), Label.SUPPORT, CFG)
    assert got == pytest.approx(expected, rel=REL)


def test_penalties_nonnegative_and_monotone():
    angles = [0.1 + 0.3 * k for k in range(10)]
    pens = [turn_penalty((math.cos(a), 0, math.sin(a)), (1, 0, 0),
                         Label.LEADER, Label.LEADER, CFG) for a in angles]
    assert all(p >= 0 for p in pens)
    assert all(a <= b + 1e-12 for a, b in zip(pens, pens[1:]))


def _two_edge_context(conf):
    """SearchContext of the path 0 -> 1 -> 2: a unit edge along +X, then
    the edge (0, 0, 0.2) up +Z with confidence ``conf``."""
    graph = make_graph([(0, 0, 0), (1, 0, 0), (1, 0, 0.2)],
                       [(0, 1), (1, 2)])
    return SearchContext(graph, conf_from_dict(graph, {(1, 2): conf}), CFG)


def test_reward_first_edge_perfect_vertical_leader():
    got = _two_edge_context(1.0).reward((1, 2), Label.LEADER, None, None)
    assert got == pytest.approx(0.2, rel=REL)


def test_reward_zero_edge_score_is_minus_penalties():
    ctx = _two_edge_context(CFG.alpha_conf)
    got = ctx.reward((1, 2), Label.SUPPORT, 0, Label.SUPPORT)
    expected = -(turn_penalty((0, 0, 0.2), (1, 0, 0), Label.SUPPORT,
                              Label.SUPPORT, CFG)
                 + grow_penalty((0, 0, 0.2), Label.SUPPORT, CFG))
    assert got == pytest.approx(expected, rel=REL)


def test_reward_composes_the_three_parts():
    e, length, conf = (0, 0, 0.2), 0.2, 0.0
    pred = (1, 0, 0)
    got = _two_edge_context(conf).reward((1, 2), Label.SUPPORT, 0,
                                         Label.SUPPORT)
    expected = (edge_score(length, conf, CFG.alpha_conf)
                - turn_penalty(e, pred, Label.SUPPORT, Label.SUPPORT, CFG)
                - grow_penalty(e, Label.SUPPORT, CFG))
    assert got == pytest.approx(expected, rel=REL)