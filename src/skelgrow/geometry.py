"""Scalar scoring formulas: angles, edge score, penalties, edge cost.

Edge vectors are plain 3-sequences (parent -> child). All math runs on
Python floats; these functions sit in the inner loop of the search.
"""

from __future__ import annotations

import math

from .config import SearchConfig
from .errors import ConfigError, DegenerateGeometryError
from .labels import Label


def _norm3(v) -> float:
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def turn_angle(e_s, e_p) -> float:
    """Angle in [0, pi] between an edge vector and its predecessor's."""
    ns = _norm3(e_s)
    np_ = _norm3(e_p)
    if ns == 0.0 or np_ == 0.0:
        raise DegenerateGeometryError("turn_angle of zero-length edge vector")
    dot = (e_s[0] * e_p[0] + e_s[1] * e_p[1] + e_s[2] * e_p[2]) / (ns * np_)
    # Clamp against float noise before arccos.
    if dot > 1.0:
        dot = 1.0
    elif dot < -1.0:
        dot = -1.0
    return math.acos(dot)


def grow_angle(e) -> float:
    """Elevation of the edge in the XZ plane, in [0, pi/2].

    Purely-Y edges have no XZ projection; they are reported as pi/2.
    """
    if _norm3(e) == 0.0:
        raise DegenerateGeometryError("grow_angle of zero-length edge vector")
    ax = abs(e[0])
    az = abs(e[2])
    if ax == 0.0 and az == 0.0:
        return math.pi / 2
    return math.atan2(az, ax)


def edge_score(length: float, conf: float, alpha_conf: float) -> float:
    """Length-weighted confidence score; negative iff conf < alpha_conf."""
    if alpha_conf >= 1.0:
        raise ConfigError("alpha_conf must be < 1")
    return length * (1.0 - (1.0 - conf) / (1.0 - alpha_conf))


def bend_penalty(e_s, e_p, cfg: SearchConfig) -> float:
    """Penalty for the bend from edge e_p into edge e_s, whatever their
    labels; zero up to the angle threshold."""
    ang = turn_angle(e_s, e_p)
    if ang <= cfg.theta_turn_min:
        return 0.0
    return cfg.c_turn * (ang - cfg.theta_turn_min) ** cfg.p_turn


def grow_penalty(e, label: Label, cfg: SearchConfig) -> float:
    """Penalty for supports that are not horizontal / leaders not vertical."""
    if label is Label.SUPPORT:
        delta = grow_angle(e)
    elif label is Label.LEADER:
        delta = math.pi / 2 - grow_angle(e)
    else:
        return 0.0
    if delta <= cfg.theta_grow_min:
        return 0.0
    return cfg.c_grow * (delta - cfg.theta_grow_min) ** cfg.p_grow


def edge_cost(e_s, e_p, length: float, conf: float,
              cfg: SearchConfig) -> float:
    """Transition cost for entering edge e_s after e_p (None at path start):
    Len * (1 - Conf) plus the bend penalty."""
    cost = length * (1.0 - conf)
    if e_p is not None:
        cost += bend_penalty(e_s, e_p, cfg)
    return cost
