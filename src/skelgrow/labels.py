"""Edge labels and their progression order."""

from __future__ import annotations

import enum


class Label(enum.Enum):
    TRUNK = "Trunk"
    SUPPORT = "Support"
    LEADER = "Leader"
    SIDE_BRANCH = "SideBranch"

    # Members are singletons, so identity is equality: hash them as plain
    # objects, in C, not by name through Enum.__hash__. The search hashes
    # labels in every memoised rule lookup.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# Progression order, a plain attribute of each member.
Label.TRUNK.order = 0
Label.SUPPORT.order = 1
Label.LEADER.order = 2
Label.SIDE_BRANCH.order = 3

#: The labels assignable during skeleton growth and post-processing.
STRUCTURAL_LABELS = (Label.TRUNK, Label.SUPPORT, Label.LEADER)

#: Fixed palette for colored exports: label -> (r, g, b).
LABEL_COLORS = {
    Label.TRUNK: (140, 70, 20),
    Label.SUPPORT: (220, 60, 60),
    Label.LEADER: (60, 120, 220),
    Label.SIDE_BRANCH: (60, 200, 60),
}


def parse_label(name: str) -> Label:
    for label in Label:
        if label.value == name:
            return label
    raise ValueError(f"unknown label {name!r}")
