"""Tunable parameters of the pipeline and the flat config-file loader."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .values import (check_field_types, dataclass_from_json, is_point,
                     read_json)


@dataclass(frozen=True)
class SearchConfig:
    """All tunable parameters of the skeletonization pipeline.

    Defaults follow the published parameter table; ``seed`` is an
    artifact addition.
    """

    r_super: float = 0.10
    alpha_tip: float = 0.60
    alpha_conf: float = 0.40
    theta_turn_min: float = math.pi / 4
    c_turn: float = 0.5
    p_turn: float = 2.0
    theta_grow_min: float = math.pi / 4
    c_grow: float = 0.3
    p_grow: float = 1.0
    K: int = 500
    k_max_rep: int = 3
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("r_super", "theta_turn_min", "theta_grow_min"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("alpha_conf", "alpha_tip"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ConfigError(f"{name} must be in (0, 1), got {v}")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        if self.k_max_rep < 1:
            raise ConfigError("k_max_rep must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class PipelineConfig:
    """Search parameters plus the optional axis-aligned crop box, given
    by both corners or by neither."""

    search: SearchConfig = dataclasses.field(default_factory=SearchConfig)
    crop_min: tuple[float, float, float] | None = None
    crop_max: tuple[float, float, float] | None = None

    def __post_init__(self):
        if (self.crop_min is None) != (self.crop_max is None):
            raise ConfigError("crop.min and crop.max must be given together")
        # Written so that a NaN corner fails too.
        if self.crop_min is not None and not all(
                lo <= hi for lo, hi in zip(self.crop_min, self.crop_max)):
            raise ConfigError(f"crop.min {list(self.crop_min)} must not exceed"
                              f" crop.max {list(self.crop_max)} on any axis")


_CROP_KEYS = ("crop.min", "crop.max")


def load_config(path: str | Path) -> PipelineConfig:
    """Load a flat-key JSON config file.

    Recognized keys are the ``SearchConfig`` field names plus ``crop.min``
    and ``crop.max`` (both or neither); anything else is an error.
    """
    return config_from_dict(read_json(path))


def config_from_dict(raw: dict) -> PipelineConfig:
    search = dataclass_from_json(SearchConfig, raw, "config", _CROP_KEYS)
    corners = []
    for key in _CROP_KEYS:
        if key in raw and not is_point(raw[key]):
            raise ConfigError(f"{key} must be a list of 3 numbers, all "
                              f"finite, got {raw[key]!r}")
        corners.append(tuple(map(float, raw[key])) if key in raw else None)
    return PipelineConfig(search, *corners)
