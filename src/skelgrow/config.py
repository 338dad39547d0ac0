"""Tunable parameters of the pipeline and the flat config-file loader."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


def check_field_types(obj, error=ConfigError) -> None:
    """Raise ``error`` unless every field of the dataclass ``obj`` holds a
    finite value of its annotated type: an int (not a bool) for ``int``,
    an int or float for ``float``.

    A file can hold any JSON value, and range checks assume finite numbers.
    The annotations are strings, so the calling module must use
    ``from __future__ import annotations``.
    """
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        kinds = int if f.type == "int" else (int, float)
        if (isinstance(v, bool) or not isinstance(v, kinds)
                or not abs(v) <= sys.float_info.max):
            raise error(f"{f.name} must be a finite {f.type}, got {v!r}")


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


_SEARCH_KEYS = {f.name for f in dataclasses.fields(SearchConfig)}


def load_config(path: str | Path) -> PipelineConfig:
    """Load a flat-key JSON config file.

    Recognized keys are the ``SearchConfig`` field names plus ``crop.min``
    and ``crop.max`` (both or neither); anything else is an error.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object of flat keys")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> PipelineConfig:
    unknown = set(raw) - _SEARCH_KEYS - {"crop.min", "crop.max"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    search_kwargs = {k: raw[k] for k in raw if k in _SEARCH_KEYS}

    def _box(key):
        if key not in raw:
            return None
        v = raw[key]
        if (not isinstance(v, (list, tuple)) or len(v) != 3
                or not all(type(x) in (int, float) for x in v)):
            raise ConfigError(f"{key} must be a list of 3 numbers")
        return tuple(float(x) for x in v)

    return PipelineConfig(
        search=SearchConfig(**search_kwargs),
        crop_min=_box("crop.min"),
        crop_max=_box("crop.max"),
    )
