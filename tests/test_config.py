"""Config-file loading and field validation."""

import dataclasses
import math

import pytest

from skelgrow.config import SearchConfig, config_from_dict
from skelgrow.errors import ConfigError

FIELDS = {f.name: f.type for f in dataclasses.fields(SearchConfig)}


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize(
    "value", ["0.1", None, True, [1], math.nan, math.inf, -math.inf],
    ids=["str", "null", "bool", "list", "nan", "inf", "-inf"])
def test_field_of_wrong_type_or_non_finite_rejected(name, value):
    with pytest.raises(ConfigError, match=name):
        config_from_dict({name: value})


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_type_checked(name):
    good = dataclasses.asdict(SearchConfig())[name]
    assert getattr(config_from_dict({name: good}).search, name) == good
    if FIELDS[name] == "int":
        with pytest.raises(ConfigError, match="finite int"):
            config_from_dict({name: float(good)})
    else:
        # An int too large for a float is not a finite float value.
        with pytest.raises(ConfigError, match="finite float"):
            config_from_dict({name: 10 ** 400})


@pytest.mark.parametrize("key", ["crop.min", "crop.max"])
def test_crop_box_with_one_corner_rejected(key):
    with pytest.raises(ConfigError, match="together"):
        config_from_dict({key: [5, 5, 5]})


@pytest.mark.parametrize("corner", [[0, 0, 2]], ids=["inverted"])
def test_inverted_crop_box_rejected(corner):
    with pytest.raises(ConfigError, match="must not exceed"):
        config_from_dict({"crop.min": corner, "crop.max": [1, 1, 1]})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["crop.min", "crop.max"])
def test_non_finite_crop_corner_rejected(key, value):
    """A NaN or infinite corner is refused as not finite, before the two
    corners are compared."""
    doc = {"crop.min": [0, 0, 0], "crop.max": [1, 1, 1]}
    doc[key] = [0.5, value, 0.5]
    with pytest.raises(ConfigError, match=f"{key} .* all finite"):
        config_from_dict(doc)


def test_crop_corner_of_booleans_rejected():
    with pytest.raises(ConfigError, match="3 numbers"):
        config_from_dict({"crop.min": [0, 0, 0], "crop.max": [True, 1, 1]})


def test_flat_crop_box_accepted():
    # A box that is flat on an axis is still a box.
    cfg = config_from_dict({"crop.min": [0, 0, 1], "crop.max": [1, 1, 1]})
    assert (cfg.crop_min, cfg.crop_max) == ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))
