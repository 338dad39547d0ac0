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
