"""Every file read and written, and the value checks of each JSON document:
one can hold any JSON value, ``NaN`` and ``Infinity`` included, and a bool
is an int to Python; the program assumes finite numbers and int ids."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError


def read_json(path):
    """The JSON document in the file ``path``. OSError and JSONDecodeError
    reach the caller; the latter names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc,
                                       exc.pos) from None


@contextlib.contextmanager
def replaced(path, mode: str = "w", **open_kwargs):
    """A file open on ``<path>.<pid>.tmp``, renamed over ``path`` if the
    block succeeds and removed if it raises: no partial file remains."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    with replaced(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def is_int(v) -> bool:
    """An int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A finite int or float, not a bool; ints past the float range fail."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def is_point(v) -> bool:
    """A list or tuple of three finite numbers."""
    return (isinstance(v, (list, tuple)) and len(v) == 3
            and all(map(is_number, v)))


def check_field_types(obj, error=ConfigError) -> None:
    """Raise ``error`` unless each field of the dataclass ``obj`` annotated
    ``int`` holds an int and each other field a finite number. The
    annotations are strings, so the calling module must use
    ``from __future__ import annotations``."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if not (is_int if f.type == "int" else is_number)(v):
            raise error(f"{f.name} must be a finite {f.type}, got {v!r}")


def dataclass_from_json(cls, raw, what: str, extra=()):
    """``cls(**raw)`` for the dataclass ``cls``, once ``raw`` is a JSON
    object whose keys all name fields of ``cls`` or are in ``extra``, keys
    the caller reads itself. Raises ConfigError, naming the document
    ``what``, otherwise, and in place of a ValueError that ``cls`` raises."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} root must be a JSON object of flat keys")
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)} - {*extra}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return cls(**{k: v for k, v in raw.items() if k not in extra})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
