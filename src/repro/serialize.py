"""One serialization surface for every result object.

The reproduction's result types -- :class:`~repro.sim.activity.ActivityReport`,
:class:`~repro.power.result.PowerReport`,
:class:`~repro.core.gpusimpow.SimulationResult`,
:class:`~repro.telemetry.PowerTrace`, :class:`~repro.sim.config.GPUConfig` --
all expose the same ``to_dict() / from_dict() / to_json() / from_json()``
quartet, implemented once here instead of hand-rolled per class.

Two layers:

* :class:`Serializable` -- a mixin deriving the JSON pair from the dict
  pair, so classes only implement ``to_dict``/``from_dict``;
* :func:`scalar_fields_to_dict` / :func:`scalar_fields_from_dict` -- the
  common case of a flat dataclass of int/float/bool/str fields (activity
  counters, GPU configurations), with strict unknown-key rejection so a
  stale or foreign payload can never silently load as zeros.

JSON floats round-trip exactly in Python (repr-based), so a serialised
result is bit-identical to the in-memory one -- the property the runner
cache and the determinism tests rest on.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Type, TypeVar

T = TypeVar("T")

#: Canonical JSON rendering shared by every ``to_json``: stable key
#: order, light indentation (diff-able artifacts, identical bytes for
#: identical results).
JSON_KWARGS = {"indent": 1, "sort_keys": True}


def dump_json(data: Any) -> str:
    """Serialise ``data`` with the canonical formatting."""
    return json.dumps(data, **JSON_KWARGS)


def write_json_atomic(path: Path, data: Any) -> None:
    """Write ``data`` to ``path`` as sorted-key JSON, atomically.

    ``mkstemp`` + ``os.replace``; the temp file is removed whenever the
    write fails.  The result cache and the surrogate's calibration
    store both write through here.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(data, handle, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class Serializable:
    """Mixin: classes implement the dict pair, inherit the JSON pair."""

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
        raise NotImplementedError

    def to_json(self) -> str:
        """Serialise to JSON (via :meth:`to_dict`)."""
        return dump_json(self.to_dict())

    @classmethod
    def from_json(cls: Type[T], text: str) -> T:
        """Load an instance serialised by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def scalar_fields_to_dict(obj, sparse: bool = False) -> Dict[str, Any]:
    """Plain dict of a flat dataclass's fields (stable field order).

    Args:
        sparse: Drop zero-valued entries (compact transport for the
            mostly-empty per-window activity deltas); ``from`` fills the
            defaults back in.
    """
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if (sparse and (value == 0 or value == 0.0)
                and not isinstance(value, str)):
            continue
        out[f.name] = value
    return out


def scalar_fields_from_dict(cls: Type[T], data: Dict[str, Any],
                            label: str = "fields") -> T:
    """Rebuild a flat dataclass from :func:`scalar_fields_to_dict` output.

    Missing keys keep their defaults (partial payloads are valid);
    unknown keys raise ``ValueError`` naming ``label`` (stale or foreign
    payloads fail loudly).  Values are coerced to the default's type so
    JSON round-trips preserve int-ness.
    """
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {label}: {sorted(unknown)}")
    defaults = cls()
    kwargs = {}
    for name, value in data.items():
        current = getattr(defaults, name)
        if isinstance(current, bool):
            value = bool(value)
        elif isinstance(current, int) and not isinstance(value, bool):
            value = int(value)
        elif isinstance(current, float):
            value = float(value)
        kwargs[name] = value
    # Construct through __init__ so dataclass validation hooks
    # (e.g. GPUConfig.__post_init__) see the loaded values.
    return cls(**kwargs)


def keyword_only(cls):
    """Class decorator making a dataclass's ``__init__`` keyword-only.

    Portable to Python 3.9 (``dataclass(kw_only=True)`` needs 3.10).
    Used by :class:`~repro.sim.config.GPUConfig` so positional-argument
    drift can never silently bind a value to the wrong parameter as
    fields are added or reordered.
    """
    generated_init = cls.__init__

    def __init__(self, *args, **kwargs):
        if args:
            raise TypeError(
                f"{cls.__name__} parameters are keyword-only; got "
                f"{len(args)} positional argument(s)")
        generated_init(self, **kwargs)

    __init__.__wrapped__ = generated_init
    cls.__init__ = __init__
    return cls
