"""Building the config dataclasses from the JSON objects of a manifest.

Shared by the run manifest and its benchmark object, so that both reject
unknown keys, missing required ones and scalars of the wrong JSON type the
same way.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields

from .errors import ConfigError

# The JSON types a scalar config field takes, keyed by its annotation (a
# string, as annotations are postponed). A float field also takes an integer,
# but no infinity or NaN; a bool is never taken for a number, though Python
# counts it as an int.
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "a boolean"),
}


def _check_scalar(cls, key: str, annotation: str, value) -> None:
    """Reject a scalar setting whose JSON type does not match its field."""
    kind = annotation.removesuffix(" | None")
    if kind not in _JSON_TYPES or (value is None and kind != annotation):
        return
    types, name = _JSON_TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and kind != "bool"):
        raise ConfigError(f"{cls.__name__} field '{key}' must be {name}, got {value!r}")
    if kind == "float" and not -math.inf < value < math.inf:
        raise ConfigError(f"{cls.__name__} field '{key}' must be finite, got {value!r}")


def build(cls, raw, keys: dict[str, str] | None = None):
    """Build the dataclass ``cls`` from the JSON object ``raw``.

    The keys are the field names, renamed by ``keys``. Unknown keys,
    missing required ones and scalars of the wrong JSON type are rejected,
    and a field with a ``default_factory`` is built from its own object the
    same way.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{cls.__name__} settings must be a JSON object, got {raw!r}")
    by_key = {(keys or {}).get(f.name, f.name): f for f in fields(cls)}
    unknown = set(raw) - set(by_key)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    kwargs = {}
    for key, f in by_key.items():
        if key in raw:
            nested = f.default_factory
            if nested is MISSING:
                _check_scalar(cls, key, f.type, raw[key])
                kwargs[f.name] = raw[key]
            else:
                kwargs[f.name] = build(nested, raw[key])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{cls.__name__} needs '{key}'")
    return cls(**kwargs)
