"""One JSON form for the config and manifest dataclasses.

``encode`` and ``decode`` walk ``dataclasses.fields`` and the type hints:
an object's keys are its fields in declaration order, and a field named
``params`` is flattened into the object, taking every key the class does
not declare. Values are checked, never coerced, so a text that decodes
encodes back to the same values. An ``int`` is a JSON integer in the
signed 64-bit range, a ``float`` any finite JSON number, a ``str`` a JSON
string; a bool is none of these.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import reprlib
import typing
from pathlib import Path
from typing import Any, Callable

logger = logging.getLogger(__name__)

_INT64 = 1 << 63
_NUMBER_TYPES = frozenset((int, float))


class ConfigError(ValueError):
    """Invalid configuration or record; the message names the offending field."""


def _is_int(v: Any) -> bool:
    return type(v) is int and -_INT64 <= v < _INT64


def _is_number_list(v: Any) -> bool:
    try:
        return type(v) is list and _NUMBER_TYPES.issuperset(map(type, v)) and all(map(math.isfinite, v))
    except OverflowError:  # an integer beyond the float range
        return False


def _is_number(v: Any) -> bool:
    return _is_number_list([v])


# type hint -> (predicate, what it expects)
_CHECKS: dict[Any, tuple[Callable[[Any], bool], str]] = {
    int: (_is_int, "an integer"),
    float: (_is_number, "a finite number"),
    str: (lambda v: type(v) is str, "a string"),
    list[float]: (_is_number_list, "a list of finite numbers"),
}


def _mismatch(where: str, expected: str, value: Any) -> ConfigError:
    return ConfigError(f"{where}: expected {expected}, got {reprlib.repr(value)}")


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, Any, Any, Any], ...]:
    """(name, predicate or None, what it expects or the nested dataclass,
    default or MISSING) for every field but ``params``, built once per class."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        if f.name != "params":
            tp = hints[f.name]
            ok, expected = (None, tp) if dataclasses.is_dataclass(tp) else _CHECKS[tp]
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            out.append((f.name, ok, expected, default))
    return tuple(out)


def encode(obj: Any) -> dict[str, Any]:
    """The JSON object of a dataclass instance."""
    out: dict[str, Any] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name == "params":
            out.update(value)
        else:
            out[f.name] = encode(value) if dataclasses.is_dataclass(value) else value
    return out


def decode(cls: type, data: Any, where: str) -> Any:
    """Build ``cls`` from its JSON object. A missing field with a default
    takes it (logged); any other problem raises ConfigError naming
    ``where`` and the field."""
    if type(data) is not dict:
        raise _mismatch(where, "a JSON object", data)
    kwargs: dict[str, Any] = {}
    for name, ok, expected, default in _fields(cls):
        value = data.get(name, dataclasses.MISSING)
        if value is dataclasses.MISSING:
            if default is dataclasses.MISSING:
                raise ConfigError(f"{where}: missing field {name}")
            logger.info("%s.%s missing, defaulting to %r", where, name, default)
        elif ok is None:
            kwargs[name] = decode(expected, value, f"{where}.{name}")
        elif ok(value):
            kwargs[name] = value
        else:
            raise _mismatch(f"{where}.{name}", expected, value)
    if len(kwargs) < len(data):
        rest = {k: v for k, v in data.items() if k not in kwargs}
        if not any(f.name == "params" for f in dataclasses.fields(cls)):
            raise ConfigError(f"unknown {where} field(s): {', '.join(sorted(map(str, rest)))}")
        kwargs["params"] = rest
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_json(path: str | Path, what: str = "config file") -> Any:
    """Parse a JSON file; a missing, unreadable or unparsable file is a
    ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: {exc}") from exc


def check_params(params: dict[str, Any], table: dict[str, type], what: str) -> None:
    """Check a spec's per-kind parameters against its table of name -> type."""
    unknown = sorted(map(str, params.keys() - table.keys()))
    if unknown:
        raise ConfigError(f"unknown {what} parameter(s): {', '.join(unknown)}")
    for name, value in params.items():
        ok, expected = _CHECKS[table[name]]
        if not ok(value):
            raise _mismatch(f"{what} {name}", expected, value)
