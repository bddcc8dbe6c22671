"""One JSON form for the config and manifest dataclasses.

``encode`` walks ``dataclasses.fields`` and gives an object's keys as its
fields in declaration order; a field named ``params`` is flattened into
the object. ``field_checks`` gives each field's check from its type hint.
An ``int`` is a JSON integer in the signed 64-bit range
``[-INT_LIMIT, INT_LIMIT)``, a ``float`` a finite JSON float or a finite
``float`` subclass, which JSON writes as the float, but neither an
integer nor -0.0, so each value has one text; a ``str`` a JSON string
and a ``list[float]`` a JSON array of numbers, finite or not; a bool is
none of these. A field whose type is a dataclass holds an
instance of it. Values are checked, never coerced, so a text that decodes
encodes back to the same values. ``check_fields`` applies the checks: the
config classes call it first thing when built, so a config that builds
encodes to a text that decodes back to it, and
``CuratedSegment.from_json`` calls it on each manifest line, whose record
then checks its own invariants, the finiteness of its lists included, by
``all_finite``. ``check_kind`` checks a backend spec's kind and
its ``params`` against the spec's table of kinds. ``decode`` maps a JSON
object onto a class's fields and builds it, and ``params`` takes every
key the class does not declare.
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
from typing import Any, Callable, Iterable, Mapping

logger = logging.getLogger(__name__)

INT_LIMIT = 1 << 63
NUMBER_TYPES = frozenset((int, float))  # exact types: a bool is not a number


class ConfigError(ValueError):
    """Invalid configuration or record; the message names the offending field."""


def _is_int(v: Any) -> bool:
    return type(v) is int and -INT_LIMIT <= v < INT_LIMIT


def all_finite(values: Iterable[Any]) -> bool:
    """Whether every value is a finite real number; an integer beyond the
    float range is not."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


# type hint -> (predicate, what it expects)
_CHECKS: dict[Any, tuple[Callable[[Any], bool], str]] = {
    int: (_is_int, "an integer"),
    # not an integer nor -0.0, each equal to a float that JSON writes as another text
    float: (lambda v: isinstance(v, float) and math.isfinite(v) and (v < 0 or math.copysign(1.0, v) > 0),
            "a finite float other than -0.0"),
    str: (lambda v: type(v) is str, "a string"),
    list[float]: (lambda v: type(v) is list and NUMBER_TYPES.issuperset(map(type, v)),
                  "a list of numbers"),
}


def mismatch(where: str, expected: str, value: Any) -> ConfigError:
    """The error for a value that is not of the JSON type expected at ``where``."""
    return ConfigError(f"{where}: expected {expected}, got {reprlib.repr(value)}")


@functools.cache
def field_checks(cls: type) -> tuple[tuple[str, Any, Any, Any], ...]:
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


def check_fields(cls: type, values: Mapping[str, Any], where: str = "") -> None:
    """Raise ConfigError, naming ``where`` followed by the field, unless each
    field of ``cls`` but ``params`` holds in ``values`` what its annotation
    gives; a field missing from ``values`` raises KeyError."""
    for name, ok, expected, _ in field_checks(cls):
        value = values[name]
        if not (ok(value) if ok else isinstance(value, expected)):
            raise mismatch(where + name, expected, value)


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
    """Build ``cls`` from its JSON object, whose field types ``cls`` checks
    when built. A missing field with a default takes it (logged); any other
    problem raises ConfigError naming ``where`` and the field."""
    if type(data) is not dict:
        raise mismatch(where, "a JSON object", data)
    kwargs: dict[str, Any] = {}
    for name, ok, expected, default in field_checks(cls):
        value = data.get(name, dataclasses.MISSING)
        if value is dataclasses.MISSING:
            if default is dataclasses.MISSING:
                raise ConfigError(f"{where}: missing field {name}")
            logger.info("%s.%s missing, defaulting to %r", where, name, default)
        else:
            kwargs[name] = value if ok else decode(expected, value, f"{where}.{name}")
    if len(kwargs) < len(data):
        rest = {k: v for k, v in data.items() if k not in kwargs}
        if not any(f.name == "params" for f in dataclasses.fields(cls)):
            raise ConfigError(f"unknown {where} field(s): {', '.join(sorted(map(str, rest)))}")
        kwargs["params"] = rest
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def canonical_json(data: Any) -> str:
    """A JSON value's one text, keys sorted and no whitespace, over which
    config hashes and enhancer identifiers are taken."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


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
    except RecursionError as exc:  # nesting deeper than the parser's recursion limit
        raise ConfigError(f"{p}: JSON nested too deeply: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: {exc}") from exc


def check_kind(kind: str, params: Any, kinds: dict[str, dict[str, type]], what: str) -> None:
    """Raise ConfigError unless ``kind`` is a key of ``kinds`` and ``params``
    is a dict whose every key that kind's table of name -> type names, with
    a value of that type."""
    if kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}; expected one of {tuple(kinds)}")
    what = f"{kind} {what}"
    if type(params) is not dict:
        raise mismatch(f"{what} params", "a JSON object", params)
    unknown = sorted(map(str, params.keys() - kinds[kind].keys()))
    if unknown:
        raise ConfigError(f"unknown {what} parameter(s): {', '.join(unknown)}")
    for name, value in params.items():
        ok, expected = _CHECKS[kinds[kind][name]]
        if not ok(value):
            raise mismatch(f"{what} {name}", expected, value)
