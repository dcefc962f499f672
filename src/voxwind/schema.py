"""Config fields declared with `setting`: type, range and default, stated once.

`build` makes a config object from parsed JSON, rejecting unknown keys, and
`check_fields` validates one; both name a failing field by its path, as in
`tunnel.air_speed`.
Bools are never numbers, and an int passes for a float.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import EnumMeta
from functools import cache

import numpy as np

from .errors import ConfigError

_BIGGEST = 1.7976931348623157e308   # as a bound it admits every finite float


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


@dataclass(frozen=True)
class Rule:
    """What one field accepts, and how an error message describes it. kind is
    int, float, str, an Enum, a config dataclass, or a tuple of config
    dataclasses whose settings share one JSON object, kept as a dict."""

    kind: object
    what: str
    lo: float = -_BIGGEST       # inclusive number bounds
    hi: float = _BIGGEST
    length: int = 0             # > 0: exactly this many numbers, each in range
    choices: tuple = ()         # the allowed strings, when not empty
    optional: bool = False      # None is allowed

    def _number(self, v) -> bool:
        if isinstance(v, np.generic):
            v = v.item()    # a Python number: no overflow when compared with the bounds
        return (not isinstance(v, bool) and isinstance(v, int if self.kind is int else (int, float))
                and self.lo <= v <= self.hi)

    def check(self, value, prefix: str, name: str) -> None:
        """Raise ConfigError naming prefix.name unless value obeys the rule."""
        kind = self.kind
        if kind is int or kind is float:
            ok = (self._number(value) if not self.length else
                  isinstance(value, (tuple, list)) and len(value) == self.length
                  and all(map(self._number, value)))
        elif value is None:
            ok = self.optional
        elif isinstance(kind, tuple):
            declared = rules(*kind)
            for key, v in value.items():
                declared[key].check(v, _join(prefix, name), key)
            return
        else:
            ok = isinstance(value, kind) and (not self.choices or value in self.choices)
            if ok and is_dataclass(kind):
                path = _join(prefix, name)
                validate = getattr(value, "validate", None)
                return validate(path) if validate else check_fields(value, path)
        if not ok:
            raise ConfigError(f"{_join(prefix, name)}: expected {self.what}, got {value!r}")

    def load(self, value, path: str):
        """The JSON value at path in the field's type, where it has that type's
        shape; `check` judges what it holds."""
        kind = self.kind
        if isinstance(kind, tuple):
            return {**defaults(*kind), **read(kind, value, path)}
        if is_dataclass(kind) and not (value is None and self.optional):
            return build(kind, value, path)
        if self.length and isinstance(value, list):
            return tuple(float(v) if kind is float and type(v) is int else v for v in value)
        if isinstance(kind, EnumMeta):
            return next((m for m in kind if m.value == value), value)
        return value


def setting(default=MISSING, kind=None, *, factory=MISSING, ge=None, gt=None,
            le=None, lt=None, choices=()):
    """A dataclass field with its rule. kind defaults to the type of `default`
    (of its items, and its length, for a tuple) or to `factory`; a None
    default makes the field optional."""
    length = 0
    if kind is None:
        if factory is not MISSING:
            kind = factory
        elif isinstance(default, tuple):
            kind, length = type(default[0]), len(default)
        else:
            kind = type(default)
    if choices or isinstance(kind, EnumMeta):
        what = "one of " + ", ".join(choices or (m.value for m in kind))
    else:
        what = {int: "an integer", float: "a finite number", str: "a string"}.get(
            kind, "a JSON object" if isinstance(kind, tuple) else f"a {kind.__name__}")
    bounds = [f"{op} {b:g}" for op, b in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
              if b is not None]
    if bounds:
        what += " " + " and ".join(bounds)
    if length:
        what = f"{length} values, each {what}"
    lo = math.nextafter(gt, math.inf) if gt is not None else -_BIGGEST if ge is None else ge
    hi = math.nextafter(lt, -math.inf) if lt is not None else _BIGGEST if le is None else le
    rule = Rule(kind, what, lo, hi, length, tuple(choices), optional=default is None)
    return field(default=default, default_factory=factory, metadata={"rule": rule})


@cache
def rules(*classes) -> dict:
    """{field name: Rule} for the declared fields of config dataclasses."""
    return {f.name: f.metadata["rule"]
            for cls in classes for f in fields(cls) if "rule" in f.metadata}


def check_fields(obj, prefix: str) -> None:
    """Raise ConfigError for the first field of obj that breaks its rule."""
    for name, rule in rules(type(obj)).items():
        rule.check(getattr(obj, name), prefix, name)


def defaults(*classes) -> dict:
    """The default of every declared field of `classes`."""
    return {f.name: f.default if f.default_factory is MISSING else f.default_factory()
            for cls in classes for f in fields(cls) if "rule" in f.metadata}


def read(classes, data, path: str) -> dict:
    """Keyword arguments for `classes` from a JSON object whose every key
    names a declared field. The values are not checked: see `check_fields`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object")
    declared = rules(*classes)
    out = {}
    for key, value in data.items():
        if key not in declared:
            raise ConfigError(f"{_join(path, key)}: unknown key")
        out[key] = declared[key].load(value, _join(path, key))
    return out


def build(cls, data, path: str):
    """A cls from a JSON object; see `read`."""
    return cls(**read((cls,), data, path))
