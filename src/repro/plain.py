"""Plain data in: one loader for every class a JSON object describes.

A scenario file, a ``POST /sessions`` body, a fault plan, a sweep-axes
file and a logged admission decision all arrive as plain data, and each
describes one class.  :func:`load` builds that class from its own
constructor: the known keys are the constructor's keyword parameters (a
dataclass's fields), and before the constructor runs each given value's
JSON type is checked against that parameter's annotation:

* ``bool`` — ``true`` or ``false`` only;
* ``int`` — an integer, not a bool (``2.0`` is refused);
* ``float`` — an integer or a float, not a bool, and finite;
* ``str`` — a string; an ``Enum`` — a member or its value by name;
* ``Optional[X]`` — ``null`` or X;
* a tuple, list or sequence of X — an array of X (a fixed-length tuple
  an array of that length); ``Dict`` / ``Mapping`` — an object (copied);
* a dataclass — an object, loaded by these same rules;
* any other class — an instance of it, already built.

The loader asks only whether this is the right shape of plain data: which
keys, which JSON types, finite numbers.  Value ranges stay with the class
that owns them (its ``__post_init__`` or ``__init__``): a value is checked
by the code that builds it.  A refusal is one sentence naming the place,
the key and the value (``fault plan crashes[0] node_id must be an
integer, got 3.5``); an unknown key gets :func:`reject_unknown_keys`'s
sentence.  Each class's annotations are resolved once and kept.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import math
import typing
from collections.abc import Mapping, Sequence
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple


def reject_unknown_keys(
    data: Mapping[str, Any], known: FrozenSet[str], what: str
) -> None:
    """Strict plain-data loading: one-line rejection naming the first bad key."""
    unknown = sorted(k for k in data if k not in known)
    if unknown:
        raise ValueError(
            f"unknown {what} key {unknown[0]!r}; expected one of {sorted(known)}"
        )


class _Wrong(Exception):
    """A value of the wrong JSON type (``args``: what it must be, and the
    value), on its way up to the key holding it."""

    #: the steps from the loaded object down to the value
    at = ""


#: one value's check: the value the constructor gets, or :class:`_Wrong`
Check = Callable[[Any], Any]


def _is(test: Callable[[Any], bool], noun: str) -> Check:
    """The check passing, as it is, each value ``test`` accepts."""

    def check(value: Any) -> Any:
        if test(value):
            return value
        raise _Wrong(noun, value)

    return check


def _float(value: Any) -> Any:
    """The commonest check, kept cheap: a request is mostly numbers."""
    if (type(value) is float or type(value) is int) and value - value == 0:
        return value  # finite: inf - inf and nan - nan are nan
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return value  # a subclass, such as numpy's float64
    raise _Wrong("a finite number", value)


#: the exact types of a JSON number (not bool, a subclass of int)
_NUMBERS = frozenset({float, int})

_SCALARS: Dict[Any, Check] = {
    bool: _is(lambda v: v is True or v is False, "true or false"),
    int: _is(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: _float,
    str: _is(lambda v: isinstance(v, str), "a string"),
}


def _object(value: Any) -> Any:
    if isinstance(value, dict):
        return dict(value)
    raise _Wrong("an object", value)


def _array(item: Check, build: type, length: Optional[int]) -> Check:
    noun = "an array" if length is None else f"an array of {length}"
    numbers = item is _float  # a path's waypoints: one pass in C, no call per number

    def check(value: Any) -> Any:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            raise _Wrong(noun, value)
        if numbers and _NUMBERS.issuperset(map(type, value)) and all(map(math.isfinite, value)):
            return build(value)
        try:
            return build(map(item, value))
        except _Wrong:
            for index, element in enumerate(value):  # which one, for the message
                try:
                    item(element)
                except _Wrong as wrong:
                    wrong.at = f"[{index}]{wrong.at}"
                    raise
            raise

    return check


def _member(cls: type) -> Check:
    """An enum member, or its value in any case."""
    members = {member.value: member for member in cls}

    def check(value: Any) -> Any:
        if isinstance(value, cls):
            return value
        member = members.get(value.lower()) if isinstance(value, str) else None
        if member is None:
            raise _Wrong(f"one of {list(members)}", value)
        return member

    return check


def _nested(cls: type) -> Check:
    """A dataclass: an object loaded by the same rules.  Its unknown and
    missing keys are refused under the class's ``plain_name``."""
    what = getattr(cls, "plain_name", cls.__name__)
    return lambda value: cls(**_checked(cls, value, what, None))


def _check_for(hint: Any) -> Check:
    """The check for one annotation (resolved once per class)."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        inner = _check_for(args[args[0] is type(None)])
        return lambda value: None if value is None else inner(value)
    if origin in (tuple, list, Sequence) and len(set(args) - {Ellipsis}) == 1:
        fixed = origin is tuple and Ellipsis not in args
        item = _check_for(args[0])
        return _array(item, list if origin is list else tuple, len(args) if fixed else None)
    if hint in (dict, Mapping) or origin in (dict, Mapping):
        return _object
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return _member(hint)
    if dataclasses.is_dataclass(hint):
        return _nested(hint)
    if isinstance(hint, type):
        return _is(lambda v: isinstance(v, hint), "an object")
    raise TypeError(f"no plain-data form for {hint!r}")


@functools.lru_cache(maxsize=None)
def _shape(cls: type) -> Tuple[Dict[str, Check], Tuple[str, ...]]:
    """``cls``'s constructor as plain data sees it: each keyword
    parameter's check, and the parameters without a default."""
    hints = typing.get_type_hints(cls.__init__)
    params = [
        p for p in inspect.signature(cls).parameters.values()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    ]
    checks = {p.name: _check_for(hints[p.name]) for p in params}
    return checks, tuple(p.name for p in params if p.default is p.empty)


def parameters(cls: type) -> FrozenSet[str]:
    """The keys plain data may give ``cls``: its keyword parameters."""
    return frozenset(_shape(cls)[0])


def _checked(
    cls: type, data: Any, what: str, keys: Optional[FrozenSet[str]]
) -> Dict[str, Any]:
    checks, required = _shape(cls)
    if not isinstance(data, dict):
        raise _Wrong("an object", data)
    known = checks.keys() if keys is None else keys
    if not data.keys() <= known:
        reject_unknown_keys(data, known, what)
    kwargs = {}
    for key, value in data.items():
        try:
            kwargs[key] = checks[key](value)
        except _Wrong as wrong:
            wrong.at = f" {key}{wrong.at}"
            raise
    for key in required:
        if key not in kwargs:
            raise ValueError(f"a {what} needs {key!r}")
    return kwargs


def checked(
    cls: type, data: Any, what: str, keys: Optional[FrozenSet[str]] = None
) -> Dict[str, Any]:
    """``data``'s keyword arguments for ``cls``, each value's type checked.

    ``what`` names the object in every refusal.  ``keys`` narrows the
    parameters an edge exposes (default: all of them); a key in it that
    is no parameter of ``cls`` is the caller's to remove beforehand.
    """
    try:
        return _checked(cls, data, what, keys)
    except _Wrong as wrong:
        noun, value = wrong.args
        raise ValueError(f"{what}{wrong.at} must be {noun}, got {value!r}") from None


def load(
    cls: type, data: Any, what: str, keys: Optional[FrozenSet[str]] = None
) -> Any:
    """``cls`` built from the plain dict ``data`` (see :func:`checked`)."""
    return cls(**checked(cls, data, what, keys))


__all__ = ["checked", "load", "parameters", "reject_unknown_keys"]
