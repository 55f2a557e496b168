"""Declarative schemas for the tool fleet's versioned JSON reports.

A report module declares its document's shape once as a *spec*, a
callable ``spec(node, where)`` built from the vocabulary below, and
checks documents with :func:`validate`.  Every spec checks its node's
type before it looks inside, so a malformed document raises only
:class:`SchemaError`, whose message starts with the path of the node at
fault (the root is ``document``), e.g.
``scenarios[0].layers[1].availability: must be in [0, 1], got 1.2``.
An :func:`obj` ``check`` hook runs once the node's fields have
validated.  A block the producer derives from the rest of the document
(a ``summary``, a scenario's ``detection``) is compared by
:func:`derived` against the very function the producer filled it with;
other check hooks hold the checks that are not derivations (digests,
orderings, cross-field bounds).
"""

from __future__ import annotations

import reprlib
from operator import itemgetter
from typing import Any, Callable, Collection, Mapping

#: ``spec(node, where)``: raise :class:`SchemaError` unless ``node`` fits.
Spec = Callable[[Any, str], None]
Key = Callable[[Any], Any]


class SchemaError(ValueError):
    """A JSON document does not match its declared schema."""


def join(where: str, key: object) -> str:
    """The path of child ``key`` (a field name or list index) of ``where``."""
    if isinstance(key, int) and not isinstance(key, bool):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else str(key)


def require(condition: object, where: str, message: str) -> None:
    """Raise a :class:`SchemaError` prefixed with ``where`` unless true."""
    if not condition:
        raise SchemaError(f"{where or 'document'}: {message}")


def validate(document: object, spec: Spec) -> None:
    """Raise :class:`SchemaError` unless ``document`` matches ``spec``."""
    spec(document, "")


def leaf(predicate: Callable[[Any], bool], description: str) -> Spec:
    """A node accepted iff ``predicate(node)``, which must accept any input."""
    def check(node: Any, where: str) -> None:
        if not predicate(node):
            require(False, where, f"must be {description}, got {reprlib.repr(node)}")
    return check


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def integer(minimum: int | None = None) -> Spec:
    """An int (never a bool), optionally ``>= minimum``."""
    return leaf(lambda v: isinstance(v, int) and not isinstance(v, bool)
                and (minimum is None or v >= minimum),
                "an int" if minimum is None else f"an int >= {minimum}")


def number(minimum: float | None = None, *, exclusive: bool = False) -> Spec:
    """An int or float (never a bool), optionally ``>= minimum`` (or ``>``)."""
    if minimum is None:
        return leaf(_is_number, "a number")
    return leaf(lambda v: _is_number(v) and (v > minimum or (v == minimum and not exclusive)),
                f"a number {'>' if exclusive else '>='} {minimum:g}")


def one_of(values: Collection[str]) -> Spec:
    """One string out of a closed set."""
    allowed = frozenset(values)
    return leaf(lambda v: isinstance(v, str) and v in allowed, f"one of {sorted(allowed)}")


def const(value: str) -> Spec:
    """Exactly the string ``value``."""
    return leaf(lambda v: isinstance(v, str) and v == value, repr(value))


def nullable(spec: Spec) -> Spec:
    """``null``, or a node matching ``spec``."""
    def check(node: Any, where: str) -> None:
        if node is not None:
            spec(node, where)
    return check


STRING = leaf(lambda v: isinstance(v, str), "a string")
TEXT = leaf(lambda v: isinstance(v, str) and v != "", "a non-empty string")
BOOL = leaf(lambda v: isinstance(v, bool), "a bool")
INT, COUNT, NUMBER = integer(), integer(0), number()
UNIT = leaf(lambda v: _is_number(v) and 0 <= v <= 1, "in [0, 1]")


def obj(fields: Mapping[str, Spec], optional: Mapping[str, Spec] | None = None,
        check: Spec | None = None) -> Spec:
    """An object with exactly the keys of ``fields``, plus any ``optional``."""
    specs = {**fields, **(optional or {})}
    required, allowed = set(fields), set(specs)

    def walk(node: Any, where: str) -> None:
        require(isinstance(node, dict), where, "must be an object")
        keys = set(node)
        if not required <= keys <= allowed:
            missing, extra = sorted(required - keys), sorted(keys - allowed, key=repr)
            require(False, where, "keys mismatch:" + (f" missing {missing}" if missing else "")
                    + (f" unexpected {extra}" if extra else ""))
        for key, spec in specs.items():
            if key in node:
                spec(node[key], join(where, key))
        if check is not None:
            check(node, where)
    return walk


def derived(field: str, derive: Callable[[Any], Mapping[str, Any]]) -> Spec:
    """A ``check`` hook: ``node[field]`` holds ``derive(node)``, key by key;
    a key that differs raises at its path (``summary.total: is 3, expected 4``)."""
    def check(node: Any, where: str) -> None:
        block, where = node[field], join(where, field)
        for key, value in derive(node).items():
            require(block[key] == value, join(where, key),
                    f"is {block[key]!r}, expected {value!r}")
    return check


def list_of(item: Spec, *, nonempty: bool = False, unique_by: str | Key | None = None,
            sorted_by: str | Key | None = None) -> Spec:
    """A list of ``item``; ``unique_by``/``sorted_by`` name a field of the
    (already validated) items, or give a key function over them."""
    unique = itemgetter(unique_by) if isinstance(unique_by, str) else unique_by
    order = itemgetter(sorted_by) if isinstance(sorted_by, str) else sorted_by
    unique_field = f"{unique_by} " if isinstance(unique_by, str) else ""
    order_field = f" by {sorted_by}" if isinstance(sorted_by, str) else ""

    def walk(node: Any, where: str) -> None:
        require(isinstance(node, list), where, "must be a list")
        require(node or not nonempty, where, "must not be empty")
        for index, entry in enumerate(node):
            item(entry, join(where, index))
        if order is not None:
            keys = [order(entry) for entry in node]
            require(keys == sorted(keys), where, f"must be sorted{order_field}")
        if unique is not None:
            seen: set[Any] = set()
            for index, entry in enumerate(node):
                key = unique(entry)
                require(key not in seen, join(where, index),
                        f"duplicate {unique_field}{key!r} (must be unique)")
                seen.add(key)
    return walk


def map_of(key: Spec, value: Spec, *, nonempty: bool = False) -> Spec:
    """An object with free-form keys matching ``key`` and values ``value``."""
    def walk(node: Any, where: str) -> None:
        require(isinstance(node, dict), where, "must be an object")
        require(node or not nonempty, where, "must not be empty")
        for name, entry in node.items():
            key(name, join(where, name))
            value(entry, join(where, name))
    return walk


def header(version: str, tool: str) -> dict[str, Spec]:
    """The ``version`` and ``tool`` fields every fleet report opens with."""
    return {"version": const(version), "tool": obj({"name": const(tool), "version": TEXT})}
