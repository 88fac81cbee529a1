"""The input documents' fields, stated once, and the one checker that reads them.

A table maps each key of a JSON object to the kind of its value: a
:class:`Kind`, a :class:`ListOf` or another table; an :class:`Opt` marks the
key optional. A table whose one key is ``"*"`` is a map: any key, each value
of that kind. A range is stated only where no constructor that takes the
value owns it; an omitted option takes that constructor's default.

:func:`check` raises :class:`ConfigError` at the first breach, as ``<path>:
expected <kind>, got <value!r>``, ``<path>: unknown fields [...]`` or
``<path>: missing fields [...]``. A list item with a string ``id`` is named
by it, as in ``workload.workflows['wf0001'].priority``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple


class ConfigError(ValueError):
    """An input document breaks its schema, or a rule between its fields."""


class Kind(NamedTuple):
    """A scalar kind: its name in messages, and the test a value passes."""

    name: str
    test: Callable[[object], bool]


class ListOf(NamedTuple):
    """A JSON list of ``item``, a kind or a table, of a length in ``sizes``."""

    item: object
    name: str = "a list"
    sizes: range = range(sys.maxsize)


OMIT = object()


class Opt(NamedTuple):
    """An optional field of ``kind``: when absent it takes ``default``, or
    stays absent when that is ``OMIT``."""

    kind: object
    default: object = OMIT


def _number(v: object) -> bool:
    return type(v) is int or (type(v) is float and math.isfinite(v))


def _const(value: str) -> Kind:
    return Kind(repr(value), lambda v: v == value)


def _nonempty(item: object) -> ListOf:
    return ListOf(item, "a non-empty list", range(1, sys.maxsize))


INT = Kind("an integer", lambda v: type(v) is int)  # not isinstance: a bool is an int
COUNT = Kind("an integer >= 1", lambda v: type(v) is int and v >= 1)
NUMBER = Kind("a number", _number)
STR = Kind("a string", lambda v: type(v) is str)
BOOL = Kind("a bool", lambda v: type(v) is bool)
DECIMAL = Kind("a number or a decimal string", lambda v: _number(v) or type(v) is str)
PAIR = ListOf(STR, "a [parent, child] pair", range(2, 3))

TASK = {"id": STR, "runtimes": {"*": INT}}
WORKFLOW = {"id": STR, "user": STR, "priority": INT, "arrival_s": INT,
            "tasks": ListOf(TASK), "edges": ListOf(PAIR)}
WORKLOAD = {"workflows": ListOf(WORKFLOW)}

ARRIVALS = {
    "utilization": NUMBER,
    "capacity": Opt(INT),  # gen: none; run: the system's machine count
    "seed": Opt(INT),  # the enclosing document's seed
}
LOG_NORMAL = {"log_median": Opt(NUMBER), "log_sigma": Opt(NUMBER)}
GENSPEC = {
    "schema": _const("wfasim-genspec-1"),
    "seed": Opt(INT, 0),
    "count": Opt(INT),
    "sets": Opt(_nonempty({"name": STR, "family": STR, "count": INT})),
    "rule": Opt(STR),
    "users": Opt(ListOf(STR), ("u1",)),
    "types": Opt(ListOf(STR)),
    "families": Opt(_nonempty(STR)),
    "arrivals": Opt(ARRIVALS),
    "runtime_model": Opt({**LOG_NORMAL, "scale_divisor": Opt(INT)}),
    "size_model": Opt({**LOG_NORMAL, "min_tasks": Opt(INT), "max_tasks": Opt(INT)}),
}

RUN = {
    "schema": _const("wfasim-config-1"),
    "seed": Opt(INT, 0),
    "replications": Opt(COUNT, 1),
    "collect_plans": Opt(BOOL, False),
    "system": {
        "types": ListOf({"id": STR, "cost": INT}),
        "capacity": {"*": INT},
        "interval_s": INT,
        "boot_delay_s": Opt(INT, 0),
    },
    "users": _nonempty({"id": STR, "budget": INT}),
    "policy": {
        "name": STR,
        "smoothing": Opt(STR),
        "ma_depth": Opt(INT),
        "alpha": Opt(DECIMAL),
    },
    "workload": {"file": Opt(STR), "genspec": Opt(GENSPEC), "arrivals": Opt(ARRIVALS)},
}

INSTANCE = {
    "schema": _const("wfasim-mip-1"),
    "slot_s": INT,
    "slots_per_billing": INT,
    "budget": INT,
    "slots": Opt(Kind("an integer or null", lambda v: v is None or type(v) is int)),
    "resources": ListOf({"type": STR, "cost": INT}),
    "workflows": ListOf(WORKFLOW),
}


def _mismatch(path: str, kind: str, value: object) -> ConfigError:
    return ConfigError(f"{path}: expected {kind}, got {value!r}")


def check(doc: object, kind: object, where: str) -> object:
    """``doc`` checked against ``kind``, a table or any other kind, as a copy
    with the defaults filled in; ``where`` names it at the head of each path."""
    if type(kind) is dict:
        if type(doc) is not dict:
            raise _mismatch(where, "an object", doc)
        if "*" in kind:
            return {k: check(v, kind["*"], f"{where}.{k}") for k, v in doc.items()}
        if unknown := doc.keys() - kind.keys():
            raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
        if missing := [k for k, f in kind.items() if type(f) is not Opt and k not in doc]:
            raise ConfigError(f"{where}: missing fields {missing}")
        out = {}
        for k, f in kind.items():
            if k in doc:
                out[k] = check(doc[k], f.kind if type(f) is Opt else f, f"{where}.{k}")
            elif f.default is not OMIT:
                out[k] = f.default
        return out
    if type(kind) is ListOf:
        if type(doc) is not list or len(doc) not in kind.sizes:
            raise _mismatch(where, kind.name, doc)
        return [check(v, kind.item, f"{where}[{v['id']!r}]"
                      if type(v) is dict and type(v.get("id")) is str else f"{where}[{i}]")
                for i, v in enumerate(doc)]
    if not kind.test(doc):
        raise _mismatch(where, kind.name, doc)
    return doc
