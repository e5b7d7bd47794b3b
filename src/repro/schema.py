"""Field tables and the one loader behind every ``repro.*`` JSON document.

Each reader of a ``repro.*`` document declares it as a :func:`table`
of field checks and binds that table to its own error class through
:func:`validate` or :func:`load_json`.  The version policy of
``docs/OBSERVABILITY.md`` lives here, once: the :func:`tag` must match
``<name>/<major>`` exactly, keys a table does not declare are ignored,
and every violation raises the caller's error naming the field path,
e.g. ``cases[3].timing.rounds``.
"""

from __future__ import annotations

import json
from pathlib import Path
from reprlib import repr as _brief
from typing import Any, Callable

from .errors import ReproError

#: A field: ``check(value, path)`` raises :class:`Invalid` on a misfit.
Check = Callable[[Any, str], None]


class Invalid(ReproError):
    """``Invalid(path, problem)``; :func:`validate` re-raises it as the
    caller's error class."""


def _kind(expected: str, accepts: Callable[[Any], bool]) -> Check:
    def check(value: Any, path: str) -> None:
        if not accepts(value):
            raise Invalid(path, f"expected {expected}, got {_brief(value)}")
    return check


def tag(name: str) -> Check:
    """The ``schema`` tag: a reader understands exactly one major."""
    return _kind(f"schema {name!r}", lambda value: value == name)


def number(minimum: float | None = None, kinds: Any = (int, float),
           noun: str = "a number") -> Check:
    """A JSON number (never a bool), optionally ``>= minimum``."""
    return _kind(
        noun if minimum is None else f"{noun} >= {minimum}",
        lambda value: isinstance(value, kinds)
        and not isinstance(value, bool)
        and (minimum is None or value >= minimum),
    )


def integer(minimum: int | None = None) -> Check:
    """An integer (never a bool), optionally ``>= minimum``."""
    return number(minimum, int, "an integer")


def one_of(choices) -> Check:
    """One of a fixed set of strings."""
    choices = tuple(choices)
    return _kind(
        f"one of {', '.join(map(repr, choices))}",
        lambda value: isinstance(value, str) and value in choices,
    )


STR = _kind("a non-empty string",
            lambda value: isinstance(value, str) and value != "")
BOOL = _kind("a boolean", lambda value: isinstance(value, bool))
NUMBER = number()
COUNT = integer(0)
_LIST = _kind("a list", lambda value: isinstance(value, list))
_OBJECT = _kind("an object", lambda value: isinstance(value, dict))


def nullable(field: Check) -> Check:
    """``field`` or JSON ``null``."""

    def check(value: Any, path: str) -> None:
        if value is not None:
            field(value, path)
    return check


def list_of(item: Check) -> Check:
    """A list whose every entry fits ``item``."""

    def check(value: Any, path: str) -> None:
        _LIST(value, path)
        for index, entry in enumerate(value):
            item(entry, f"{path}[{index}]")
    return check


def map_of(item: Check) -> Check:
    """An object mapping string keys to values that fit ``item``."""

    def check(value: Any, path: str) -> None:
        _OBJECT(value, path)
        for key, entry in value.items():
            item(entry, f"{path}[{key!r}]")
    return check


def table(fields: dict[str, Check],
          check: Callable[[dict], None] | None = None) -> Check:
    """An object whose declared fields are checked in order.

    Args:
        fields: key -> field; a key ending in ``?`` may be absent, and
            undeclared keys are ignored.
        check: cross-field rule run once every field fits; raises
            :class:`Invalid`.
    """

    def check_table(value: Any, path: str) -> None:
        _OBJECT(value, path)
        for key, field in fields.items():
            name = key.removesuffix("?")
            where = f"{path}.{name}" if path else name
            if name in value:
                field(value[name], where)
            elif name == key:
                raise Invalid(where, "missing required field")
        if check is not None:
            check(value)
    return check_table


def validate(doc: Any, table: Check, error: type[Exception],
             what: str) -> Any:
    """Return ``doc`` if it fits ``table``, else raise
    ``error("invalid <what>: <field path>: <problem>")``."""
    try:
        table(doc, "")
    except Invalid as exc:
        path, problem = exc.args
        where = f"{path}: " if path else ""
        raise error(f"invalid {what}: {where}{problem}") from None
    return doc


def load_json(path: str | Path, table: Check, error: type[Exception],
              what: str) -> Any:
    """Read, parse and validate one JSON document; raise ``error``
    on an unreadable file, invalid JSON, or a table violation."""
    where = f"{what} {path}"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where} is not valid JSON: {exc}") from exc
    return validate(doc, table, error, where)
