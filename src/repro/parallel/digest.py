"""Stable content digests for sweep specs (and other plain data).

The ROADMAP's sharded, resumable sweep service needs one primitive
before anything else: a digest of *what a run is* that two processes —
or two machines, or two weeks — compute identically.  Python's builtin
``hash`` is salted per process and ``pickle`` output varies across
versions, so neither qualifies.  This module derives a digest from a
canonical JSON encoding instead:

* dataclasses flatten to ``{"__type__": name, field: value, ...}`` in
  declaration order (the type name guards against two specs with the
  same field soup colliding); a field declared with
  :data:`OMIT_AT_DEFAULT` metadata is left out while it holds its
  default, so adding such a field to a spec keeps every existing
  digest;
* dicts become sorted key/value pair lists (keys may be any digestible
  value, as in histogram ``value -> weight`` maps);
* sets are sorted by their encoded form; tuples and lists are equal;
* bytes contribute their SHA-256, not their content;
* any other object contributes its type plus its ``__dict__`` /
  ``__slots__`` state, so policy objects and config classes digest by
  value without opting in.

Benchmark artifacts embed these digests so ``repro compare`` can tell
"same workload, different speed" apart from "different workload";
the sweep cache will later key ``CellResult``s on them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any

from ..errors import ExperimentError

#: Hex digits kept from the SHA-256; 64 bits of collision resistance
#: is plenty for cache keys and artifact labels while staying readable.
DIGEST_LENGTH = 16

_MAX_DEPTH = 32

_OMIT_KEY = "repro.digest.omit_at_default"

#: Field metadata for an optional spec field the digest leaves out
#: while it holds its default: ``field(default=None,
#: metadata=OMIT_AT_DEFAULT)``.
OMIT_AT_DEFAULT = {_OMIT_KEY: True}


def canonical_data(obj: Any, _depth: int = 0) -> Any:
    """Reduce ``obj`` to a JSON-encodable canonical form.

    Deterministic across processes and machines: no ids, no salted
    hashes, no unordered iteration.

    Raises:
        ExperimentError: on self-referential or absurdly deep
            structures (the digest would otherwise recurse forever).
    """
    if _depth > _MAX_DEPTH:
        raise ExperimentError(
            "content digest: structure deeper than "
            f"{_MAX_DEPTH} levels (self-referential spec?)"
        )
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return {"__bytes__": hashlib.sha256(obj).hexdigest()}
    if is_dataclass(obj) and not isinstance(obj, type):
        encoded: dict[str, Any] = {"__type__": type(obj).__qualname__}
        for field in fields(obj):
            value = getattr(obj, field.name)
            if value is field.default and _OMIT_KEY in field.metadata:
                continue
            encoded[field.name] = canonical_data(value, _depth + 1)
        return encoded
    if isinstance(obj, dict):
        pairs = [
            [canonical_data(key, _depth + 1), canonical_data(value, _depth + 1)]
            for key, value in obj.items()
        ]
        pairs.sort(key=lambda pair: _encode(pair[0]))
        return {"__pairs__": pairs}
    if isinstance(obj, (list, tuple)):
        return [canonical_data(item, _depth + 1) for item in obj]
    if isinstance(obj, (set, frozenset)):
        items = [canonical_data(item, _depth + 1) for item in obj]
        items.sort(key=_encode)
        return {"__set__": items}
    state = getattr(obj, "__dict__", None)
    if state is None:
        slots = getattr(type(obj), "__slots__", None)
        if slots is not None:
            state = {
                name: getattr(obj, name)
                for name in slots
                if hasattr(obj, name)
            }
    if state is not None:
        return {
            "__type__": type(obj).__qualname__,
            "state": canonical_data(state, _depth + 1),
        }
    # Opaque leaf (e.g. a function): its qualified name is the best
    # stable identity available.
    name = getattr(obj, "__qualname__", None) or repr(type(obj))
    return {"__opaque__": f"{type(obj).__module__}.{name}"}


def _encode(canonical: Any) -> str:
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def content_digest(obj: Any) -> str:
    """A stable hex digest of ``obj``'s canonical content."""
    payload = _encode(canonical_data(obj))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[
        :DIGEST_LENGTH
    ]
