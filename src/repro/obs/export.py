"""Exporters: JSONL traces and JSON documents.

* **JSONL** — one event per line, for tooling (``jq``, pandas) and for
  ``repro analyze``.  Round-trips losslessly: loading a dump yields
  events equal to the originals.
* **JSON** — the one encoder for versioned machine-readable artifacts.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, TextIO

from ..errors import TraceError
from .events import TraceEvent, event_from_dict

# -- JSONL -------------------------------------------------------------


def dump_jsonl(
    events: Iterable[TraceEvent], destination: str | TextIO
) -> int:
    """Write events as JSON Lines; returns the number written.

    Args:
        destination: a path or an open text file.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return dump_jsonl(events, handle)
    count = 0
    for event in events:
        destination.write(json.dumps(event.to_dict(), sort_keys=True))
        destination.write("\n")
        count += 1
    return count


def load_jsonl(source: str | IO[str]) -> list[TraceEvent]:
    """Parse a JSONL trace back into typed events.

    Raises:
        TraceError: when the file is missing, a line is not valid
            JSON, or a record does not match any known event type.
    """
    if isinstance(source, str):
        try:
            handle: IO[str] = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise TraceError(f"cannot read trace {source!r}: {exc}") from exc
        with handle:
            return load_jsonl(handle)
    events: list[TraceEvent] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(
                f"corrupt trace: line {lineno} is not JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise TraceError(
                f"corrupt trace: line {lineno} is not an object"
            )
        events.append(event_from_dict(payload))
    return events


# -- JSON documents ----------------------------------------------------


def dump_json(payload: dict, destination: str | TextIO) -> None:
    """Write one JSON document (sorted keys, indented, trailing \\n).

    The one encoder every machine-readable artifact goes through —
    benchmark artifacts, run manifests — so diffs of committed
    artifacts stay minimal and stable.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            dump_json(payload, handle)
        return
    json.dump(payload, destination, indent=2, sort_keys=True)
    destination.write("\n")

