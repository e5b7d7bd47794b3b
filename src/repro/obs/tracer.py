"""Structured event tracing with a zero-cost disabled path.

Instrumentation sites throughout the stack follow one pattern::

    if tracer.enabled:
        tracer.emit(StallStarted(time=sim.now, peer=name, segment=nxt))

so the disabled case — the default everywhere — costs a single
attribute check: no event object is built, no call is made.
:data:`NULL_TRACER` is the shared disabled singleton.

The enabled tracer keeps every event it is given, in order.
"""

from __future__ import annotations

from collections.abc import Iterator

from .events import TraceEvent


class NullTracer:
    """The disabled tracer: never records, never allocates.

    ``enabled`` is a class attribute so the hot-path check compiles to
    one attribute load; :meth:`emit` exists only for callers that
    (incorrectly) skip the check.
    """

    enabled: bool = False

    def emit(self, event: TraceEvent) -> None:
        """Discard the event."""

    def events(self) -> list[TraceEvent]:
        """Always empty."""
        return []

    def __len__(self) -> int:
        return 0


#: Shared disabled tracer — the default for every component.
NULL_TRACER = NullTracer()


class EventTracer:
    """The recording tracer: keeps every emitted event, in order."""

    enabled: bool = True

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        """Record ``event``."""
        self._events.append(event)

    def events(self) -> list[TraceEvent]:
        """The recorded events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        """Forget every recorded event."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


#: Either flavour, for annotations.
Tracer = NullTracer | EventTracer
