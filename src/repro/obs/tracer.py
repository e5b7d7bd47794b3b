"""Structured event tracing with a zero-cost disabled path.

Instrumentation sites throughout the stack follow one pattern::

    if tracer.enabled:
        tracer.emit(StallStarted(time=sim.now, peer=name, segment=nxt))

so the disabled case — the default everywhere — costs a single
attribute check: no event object is built, no call is made.
:data:`NULL_TRACER` is the shared disabled singleton.

The enabled tracer keeps events in a bounded ring buffer: old events
fall off the front once ``capacity`` is reached, like a flight
recorder.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from ..errors import TraceError
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
    """Ring-buffer tracer.

    Args:
        capacity: maximum events retained; older events are dropped
            first (``None`` keeps everything).
    """

    enabled: bool = True

    def __init__(self, capacity: int | None = 100_000) -> None:
        if capacity is not None and capacity < 1:
            raise TraceError(
                f"capacity must be >= 1 or None, got {capacity}"
            )
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self.evicted = 0  # pushed off the front of a full ring buffer

    @property
    def capacity(self) -> int | None:
        """The ring buffer's size bound (``None`` = unbounded)."""
        return self._buffer.maxlen

    def emit(self, event: TraceEvent) -> None:
        """Record ``event``, evicting the oldest one when full."""
        if (
            self._buffer.maxlen is not None
            and len(self._buffer) == self._buffer.maxlen
        ):
            self.evicted += 1
        self._buffer.append(event)

    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        """Forget every retained event."""
        self._buffer.clear()
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buffer)


#: Either flavour, for annotations.
Tracer = NullTracer | EventTracer
