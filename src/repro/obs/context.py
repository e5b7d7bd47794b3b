"""The run-scoped observability context handed through the stack.

One :class:`Observability` object bundles everything a run may record
into — a tracer and an optional engine profile — so constructors take
a single optional argument instead of two.  The absent context
(``obs=None`` everywhere) is the fast path: components fall back to
:data:`~repro.obs.tracer.NULL_TRACER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from .profile import EngineProfile
from .tracer import NULL_TRACER, EventTracer, Tracer


@dataclass
class Observability:
    """What one run records.

    Attributes:
        tracer: the event tracer (disabled by default).
        profile: optional event-loop profile; ``None`` disables
            per-handler wall-clock timing.
    """

    tracer: Tracer = NULL_TRACER
    profile: EngineProfile | None = None

    @classmethod
    def tracing(cls, profile: bool = False) -> "Observability":
        """A context with event tracing (and optionally profiling) on.

        Args:
            profile: also time event-loop handlers by category.
        """
        return cls(
            tracer=EventTracer(),
            profile=EngineProfile() if profile else None,
        )

    def events(self) -> list:
        """The tracer's retained events (empty when disabled)."""
        return self.tracer.events()


__all__ = ["Observability"]
