"""The run-scoped observability context handed through the stack.

One :class:`Observability` object bundles everything a run may record
into — a tracer, a metrics registry, and an optional engine profile —
so constructors take a single optional argument instead of three.  The
absent context (``obs=None`` everywhere) is the fast path: components
fall back to :data:`~repro.obs.tracer.NULL_TRACER` and skip registry
publishing entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .metrics import MetricsRegistry
from .profile import EngineProfile
from .tracer import NULL_TRACER, EventTracer, NullTracer, Tracer


@dataclass
class Observability:
    """What one run records.

    Attributes:
        tracer: the event tracer (disabled by default).
        registry: the metrics registry (always present — publishing is
            gated by the component-side ``metrics is not None`` check,
            which is only wired up when a context is passed at all).
        profile: optional event-loop profile; ``None`` disables
            per-handler wall-clock timing.
    """

    tracer: Tracer = NULL_TRACER
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    profile: EngineProfile | None = None

    @classmethod
    def tracing(
        cls,
        capacity: int | None = None,
        categories: Iterable[str] | None = None,
        min_severity: str = "debug",
        profile: bool = False,
    ) -> "Observability":
        """A context with event tracing (and optionally profiling) on.

        Args:
            capacity: tracer ring-buffer bound (``None`` = unbounded).
            categories: restrict tracing to these categories.
            min_severity: drop events below this severity.
            profile: also time event-loop handlers by category.
        """
        return cls(
            tracer=EventTracer(
                capacity=capacity,
                categories=categories,
                min_severity=min_severity,
            ),
            profile=EngineProfile() if profile else None,
        )

    def events(self) -> list:
        """The tracer's retained events (empty when disabled)."""
        return self.tracer.events()


__all__ = ["Observability", "NullTracer", "EventTracer", "NULL_TRACER"]
