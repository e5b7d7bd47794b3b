"""Event-loop profiling: events fired and wall-time per handler category.

Attached to a :class:`~repro.net.engine.Simulator`, the profile times
every callback the event loop fires and buckets it by the handler's
defining module (``net.tcp``, ``p2p.leecher``, ``player.player`` …).
This answers the optimisation question the ROADMAP poses — *where does
a simulated run actually spend its host time?* — without touching any
simulated clock: profiling changes wall time only, never results.
"""

from __future__ import annotations

from typing import Callable


def handler_category(callback: Callable[..., object]) -> str:
    """Bucket a callback by its defining module.

    ``repro.p2p.leecher`` becomes ``p2p.leecher``; callables from
    outside the package keep their full module path; anything without
    a module lands in ``"other"``.
    """
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None)
    if not module:
        return "other"
    prefix = "repro."
    if module.startswith(prefix):
        return module[len(prefix):]
    return module


class EngineProfile:
    """Accumulated per-category event counts and wall-clock seconds."""

    __slots__ = ("counts", "wall_seconds", "_cache")

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.wall_seconds: dict[str, float] = {}
        self._cache: dict[object, str] = {}

    def record(
        self, callback: Callable[..., object], seconds: float
    ) -> None:
        """Credit one fired event to ``callback``'s category."""
        func = getattr(callback, "__func__", callback)
        category = self._cache.get(func)
        if category is None:
            category = self._cache[func] = handler_category(callback)
        self.counts[category] = self.counts.get(category, 0) + 1
        self.wall_seconds[category] = (
            self.wall_seconds.get(category, 0.0) + seconds
        )

    def snapshot(self) -> dict:
        """Plain-dict copy of the totals (picklable, JSON-encodable).

        The shape (``{"counts": ..., "wall_seconds": ...}``) is what
        benchmark artifacts embed.
        """
        return {
            "counts": dict(self.counts),
            "wall_seconds": dict(self.wall_seconds),
        }

    @property
    def events_fired(self) -> int:
        """Total callbacks timed across all categories."""
        return sum(self.counts.values())

    def render(self) -> str:
        """Human-readable table, hottest category first."""
        if not self.counts:
            return "engine profile: no events recorded"
        lines = [
            f"{'handler category':<24s} {'events':>10s} "
            f"{'wall ms':>10s} {'us/event':>9s}"
        ]
        for category in sorted(
            self.counts, key=lambda c: -self.wall_seconds[c]
        ):
            count = self.counts[category]
            wall = self.wall_seconds[category]
            lines.append(
                f"{category:<24s} {count:>10d} {wall * 1e3:>10.1f} "
                f"{wall / count * 1e6:>9.1f}"
            )
        return "\n".join(lines)
