"""Piece-selection strategies.

The paper's client watches (and therefore fetches) sequentially,
citing that "95% of users of a P2P TV watch video sequentially".
Classic BitTorrent instead fetches rarest-first to maximise piece
diversity.  Streaming systems in the literature (and this module)
bridge the two: sequential for what is about to play, rarest-first
inside a look-ahead window for everything else.

A selector orders the *candidate* segments a leecher may request; the
leecher still applies its pool-size policy on top.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..obs.events import SelectionMade

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.engine import Simulator
    from ..obs.tracer import Tracer


class PieceSelector(abc.ABC):
    """Strategy interface: order candidate segments for requesting."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short selector name used in reports."""

    @abc.abstractmethod
    def order(
        self,
        missing: list[int],
        next_needed: int | None,
        availability: dict[str, set[int]],
        rng: random.Random,
    ) -> list[int]:
        """Return ``missing`` reordered by request priority.

        Args:
            missing: segment indices not yet buffered, ascending.
            next_needed: the segment the player needs next (None when
                playback has finished or not begun).
            availability: holder -> set of segment indices, the
                leecher's current knowledge of the swarm.
            rng: the leecher's seeded tie-break source.
        """


class SequentialSelector(PieceSelector):
    """The paper's policy: strictly in playback order."""

    @property
    def name(self) -> str:
        return "sequential"

    def order(
        self,
        missing: list[int],
        next_needed: int | None,
        availability: dict[str, set[int]],
        rng: random.Random,
    ) -> list[int]:
        return sorted(missing)


class WindowedRarestSelector(PieceSelector):
    """Streaming hybrid: sequential head, rarest-first look-ahead.

    The next ``urgent_window`` segments after the playhead are taken
    strictly in order (they are about to play); within the following
    ``lookahead`` segments, rarest-first maximises swarm diversity.

    Args:
        urgent_window: segments fetched strictly in playback order.
        lookahead: size of the rarest-first window behind them.
    """

    def __init__(self, urgent_window: int = 2, lookahead: int = 8) -> None:
        if urgent_window < 1:
            raise ConfigurationError(
                f"urgent_window must be >= 1, got {urgent_window}"
            )
        if lookahead < 0:
            raise ConfigurationError(
                f"lookahead must be >= 0, got {lookahead}"
            )
        self._urgent_window = urgent_window
        self._lookahead = lookahead

    @property
    def name(self) -> str:
        return f"windowed-rarest-{self._urgent_window}+{self._lookahead}"

    def order(
        self,
        missing: list[int],
        next_needed: int | None,
        availability: dict[str, set[int]],
        rng: random.Random,
    ) -> list[int]:
        ordered = sorted(missing)
        if next_needed is None:
            head_base = ordered[0] if ordered else 0
        else:
            head_base = next_needed
        head = [
            index
            for index in ordered
            if index < head_base + self._urgent_window
        ]
        window = [
            index
            for index in ordered
            if head_base + self._urgent_window
            <= index
            < head_base + self._urgent_window + self._lookahead
        ]
        tail = [
            index
            for index in ordered
            if index >= head_base + self._urgent_window + self._lookahead
        ]
        counts = _holder_counts(window, availability)
        shuffled = list(window)
        rng.shuffle(shuffled)
        window_sorted = sorted(
            shuffled, key=lambda index: counts[index]
        )
        return head + window_sorted + tail


class TracingSelector(PieceSelector):
    """Decorator: trace another selector's decisions.

    Wraps any :class:`PieceSelector` and emits a debug-severity
    :class:`~repro.obs.events.SelectionMade` event per ordering call —
    the leecher installs it automatically when its tracer is enabled,
    so piece-selection decisions appear in traces without the
    strategies themselves knowing about observability.

    Args:
        inner: the selector making the actual decisions.
        tracer: where the events go.
        peer: the owning leecher's name, stamped on every event.
        sim: the clock supplying event timestamps.
    """

    #: How many leading indices of each decision the event records.
    HEAD = 5

    def __init__(
        self,
        inner: PieceSelector,
        tracer: "Tracer",
        peer: str,
        sim: "Simulator",
    ) -> None:
        self._inner = inner
        self._tracer = tracer
        self._peer = peer
        self._sim = sim

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def inner(self) -> PieceSelector:
        """The wrapped selector."""
        return self._inner

    def order(
        self,
        missing: list[int],
        next_needed: int | None,
        availability: dict[str, set[int]],
        rng: random.Random,
    ) -> list[int]:
        ordered = self._inner.order(
            missing, next_needed, availability, rng
        )
        if self._tracer.enabled and ordered:
            self._tracer.emit(
                SelectionMade(
                    time=self._sim.now,
                    peer=self._peer,
                    selector=self._inner.name,
                    head=tuple(ordered[: self.HEAD]),
                    candidates=len(ordered),
                )
            )
        return ordered


def _holder_counts(
    indices: list[int], availability: dict[str, set[int]]
) -> dict[int, int]:
    counts = {index: 0 for index in indices}
    for held in availability.values():
        for index in indices:
            if index in held:
                counts[index] += 1
    return counts
