"""Streaming quality metrics — the paper's three observables."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlaybackError


@dataclass(frozen=True, slots=True)
class StallEvent:
    """One playback interruption.

    Attributes:
        start: simulated time the player ran out of video.
        end: simulated time playback resumed.
        next_segment: the segment index whose absence caused the stall.
    """

    start: float
    end: float
    next_segment: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise PlaybackError(
                f"stall end {self.end} precedes start {self.start}"
            )

    @property
    def duration(self) -> float:
        """Stall length in seconds."""
        return self.end - self.start


@dataclass(slots=True)
class StreamingMetrics:
    """Everything measured during one peer's streaming session.

    Attributes:
        session_start: when the peer joined (simulated seconds).
        playback_start: when the first frame played (None if never).
        playback_end: when the last frame finished (None if never).
        stalls: completed stall events in order.
        bytes_downloaded: total payload bytes received.
        segments_downloaded: count of segments received.
        downloads_cancelled: transfers aborted (source churned, etc.).
        requests_retried: requests re-issued to a different source
            after a timeout.
    """

    session_start: float = 0.0
    playback_start: float | None = None
    playback_end: float | None = None
    stalls: list[StallEvent] = field(default_factory=list)
    bytes_downloaded: float = 0.0
    segments_downloaded: int = 0
    downloads_cancelled: int = 0
    requests_retried: int = 0

    @property
    def startup_time(self) -> float | None:
        """Join-to-first-frame delay, seconds (the paper's Fig. 4)."""
        if self.playback_start is None:
            return None
        return self.playback_start - self.session_start

    @property
    def stall_count(self) -> int:
        """Number of stalls after playback started (paper's Fig. 2/5)."""
        return len(self.stalls)

    @property
    def total_stall_duration(self) -> float:
        """Summed stall seconds (the paper's Fig. 3)."""
        return sum(stall.duration for stall in self.stalls)

    @property
    def finished(self) -> bool:
        """Whether the video played to the end."""
        return self.playback_end is not None
