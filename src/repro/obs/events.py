"""The trace-event taxonomy.

Every observable thing that happens during a simulated streaming
session is a frozen dataclass keyed on **simulator time** — never wall
clock — so traces from different machines are byte-identical for the
same seed.  Each event type declares a ``category`` (which layer of the
stack emitted it) and a ``severity``.

The taxonomy mirrors the stack:

========  =====================================================
category  events
========  =====================================================
engine    SimulationStarted, SimulationCompleted
tcp       TransferStarted, FlowRateChanged, TransferCompleted,
          TransferCancelled
swarm     PeerJoined, PeerDeparted
leecher   ManifestReceived, SegmentRequested, PieceReceived,
          RequestTimedOut, PoolResized, SelectionMade
player    PlaybackStarted, StallStarted, StallEnded,
          PlaybackFinished
========  =====================================================

Events round-trip losslessly through JSON (:mod:`repro.obs.export`);
:func:`event_type` resolves a class back from its name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar

from ..errors import TraceError

#: name -> event class, populated as subclasses are defined.
EVENT_TYPES: dict[str, type["TraceEvent"]] = {}


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base class: one timestamped occurrence in the simulation.

    Attributes:
        time: simulated seconds since the run began.
    """

    time: float

    category: ClassVar[str] = "core"
    severity: ClassVar[str] = "info"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # No zero-arg super(): @dataclass(slots=True) recreates each
        # subclass, which breaks the implicit __class__ cell.
        EVENT_TYPES[cls.__name__] = cls

    @property
    def name(self) -> str:
        """The event's type name (what JSONL records)."""
        return type(self).__name__

    def to_dict(self) -> dict[str, Any]:
        """Flatten to a JSON-ready dict (type + category + fields)."""
        payload: dict[str, Any] = {
            "event": self.name,
            "category": self.category,
            "severity": self.severity,
        }
        payload.update(dataclasses.asdict(self))
        return payload


def event_type(name: str) -> type[TraceEvent]:
    """Look an event class up by name.

    Raises:
        TraceError: if no such event type exists.
    """
    try:
        return EVENT_TYPES[name]
    except KeyError:
        raise TraceError(f"unknown trace event type {name!r}") from None


def event_from_dict(payload: dict[str, Any]) -> TraceEvent:
    """Rebuild a typed event from :meth:`TraceEvent.to_dict` output.

    Raises:
        TraceError: on missing keys or mismatched fields.
    """
    try:
        cls = event_type(payload["event"])
    except KeyError:
        raise TraceError("trace record has no 'event' key") from None
    fields = {
        key: value
        for key, value in payload.items()
        if key not in ("event", "category", "severity")
    }
    try:
        event = cls(**fields)
    except TypeError as exc:
        raise TraceError(
            f"trace record for {cls.__name__} has wrong fields: {exc}"
        ) from exc
    # Tuples become lists through JSON; normalise them back.
    return event


# -- engine ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SimulationStarted(TraceEvent):
    """The event loop began processing (one per ``Simulator.run``).

    Attributes:
        pending: events queued when the run began.
    """

    pending: int

    category: ClassVar[str] = "engine"


@dataclass(frozen=True, slots=True)
class SimulationCompleted(TraceEvent):
    """The event loop drained (or hit its horizon).

    Attributes:
        events_fired: callbacks executed during this run.
        wall_seconds: host wall-clock seconds the run took.  The only
            non-deterministic field in the taxonomy; simulated results
            are never derived from it.
    """

    events_fired: int
    wall_seconds: float

    category: ClassVar[str] = "engine"


# -- tcp ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TransferStarted(TraceEvent):
    """A TCP transfer finished its handshake and began moving data.

    Attributes:
        label: caller-assigned transfer label (``src->dst#segment``).
        size: wire bytes to move.
        rtt: the path round-trip time, seconds.
        loss_rate: the path's end-to-end loss probability.
    """

    label: str
    size: float
    rtt: float
    loss_rate: float

    category: ClassVar[str] = "tcp"


@dataclass(frozen=True, slots=True)
class FlowRateChanged(TraceEvent):
    """A transfer's congestion-window rate cap moved (slow start etc.).

    Attributes:
        label: transfer label.
        rate: the new window-implied cap, bytes/second (0.0 when the
            window outgrew the path and only the loss ceiling remains).
    """

    label: str
    rate: float

    category: ClassVar[str] = "tcp"
    severity: ClassVar[str] = "debug"


@dataclass(frozen=True, slots=True)
class TransferCompleted(TraceEvent):
    """The last byte of a transfer arrived.

    Attributes:
        label: transfer label.
        size: wire bytes moved.
        duration: open-to-last-byte seconds.
    """

    label: str
    size: float
    duration: float

    category: ClassVar[str] = "tcp"


@dataclass(frozen=True, slots=True)
class TransferCancelled(TraceEvent):
    """A transfer was aborted before completion.

    Attributes:
        label: transfer label.
        transferred: bytes that had already arrived.
    """

    label: str
    transferred: float

    category: ClassVar[str] = "tcp"
    severity: ClassVar[str] = "warning"


# -- swarm -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PeerJoined(TraceEvent):
    """A peer joined the swarm.

    Attributes:
        peer: the peer's name.
    """

    peer: str

    category: ClassVar[str] = "swarm"


@dataclass(frozen=True, slots=True)
class PeerDeparted(TraceEvent):
    """A peer left (churn or session end).

    Attributes:
        peer: the peer's name.
        downloads_cancelled: in-flight downloads it abandoned.
    """

    peer: str
    downloads_cancelled: int

    category: ClassVar[str] = "swarm"
    severity: ClassVar[str] = "warning"


# -- leecher -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ManifestReceived(TraceEvent):
    """A leecher learned the segment layout and swarm membership.

    Attributes:
        peer: the leecher.
        segments: number of segments in the video.
        known_peers: peers listed in the manifest.
    """

    peer: str
    segments: int
    known_peers: int

    category: ClassVar[str] = "leecher"


@dataclass(frozen=True, slots=True)
class SegmentRequested(TraceEvent):
    """A leecher asked a holder for one segment.

    Attributes:
        peer: the requesting leecher.
        segment: segment index.
        source: whom it asked.
        urgent: whether the request was playback-critical.
        expected_size: the segment's manifest size in bytes — the ``W``
            of Eq. 1, recorded so stall attribution never has to join
            against the splice table (-1.0 in pre-enrichment traces).
    """

    peer: str
    segment: int
    source: str
    urgent: bool
    expected_size: float = -1.0

    category: ClassVar[str] = "leecher"


@dataclass(frozen=True, slots=True)
class PieceReceived(TraceEvent):
    """A requested segment fully arrived.

    Attributes:
        peer: the receiving leecher.
        segment: segment index.
        source: who served it.
        size: payload bytes.
        wait: request-to-arrival seconds (-1.0 when unrequested, e.g.
            a duplicate landing after a timeout re-request).
    """

    peer: str
    segment: int
    source: str
    size: float
    wait: float

    category: ClassVar[str] = "leecher"


@dataclass(frozen=True, slots=True)
class RequestTimedOut(TraceEvent):
    """A request sat unanswered and was re-issued elsewhere.

    Attributes:
        peer: the leecher.
        segment: segment index.
        source: the source that went silent.
        retry_source: the replacement holder.
    """

    peer: str
    segment: int
    source: str
    retry_source: str

    category: ClassVar[str] = "leecher"
    severity: ClassVar[str] = "warning"


@dataclass(frozen=True, slots=True)
class PoolResized(TraceEvent):
    """Eq. 1 (or the fixed policy) changed the download-pool size.

    Attributes:
        peer: the leecher.
        size: the new pool size ``k``.
        buffered_playtime: Eq. 1's ``T`` at decision time, seconds.
        bandwidth: Eq. 1's ``B`` at decision time, bytes/second.
    """

    peer: str
    size: int
    buffered_playtime: float
    bandwidth: float

    category: ClassVar[str] = "leecher"


@dataclass(frozen=True, slots=True)
class SelectionMade(TraceEvent):
    """The piece selector ordered the candidate segments.

    Attributes:
        peer: the leecher.
        selector: the selector's name.
        head: the first few indices of the chosen order.
        candidates: how many segments were orderable.
    """

    peer: str
    selector: str
    head: tuple[int, ...]
    candidates: int

    category: ClassVar[str] = "leecher"
    severity: ClassVar[str] = "debug"

    def __post_init__(self) -> None:
        # JSON round-trips tuples as lists; normalise on construction.
        object.__setattr__(self, "head", tuple(self.head))


# -- player ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PlaybackStarted(TraceEvent):
    """First frame played.

    Attributes:
        peer: the watching peer.
        startup_time: join-to-first-frame seconds (Fig. 4's metric).
    """

    peer: str
    startup_time: float

    category: ClassVar[str] = "player"


@dataclass(frozen=True, slots=True)
class StallStarted(TraceEvent):
    """The playhead reached a gap; playback froze.

    Attributes:
        peer: the stalling peer.
        segment: the missing segment blocking playback.
        expected_size: the blocking segment's manifest size in bytes
            (-1.0 when unknown, e.g. in pre-enrichment traces).
    """

    peer: str
    segment: int
    expected_size: float = -1.0

    category: ClassVar[str] = "player"
    severity: ClassVar[str] = "warning"


@dataclass(frozen=True, slots=True)
class StallEnded(TraceEvent):
    """The missing segment landed; playback resumed.

    Attributes:
        peer: the peer that resumed.
        segment: the segment whose arrival unblocked playback.
        duration: stall length in seconds.
        expected_size: the unblocking segment's manifest size in bytes
            (-1.0 when unknown, e.g. in pre-enrichment traces).
    """

    peer: str
    segment: int
    duration: float
    expected_size: float = -1.0

    category: ClassVar[str] = "player"
    severity: ClassVar[str] = "warning"


@dataclass(frozen=True, slots=True)
class PlaybackFinished(TraceEvent):
    """The video played to the end.

    Attributes:
        peer: the finishing peer.
        stalls: stalls suffered along the way.
        total_stall_duration: summed stall seconds.
    """

    peer: str
    stalls: int
    total_stall_duration: float

    category: ClassVar[str] = "player"
