"""Protocol messages.

A BitTorrent-like message set adapted to streaming: peers exchange a
manifest (segment layout — what a tracker-less HLS playlist carries),
bitfields and haves for availability, and requests for data.

Messages are typed in-process values: frozen dataclasses whose tuple
fields are built as tuples, so the control plane hands one object to
every recipient of a fan-out.  Segment data travels as TCP transfers,
not as messages (:mod:`repro.p2p.peer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PeerError


class Message:
    """Base class for protocol messages."""


@dataclass(frozen=True, slots=True)
class Handshake(Message):
    """Opens a peer link: who I am."""

    peer_id: str


@dataclass(frozen=True, slots=True)
class ManifestRequest(Message):
    """Ask the seeder for the video manifest and swarm membership."""

    peer_id: str


@dataclass(frozen=True, slots=True)
class Manifest(Message):
    """The seeder's reply: segment layout plus current swarm members.

    This is "different information about the video and the swarm" the
    paper says every peer fetches from the seeder at startup.
    """

    segment_sizes: tuple[int, ...]
    segment_durations: tuple[float, ...]
    peers: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.segment_sizes) != len(self.segment_durations):
            raise PeerError(
                "segment_sizes and segment_durations must have equal "
                f"lengths, got {len(self.segment_sizes)} and "
                f"{len(self.segment_durations)}"
            )

    @property
    def segment_count(self) -> int:
        """Number of segments in the stream."""
        return len(self.segment_sizes)


@dataclass(frozen=True, slots=True)
class Bitfield(Message):
    """Which segments the sender currently holds."""

    peer_id: str
    indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Have(Message):
    """Announce one newly-acquired segment."""

    peer_id: str
    index: int


@dataclass(frozen=True, slots=True)
class Request(Message):
    """Ask the receiver to upload one segment to the sender.

    ``urgent`` marks playback-critical requests (the requester is
    stalled on, or about to play, this segment); uploaders serve urgent
    requests before prefetches.
    """

    peer_id: str
    index: int
    urgent: bool = False


@dataclass(frozen=True, slots=True)
class RequestRejected(Message):
    """Refusal: the segment is not held, or the sender is choked.

    ``busy`` distinguishes a BitTorrent-style choke (queue full — try
    elsewhere and come back) from a genuine miss.
    """

    peer_id: str
    index: int
    busy: bool = False


@dataclass(frozen=True, slots=True)
class Goodbye(Message):
    """The sender is leaving the swarm (churn)."""

    peer_id: str


@dataclass(frozen=True, slots=True)
class Cancel(Message):
    """Withdraw an earlier :class:`Request` (re-requested elsewhere)."""

    peer_id: str
    index: int
