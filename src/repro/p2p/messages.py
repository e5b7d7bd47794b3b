"""Protocol messages and their byte codec.

A BitTorrent-like message set adapted to streaming: peers exchange a
manifest (segment layout — what a tracker-less HLS playlist carries),
bitfields and haves for availability, and request/piece for data.

Encoding: ``msg_id (1 byte) || body``.  Strings are
``u16 length || utf-8``; arrays are ``u32 count || items``.  All
integers big-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

from ..errors import WireFormatError

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U32_U8 = struct.Struct(">IB")
_U32_U64 = struct.Struct(">IQ")


class Message:
    """Base class for protocol messages; subclasses define ``MSG_ID``."""

    MSG_ID: ClassVar[int]


@dataclass(frozen=True, slots=True)
class Handshake(Message):
    """Opens a peer link: who I am and which stream I want."""

    MSG_ID: ClassVar[int] = 1
    peer_id: str
    info_hash: str


@dataclass(frozen=True, slots=True)
class ManifestRequest(Message):
    """Ask the seeder for the video manifest and swarm membership."""

    MSG_ID: ClassVar[int] = 2
    peer_id: str


@dataclass(frozen=True, slots=True)
class Manifest(Message):
    """The seeder's reply: segment layout plus current swarm members.

    This is "different information about the video and the swarm" the
    paper says every peer fetches from the seeder at startup.
    """

    MSG_ID: ClassVar[int] = 3
    info_hash: str
    segment_sizes: tuple[int, ...]
    segment_durations: tuple[float, ...]
    peers: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.segment_sizes) != len(self.segment_durations):
            raise WireFormatError(
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

    MSG_ID: ClassVar[int] = 4
    peer_id: str
    indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Have(Message):
    """Announce one newly-acquired segment."""

    MSG_ID: ClassVar[int] = 5
    peer_id: str
    index: int


@dataclass(frozen=True, slots=True)
class Request(Message):
    """Ask the receiver to upload one segment to the sender.

    ``urgent`` marks playback-critical requests (the requester is
    stalled on, or about to play, this segment); uploaders serve urgent
    requests before prefetches.
    """

    MSG_ID: ClassVar[int] = 6
    peer_id: str
    index: int
    urgent: bool = False


@dataclass(frozen=True, slots=True)
class RequestRejected(Message):
    """Refusal: the segment is not held, or the sender is choked.

    ``busy`` distinguishes a BitTorrent-style choke (queue full — try
    elsewhere and come back) from a genuine miss.
    """

    MSG_ID: ClassVar[int] = 7
    peer_id: str
    index: int
    busy: bool = False


@dataclass(frozen=True, slots=True)
class Piece(Message):
    """Header accompanying a completed segment transfer."""

    MSG_ID: ClassVar[int] = 8
    peer_id: str
    index: int
    size: int


@dataclass(frozen=True, slots=True)
class Goodbye(Message):
    """The sender is leaving the swarm (churn)."""

    MSG_ID: ClassVar[int] = 9
    peer_id: str


@dataclass(frozen=True, slots=True)
class Cancel(Message):
    """Withdraw an earlier :class:`Request` (re-requested elsewhere)."""

    MSG_ID: ClassVar[int] = 10
    peer_id: str
    index: int


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireFormatError(f"string of {len(raw)} bytes is too long")
    return _U16.pack(len(raw)) + raw


def _encode_handshake(m: Handshake) -> bytes:
    return _pack_str(m.peer_id) + _pack_str(m.info_hash)


def _encode_peer_id(m: ManifestRequest | Goodbye) -> bytes:
    return _pack_str(m.peer_id)


def _encode_manifest(m: Manifest) -> bytes:
    count = len(m.segment_sizes)
    layout = struct.pack(
        f">I{count}Q{count}d",
        count,
        *m.segment_sizes,
        *m.segment_durations,
    )
    peers = [_U32.pack(len(m.peers)), *map(_pack_str, m.peers)]
    return b"".join([_pack_str(m.info_hash), layout, *peers])


def _encode_bitfield(m: Bitfield) -> bytes:
    count = len(m.indices)
    return _pack_str(m.peer_id) + struct.pack(
        f">I{count}I", count, *m.indices
    )


def _encode_indexed(m: Have | Cancel) -> bytes:
    return _pack_str(m.peer_id) + _U32.pack(m.index)


def _encode_request(m: Request) -> bytes:
    return _pack_str(m.peer_id) + _U32_U8.pack(m.index, 1 if m.urgent else 0)


def _encode_rejected(m: RequestRejected) -> bytes:
    return _pack_str(m.peer_id) + _U32_U8.pack(m.index, 1 if m.busy else 0)


def _encode_piece(m: Piece) -> bytes:
    return _pack_str(m.peer_id) + _U32_U64.pack(m.index, m.size)


#: Body encoder per message type; the id byte is prepended by
#: :func:`encode_message`.
_ENCODERS: dict[type, Callable[[Any], bytes]] = {
    Handshake: _encode_handshake,
    ManifestRequest: _encode_peer_id,
    Manifest: _encode_manifest,
    Bitfield: _encode_bitfield,
    Have: _encode_indexed,
    Request: _encode_request,
    RequestRejected: _encode_rejected,
    Piece: _encode_piece,
    Goodbye: _encode_peer_id,
    Cancel: _encode_indexed,
}


def encode_message(message: Message) -> bytes:
    """Serialize a message to its wire bytes (without framing)."""
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise WireFormatError(f"cannot encode {type(message).__name__}")
    return _U8.pack(message.MSG_ID) + encoder(message)


# Each decoder takes the whole message and reads its body from offset
# 1 (after the id byte), checking every bound before ``unpack_from``;
# it returns the message and the offset just past its last field.


def _unpack_at(fmt: struct.Struct, data: bytes, pos: int) -> tuple:
    """``fmt``'s values at ``pos`` and the offset just past them."""
    end = pos + fmt.size
    if end > len(data):
        raise WireFormatError("message truncated")
    return fmt.unpack_from(data, pos), end


def _str_at(data: bytes, pos: int) -> tuple[str, int]:
    """The string at ``pos`` and the offset just past it."""
    (length,), start = _unpack_at(_U16, data, pos)
    end = start + length
    if end > len(data):
        raise WireFormatError("string extends past message end")
    try:
        return str(data[start:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireFormatError(
            f"string field is not valid UTF-8: {exc}"
        ) from exc


def _decode_handshake(data: bytes) -> tuple[Handshake, int]:
    peer_id, pos = _str_at(data, 1)
    info_hash, pos = _str_at(data, pos)
    return Handshake(peer_id, info_hash), pos


def _decode_manifest_request(data: bytes) -> tuple[ManifestRequest, int]:
    peer_id, pos = _str_at(data, 1)
    return ManifestRequest(peer_id), pos


def _decode_manifest(data: bytes) -> tuple[Manifest, int]:
    info_hash, pos = _str_at(data, 1)
    (count,), pos = _unpack_at(_U32, data, pos)
    layout, pos = _unpack_at(struct.Struct(f">{count}Q{count}d"), data, pos)
    (npeers,), pos = _unpack_at(_U32, data, pos)
    peers = []
    for _ in range(npeers):
        peer, pos = _str_at(data, pos)
        peers.append(peer)
    return (
        Manifest(info_hash, layout[:count], layout[count:], tuple(peers)),
        pos,
    )


def _decode_bitfield(data: bytes) -> tuple[Bitfield, int]:
    peer_id, pos = _str_at(data, 1)
    (count,), pos = _unpack_at(_U32, data, pos)
    indices, pos = _unpack_at(struct.Struct(f">{count}I"), data, pos)
    return Bitfield(peer_id, indices), pos


def _decode_have(data: bytes) -> tuple[Have, int]:
    peer_id, pos = _str_at(data, 1)
    (index,), pos = _unpack_at(_U32, data, pos)
    return Have(peer_id, index), pos


def _decode_request(data: bytes) -> tuple[Request, int]:
    peer_id, pos = _str_at(data, 1)
    (index, urgent), pos = _unpack_at(_U32_U8, data, pos)
    return Request(peer_id, index, urgent != 0), pos


def _decode_rejected(data: bytes) -> tuple[RequestRejected, int]:
    peer_id, pos = _str_at(data, 1)
    (index, busy), pos = _unpack_at(_U32_U8, data, pos)
    return RequestRejected(peer_id, index, busy != 0), pos


def _decode_piece(data: bytes) -> tuple[Piece, int]:
    peer_id, pos = _str_at(data, 1)
    (index, size), pos = _unpack_at(_U32_U64, data, pos)
    return Piece(peer_id, index, size), pos


def _decode_goodbye(data: bytes) -> tuple[Goodbye, int]:
    peer_id, pos = _str_at(data, 1)
    return Goodbye(peer_id), pos


def _decode_cancel(data: bytes) -> tuple[Cancel, int]:
    peer_id, pos = _str_at(data, 1)
    (index,), pos = _unpack_at(_U32, data, pos)
    return Cancel(peer_id, index), pos


_DECODERS: dict[int, Callable[[bytes], tuple[Message, int]]] = {
    Handshake.MSG_ID: _decode_handshake,
    ManifestRequest.MSG_ID: _decode_manifest_request,
    Manifest.MSG_ID: _decode_manifest,
    Bitfield.MSG_ID: _decode_bitfield,
    Have.MSG_ID: _decode_have,
    Request.MSG_ID: _decode_request,
    RequestRejected.MSG_ID: _decode_rejected,
    Piece.MSG_ID: _decode_piece,
    Goodbye.MSG_ID: _decode_goodbye,
    Cancel.MSG_ID: _decode_cancel,
}


def decode_message(data: bytes) -> Message:
    """Parse wire bytes (without framing) into a message.

    Raises:
        WireFormatError: on unknown message ids, truncation, or
            trailing garbage.
    """
    if not data:
        raise WireFormatError("empty message")
    decoder = _DECODERS.get(data[0])
    if decoder is None:
        raise WireFormatError(f"unknown message id {data[0]}")
    message, end = decoder(data)
    if end != len(data):
        raise WireFormatError(
            f"{len(data) - end} trailing bytes after message"
        )
    return message
