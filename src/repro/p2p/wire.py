"""Length-prefixed message framing.

Every protocol message travels as ``u32 length || payload`` — the same
framing BitTorrent uses.  :class:`FrameDecoder` is an incremental
parser: feed it arbitrary byte chunks (as a TCP stream would deliver
them) and collect whole payloads as they complete.
"""

from __future__ import annotations

import struct

from ..errors import WireFormatError

_LENGTH = struct.Struct(">I")

#: Refuse frames larger than this (corrupt length prefixes otherwise
#: make the decoder buffer unboundedly).
MAX_FRAME_SIZE = 64 * 1024 * 1024


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length prefix."""
    if len(payload) > MAX_FRAME_SIZE:
        raise WireFormatError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_SIZE}-byte frame limit"
        )
    return _LENGTH.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental length-prefixed frame parser."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data`` and return every completed payload.

        Raises:
            WireFormatError: on a length prefix exceeding the frame
                limit (stream corruption).
        """
        if not self._buffer and len(data) >= _LENGTH.size:
            # One whole frame on an empty buffer (every control
            # delivery) needs no buffering.
            (length,) = _LENGTH.unpack_from(data, 0)
            if length <= MAX_FRAME_SIZE and len(data) == _LENGTH.size + length:
                return [bytes(data[_LENGTH.size :])]
        self._buffer.extend(data)
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                break
            (length,) = _LENGTH.unpack_from(self._buffer, 0)
            if length > MAX_FRAME_SIZE:
                raise WireFormatError(
                    f"frame length {length} exceeds the "
                    f"{MAX_FRAME_SIZE}-byte limit"
                )
            if len(self._buffer) < _LENGTH.size + length:
                break
            start = _LENGTH.size
            frames.append(bytes(self._buffer[start : start + length]))
            del self._buffer[: start + length]
        return frames
