"""Fuzzing the wire layer: malformed input must fail loudly and typed.

A peer receiving garbage must raise :class:`WireFormatError` (never
``IndexError``/``struct.error``/silent misparse) — the property a
network-facing decoder must hold.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.p2p.messages import (
    Bitfield,
    Cancel,
    Goodbye,
    Handshake,
    Have,
    Manifest,
    ManifestRequest,
    Piece,
    Request,
    RequestRejected,
    decode_message,
    encode_message,
)
from repro.p2p.wire import FrameDecoder

names = st.text(max_size=12)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
u64 = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def manifests(draw):
    layout = draw(
        st.lists(st.tuples(u64, st.floats(allow_nan=False)), max_size=6)
    )
    return Manifest(
        info_hash=draw(names),
        segment_sizes=tuple(size for size, _ in layout),
        segment_durations=tuple(duration for _, duration in layout),
        peers=tuple(draw(st.lists(names, max_size=4))),
    )


#: Any valid message of any of the ten types.
messages = st.one_of(
    st.builds(Handshake, names, names),
    st.builds(ManifestRequest, names),
    manifests(),
    st.builds(Bitfield, names, st.lists(u32, max_size=8).map(tuple)),
    st.builds(Have, names, u32),
    st.builds(Request, names, u32, st.booleans()),
    st.builds(RequestRejected, names, u32, st.booleans()),
    st.builds(Piece, names, u32, u64),
    st.builds(Goodbye, names),
    st.builds(Cancel, names, u32),
)


class TestDecodeMessageFuzz:
    @given(data=st.binary(max_size=400))
    @example(data=b"")
    @example(data=b"\x03")  # Manifest id with no body
    def test_random_bytes_never_crash_untyped(self, data):
        try:
            decode_message(data)
        except WireFormatError:
            pass  # the one allowed failure mode

    @given(data=st.binary(min_size=1, max_size=200))
    def test_truncations_of_valid_messages(self, data):
        message = Manifest(
            info_hash="deadbeef",
            segment_sizes=(100, 200, 300),
            segment_durations=(1.0, 2.0, 3.0),
            peers=("a", "b"),
        )
        encoded = encode_message(message)
        for cut in range(1, len(encoded)):
            try:
                decoded = decode_message(encoded[:cut])
            except WireFormatError:
                continue
            # A prefix that still parses must not masquerade as the
            # original message.
            assert decoded != message

    @given(flip_at=st.integers(min_value=1, max_value=10))
    def test_bitflips_in_body_fail_or_differ(self, flip_at):
        message = Request(peer_id="peer-1", index=42)
        encoded = bytearray(encode_message(message))
        if flip_at >= len(encoded):
            return
        encoded[flip_at] ^= 0xFF
        try:
            decoded = decode_message(bytes(encoded))
        except WireFormatError:
            return
        assert decoded != message


class TestEveryMessageType:
    @given(message=messages)
    def test_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    @given(message=messages)
    def test_every_strict_prefix_rejected(self, message):
        encoded = encode_message(message)
        for cut in range(len(encoded)):
            with pytest.raises(WireFormatError):
                decode_message(encoded[:cut])

    @given(message=messages, extra=st.integers(min_value=0, max_value=255))
    def test_one_extra_byte_rejected(self, message, extra):
        with pytest.raises(WireFormatError, match="trailing"):
            decode_message(encode_message(message) + bytes([extra]))

    @given(
        msg_id=st.integers(min_value=1, max_value=10),
        body=st.binary(max_size=80),
    )
    def test_random_bodies_fail_typed(self, msg_id, body):
        try:
            decode_message(bytes([msg_id]) + body)
        except WireFormatError:
            pass  # the one allowed failure mode


class TestFrameDecoderFuzz:
    @given(data=st.binary(max_size=300))
    def test_arbitrary_chunks_never_crash_untyped(self, data):
        decoder = FrameDecoder()
        try:
            decoder.feed(data)
        except WireFormatError:
            pass

    @given(
        chunks=st.lists(st.binary(max_size=50), max_size=10),
    )
    def test_incremental_feeding_equals_bulk(self, chunks):
        bulk_decoder = FrameDecoder()
        chunked_decoder = FrameDecoder()
        stream = b"".join(chunks)
        try:
            bulk = bulk_decoder.feed(stream)
        except WireFormatError:
            return
        incremental = []
        try:
            for chunk in chunks:
                incremental.extend(chunked_decoder.feed(chunk))
        except WireFormatError:
            return
        assert incremental == bulk
