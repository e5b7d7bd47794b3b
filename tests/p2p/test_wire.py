"""Tests for the length-prefixed framing codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.p2p.wire import MAX_FRAME_SIZE, FrameDecoder, encode_frame


class TestEncodeFrame:
    def test_prefix_is_big_endian_length(self):
        frame = encode_frame(b"abc")
        assert frame == b"\x00\x00\x00\x03abc"

    def test_empty_payload(self):
        assert encode_frame(b"") == b"\x00\x00\x00\x00"

    def test_oversized_payload_rejected(self):
        with pytest.raises(WireFormatError):
            encode_frame(b"x" * (MAX_FRAME_SIZE + 1))


class TestFrameDecoder:
    def test_whole_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"hello")) == [b"hello"]

    def test_two_frames_in_one_chunk(self):
        decoder = FrameDecoder()
        data = encode_frame(b"a") + encode_frame(b"bb")
        assert decoder.feed(data) == [b"a", b"bb"]

    def test_byte_by_byte(self):
        decoder = FrameDecoder()
        frames = []
        for byte in encode_frame(b"xyz"):
            frames.extend(decoder.feed(bytes([byte])))
        assert frames == [b"xyz"]

    def test_split_across_length_prefix(self):
        decoder = FrameDecoder()
        data = encode_frame(b"payload")
        assert decoder.feed(data[:2]) == []
        assert decoder.feed(data[2:]) == [b"payload"]

    def test_pending_bytes(self):
        decoder = FrameDecoder()
        decoder.feed(b"\x00\x00")
        assert decoder.pending_bytes == 2

    def test_corrupt_length_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(WireFormatError):
            decoder.feed(b"\xff\xff\xff\xff")

    def test_empty_frame_roundtrip(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"")) == [b""]

    def test_whole_frame_from_bytearray_is_bytes(self):
        decoder = FrameDecoder()
        frames = decoder.feed(bytearray(encode_frame(b"ab")))
        assert frames == [b"ab"] and type(frames[0]) is bytes

    def test_partial_then_rest_plus_whole_frame_equals_bulk(self):
        first, second = encode_frame(b"first"), encode_frame(b"second")
        decoder = FrameDecoder()
        received = decoder.feed(first[:6])
        received += decoder.feed(first[6:] + second)
        assert received == FrameDecoder().feed(first + second)
        assert received == [b"first", b"second"]
        assert decoder.pending_bytes == 0

    def test_whole_frame_behind_a_partial_one_is_not_split_out(self):
        partial, whole = encode_frame(b"abcdef")[:6], encode_frame(b"xy")
        decoder = FrameDecoder()
        assert decoder.feed(partial) == []
        assert decoder.feed(whole) == FrameDecoder().feed(partial + whole)
        assert decoder.pending_bytes == len(partial + whole) - 10

    @given(payloads=st.lists(st.binary(max_size=200), max_size=10))
    def test_property_roundtrip(self, payloads):
        decoder = FrameDecoder()
        stream = b"".join(encode_frame(p) for p in payloads)
        assert decoder.feed(stream) == payloads
        assert decoder.pending_bytes == 0

    @given(
        payloads=st.lists(
            st.binary(max_size=100), min_size=1, max_size=5
        ),
        chunk_size=st.integers(min_value=1, max_value=17),
    )
    def test_property_roundtrip_chunked(self, payloads, chunk_size):
        decoder = FrameDecoder()
        stream = b"".join(encode_frame(p) for p in payloads)
        received = []
        for start in range(0, len(stream), chunk_size):
            received.extend(decoder.feed(stream[start : start + chunk_size]))
        assert received == payloads
