"""Tests for the protocol message codec."""

import pytest
from hypothesis import given
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

peer_ids = st.text(min_size=1, max_size=24)
indices = st.integers(min_value=0, max_value=2**32 - 1)


#: One instance of every message type and its wire bytes, recorded
#: from the original ``isinstance``-chain encoder.  A codec change that
#: alters any byte on the wire fails here.
WIRE_BYTES = [
    (
        Handshake(peer_id="peer-1", info_hash="abababab"),
        "010006706565722d3100086162616261626162",
    ),
    (ManifestRequest(peer_id="peer-2"), "020006706565722d32"),
    (
        Manifest(
            info_hash="deadbeef",
            segment_sizes=(100, 2_000_000),
            segment_durations=(2.0, 1.5),
            peers=("seeder", "пир-3"),
        ),
        "0300086465616462656566000000020000000000000064000000000"
        "01e848040000000000000003ff800000000000000000002000673656564"
        "65720008d0bfd0b8d1802d33",
    ),
    (
        Bitfield(peer_id="p", indices=(0, 3, 70000)),
        "0400017000000003000000000000000300011170",
    ),
    (Have(peer_id="peer-19", index=42), "050007706565722d31390000002a"),
    (Request(peer_id="p", index=4, urgent=True), "060001700000000401"),
    (
        RequestRejected(peer_id="p", index=7, busy=True),
        "070001700000000701",
    ),
    (
        Piece(peer_id="p", index=2, size=512_000),
        "0800017000000002000000000007d000",
    ),
    (Goodbye(peer_id="peer-7"), "090006706565722d37"),
    (Cancel(peer_id="p", index=2**32 - 1), "0a000170ffffffff"),
]

WIRE_IDS = [type(message).__name__ for message, _ in WIRE_BYTES]


def roundtrip(message):
    return decode_message(encode_message(message))


class TestRoundTrips:
    def test_handshake(self):
        msg = Handshake(peer_id="peer-1", info_hash="ab" * 20)
        assert roundtrip(msg) == msg

    def test_manifest_request(self):
        msg = ManifestRequest(peer_id="peer-2")
        assert roundtrip(msg) == msg

    def test_manifest(self):
        msg = Manifest(
            info_hash="deadbeef",
            segment_sizes=(100, 2_000_000, 30),
            segment_durations=(2.0, 4.0, 1.5),
            peers=("peer-1", "peer-2"),
        )
        assert roundtrip(msg) == msg

    def test_manifest_empty_peers(self):
        msg = Manifest(
            info_hash="x",
            segment_sizes=(1,),
            segment_durations=(1.0,),
        )
        assert roundtrip(msg) == msg

    def test_bitfield(self):
        msg = Bitfield(peer_id="p", indices=(0, 3, 17))
        assert roundtrip(msg) == msg

    def test_have(self):
        assert roundtrip(Have(peer_id="p", index=9)) == Have("p", 9)

    def test_request_default_not_urgent(self):
        msg = roundtrip(Request(peer_id="p", index=4))
        assert msg == Request("p", 4, urgent=False)

    def test_request_urgent(self):
        msg = roundtrip(Request(peer_id="p", index=4, urgent=True))
        assert msg.urgent

    def test_request_rejected_busy_flag(self):
        msg = roundtrip(RequestRejected(peer_id="p", index=4, busy=True))
        assert msg.busy

    def test_piece(self):
        msg = Piece(peer_id="p", index=2, size=512_000)
        assert roundtrip(msg) == msg

    def test_goodbye(self):
        assert roundtrip(Goodbye(peer_id="p")) == Goodbye("p")

    def test_cancel(self):
        assert roundtrip(Cancel(peer_id="p", index=5)) == Cancel("p", 5)

    def test_unicode_peer_id(self):
        msg = Handshake(peer_id="пир-1", info_hash="h")
        assert roundtrip(msg) == msg


class TestWireBytes:
    def test_table_covers_every_message_type(self):
        ids = sorted(message.MSG_ID for message, _ in WIRE_BYTES)
        assert ids == list(range(1, 11))

    @pytest.mark.parametrize("message, wire", WIRE_BYTES, ids=WIRE_IDS)
    def test_encoding_is_pinned(self, message, wire):
        assert encode_message(message).hex() == wire

    @pytest.mark.parametrize("message, wire", WIRE_BYTES, ids=WIRE_IDS)
    def test_pinned_bytes_decode(self, message, wire):
        assert decode_message(bytes.fromhex(wire)) == message

    def test_unknown_type_rejected(self):
        with pytest.raises(WireFormatError, match="cannot encode"):
            encode_message(object())


class TestValidation:
    def test_manifest_length_mismatch_rejected(self):
        with pytest.raises(WireFormatError):
            Manifest(
                info_hash="x",
                segment_sizes=(1, 2),
                segment_durations=(1.0,),
            )

    def test_manifest_segment_count(self):
        msg = Manifest(
            info_hash="x",
            segment_sizes=(1, 2),
            segment_durations=(1.0, 2.0),
        )
        assert msg.segment_count == 2

    def test_empty_bytes_rejected(self):
        with pytest.raises(WireFormatError):
            decode_message(b"")

    def test_unknown_id_rejected(self):
        with pytest.raises(WireFormatError):
            decode_message(b"\xee")

    def test_truncated_body_rejected(self):
        data = encode_message(Piece(peer_id="p", index=1, size=10))
        with pytest.raises(WireFormatError):
            decode_message(data[:-3])

    def test_trailing_garbage_rejected(self):
        data = encode_message(Have(peer_id="p", index=1))
        with pytest.raises(WireFormatError):
            decode_message(data + b"junk")


class TestPropertyRoundTrips:
    @given(peer_id=peer_ids, info_hash=st.text(max_size=40))
    def test_handshake(self, peer_id, info_hash):
        msg = Handshake(peer_id=peer_id, info_hash=info_hash)
        assert roundtrip(msg) == msg

    @given(
        info_hash=st.text(max_size=40),
        layout=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**63 - 1),
                st.floats(
                    min_value=0.01,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            max_size=20,
        ),
        peers=st.lists(peer_ids, max_size=8),
    )
    def test_manifest(self, info_hash, layout, peers):
        msg = Manifest(
            info_hash=info_hash,
            segment_sizes=tuple(size for size, _ in layout),
            segment_durations=tuple(d for _, d in layout),
            peers=tuple(peers),
        )
        assert roundtrip(msg) == msg

    @given(peer_id=peer_ids, idx=indices, urgent=st.booleans())
    def test_request(self, peer_id, idx, urgent):
        msg = Request(peer_id=peer_id, index=idx, urgent=urgent)
        assert roundtrip(msg) == msg

    @given(peer_id=peer_ids, indices_list=st.lists(indices, max_size=50))
    def test_bitfield(self, peer_id, indices_list):
        msg = Bitfield(peer_id=peer_id, indices=tuple(indices_list))
        assert roundtrip(msg) == msg

    @given(
        peer_id=peer_ids,
        idx=indices,
        size=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_piece(self, peer_id, idx, size):
        msg = Piece(peer_id=peer_id, index=idx, size=size)
        assert roundtrip(msg) == msg


class TestMessageIds:
    def test_ids_are_unique(self):
        ids = [
            Handshake.MSG_ID,
            ManifestRequest.MSG_ID,
            Manifest.MSG_ID,
            Bitfield.MSG_ID,
            Have.MSG_ID,
            Request.MSG_ID,
            RequestRejected.MSG_ID,
            Piece.MSG_ID,
            Goodbye.MSG_ID,
            Cancel.MSG_ID,
        ]
        assert len(set(ids)) == len(ids)

    def test_first_byte_is_msg_id(self):
        data = encode_message(Goodbye(peer_id="p"))
        assert data[0] == Goodbye.MSG_ID
