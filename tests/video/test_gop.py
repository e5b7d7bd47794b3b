"""Tests for the GOP model."""

import pytest

from repro.errors import BitstreamError
from repro.video.frames import Frame, FrameType
from repro.video.gop import Gop


def frames_for(pattern: str, start_index: int = 0, start_pts: float = 0.0):
    """Build frames from a type pattern like 'IPPB'."""
    frames = []
    for offset, letter in enumerate(pattern):
        frames.append(
            Frame(
                index=start_index + offset,
                frame_type=FrameType(letter),
                size=10_000 if letter == "I" else 2_000,
                duration=0.04,
                pts=start_pts + offset * 0.04,
            )
        )
    return tuple(frames)


class TestGopValidation:
    def test_valid_gop(self):
        gop = Gop(frames=frames_for("IPPBB"))
        assert len(gop) == 5

    def test_empty_rejected(self):
        with pytest.raises(BitstreamError):
            Gop(frames=())

    def test_must_start_with_i(self):
        with pytest.raises(BitstreamError):
            Gop(frames=frames_for("PPI"))

    def test_single_i_frame_gop(self):
        gop = Gop(frames=frames_for("I"))
        assert gop.duration == pytest.approx(0.04)

    def test_second_i_frame_rejected(self):
        with pytest.raises(BitstreamError):
            Gop(frames=frames_for("IPI"))

    def test_non_increasing_pts_rejected(self):
        bad = list(frames_for("IP"))
        bad[1] = Frame(
            index=1,
            frame_type=FrameType.P,
            size=2_000,
            duration=0.04,
            pts=0.0,
        )
        with pytest.raises(BitstreamError):
            Gop(frames=tuple(bad))


class TestGopProperties:
    def test_duration(self):
        gop = Gop(frames=frames_for("IPPP"))
        assert gop.duration == pytest.approx(0.16)

    def test_size_sums_frames(self):
        gop = Gop(frames=frames_for("IPP"))
        assert gop.size == 10_000 + 2 * 2_000

    def test_start_and_end_pts(self):
        gop = Gop(frames=frames_for("IPP", start_pts=1.0))
        assert gop.start_pts == pytest.approx(1.0)
        assert gop.end_pts == pytest.approx(1.12)

    def test_i_frame(self):
        gop = Gop(frames=frames_for("IBBP"))
        assert gop.i_frame.frame_type is FrameType.I
