"""Tests for repro.video.frames."""

import pytest

from repro.errors import BitstreamError
from repro.video.frames import Frame, FrameType


def make_frame(**overrides):
    defaults = dict(
        index=0,
        frame_type=FrameType.I,
        size=10_000,
        duration=0.04,
        pts=0.0,
    )
    defaults.update(overrides)
    return Frame(**defaults)


class TestFrameType:
    def test_three_types(self):
        assert {t.value for t in FrameType} == {"I", "P", "B"}


class TestFrameValidation:
    def test_valid_frame(self):
        frame = make_frame()
        assert frame.size == 10_000

    def test_negative_index_rejected(self):
        with pytest.raises(BitstreamError):
            make_frame(index=-1)

    def test_zero_size_rejected(self):
        with pytest.raises(BitstreamError):
            make_frame(size=0)

    def test_zero_duration_rejected(self):
        with pytest.raises(BitstreamError):
            make_frame(duration=0.0)

    def test_negative_pts_rejected(self):
        with pytest.raises(BitstreamError):
            make_frame(pts=-0.1)


class TestFrameProperties:
    def test_end_pts(self):
        frame = make_frame(pts=1.0, duration=0.04)
        assert frame.end_pts == pytest.approx(1.04)

    def test_frames_are_immutable(self):
        frame = make_frame()
        with pytest.raises(AttributeError):
            frame.size = 5

    def test_equality_is_structural(self):
        assert make_frame() == make_frame()


class TestAsType:
    def test_converts_type_and_size(self):
        original = make_frame(frame_type=FrameType.P, size=3000)
        converted = original.as_type(FrameType.I, 20_000)
        assert converted.frame_type is FrameType.I
        assert converted.size == 20_000

    def test_preserves_timing(self):
        original = make_frame(
            frame_type=FrameType.B, size=1000, pts=2.0, duration=0.04
        )
        converted = original.as_type(FrameType.I, 9000)
        assert converted.pts == original.pts
        assert converted.duration == original.duration
        assert converted.index == original.index

    def test_original_untouched(self):
        original = make_frame(frame_type=FrameType.P, size=3000)
        original.as_type(FrameType.I, 20_000)
        assert original.frame_type is FrameType.P
        assert original.size == 3000
