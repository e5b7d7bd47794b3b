"""Tests for splice validation."""

import dataclasses

import pytest

from repro.core.segments import SpliceResult
from repro.core.splicer import DurationSplicer, GopSplicer
from repro.core.validate import validate_splice


@pytest.fixture(scope="module")
def splice(short_video):
    return DurationSplicer(2.0).splice(short_video)


class TestValidateSplice:
    def test_duration_splice_is_valid(self, short_video, splice):
        report = validate_splice(splice, short_video)
        assert report.valid, report.problems
        assert report.covered_frames == short_video.frame_count
        assert report.overhead_bytes == splice.overhead_bytes
        assert report.inserted_i_frames > 0

    def test_gop_splice_is_valid(self, short_video):
        gop = GopSplicer().splice(short_video)
        report = validate_splice(gop, short_video)
        assert report.valid, report.problems
        assert report.inserted_i_frames == 0
        assert report.overhead_bytes == 0

    def test_detects_missing_tail(self, short_video, splice):
        truncated = SpliceResult(
            technique="broken",
            segments=splice.segments[:-1],
            source_size=short_video.size,
        )
        report = validate_splice(truncated, short_video)
        assert not report.valid
        assert any("covers" in problem for problem in report.problems)

    def test_detects_tampered_frame(self, short_video, splice):
        victim = splice.segments[1]
        tampered_frames = list(victim.frames)
        middle = tampered_frames[2]
        tampered_frames[2] = dataclasses.replace(
            middle, size=middle.size + 1
        )
        tampered = SpliceResult(
            technique="broken",
            segments=(
                splice.segments[0],
                dataclasses.replace(
                    victim, frames=tuple(tampered_frames)
                ),
            )
            + splice.segments[2:],
            source_size=short_video.size,
        )
        report = validate_splice(tampered, short_video)
        assert not report.valid
        assert any("altered" in problem for problem in report.problems)

    def test_detects_wrong_source(self, short_video, tiny_video, splice):
        report = validate_splice(splice, tiny_video)
        assert not report.valid

