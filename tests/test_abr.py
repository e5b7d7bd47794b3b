"""Tests for the ABR baseline (ladder, policies, session)."""

import pytest

from repro.abr import (
    AbrSession,
    AbrSessionConfig,
    BitrateLadder,
    BufferBasedAbr,
    Rendition,
    encode_ladder,
)
from repro.abr.policy import FixedRung
from repro.abr.session import MAX_BUFFER
from repro.errors import ConfigurationError
from repro.units import kB_per_s


@pytest.fixture(scope="module")
def ladder():
    return encode_ladder(
        seed=3,
        duration=24.0,
        bitrates=(250_000.0, 500_000.0, 1_000_000.0),
        segment_duration=4.0,
    )


class TestLadder:
    def test_rungs_sorted_ascending(self, ladder):
        assert list(ladder.bitrates) == sorted(ladder.bitrates)

    def test_segment_alignment(self, ladder):
        assert ladder.segment_count == 6
        for index in range(ladder.segment_count):
            duration = ladder.segment_duration(index)
            for rung in range(len(ladder)):
                segment = ladder.rung(rung).splice.segments[index]
                assert segment.duration == pytest.approx(duration)

    def test_higher_rungs_are_bigger(self, ladder):
        for index in range(ladder.segment_count):
            sizes = [
                ladder.segment_size(r, index)
                for r in range(len(ladder))
            ]
            assert sizes == sorted(sizes)

    def test_top_and_bottom(self, ladder):
        assert ladder.top.bitrate == max(ladder.bitrates)
        assert ladder.rung(0).bitrate == min(ladder.bitrates)

    def test_misaligned_renditions_rejected(self, ladder):
        other = encode_ladder(
            seed=3,
            duration=24.0,
            bitrates=(250_000.0,),
            segment_duration=8.0,
        )
        with pytest.raises(ConfigurationError):
            BitrateLadder(
                [
                    Rendition(1.0, ladder.top.splice),
                    Rendition(2.0, other.top.splice),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            BitrateLadder([])
        with pytest.raises(ConfigurationError):
            encode_ladder(bitrates=())


class TestPolicies:
    def test_buffer_based_maps_levels(self, ladder):
        policy = BufferBasedAbr(reservoir=8.0, cushion=16.0)
        assert policy.choose(ladder, 2.0, None, 0) == 0
        assert policy.choose(ladder, 30.0, None, 0) == 2
        middle = policy.choose(ladder, 16.0, None, 0)
        assert 0 <= middle <= 2

    def test_fixed_rung(self, ladder):
        assert FixedRung(-1).choose(ladder, 0.0, None, 0) == 2
        assert FixedRung(0).choose(ladder, 99.0, None, 2) == 0

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            BufferBasedAbr(cushion=0.0)


class TestSession:
    def test_full_playback(self, ladder):
        session = AbrSession(
            ladder,
            BufferBasedAbr(),
            AbrSessionConfig(bandwidth=kB_per_s(256)),
        )
        metrics = session.run()
        assert metrics.streaming.finished
        assert len(metrics.rungs) == ladder.segment_count
        assert metrics.mean_bitrate > 0

    def test_scarce_bandwidth_degrades_quality_not_playback(
        self, ladder
    ):
        session = AbrSession(
            ladder,
            BufferBasedAbr(),
            AbrSessionConfig(bandwidth=kB_per_s(64)),
        )
        metrics = session.run()
        assert metrics.streaming.finished
        assert metrics.mean_bitrate < max(ladder.bitrates)

    def test_fixed_top_stalls_when_scarce(self, ladder):
        session = AbrSession(
            ladder,
            FixedRung(-1),
            AbrSessionConfig(bandwidth=kB_per_s(64)),
        )
        metrics = session.run()
        assert metrics.streaming.stall_count > 0
        assert metrics.mean_bitrate == max(ladder.bitrates)

    def test_buffer_cap_throttles_fetching(self):
        # Twice the cap, so an uncapped client would buffer past it.
        long_ladder = encode_ladder(
            seed=3,
            duration=2 * MAX_BUFFER,
            bitrates=(250_000.0,),
            segment_duration=4.0,
        )
        config = AbrSessionConfig(bandwidth=kB_per_s(1024))
        session = AbrSession(long_ladder, FixedRung(0), config)

        def check():
            # Buffered playtime never far exceeds the cap.
            level = session._buffer_level()
            assert level <= MAX_BUFFER + 8.0

        for t in (2.0, 4.0, 8.0, 12.0, 20.0):
            session.sim.schedule(t, check)
        metrics = session.run()
        assert metrics.streaming.finished

    def test_switches_counted(self, ladder):
        session = AbrSession(
            ladder,
            BufferBasedAbr(reservoir=2.0, cushion=6.0),
            AbrSessionConfig(bandwidth=kB_per_s(128)),
        )
        metrics = session.run()
        assert metrics.switches == sum(
            1
            for a, b in zip(metrics.rungs, metrics.rungs[1:])
            if a != b
        )

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            AbrSessionConfig(bandwidth=0)
