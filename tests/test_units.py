"""Tests for repro.units."""

import pytest

from repro import units
from repro.errors import ConfigurationError


class TestRateHelpers:
    def test_mbps(self):
        assert units.mbps(1) == pytest.approx(125_000.0)

    def test_kB_per_s(self):
        assert units.kB_per_s(128) == pytest.approx(128_000.0)

    def test_paper_video_rate(self):
        # The paper: "1 Mbps (128kB/s)" uses the 1024-adjacent rounding;
        # decimal units give 125 kB/s.
        assert units.mbps(1) / units.KILOBYTE == pytest.approx(125.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            units.mbps(-0.1)


class TestTimeHelpers:
    def test_milliseconds(self):
        assert units.milliseconds(50) == pytest.approx(0.05)

    def test_minutes(self):
        assert units.minutes(2) == pytest.approx(120.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            units.minutes(-2)


class TestReportingHelpers:
    def test_as_kB_per_s(self):
        assert units.as_kB_per_s(512_000.0) == pytest.approx(512.0)

    def test_roundtrip(self):
        assert units.as_kB_per_s(units.kB_per_s(768)) == pytest.approx(768)


class TestConstants:
    def test_mss_is_ethernet_sized(self):
        assert units.DEFAULT_MSS == 1460

    def test_bits_per_byte(self):
        assert units.BITS_PER_BYTE == 8
