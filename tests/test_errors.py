"""Tests for the exception hierarchy."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.ConfigurationError,
    errors.VideoError,
    errors.BitstreamError,
    errors.SpliceError,
    errors.NetworkError,
    errors.SimulationError,
    errors.RoutingError,
    errors.LinkError,
    errors.PeerError,
    errors.SwarmError,
    errors.PlaybackError,
    errors.RSpecError,
    errors.ExperimentError,
]


@pytest.mark.parametrize("error_type", ALL_ERRORS)
def test_all_derive_from_repro_error(error_type):
    assert issubclass(error_type, errors.ReproError)


def test_bitstream_error_is_video_error():
    assert issubclass(errors.BitstreamError, errors.VideoError)


def test_simulation_error_is_network_error():
    assert issubclass(errors.SimulationError, errors.NetworkError)


def test_catching_base_catches_subsystem_errors():
    with pytest.raises(errors.ReproError):
        raise errors.SpliceError("boom")


def test_errors_carry_messages():
    try:
        raise errors.LinkError("capacity must be > 0")
    except errors.ReproError as exc:
        assert "capacity" in str(exc)
