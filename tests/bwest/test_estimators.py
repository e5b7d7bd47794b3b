"""Tests for bandwidth estimators."""

import pytest

from repro.bwest import (
    MathisEstimator,
    WindowedThroughputEstimator,
)
from repro.errors import ConfigurationError


class TestWindowedThroughputEstimator:
    def test_undecided_before_min_samples(self):
        estimator = WindowedThroughputEstimator(min_samples=2)
        estimator.record(0.0, 1000)
        assert estimator.estimate(1.0) is None

    def test_steady_arrivals(self):
        estimator = WindowedThroughputEstimator(window=10.0)
        for t in range(10):
            estimator.record(float(t), 1000)
        assert estimator.estimate(10.0) == pytest.approx(1000.0, rel=0.2)

    def test_old_arrivals_expire(self):
        estimator = WindowedThroughputEstimator(window=5.0)
        estimator.record(0.0, 1_000_000)
        estimator.record(6.0, 1000)
        estimator.record(9.0, 1000)
        # At t=10 the million-byte burst is outside the window.
        estimate = estimator.estimate(10.0)
        assert estimate is not None
        assert estimate < 10_000

    def test_short_history_uses_elapsed_time(self):
        estimator = WindowedThroughputEstimator(window=10.0)
        estimator.record(0.0, 1000)
        estimator.record(1.0, 1000)
        assert estimator.estimate(1.0) == pytest.approx(2000.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowedThroughputEstimator(window=0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowedThroughputEstimator().record(0.0, -1)


class TestMathisEstimator:
    def test_formula(self):
        estimator = MathisEstimator(rtt=0.05, loss_rate=0.05)
        assert estimator.ceiling == pytest.approx(159_934, rel=0.01)

    def test_estimate_equals_ceiling(self):
        estimator = MathisEstimator(rtt=0.1, loss_rate=0.01)
        assert estimator.estimate(123.0) == estimator.ceiling

    def test_record_is_ignored(self):
        estimator = MathisEstimator(rtt=0.1, loss_rate=0.01)
        before = estimator.estimate(0.0)
        estimator.record(1.0, 10_000_000)
        assert estimator.estimate(1.0) == before

    def test_higher_loss_lower_ceiling(self):
        clean = MathisEstimator(rtt=0.05, loss_rate=0.01)
        dirty = MathisEstimator(rtt=0.05, loss_rate=0.20)
        assert dirty.ceiling < clean.ceiling

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            MathisEstimator(rtt=0, loss_rate=0.05)
        with pytest.raises(ConfigurationError):
            MathisEstimator(rtt=0.1, loss_rate=0.0)
        with pytest.raises(ConfigurationError):
            MathisEstimator(rtt=0.1, loss_rate=0.05, mss=0)
