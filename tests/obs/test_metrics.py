"""Metrics primitives: counters, gauges, the sim-time-weighted
histogram, and the registry's name bookkeeping."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.obs import MetricsRegistry, TimeWeightedHistogram


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        counter = MetricsRegistry().counter("x")
        with pytest.raises(TraceError):
            counter.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0


class TestTimeWeightedHistogram:
    def test_weights_by_holding_time(self):
        """A pool at k=4 for 60 s and k=1 for 2 s must average near 4,
        not at the per-decision mean of 2.5."""
        histogram = TimeWeightedHistogram("pool")
        histogram.observe(0.0, 4.0)
        histogram.observe(60.0, 1.0)
        histogram.finalize(62.0)
        summary = histogram.summary()
        assert summary.total_weight == pytest.approx(62.0)
        assert summary.mean == pytest.approx(
            (4.0 * 60.0 + 1.0 * 2.0) / 62.0
        )
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_independent_keys_accumulate_peer_seconds(self):
        histogram = TimeWeightedHistogram("pool")
        histogram.observe(0.0, 2.0, key="peer-1")
        histogram.observe(0.0, 2.0, key="peer-2")
        histogram.finalize(10.0)
        # Two peers at the same value: 20 peer-seconds, not 10.
        assert histogram.weights() == {2.0: 20.0}

    def test_time_regression_rejected(self):
        histogram = TimeWeightedHistogram("pool")
        histogram.observe(5.0, 1.0)
        with pytest.raises(TraceError):
            histogram.observe(4.0, 2.0)

    def test_finalize_resets_keys_for_next_run(self):
        """One histogram may span several runs whose sim clocks each
        restart at zero (seed-averaged experiment cells)."""
        histogram = TimeWeightedHistogram("pool")
        histogram.observe(0.0, 3.0)
        histogram.finalize(10.0)
        # Next run: the clock is back at zero; no regression error.
        histogram.observe(0.0, 5.0)
        histogram.finalize(10.0)
        assert histogram.weights() == {3.0: 10.0, 5.0: 10.0}

    def test_empty_summary_raises(self):
        with pytest.raises(TraceError):
            TimeWeightedHistogram("empty").summary()

    def test_zero_length_interval_carries_no_weight(self):
        histogram = TimeWeightedHistogram("pool")
        histogram.observe(1.0, 3.0)
        histogram.observe(1.0, 4.0)  # instantaneous switch
        histogram.finalize(2.0)
        assert histogram.weights() == {4.0: 1.0}


class TestRegistry:
    def test_name_collision_across_kinds(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TraceError):
            registry.gauge("x")
        with pytest.raises(TraceError):
            registry.histogram("x")

    def test_len_counts_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert len(registry) == 3

    def test_views_are_copies(self):
        registry = MetricsRegistry()
        registry.counter("a")
        view = registry.counters()
        view.clear()
        assert registry.counters() == {"a": registry.counter("a")}
