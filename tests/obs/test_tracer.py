"""Tracer behavior: the disabled fast path, the recording tracer, and
the guarantee that tracing never changes simulation results."""

from __future__ import annotations

import time

from repro.core.splicer import DurationSplicer
from repro.obs import (
    NULL_TRACER,
    EventTracer,
    NullTracer,
    Observability,
    PeerJoined,
    StallStarted,
)
from repro.p2p.swarm import Swarm, SwarmConfig


class TestNullTracer:
    def test_disabled_and_empty(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.events() == []
        assert len(NULL_TRACER) == 0

    def test_emit_discards(self):
        tracer = NullTracer()
        tracer.emit(PeerJoined(time=1.0, peer="p"))
        assert tracer.events() == []


class TestEventTracer:
    def test_records_in_order(self):
        tracer = EventTracer()
        first = PeerJoined(time=1.0, peer="a")
        second = PeerJoined(time=2.0, peer="b")
        tracer.emit(first)
        tracer.emit(second)
        assert tracer.events() == [first, second]
        assert list(tracer) == [first, second]
        assert len(tracer) == 2

    def test_keeps_every_event(self):
        tracer = EventTracer()
        events = [
            PeerJoined(time=float(i), peer=f"p{i}") for i in range(1000)
        ]
        for event in events:
            tracer.emit(event)
        assert tracer.events() == events

    def test_clear(self):
        tracer = EventTracer()
        tracer.emit(PeerJoined(time=0.0, peer="p"))
        tracer.emit(StallStarted(time=1.0, peer="p", segment=0))
        tracer.clear()
        assert tracer.events() == []
        assert len(tracer) == 0


def _run_swarm(video, obs=None):
    splice = DurationSplicer(4.0).splice(video)
    config = SwarmConfig(
        bandwidth=256_000.0,
        seeder_bandwidth=1_024_000.0,
        n_leechers=4,
        seed=7,
        max_time=600.0,
    )
    return Swarm(splice, config, obs=obs).run()


class TestTracingOverhead:
    def test_tracing_does_not_change_results(self, short_video):
        """The tracer observes; it must never perturb the simulation."""
        plain = _run_swarm(short_video)
        traced = _run_swarm(
            short_video, obs=Observability.tracing(profile=True)
        )
        assert plain.end_time == traced.end_time
        assert plain.control_messages == traced.control_messages
        assert plain.seeder_bytes_uploaded == traced.seeder_bytes_uploaded
        for name, metrics in plain.metrics.items():
            other = traced.metrics[name]
            assert metrics.stall_count == other.stall_count
            assert metrics.startup_time == other.startup_time
            assert (
                metrics.total_stall_duration == other.total_stall_duration
            )

    def test_disabled_tracer_overhead_smoke(self, short_video):
        """The default path must not be grossly slower than no obs at
        all — it only adds `tracer.enabled` attribute checks.  The
        bound is deliberately loose (wall time on shared CI)."""
        started = time.perf_counter()
        _run_swarm(short_video)
        baseline = time.perf_counter() - started

        started = time.perf_counter()
        _run_swarm(short_video, obs=Observability())
        with_obs = time.perf_counter() - started

        assert with_obs < 10 * baseline + 0.5
