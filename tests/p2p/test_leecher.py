"""Tests for the leecher's download logic."""

import pytest

from repro.core.policy import AdaptivePoolPolicy, FixedPoolPolicy
from repro.errors import ConfigurationError
from repro.p2p.leecher import LeecherConfig
from repro.p2p.messages import Have, RequestRejected
from repro.player.player import PlayerState
from repro.units import kB_per_s

from .helpers import MiniSwarm, make_splice


class TestLeecherConfig:
    def test_timeout_scales_with_size(self):
        config = LeecherConfig(
            policy=AdaptivePoolPolicy(), bandwidth_hint=100_000.0
        )
        small = config.request_timeout(10_000)
        large = config.request_timeout(1_000_000)
        assert large > small

    def test_invalid_hint_rejected(self):
        with pytest.raises(ConfigurationError):
            LeecherConfig(policy=AdaptivePoolPolicy(), bandwidth_hint=0)


class TestSessionLifecycle:
    def test_full_session_downloads_everything(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        leecher.start()
        swarm.run()
        assert leecher.player is not None
        assert leecher.player.state is PlayerState.FINISHED
        assert leecher.metrics.finished
        assert leecher.metrics.segments_downloaded == len(swarm.splice)

    def test_start_is_idempotent(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        leecher.start()
        leecher.start()
        swarm.run(until=1.0)
        assert leecher.manifest is not None

    def test_session_start_dated_at_join(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        swarm.sim.schedule(5.0, leecher.start)
        swarm.run()
        assert leecher.metrics.session_start == pytest.approx(5.0)
        assert leecher.metrics.startup_time > 0

    def test_bytes_accounted(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        leecher.start()
        swarm.run()
        assert leecher.metrics.bytes_downloaded == pytest.approx(
            swarm.splice.total_size
        )


class TestSequentialSelection:
    def test_downloads_arrive_in_order_with_pool_one(self):
        swarm = MiniSwarm(
            n_leechers=1, policy=FixedPoolPolicy(1)
        )
        leecher = swarm.leechers[0]
        order = []
        original = leecher.on_segment_received

        def spy(src, index, size):
            order.append(index)
            original(src, index, size)

        leecher.on_segment_received = spy
        leecher.start()
        swarm.run()
        assert order == sorted(order)

    def test_pool_respects_policy(self):
        swarm = MiniSwarm(
            n_leechers=1, policy=FixedPoolPolicy(3)
        )
        leecher = swarm.leechers[0]
        leecher.start()
        swarm.run(until=0.5)
        assert len(leecher.inflight) <= 3

    def test_batch_mode_waits_for_whole_pool(self):
        swarm = MiniSwarm(
            n_leechers=1, policy=FixedPoolPolicy(2)
        )
        leecher = swarm.leechers[0]
        snapshots = []

        def watch():
            snapshots.append(len(leecher.inflight))
            swarm.sim.schedule(0.2, watch)

        leecher.start()
        swarm.sim.schedule(0.3, watch)
        swarm.run(until=8.0)
        # Batch semantics: the pool is filled to 2, drains to 0, refills.
        assert 1 not in snapshots or 2 in snapshots


class TestAvailabilityAndSources:
    def test_have_updates_availability(self):
        swarm = MiniSwarm(n_leechers=2)
        a, b = swarm.leechers
        a.start()
        swarm.run(until=1.0)
        a.handle_message(b.name, Have(peer_id=b.name, index=0))
        assert 0 in a._availability[b.name]

    def test_prefers_peer_over_seeder(self):
        swarm = MiniSwarm(n_leechers=2)
        a, b = swarm.leechers
        a.start()
        swarm.run(until=1.0)
        a._availability[b.name] = {5}
        assert a._choose_source(5) == b.name

    def test_falls_back_to_seeder(self):
        swarm = MiniSwarm(n_leechers=2)
        a, _ = swarm.leechers
        a.start()
        swarm.run(until=1.0)
        assert a._choose_source(5) == "seeder"

    def test_exclude_removes_candidate(self):
        swarm = MiniSwarm(n_leechers=1)
        a = swarm.leechers[0]
        a.start()
        swarm.run(until=1.0)
        assert a._choose_source(5, exclude="seeder") is None

    def test_rejection_triggers_retry(self):
        swarm = MiniSwarm(n_leechers=2)
        a, b = swarm.leechers
        a.start()
        swarm.run(until=1.0)
        # Fake: a believes b has segment 5 and requests from it.
        index = max(a.player.buffer.missing())
        a._availability[b.name] = {index}
        source_before = a.inflight.get(index)
        a.handle_message(
            b.name, RequestRejected(peer_id=b.name, index=index)
        )
        swarm.run(until=60.0)
        assert a.player.buffer.complete


class TestBandwidthEstimate:
    def test_hint_used_without_estimator(self):
        swarm = MiniSwarm(n_leechers=1, bandwidth=kB_per_s(512))
        leecher = swarm.leechers[0]
        assert leecher.bandwidth_estimate() == pytest.approx(
            kB_per_s(512)
        )

    def test_estimator_overrides_hint(self):
        class Stub:
            def record(self, time, num_bytes):
                pass

            def estimate(self, now):
                return 42_000.0

        swarm = MiniSwarm(n_leechers=1, estimator=Stub())
        assert swarm.leechers[0].bandwidth_estimate() == 42_000.0

    def test_undecided_estimator_falls_back(self):
        class Undecided:
            def record(self, time, num_bytes):
                pass

            def estimate(self, now):
                return None

        swarm = MiniSwarm(
            n_leechers=1, bandwidth=kB_per_s(256), estimator=Undecided()
        )
        assert swarm.leechers[0].bandwidth_estimate() == pytest.approx(
            kB_per_s(256)
        )


class TestChurnHandling:
    def test_peer_left_drops_availability_and_refetches(self):
        swarm = MiniSwarm(n_leechers=2)
        a, b = swarm.leechers
        swarm.start_all(stagger=0.0)
        swarm.run(until=2.0)
        b.leave()
        swarm.run()
        assert a.player is not None
        assert a.player.buffer.complete
        assert b.name not in a._availability

    def test_leaving_mid_download_counts_cancellations(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        leecher.start()
        swarm.run(until=1.0)
        had_inflight = len(leecher.inflight)
        leecher.leave()
        assert leecher.metrics.downloads_cancelled == had_inflight
