"""Tests for the analytic TCP model."""

import gc

import pytest

from repro.errors import NetworkError
from repro.net.engine import Simulator
from repro.net.flownet import FlowNetwork
from repro.net.link import Link
from repro.net.tcp import TcpParams, start_tcp_transfer


def setup():
    sim = Simulator()
    return sim, FlowNetwork(sim)


class TestTcpParams:
    def test_defaults(self):
        params = TcpParams()
        assert params.mss == 1460
        assert params.initial_window == 10

    def test_mathis_cap_formula(self):
        params = TcpParams()
        cap = params.mathis_cap(rtt=0.05, loss_rate=0.05)
        assert cap == pytest.approx(159_934, rel=0.01)

    def test_mathis_cap_none_when_lossless(self):
        assert TcpParams().mathis_cap(0.05, 0.0) is None

    def test_handshake_delay(self):
        params = TcpParams()
        assert params.handshake_delay(0.1, 0.0) == pytest.approx(0.15)

    def test_handshake_inflated_by_loss(self):
        params = TcpParams()
        assert params.handshake_delay(0.1, 0.5) == pytest.approx(0.30)

    def test_invalid_params_rejected(self):
        with pytest.raises(NetworkError):
            TcpParams(mss=0)
        with pytest.raises(NetworkError):
            TcpParams(initial_window=0)
        with pytest.raises(NetworkError):
            TcpParams(handshake_rtts=-1)


class TestTransferLifecycle:
    def test_completes_and_reports_duration(self):
        sim, network = setup()
        link = Link("l", 100_000.0, latency=0.01)
        done = []
        start_tcp_transfer(
            sim, network, [link], 50_000.0,
            on_complete=lambda t: done.append(t),
        )
        sim.run()
        (transfer,) = done
        assert transfer.completed_at is not None
        assert transfer.duration > 50_000 / 100_000  # handshake adds time

    def test_handshake_delays_first_byte(self):
        sim, network = setup()
        link = Link("l", 1e6, latency=0.05)  # RTT 0.1
        transfer = start_tcp_transfer(sim, network, [link], 1000.0)
        assert transfer.transferred == 0.0
        sim.run(until=0.1)
        assert network.active_flows == []  # still in handshake at 0.1<0.15

    def test_lossless_fast_path_is_near_ideal(self):
        sim, network = setup()
        link = Link("l", 100_000.0, latency=0.005)
        done = []
        start_tcp_transfer(
            sim, network, [link], 200_000.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.run()
        ideal = 200_000 / 100_000
        assert done[0] == pytest.approx(ideal, rel=0.1)

    def test_mathis_cap_limits_lossy_transfer(self):
        sim, network = setup()
        # Fat link, lossy path: Mathis at RTT 0.1, p ~0.05 is ~80 kB/s.
        link = Link("l", 10_000_000.0, latency=0.05, loss_rate=0.05)
        done = []
        start_tcp_transfer(
            sim, network, [link], 800_000.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.run()
        assert done[0] > 8.0  # never faster than the Mathis bound

    def test_slow_start_ramp_visible_on_fat_lossless_link(self):
        sim, network = setup()
        link = Link("l", 10_000_000.0, latency=0.05)  # RTT 0.1
        done = []
        start_tcp_transfer(
            sim, network, [link], 1_000_000.0,
            on_complete=lambda t: done.append(sim.now),
        )
        sim.run()
        ideal = 1_000_000 / 10_000_000
        assert done[0] > ideal + 0.15  # handshake + several ramp RTTs

    def test_cancel_before_handshake(self):
        sim, network = setup()
        link = Link("l", 1e6, latency=0.05)
        done = []
        transfer = start_tcp_transfer(
            sim, network, [link], 1000.0,
            on_complete=lambda t: done.append(t),
        )
        transfer.cancel()
        sim.run()
        assert done == []
        assert transfer.cancelled
        assert not transfer.active

    def test_cancel_mid_transfer(self):
        sim, network = setup()
        link = Link("l", 1000.0, latency=0.001)
        done = []
        transfer = start_tcp_transfer(
            sim, network, [link], 100_000.0,
            on_complete=lambda t: done.append(t),
        )
        sim.schedule(5.0, transfer.cancel)
        sim.run()
        assert done == []
        assert network.active_flows == []

    def test_empty_route_rejected(self):
        sim, network = setup()
        with pytest.raises(NetworkError):
            start_tcp_transfer(sim, network, [], 1000.0)

    def test_non_positive_size_rejected(self):
        sim, network = setup()
        with pytest.raises(NetworkError):
            start_tcp_transfer(sim, network, [Link("l", 1)], 0.0)

    def test_two_transfers_share_and_finish(self):
        sim, network = setup()
        link = Link("l", 100_000.0, latency=0.005)
        ends = []
        for _ in range(2):
            start_tcp_transfer(
                sim, network, [link], 100_000.0,
                on_complete=lambda t: ends.append(sim.now),
            )
        sim.run()
        assert len(ends) == 2
        assert ends[1] == pytest.approx(2.0, rel=0.1)

    def test_rtt_derived_from_route(self):
        sim, network = setup()
        a = Link("a", 1e6, latency=0.01)
        b = Link("b", 1e6, latency=0.015)
        transfer = start_tcp_transfer(sim, network, [a, b], 1000.0)
        assert transfer.rtt == pytest.approx(0.05)
        sim.run()


class TestBottleneckCache:
    def test_route_accepts_tuple_without_copy(self):
        sim, network = setup()
        links = (Link("a", 1e6, latency=0.01), Link("b", 1e6, latency=0.02))
        transfer = start_tcp_transfer(sim, network, links, 10_000.0)
        assert transfer.rtt == pytest.approx(0.06)

    def test_bottleneck_cached_until_capacity_changes(self):
        sim, network = setup()
        fat = Link("fat", 1_000_000.0, latency=0.01)
        thin = Link("thin", 200_000.0, latency=0.01)
        transfer = start_tcp_transfer(sim, network, [fat, thin], 1e9)
        assert transfer._path_bottleneck() == pytest.approx(200_000.0)
        # Mutating capacity behind the network's back is NOT seen ...
        thin.capacity = 50_000.0
        assert transfer._path_bottleneck() == pytest.approx(200_000.0)
        # ... until set_capacity bumps the generation counter.
        network.set_capacity(thin, 50_000.0)
        assert transfer._path_bottleneck() == pytest.approx(50_000.0)
        transfer.cancel()

    def test_window_growth_tracks_capacity_drop(self):
        sim, network = setup()
        link = Link("l", 1_000_000.0, latency=0.01, loss_rate=0.0)
        done = []
        transfer = start_tcp_transfer(
            sim, network, [link], 5_000_000.0,
            on_complete=lambda t: done.append(t),
        )
        sim.schedule(0.5, lambda: network.set_capacity(link, 100_000.0))
        sim.run()
        assert done == [transfer]
        # The ramp re-read the bottleneck after the drop, so the window
        # cap was lifted once it outgrew the *new* path, and the
        # transfer finished at the reduced capacity.
        assert transfer.duration > 5_000_000.0 / 1_000_000.0


class TestTransferIsFreed:
    """A transfer that left the network is freed by reference counting.

    With the collector off, a cycle between a transfer and its flow
    would survive the last outside reference; ``gc.collect()`` counts
    it.
    """

    @pytest.fixture(autouse=True)
    def collector_off(self):
        enabled = gc.isenabled()
        gc.disable()
        gc.collect()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    def test_completed_transfer_and_flow_are_freed(self):
        sim, network = setup()
        link = Link("l", 1e6, latency=0.01)
        done = []
        transfer = start_tcp_transfer(
            sim, network, [link], 100_000.0,
            on_complete=lambda t: done.append(t.size),
        )
        sim.run()
        assert done == [100_000.0]
        del transfer
        assert gc.collect() == 0

    def test_cancelled_transfer_and_flow_are_freed(self):
        sim, network = setup()
        link = Link("l", 1000.0, latency=0.001)
        transfer = start_tcp_transfer(
            sim, network, [link], 100_000.0,
            on_complete=lambda t: None,
        )
        sim.schedule(5.0, transfer.cancel)
        sim.run()
        assert transfer.cancelled and transfer._flow is not None
        del transfer
        assert gc.collect() == 0
