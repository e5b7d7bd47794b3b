"""Tests for peer plumbing: control plane, uploads, choking."""

import math
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.errors import PeerError
from repro.p2p.leecher import BUSY_BACKOFF
from repro.p2p.messages import (
    Goodbye,
    Handshake,
    Have,
    Request,
    RequestRejected,
)
from repro.p2p.peer import piece_wire_overhead

from .helpers import MiniSwarm


def seeder_extra(src, dst):
    """The swarm's shape: control to or from the seeder takes 0.5 s more."""
    return 0.5 if "seeder" in (src, dst) else 0.0


class TestControlPlane:
    def test_delay_uses_topology_latency(self):
        swarm = MiniSwarm()
        assert swarm.control.delay("peer-1", "peer-2") == pytest.approx(
            0.025
        )

    def test_extra_latency_hook(self):
        swarm = MiniSwarm(extra_latency=seeder_extra)
        assert swarm.control.delay("peer-1", "seeder") == pytest.approx(
            0.525
        )

    def test_membership_change_clears_delay_memo(self):
        extra = {"seeder": 0.5}
        swarm = MiniSwarm(
            n_leechers=1, extra_latency=lambda s, d: extra.get(d, 0.0)
        )
        assert swarm.control.delay("peer-1", "seeder") == pytest.approx(
            0.525
        )
        extra["seeder"] = 1.0
        assert swarm.control.delay("peer-1", "seeder") == pytest.approx(
            0.525
        )
        swarm.control.unregister("peer-1")
        assert swarm.control.delay("peer-1", "seeder") == pytest.approx(
            1.025
        )

    def test_duplicate_registration_rejected(self):
        swarm = MiniSwarm()
        with pytest.raises(PeerError):
            swarm.control.register(swarm.seeder)

    def test_message_counters(self):
        swarm = MiniSwarm(n_leechers=1)
        before = swarm.control.messages_sent
        swarm.leechers[0].start()
        assert swarm.control.messages_sent == before + 1

    def test_message_to_departed_peer_dropped(self):
        swarm = MiniSwarm(n_leechers=2)
        a, b = swarm.leechers
        b.leave()
        a.send(b.name, Handshake(peer_id=a.name))
        swarm.run()  # delivery fires but is dropped; no exception


def record_deliveries(swarm):
    """Replace each peer's message handler with a log of its deliveries.

    Entries are ``(time, recipient, sender, message)``.
    """
    log = []
    for peer in [swarm.seeder, *swarm.leechers]:
        peer.handle_message = (
            lambda src, message, name=peer.name: log.append(
                (swarm.sim.now, name, src, message)
            )
        )
    return log


class TestBroadcast:
    def test_counts_one_message_per_recipient(self):
        swarm = MiniSwarm(n_leechers=4)
        sender, *others = swarm.leechers
        message = Have(peer_id=sender.name, index=3)
        sent = swarm.control.messages_sent
        sender.broadcast([peer.name for peer in others], message)
        assert swarm.control.messages_sent == sent + 3

    def test_each_recipient_at_its_own_delay(self):
        swarm = MiniSwarm(n_leechers=3, extra_latency=seeder_extra)
        log = record_deliveries(swarm)
        sender = swarm.leechers[0]
        recipients = ["peer-3", "seeder", "peer-2"]
        sender.broadcast(recipients, Have(peer_id=sender.name, index=0))
        swarm.run()
        assert sorted(log) == sorted(
            (
                swarm.control.delay(sender.name, name),
                name,
                sender.name,
                Have(sender.name, 0),
            )
            for name in recipients
        )
        assert dict((name, t) for t, name, _, _ in log)[
            "seeder"
        ] == pytest.approx(0.525)

    def test_recipient_that_left_is_skipped(self):
        swarm = MiniSwarm(n_leechers=3)
        log = record_deliveries(swarm)
        sender, gone, staying = swarm.leechers
        sender.broadcast(
            [gone.name, staying.name], Have(peer_id=sender.name, index=0)
        )
        gone.leave()
        swarm.run()
        assert [name for _, name, src, _ in log if src == sender.name] == [
            staying.name
        ]

    def test_dead_sender_sends_nothing(self):
        swarm = MiniSwarm(n_leechers=2)
        sender, other = swarm.leechers
        sender.leave()
        swarm.run()  # deliver its goodbyes
        log = record_deliveries(swarm)
        sent = swarm.control.messages_sent
        sender.broadcast([other.name], Have(peer_id=sender.name, index=0))
        swarm.run()
        assert swarm.control.messages_sent == sent
        assert log == []

    def test_leave_says_goodbye_to_every_other_peer(self):
        swarm = MiniSwarm(n_leechers=3)
        log = record_deliveries(swarm)
        leaver = swarm.leechers[1]
        leaver.leave()
        swarm.run()
        goodbye = Goodbye(leaver.name)
        assert sorted(
            name for _, name, _, message in log if message == goodbye
        ) == ["peer-1", "peer-3", "seeder"]
        assert leaver.name not in swarm.control.peer_names


class TestGroupedDelivery:
    """A fan-out costs one event per distinct arrival time."""

    def test_have_to_every_peer_is_two_events(self):
        # The paper's star: 18 other leechers at one latency, the
        # seeder at its extra control latency.
        swarm = MiniSwarm(n_leechers=19, extra_latency=seeder_extra)
        sender = swarm.leechers[0]
        others = [n for n in swarm.control.peer_names if n != sender.name]
        message = Have(peer_id=sender.name, index=0)
        pending = swarm.sim.pending_events
        sent = swarm.control.messages_sent
        sender.broadcast(others, message)
        assert swarm.sim.pending_events == pending + 2
        assert swarm.control.messages_sent == sent + 19

    def test_group_handled_in_broadcast_order(self):
        swarm = MiniSwarm(n_leechers=4)
        log = record_deliveries(swarm)
        sender = swarm.leechers[0]
        recipients = ["peer-4", "peer-2", "peer-3"]
        pending = swarm.sim.pending_events
        sender.broadcast(recipients, Have(peer_id=sender.name, index=0))
        assert swarm.sim.pending_events == pending + 1
        swarm.run()
        assert [name for _, name, _, _ in log] == recipients
        assert len({t for t, _, _, _ in log}) == 1

    def test_recipient_made_to_leave_earlier_in_group_is_skipped(self):
        swarm = MiniSwarm(n_leechers=4)
        log = record_deliveries(swarm)
        sender, first, second, third = swarm.leechers

        def first_handler(src, message):
            log.append((swarm.sim.now, first.name, src, message))
            second.leave()

        first.handle_message = first_handler
        sender.broadcast(
            [first.name, second.name, third.name],
            Have(peer_id=sender.name, index=0),
        )
        swarm.run()
        assert [name for _, name, src, _ in log if src == sender.name] == [
            first.name,
            third.name,
        ]

    def test_recipients_share_the_sent_message(self):
        swarm = MiniSwarm(n_leechers=4, extra_latency=seeder_extra)
        log = record_deliveries(swarm)
        sender = swarm.leechers[0]
        message = Have(peer_id=sender.name, index=5)
        sender.broadcast(
            ["peer-2", "seeder", "peer-3", "peer-4"], message
        )
        swarm.run()
        delivered = [m for _, _, _, m in log]
        assert len(delivered) == 4
        assert all(m is message for m in delivered)


class TestPieceWireOverhead:
    def test_positive_and_small(self):
        overhead = piece_wire_overhead("peer-1")
        assert 0 < overhead < 100

    def test_grows_with_peer_id(self):
        assert piece_wire_overhead("p" * 30) > piece_wire_overhead("p")

    @pytest.mark.parametrize(
        "peer_id, overhead",
        [
            ("peer-1", 25),
            ("", 19),
            ("pair-é", 26),  # é is two UTF-8 bytes
            ("seeder-λ", 28),  # λ is two UTF-8 bytes
            ("ピア-1", 27),  # each katakana is three UTF-8 bytes
        ],
    )
    def test_pinned_byte_count(self, peer_id, overhead):
        assert piece_wire_overhead(peer_id) == overhead


class TestUploads:
    def test_request_for_missing_segment_rejected(self):
        swarm = MiniSwarm(n_leechers=2)
        a, b = swarm.leechers
        # b holds nothing; a asks anyway.
        swarm.sim.schedule(
            0.0, lambda: a.send(b.name, Request(peer_id=a.name, index=0))
        )
        swarm.run(until=1.0)
        assert b.active_upload_count == 0

    def test_upload_serves_segment(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        leecher.start()
        swarm.run()
        assert leecher.owned == set(range(len(swarm.splice)))
        assert swarm.seeder.bytes_uploaded > 0

    def test_upload_status_reports_active(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        leecher.start()
        swarm.run(until=1.0)  # mid-download
        statuses = {
            swarm.seeder.upload_status(leecher.name, index)
            for index in leecher.inflight
        }
        assert "active" in statuses

    def test_upload_status_none_for_unknown(self):
        swarm = MiniSwarm(n_leechers=1)
        assert swarm.seeder.upload_status("peer-1", 0) is None


class TestSlotsAndChoking:
    def test_slots_limit_concurrent_uploads(self):
        swarm = MiniSwarm(n_leechers=1)
        swarm.seeder.upload_slots = 1
        leecher = swarm.leechers[0]
        leecher.start()

        def check():
            assert swarm.seeder.active_upload_count <= 1

        for t in (0.5, 1.0, 2.0, 4.0):
            swarm.sim.schedule(t, check)
        swarm.run()
        assert leecher.player is not None
        assert leecher.player.buffer.complete

    def test_busy_choke_rejects_non_urgent(self):
        swarm = MiniSwarm(n_leechers=2)
        swarm.seeder.upload_slots = 1
        a, b = swarm.leechers
        requests = []  # (time, requester, index, urgent)
        handle_request = swarm.seeder._handle_request

        def log_request(src, index, urgent=False):
            requests.append((swarm.sim.now, src, index, urgent))
            handle_request(src, index, urgent)

        swarm.seeder._handle_request = log_request
        chokes = []  # (time, leecher, source, index, back-off expiry)
        for leecher in (a, b):
            def log_choke(src, message, leecher=leecher,
                          handle=leecher.handle_message):
                handle(src, message)
                if isinstance(message, RequestRejected) and message.busy:
                    chokes.append((
                        swarm.sim.now, leecher, src, message.index,
                        leecher._source_backoff[src],
                    ))

            leecher.handle_message = log_choke
        swarm.start_all(stagger=0.0)
        swarm.run(until=2.0)

        # One slot, queue threshold 1: both leechers' non-urgent
        # requests got choked, and each choke set a back-off.
        assert {leecher for _, leecher, *_ in chokes} == {a, b}
        for when, leecher, src, index, expiry in chokes:
            assert src == "seeder"
            asked = [
                urgent for t, who, i, urgent in requests
                if who == leecher.name and i == index and t <= when
            ]
            assert asked and asked[-1] is False
            assert expiry == when + BUSY_BACKOFF
        when, _, _, index, expiry = [c for c in chokes if c[1] is a][-1]
        assert a._source_backoff["seeder"] == expiry
        assert swarm.sim.now < expiry

        # Leechers prefer each other to the seeder, so a back-off
        # against b is what sends a segment b holds to the seeder:
        # say b chokes a just as the seeder's back-off expires.  Probe
        # a segment both the seeder and b hold, with in-flight load
        # cleared so the load balance cannot decide.
        shared = min(a._availability["seeder"] & a._availability[b.name])
        b_expiry = expiry + BUSY_BACKOFF

        def picks(now):
            with mock.patch.dict(a._source_backoff, {b.name: b_expiry}), \
                    mock.patch.object(a, "_inflight", {}), \
                    mock.patch.object(a, "_sim", SimpleNamespace(now=now)):
                return {a._choose_source(shared) for _ in range(32)}

        assert picks(expiry) == {"seeder"}
        assert picks(math.nextafter(b_expiry, 0.0)) == {"seeder"}
        assert picks(b_expiry) == {b.name}

    def test_unbounded_slots_serve_all(self):
        swarm = MiniSwarm(n_leechers=3)
        swarm.start_all(stagger=0.0)
        swarm.run()
        for leecher in swarm.leechers:
            assert leecher.player is not None
            assert leecher.player.buffer.complete


class TestLeave:
    def test_leave_cancels_uploads_and_unregisters(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        leecher.start()
        swarm.run(until=1.0)
        swarm.seeder.leave()
        assert swarm.seeder.active_upload_count == 0
        assert swarm.control.peer("seeder") is None

    def test_leave_is_idempotent(self):
        swarm = MiniSwarm(n_leechers=1)
        swarm.seeder.leave()
        swarm.seeder.leave()
        assert not swarm.seeder.alive
