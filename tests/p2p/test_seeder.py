"""Tests for the seeder."""

import pytest

from repro.errors import PeerError
from repro.p2p.messages import Manifest, ManifestRequest

from .helpers import MiniSwarm


class TestManifestMessage:
    def test_manifest_length_mismatch_rejected(self):
        with pytest.raises(PeerError):
            Manifest(segment_sizes=(1, 2), segment_durations=(1.0,))

    def test_manifest_segment_count(self):
        manifest = Manifest(
            segment_sizes=(1, 2), segment_durations=(1.0, 2.0)
        )
        assert manifest.segment_count == 2


class TestManifestService:
    def test_owns_everything(self):
        swarm = MiniSwarm()
        assert swarm.seeder.owned == set(range(len(swarm.splice)))

    def test_manifest_layout_matches_splice(self):
        swarm = MiniSwarm()
        manifest = swarm.seeder.manifest_for("anyone")
        assert manifest.segment_sizes == tuple(
            swarm.splice.segment_sizes()
        )
        assert manifest.segment_count == len(swarm.splice)

    def test_manifest_excludes_requester(self):
        swarm = MiniSwarm()
        swarm.tracker.register("peer-1")
        manifest = swarm.seeder.manifest_for("peer-1")
        assert "peer-1" not in manifest.peers

    def test_request_registers_peer(self):
        swarm = MiniSwarm(n_leechers=1)
        swarm.leechers[0].start()
        swarm.run(until=1.0)
        assert "peer-1" in swarm.tracker

    def test_repeat_manifest_request_tolerated(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        leecher.start()
        swarm.run(until=0.2)
        leecher.send(
            "seeder", ManifestRequest(peer_id=leecher.name)
        )
        swarm.run(until=2.0)  # no duplicate-registration explosion
        assert leecher.manifest is not None

    def test_peer_departure_unregisters(self):
        swarm = MiniSwarm(n_leechers=1)
        leecher = swarm.leechers[0]
        leecher.start()
        swarm.run(until=1.0)
        leecher.leave()
        swarm.run(until=2.0)
        assert "peer-1" not in swarm.tracker


class TestLaterJoinersSeeEarlierPeers:
    def test_manifest_contains_swarm(self):
        swarm = MiniSwarm(n_leechers=3)
        swarm.start_all(stagger=1.0)
        swarm.run(until=3.0)
        last = swarm.leechers[-1]
        assert last.manifest is not None
        assert set(last.manifest.peers) >= {"peer-1", "peer-2"}
