"""Tests for the swarm tracker."""

import pytest

from repro.errors import SwarmError
from repro.p2p.tracker import Tracker


class TestMembership:
    def test_register_and_contains(self):
        tracker = Tracker()
        tracker.register("a")
        assert "a" in tracker
        assert len(tracker) == 1

    def test_duplicate_rejected(self):
        tracker = Tracker()
        tracker.register("a")
        with pytest.raises(SwarmError):
            tracker.register("a")

    def test_unregister(self):
        tracker = Tracker()
        tracker.register("a")
        tracker.unregister("a")
        assert "a" not in tracker

    def test_unregister_unknown_is_noop(self):
        Tracker().unregister("ghost")

    def test_join_order_preserved(self):
        tracker = Tracker()
        for name in ("c", "a", "b"):
            tracker.register(name)
        assert tracker.peer_ids == ["c", "a", "b"]


class TestPeersFor:
    def test_excludes_requester(self):
        tracker = Tracker()
        tracker.register("a")
        tracker.register("b")
        assert tracker.peers_for("a") == ["b"]

    def test_requester_not_registered(self):
        tracker = Tracker()
        tracker.register("a")
        assert tracker.peers_for("stranger") == ["a"]
