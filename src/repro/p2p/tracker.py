"""Swarm membership tracking.

The paper's seeder doubles as the rendezvous point: a joining peer
"contacts the seeder and gets different information about the video and
the swarm".  The :class:`Tracker` is that membership directory; the
seeder embeds its contents in every :class:`~repro.p2p.messages.Manifest`.
"""

from __future__ import annotations

from ..errors import SwarmError


class Tracker:
    """Directory of peers currently in the swarm."""

    def __init__(self) -> None:
        self._peers: dict[str, None] = {}  # insertion-ordered set

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._peers

    @property
    def peer_ids(self) -> list[str]:
        """All registered peer ids in join order."""
        return list(self._peers)

    def register(self, peer_id: str) -> None:
        """Add a peer to the swarm.

        Raises:
            SwarmError: if the peer is already registered.
        """
        if peer_id in self._peers:
            raise SwarmError(f"peer {peer_id!r} already registered")
        self._peers[peer_id] = None

    def unregister(self, peer_id: str) -> None:
        """Remove a departed peer (idempotent)."""
        self._peers.pop(peer_id, None)

    def peers_for(self, peer_id: str) -> list[str]:
        """Peer ids to hand to ``peer_id``: everyone else, in join order."""
        return [p for p in self._peers if p != peer_id]
