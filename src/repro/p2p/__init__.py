"""BitTorrent-like P2P streaming protocol.

The paper's application "implemented our own BitTorrent like messaging
protocol" over Java sockets; the seeder splices the video and every
peer both leeches and seeds.  This package is that application:

* :mod:`repro.p2p.messages` — the message set;
* :mod:`repro.p2p.tracker` — swarm membership;
* :mod:`repro.p2p.peer` — plumbing shared by all peers;
* :mod:`repro.p2p.seeder` / :mod:`repro.p2p.leecher` — the two roles;
* :mod:`repro.p2p.churn` — peer-departure model;
* :mod:`repro.p2p.swarm` — end-to-end session orchestration;
* :mod:`repro.p2p.scale` — vectorized cohort/fluid backends for
  10³–10⁶-peer sessions (``SwarmConfig.fidelity``).
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ChurnModel": "churn",
    "Leecher": "leecher",
    "LeecherConfig": "leecher",
    "Bitfield": "messages",
    "Goodbye": "messages",
    "Handshake": "messages",
    "Have": "messages",
    "Manifest": "messages",
    "ManifestRequest": "messages",
    "Message": "messages",
    "Request": "messages",
    "RequestRejected": "messages",
    "CohortSwarm": "scale",
    "FluidSwarm": "scale",
    "Seeder": "seeder",
    "PieceSelector": "selection",
    "SequentialSelector": "selection",
    "WindowedRarestSelector": "selection",
    "FIDELITY_TIERS": "swarm",
    "Swarm": "swarm",
    "SwarmConfig": "swarm",
    "build_swarm": "swarm",
    "Tracker": "tracker",
})
