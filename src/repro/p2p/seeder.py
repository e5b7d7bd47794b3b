"""The seeder: splices the video and serves manifest + segments.

The paper's seeder "slices the video into multiple segments ... based
on GOP or duration according to the configuration" and is the node a
joining peer first contacts for "information about the video and the
swarm".
"""

from __future__ import annotations

from ..core.segments import SpliceResult
from ..net.engine import Simulator
from ..net.flownet import FlowNetwork
from ..net.tcp import TcpParams
from ..net.topology import Node, StarTopology
from ..obs.context import Observability
from .messages import Manifest, ManifestRequest, Message
from .peer import ControlPlane, PeerBase
from .tracker import Tracker


class Seeder(PeerBase):
    """Origin peer holding every segment from the start.

    Args:
        name: node/peer name.
        node: the seeder's topology node.
        sim / network / topology / control: simulation plumbing.
        splice: the spliced video this seeder serves.
        tracker: swarm membership directory (the seeder answers for it).
        tcp_params: TCP model tunables for uploads.
    """

    def __init__(
        self,
        name: str,
        node: Node,
        sim: Simulator,
        network: FlowNetwork,
        topology: StarTopology,
        control: ControlPlane,
        splice: SpliceResult,
        tracker: Tracker,
        tcp_params: TcpParams | None = None,
        upload_slots: int | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        super().__init__(
            name, node, sim, network, topology, control, tcp_params,
            upload_slots, obs,
        )
        self._splice = splice
        self._tracker = tracker
        for segment in splice.segments:
            self.owned.add(segment.index)
            self.segment_sizes[segment.index] = segment.size
        self._segment_durations = tuple(
            segment.duration for segment in splice.segments
        )
        control.register(self)
        tracker.register(name)

    @property
    def splice(self) -> SpliceResult:
        """The spliced video being served."""
        return self._splice

    @property
    def tracker(self) -> Tracker:
        """The membership directory this seeder answers for."""
        return self._tracker

    def manifest_for(self, peer_id: str) -> Manifest:
        """Build the manifest reply for a joining peer."""
        return Manifest(
            segment_sizes=tuple(
                self.segment_sizes[i] for i in range(len(self._splice))
            ),
            segment_durations=self._segment_durations,
            peers=tuple(self._tracker.peers_for(peer_id)),
        )

    def handle_message(self, src_name: str, message: Message) -> None:
        if isinstance(message, ManifestRequest):
            if message.peer_id not in self._tracker:
                self._tracker.register(message.peer_id)
            self.send(src_name, self.manifest_for(message.peer_id))
        else:
            super().handle_message(src_name, message)

    def on_peer_left(self, peer_name: str) -> None:
        self._tracker.unregister(peer_name)
