"""Peer plumbing shared by seeders and leechers.

Control messages (handshakes, haves, requests) are small: each is
delivered as its (frozen) message object after the end-to-end control
latency — their bandwidth use is negligible and not charged against
links.  Segment payloads are large: each one travels as its own TCP
transfer through the flow network, exactly like the paper's
per-segment Java-socket connections.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..errors import PeerError
from ..net.engine import Simulator
from ..net.flownet import FlowNetwork
from ..net.tcp import TcpParams, TcpTransfer, start_tcp_transfer
from ..net.topology import Node, StarTopology
from ..obs.context import Observability
from ..obs.tracer import NULL_TRACER
from .messages import (
    Bitfield,
    Cancel,
    Goodbye,
    Handshake,
    Have,
    Manifest,
    ManifestRequest,
    Message,
    Request,
    RequestRejected,
)


def piece_wire_overhead(peer_id: str) -> int:
    """Bytes of protocol overhead carried with one segment transfer.

    A BitTorrent-style piece header: a u32 frame length, a u8 message
    id, the sender's id as a u16 length plus its UTF-8 bytes, a u32
    segment index and a u64 segment size.
    """
    return 19 + len(peer_id.encode("utf-8"))


class ControlPlane:
    """Latency-delayed, loss-free delivery of control messages.

    Every recipient of a fan-out receives the sender's (frozen)
    message object.

    Args:
        sim: the simulator.
        topology: supplies baseline node-to-node propagation latency.
        extra_latency: optional ``(src_name, dst_name) -> seconds``
            hook adding latency for specific pairs — used to model the
            paper's 500 ms peer-to-seeder control latency.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: StarTopology,
        extra_latency: Callable[[str, str], float] | None = None,
    ) -> None:
        self._sim = sim
        self._topology = topology
        self._extra_latency = extra_latency
        self._peers: dict[str, "PeerBase"] = {}
        # src name -> dst name -> delay(src, dst); cleared on every
        # membership change.
        self._delays: dict[str, dict[str, float]] = {}
        self.messages_sent = 0

    def register(self, peer: "PeerBase") -> None:
        """Make a peer reachable by name."""
        if peer.name in self._peers:
            raise PeerError(f"peer name {peer.name!r} already registered")
        self._peers[peer.name] = peer
        self._delays.clear()

    def unregister(self, name: str) -> None:
        """Remove a departed peer (idempotent)."""
        self._peers.pop(name, None)
        self._delays.clear()

    def peer(self, name: str) -> "PeerBase | None":
        """Look a live peer up by name (None if gone)."""
        return self._peers.get(name)

    @property
    def peer_names(self) -> list[str]:
        """Names of the registered peers, in registration order."""
        return list(self._peers)

    def release(self) -> None:
        """Forget every peer when the session ends.

        Each registered peer holds this plane, so the registry is a
        reference cycle until it is emptied.
        """
        self._peers.clear()

    def delay(self, src_name: str, dst_name: str) -> float:
        """Control-message latency from ``src`` to ``dst``, seconds.

        Memoised per pair (link latencies never change); registering or
        unregistering a peer clears the memo.
        """
        delays = self._delays.setdefault(src_name, {})
        delay = delays.get(dst_name)
        if delay is None:
            delay = delays[dst_name] = self._pair_latency(src_name, dst_name)
        return delay

    def _pair_latency(self, src_name: str, dst_name: str) -> float:
        src = self._topology.node(src_name)
        dst = self._topology.node(dst_name)
        base = self._topology.one_way_latency(src, dst)
        if self._extra_latency is not None:
            base += self._extra_latency(src_name, dst_name)
        return base

    def send(self, src: "PeerBase", dst_name: str, message: Message) -> None:
        """Deliver ``message`` after the pair's latency.

        Messages to peers that have left by delivery time are silently
        dropped, as a closed socket would drop them.
        """
        self.broadcast(src, (dst_name,), message)

    def broadcast(
        self, src: "PeerBase", dst_names: Iterable[str], message: Message
    ) -> None:
        """:meth:`send` ``message`` to each of ``dst_names`` in order.

        Every recipient counts as one message and receives it at its
        own pair latency.  Recipients due at the same instant share one
        event, which hands the message to each in ``dst_names`` order.
        That fires the same handlers in the same order as one event per
        recipient: one broadcast's same-instant deliveries would hold
        contiguous sequence numbers, so nothing else could run (and no
        end-of-timestamp barrier could drain) between them.
        """
        src_name = src.name
        now = self._sim.now
        delays = self._delays.setdefault(src_name, {})
        groups: dict[float, list[str]] = {}
        count = 0
        for dst_name in dst_names:
            delay = delays.get(dst_name)
            if delay is None:
                delay = self.delay(src_name, dst_name)
            # Keyed on the arrival instant, not the delay: two delays
            # that round to the same time share one event.
            at = now + delay
            names = groups.get(at)
            if names is None:
                groups[at] = [dst_name]
            else:
                names.append(dst_name)
            count += 1
        self.messages_sent += count
        for at, names in groups.items():
            self._sim.schedule_at(at, self._deliver, src_name, names, message)

    def _deliver(
        self, src_name: str, dst_names: list[str], message: Message
    ) -> None:
        peers = self._peers
        for dst_name in dst_names:
            dst = peers.get(dst_name)
            if dst is not None and dst.alive:
                dst.handle_message(src_name, message)


class PeerBase:
    """State and behaviour common to seeders and leechers.

    Uploads can be *slotted*, like BitTorrent's unchoked set: at most
    ``upload_slots`` segment transfers run at once, further requests
    queue (urgent first), and requests landing on an over-full queue
    are choked (``RequestRejected(busy=True)``).  The default
    (``upload_slots=None``) serves every request concurrently and lets
    TCP fair-sharing sort it out — which is what the paper's plain
    Java-socket application did.
    """

    def __init__(
        self,
        name: str,
        node: Node,
        sim: Simulator,
        network: FlowNetwork,
        topology: StarTopology,
        control: ControlPlane,
        tcp_params: TcpParams | None = None,
        upload_slots: int | None = None,
        obs: Observability | None = None,
    ) -> None:
        if upload_slots is not None and upload_slots < 1:
            raise PeerError(
                f"upload_slots must be >= 1 or None, got {upload_slots}"
            )
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self.name = name
        self.node = node
        self._sim = sim
        self._network = network
        self._topology = topology
        self._control = control
        self._tcp_params = tcp_params or TcpParams()
        self.alive = True
        self.owned: set[int] = set()
        self.segment_sizes: dict[int, int] = {}
        self.bytes_uploaded = 0.0
        self.upload_slots = upload_slots
        self._uploads: dict[int, tuple[TcpTransfer, str, int]] = {}
        self._upload_queue: list[tuple[str, int, bool]] = []
        self._upload_seq = 0

    # -- identity ------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        """The simulator this peer lives in."""
        return self._sim

    @property
    def control(self) -> ControlPlane:
        """The control plane used for small messages."""
        return self._control

    @property
    def active_upload_count(self) -> int:
        """Number of segment uploads currently in flight."""
        return len(self._uploads)

    # -- messaging -----------------------------------------------------

    def send(self, dst_name: str, message: Message) -> None:
        """Send a control message to another peer."""
        if not self.alive:
            return
        self._control.send(self, dst_name, message)

    def broadcast(self, dst_names: Iterable[str], message: Message) -> None:
        """Send one control message to several peers, in order."""
        if not self.alive:
            return
        self._control.broadcast(self, dst_names, message)

    def handle_message(self, src_name: str, message: Message) -> None:
        """Dispatch one message; subclasses extend."""
        if isinstance(message, Request):
            self._handle_request(src_name, message.index, message.urgent)
        elif isinstance(message, Cancel):
            self._handle_cancel(src_name, message.index)
        elif isinstance(message, Handshake):
            self._handle_handshake(src_name)
        elif isinstance(message, Goodbye):
            self._handle_goodbye(src_name)
        elif isinstance(
            message,
            (Bitfield, Have, Manifest, ManifestRequest, RequestRejected),
        ):
            # Subclasses that care override handle_message and call
            # super() for the shared cases; silently ignoring here
            # mirrors a real peer tolerating unexpected messages.
            pass
        else:  # pragma: no cover - the branches cover every message type
            raise PeerError(f"unhandled message {type(message).__name__}")

    def _handle_handshake(self, src_name: str) -> None:
        """Default handshake reply: our bitfield."""
        self.send(
            src_name,
            Bitfield(peer_id=self.name, indices=tuple(sorted(self.owned))),
        )

    # -- uploading -----------------------------------------------------

    def _handle_request(
        self, src_name: str, index: int, urgent: bool = False
    ) -> None:
        if index not in self.owned:
            self.send(src_name, RequestRejected(self.name, index))
            return
        if (
            not urgent
            and self.upload_slots is not None
            and len(self._upload_queue) >= self.upload_slots
        ):
            # Choke: the queue is already a full rotation deep; tell
            # the requester to try another holder.
            self.send(
                src_name, RequestRejected(self.name, index, busy=True)
            )
            return
        # Duplicate requests upgrade priority rather than double-send.
        for transfer, dst, idx in self._uploads.values():
            if dst == src_name and idx == index:
                return  # already being sent
        for pos, (src, idx, urg) in enumerate(self._upload_queue):
            if src == src_name and idx == index:
                if urgent and not urg:
                    del self._upload_queue[pos]
                    break
                return  # already queued at sufficient priority
        if urgent:
            # Playback-critical: ahead of every queued prefetch, behind
            # earlier urgent requests.
            insert_at = sum(
                1 for entry in self._upload_queue if entry[2]
            )
            self._upload_queue.insert(insert_at, (src_name, index, True))
        else:
            self._upload_queue.append((src_name, index, False))
        self._pump_uploads()

    def _handle_cancel(self, src_name: str, index: int) -> None:
        """Drop a queued or in-flight upload the requester withdrew."""
        self._upload_queue = [
            entry
            for entry in self._upload_queue
            if not (entry[0] == src_name and entry[1] == index)
        ]
        for upload_id, (transfer, dst, idx) in list(self._uploads.items()):
            if dst == src_name and idx == index:
                transfer.cancel()
                del self._uploads[upload_id]
        self._pump_uploads()

    def _handle_goodbye(self, src_name: str) -> None:
        """Drop queued/active uploads addressed to a departed peer."""
        self._upload_queue = [
            entry for entry in self._upload_queue if entry[0] != src_name
        ]
        for upload_id, (transfer, dst, _) in list(self._uploads.items()):
            if dst == src_name:
                transfer.cancel()
                del self._uploads[upload_id]
        self.on_peer_left(src_name)
        self._pump_uploads()

    def upload_status(self, dst_name: str, index: int) -> str | None:
        """Where an upload to ``dst_name`` for ``index`` stands.

        Returns ``"active"`` when bytes are flowing, ``"queued"`` when
        the request waits for a free slot, and ``None`` when this peer
        knows nothing of it.  (A real receiver observes the same
        distinction: data arriving on the socket, or silence.)
        """
        for transfer, dst, idx in self._uploads.values():
            if dst == dst_name and idx == index and transfer.active:
                return "active"
        for src, idx, _ in self._upload_queue:
            if src == dst_name and idx == index:
                return "queued"
        return None

    def _pump_uploads(self) -> None:
        """Start queued uploads while slots are free."""
        while (
            self.alive
            and self._upload_queue
            and (
                self.upload_slots is None
                or len(self._uploads) < self.upload_slots
            )
        ):
            src_name, index, _ = self._upload_queue.pop(0)
            requester = self._control.peer(src_name)
            if requester is None or not requester.alive:
                continue
            size = self.segment_sizes[index]
            wire_size = size + piece_wire_overhead(self.name)
            route = self._topology.route(self.node, requester.node)
            self._upload_seq += 1
            upload_id = self._upload_seq
            # Only build the label string when it will be recorded.
            label = (
                f"{self.name}->{src_name}#{index}"
                if self._tracer.enabled
                else ""
            )
            transfer = start_tcp_transfer(
                self._sim,
                self._network,
                route,
                wire_size,
                params=self._tcp_params,
                on_complete=lambda t, uid=upload_id: (
                    self._on_upload_complete(uid, t)
                ),
                tracer=self._tracer,
                label=label,
            )
            self._uploads[upload_id] = (transfer, src_name, index)

    def _on_upload_complete(
        self, upload_id: int, transfer: TcpTransfer
    ) -> None:
        _, dst_name, index = self._uploads.pop(upload_id)
        self.bytes_uploaded += transfer.size
        receiver = self._control.peer(dst_name)
        if receiver is not None and receiver.alive:
            receiver.on_segment_received(
                self.name, index, self.segment_sizes[index]
            )
        self._pump_uploads()

    # -- churn ---------------------------------------------------------

    def leave(self) -> None:
        """Depart the swarm: abort transfers and say goodbye."""
        if not self.alive:
            return
        self.alive = False
        for transfer, _, _ in self._uploads.values():
            transfer.cancel()
        self._uploads.clear()
        self._upload_queue.clear()
        self._control.broadcast(
            self,
            [name for name in self._control.peer_names if name != self.name],
            Goodbye(self.name),
        )
        self._control.unregister(self.name)

    def release(self) -> None:
        """Drop the uploads still in flight when the session ends.

        Each upload's completion callback holds this peer.  Nothing is
        cancelled and no message is sent: the session is over.
        """
        self._uploads.clear()

    # -- hooks for subclasses -------------------------------------------

    def on_segment_received(
        self, src_name: str, index: int, size: int
    ) -> None:
        """A segment transfer addressed to this peer completed."""

    def on_peer_left(self, peer_name: str) -> None:
        """A peer announced departure."""
