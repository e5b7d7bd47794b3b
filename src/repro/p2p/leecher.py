"""The leecher: downloads, plays, and re-serves the video.

Implements the paper's client loop: fetch the manifest from the seeder,
keep a *download pool* of simultaneous segment transfers sized by the
configured policy (Eq. 1's adaptive pooling or a fixed size), pick
segments sequentially (95 % of P2P TV viewing is sequential), prefer
fellow peers over the seeder to spread upload load, and start playback
the moment the first segment lands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol

from ..core.policy import DownloadPolicy
from ..errors import ConfigurationError
from ..net.engine import EventHandle, Simulator
from ..net.flownet import FlowNetwork
from ..net.tcp import TcpParams
from ..net.topology import Node, StarTopology
from ..obs.context import Observability
from ..obs.events import (
    ManifestReceived,
    PeerDeparted,
    PeerJoined,
    PieceReceived,
    PoolResized,
    RequestTimedOut,
    SegmentRequested,
)
from ..player.metrics import StreamingMetrics
from ..player.player import Player, PlayerState
from .messages import (
    Bitfield,
    Cancel,
    Handshake,
    Have,
    Manifest,
    ManifestRequest,
    Message,
    Request,
    RequestRejected,
)
from .peer import ControlPlane, PeerBase
from .selection import PieceSelector, SequentialSelector, TracingSelector

#: Floor of a request's timeout, seconds.
REQUEST_TIMEOUT_BASE = 4.0

#: A request's timeout also scales with the segment's expected transfer
#: time at ``bandwidth_hint``: after ``base + factor * size / hint``
#: seconds with no data, the leecher cancels and re-requests from
#: another holder.
REQUEST_TIMEOUT_FACTOR = 3.0

#: Seconds to avoid a source after it choked us.
BUSY_BACKOFF = 2.0

#: Seconds between manifest-request retries while no manifest arrived.
MANIFEST_RETRY_INTERVAL = 5.0


class BandwidthEstimator(Protocol):
    """Interface for live bandwidth estimation (see :mod:`repro.bwest`)."""

    def record(self, time: float, num_bytes: float) -> None:
        """Record ``num_bytes`` arriving at ``time``."""
        ...

    def estimate(self, now: float) -> float | None:
        """Current estimate in bytes/second, or None if undecided."""
        ...


@dataclass(frozen=True, slots=True)
class LeecherConfig:
    """Per-leecher behaviour knobs.

    Attributes:
        policy: download-pool sizing policy (adaptive or fixed).
        bandwidth_hint: the ``B`` of Eq. 1 in bytes/second.  The paper
            "simulated the bandwidth on GENI", i.e. the experiment's
            configured bandwidth is known to the peer; a live estimator
            can override this.
        estimator: optional live estimator; once it produces a value it
            replaces the hint.
        selector: piece-selection strategy; the paper's client is
            strictly sequential (the default).
        cdn_sources: names of CDN origins.  Per the paper's Section IV,
            a peer keeps at most **one** request in flight to a CDN at
            a time ("peers can download one segment at a time" from the
            CDN), relying on segment sizing rather than parallelism.
        seed: per-leecher RNG seed for tie-breaking among sources.
        preroll_segments: contiguous segments buffered before playback
            starts (paper: 1).
    """

    policy: DownloadPolicy
    bandwidth_hint: float
    estimator: BandwidthEstimator | None = None
    selector: PieceSelector = field(default_factory=SequentialSelector)
    cdn_sources: frozenset[str] = frozenset()
    seed: int = 0
    preroll_segments: int = 1

    def __post_init__(self) -> None:
        if self.bandwidth_hint <= 0:
            raise ConfigurationError(
                f"bandwidth_hint must be positive, got {self.bandwidth_hint}"
            )

    def request_timeout(self, size: float) -> float:
        """Timeout for a request of a ``size``-byte segment, seconds."""
        return (
            REQUEST_TIMEOUT_BASE
            + REQUEST_TIMEOUT_FACTOR * size / self.bandwidth_hint
        )


class Leecher(PeerBase):
    """A downloading/playing/re-serving peer.

    Args:
        name: peer name.
        node: the peer's topology node.
        sim / network / topology / control: simulation plumbing.
        seeder_name: whom to ask for the manifest.
        config: behaviour knobs.
        tcp_params: TCP model tunables.
    """

    def __init__(
        self,
        name: str,
        node: Node,
        sim: Simulator,
        network: FlowNetwork,
        topology: StarTopology,
        control: ControlPlane,
        seeder_name: str,
        config: LeecherConfig,
        tcp_params: TcpParams | None = None,
        upload_slots: int | None = None,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(
            name, node, sim, network, topology, control, tcp_params,
            upload_slots, obs,
        )
        self._seeder_name = seeder_name
        self._config = config
        self._rng = random.Random(config.seed)
        self._selector: PieceSelector = (
            TracingSelector(config.selector, self._tracer, name, sim)
            if self._tracer.enabled
            else config.selector
        )
        self._last_pool_size: int | None = None
        self.metrics = StreamingMetrics(session_start=sim.now)
        self.manifest: Manifest | None = None
        self.player: Player | None = None
        self._availability: dict[str, set[int]] = {}
        self._known_peers: set[str] = set()
        self._inflight: dict[int, str] = {}  # segment index -> source
        self._request_times: dict[int, float] = {}
        self._timeout_events: dict[int, EventHandle] = {}
        self._retry_counts: dict[int, int] = {}
        self._source_backoff: dict[str, float] = {}
        self._mean_segment_size = 0.0
        self._started = False
        control.register(self)

    # -- lifecycle -----------------------------------------------------

    @property
    def config(self) -> LeecherConfig:
        """This leecher's configuration."""
        return self._config

    @property
    def inflight(self) -> dict[int, str]:
        """Snapshot of in-flight requests (segment -> source)."""
        return dict(self._inflight)

    def start(self) -> None:
        """Join the swarm: date the session and fetch the manifest."""
        if self._started:
            return
        self._started = True
        self.metrics.session_start = self._sim.now
        if self._tracer.enabled:
            self._tracer.emit(
                PeerJoined(time=self._sim.now, peer=self.name)
            )
        self._request_manifest()

    def _request_manifest(self) -> None:
        """Send (or re-send) the manifest request until one arrives."""
        if not self.alive or self.manifest is not None:
            return
        self.send(self._seeder_name, ManifestRequest(peer_id=self.name))
        self._sim.schedule(
            MANIFEST_RETRY_INTERVAL, self._request_manifest
        )

    def leave(self) -> None:
        cancelled = len(self._inflight)
        for index in list(self._inflight):
            self._drop_inflight(index)
            self.metrics.downloads_cancelled += 1
        if self._tracer.enabled:
            self._tracer.emit(
                PeerDeparted(
                    time=self._sim.now,
                    peer=self.name,
                    downloads_cancelled=cancelled,
                )
            )
        super().leave()

    def release(self) -> None:
        # The player's state-change callback holds this leecher.
        super().release()
        self.player = None

    def _drop_inflight(self, index: int) -> str | None:
        """Forget an in-flight request; returns its source, if any."""
        source = self._inflight.pop(index, None)
        self._request_times.pop(index, None)
        self._retry_counts.pop(index, None)
        timer = self._timeout_events.pop(index, None)
        if timer is not None:
            timer.cancel()
        return source

    # -- message handling ------------------------------------------------

    def handle_message(self, src_name: str, message: Message) -> None:
        # HAVEs are nearly every message a leecher receives; the message
        # classes are disjoint, so an exact type test can go first.
        if type(message) is Have:
            held = self._availability.get(message.peer_id)
            if held is None:
                self._availability[message.peer_id] = {message.index}
            else:
                held.add(message.index)
            self._known_peers.add(message.peer_id)
            self._refill()
        elif isinstance(message, Manifest):
            self._handle_manifest(message)
        elif isinstance(message, Bitfield):
            self._availability[message.peer_id] = set(message.indices)
            self._known_peers.add(message.peer_id)
            self._refill()
        elif isinstance(message, RequestRejected):
            if message.busy:
                self._source_backoff[src_name] = (
                    self._sim.now + BUSY_BACKOFF
                )
            else:
                # The peer does not actually hold the segment; stop
                # believing its stale advertisement.
                held = self._availability.get(src_name)
                if held is not None:
                    held.discard(message.index)
            if self._inflight.get(message.index) == src_name:
                self._drop_inflight(message.index)
                self._refill()
        elif isinstance(message, Handshake):
            self._known_peers.add(src_name)
            super().handle_message(src_name, message)
        else:
            super().handle_message(src_name, message)

    def _handle_manifest(self, manifest: Manifest) -> None:
        if self.manifest is not None:
            return  # duplicate
        self.manifest = manifest
        for index, size in enumerate(manifest.segment_sizes):
            self.segment_sizes[index] = size
        self._mean_segment_size = sum(manifest.segment_sizes) / max(
            1, manifest.segment_count
        )
        self.player = Player(
            self._sim,
            list(manifest.segment_durations),
            on_state_change=self._on_player_state,
            metrics=self.metrics,
            preroll_segments=self._config.preroll_segments,
            tracer=self._tracer,
            peer=self.name,
            segment_sizes=self.segment_sizes,
        )
        if self._tracer.enabled:
            self._tracer.emit(
                ManifestReceived(
                    time=self._sim.now,
                    peer=self.name,
                    segments=manifest.segment_count,
                    known_peers=len(manifest.peers),
                )
            )
        all_indices = set(range(manifest.segment_count))
        self._availability[self._seeder_name] = all_indices
        self._known_peers.add(self._seeder_name)
        others = [name for name in manifest.peers if name != self.name]
        self._known_peers.update(others)
        self.broadcast(others, Handshake(peer_id=self.name))
        self._refill()

    # -- downloading -----------------------------------------------------

    def on_segment_received(
        self, src_name: str, index: int, size: int
    ) -> None:
        if not self.alive or self.player is None:
            return
        requested_at = self._request_times.get(index)
        expected_source = self._drop_inflight(index)
        if index in self.owned:
            return  # stale duplicate after a timeout re-request
        if expected_source is not None and expected_source != src_name:
            # A re-requested segment arrived from the original source
            # first; withdraw the duplicate request.
            self.send(expected_source, Cancel(self.name, index))
        self.owned.add(index)
        self.metrics.bytes_downloaded += size
        self.metrics.segments_downloaded += 1
        if self._tracer.enabled:
            self._tracer.emit(
                PieceReceived(
                    time=self._sim.now,
                    peer=self.name,
                    segment=index,
                    source=src_name,
                    size=size,
                    wait=(
                        self._sim.now - requested_at
                        if requested_at is not None
                        else -1.0
                    ),
                )
            )
        estimator = self._config.estimator
        if estimator is not None and requested_at is not None:
            estimator.record(self._sim.now, size)
        self.player.segment_available(index)
        self.broadcast(
            [name for name in sorted(self._known_peers) if name != self.name],
            Have(peer_id=self.name, index=index),
        )
        self._refill()

    def on_peer_left(self, peer_name: str) -> None:
        self._availability.pop(peer_name, None)
        self._known_peers.discard(peer_name)
        dropped = [
            index
            for index, source in self._inflight.items()
            if source == peer_name
        ]
        for index in dropped:
            self._drop_inflight(index)
            self.metrics.downloads_cancelled += 1
        if dropped:
            self._refill()

    def bandwidth_estimate(self) -> float:
        """Current ``B`` for Eq. 1: live estimate or configured hint."""
        estimator = self._config.estimator
        if estimator is not None:
            estimate = estimator.estimate(self._sim.now)
            if estimate is not None and estimate > 0:
                return estimate
        return self._config.bandwidth_hint

    def desired_pool_size(self) -> int:
        """The policy's current pool size (diagnostic helper)."""
        assert self.player is not None
        return self._config.policy.pool_size(
            self.bandwidth_estimate(),
            self.player.buffered_playtime(),
            self._mean_segment_size,
        )

    def _on_player_state(
        self, old: PlayerState, new: PlayerState
    ) -> None:
        if new is PlayerState.STALLED:
            self._escalate_stalled_request()
        if new in (PlayerState.PLAYING, PlayerState.STALLED):
            self._refill()

    def _escalate_stalled_request(self) -> None:
        """Upgrade the request blocking playback to urgent priority."""
        assert self.player is not None
        needed = self.player.next_needed
        if needed is None:
            return
        source = self._inflight.get(needed)
        if source is not None:
            self.send(
                source,
                Request(peer_id=self.name, index=needed, urgent=True),
            )

    def _refill(self) -> None:
        """Fill the download pool once the previous batch has landed.

        The paper's client fills the pool with ``k`` segments, waits
        until *all* of them arrive, then fills the next pool: Eq. 1 is
        derived exactly for this discipline ("all the k segments have
        to be downloaded by T seconds").
        """
        if not self.alive or self.manifest is None or self.player is None:
            return
        buffer = self.player.buffer
        if buffer.complete:
            return
        if self._inflight:
            return  # wait out the whole batch
        pool = self.desired_pool_size()
        if pool != self._last_pool_size:
            self._last_pool_size = pool
            if self._tracer.enabled:
                self._tracer.emit(
                    PoolResized(
                        time=self._sim.now,
                        peer=self.name,
                        size=pool,
                        buffered_playtime=self.player.buffered_playtime(),
                        bandwidth=self.bandwidth_estimate(),
                    )
                )
        candidates = self._selector.order(
            buffer.missing(),
            self.player.next_needed,
            self._availability,
            self._rng,
        )
        for index in candidates:
            if len(self._inflight) >= pool:
                break
            source = self._choose_source(index)
            if source is None:
                continue
            self._issue_request(index, source)

    def _is_urgent(self, index: int) -> bool:
        """Whether fetching ``index`` is playback-critical.

        True when the player is waiting/stalled on exactly this
        segment, or playing with less buffer left than this segment's
        own duration — i.e. a prefetch would not arrive in time anyway.
        """
        player = self.player
        if player is None:
            return index == 0
        if player.next_needed != index:
            return False
        if player.state is not PlayerState.PLAYING:
            return True
        return player.buffered_playtime() <= player.buffer.duration_of(index)

    def _issue_request(self, index: int, source: str) -> None:
        """Send a request and arm its timeout."""
        self._inflight[index] = source
        self._request_times[index] = self._sim.now
        self._arm_timeout(index, source)
        urgent = self._is_urgent(index)
        if self._tracer.enabled:
            self._tracer.emit(
                SegmentRequested(
                    time=self._sim.now,
                    peer=self.name,
                    segment=index,
                    source=source,
                    urgent=urgent,
                    expected_size=float(
                        self.segment_sizes.get(index, -1.0)
                    ),
                )
            )
        self.send(
            source,
            Request(
                peer_id=self.name,
                index=index,
                urgent=urgent,
            ),
        )

    def _arm_timeout(self, index: int, source: str) -> None:
        retries = self._retry_counts.get(index, 0)
        timeout = self._config.request_timeout(
            self.segment_sizes[index]
        ) * (2.0**retries)
        self._timeout_events[index] = self._sim.schedule(
            timeout, self._on_request_timeout, index, source
        )

    def _on_request_timeout(self, index: int, source: str) -> None:
        """A request has sat unanswered too long; maybe switch source.

        Switching only makes sense when no data is flowing yet — the
        request is still queued behind the source's upload slots (or
        the source is gone).  An *active* transfer is left alone:
        cancelling flowing data to start over elsewhere only wastes
        work.
        """
        self._timeout_events.pop(index, None)
        if not self.alive or self._inflight.get(index) != source:
            return
        source_peer = self._control.peer(source)
        if source_peer is not None and source_peer.alive:
            status = source_peer.upload_status(self.name, index)
            if status == "active":
                self._arm_timeout(index, source)
                return
        alternative = self._choose_source(index, exclude=source)
        if alternative is None:
            # Nobody else holds it; keep waiting on the same source.
            self._arm_timeout(index, source)
            return
        self.send(source, Cancel(self.name, index))
        self.metrics.requests_retried += 1
        self._retry_counts[index] = self._retry_counts.get(index, 0) + 1
        self._inflight[index] = alternative
        self._request_times[index] = self._sim.now
        self._arm_timeout(index, alternative)
        urgent = self._is_urgent(index)
        if self._tracer.enabled:
            self._tracer.emit(
                RequestTimedOut(
                    time=self._sim.now,
                    peer=self.name,
                    segment=index,
                    source=source,
                    retry_source=alternative,
                )
            )
            self._tracer.emit(
                SegmentRequested(
                    time=self._sim.now,
                    peer=self.name,
                    segment=index,
                    source=alternative,
                    urgent=urgent,
                    expected_size=float(
                        self.segment_sizes.get(index, -1.0)
                    ),
                )
            )
        self.send(
            alternative,
            Request(
                peer_id=self.name,
                index=index,
                urgent=urgent,
            ),
        )

    def _choose_source(
        self, index: int, exclude: str | None = None
    ) -> str | None:
        """Pick the holder to request ``index`` from.

        Prefers fellow leechers (offloading the seeder, as BitTorrent's
        tit-for-tat naturally does), balancing by the number of our own
        in-flight requests per source, breaking ties randomly.

        Args:
            index: the segment to source.
            exclude: optional holder to avoid (timeout re-requests).
        """
        busy_cdns = {
            source
            for source in self._inflight.values()
            if source in self._config.cdn_sources
        }
        holders = [
            peer_name
            for peer_name, indices in self._availability.items()
            if index in indices
            and peer_name != self.name
            and peer_name != exclude
            and peer_name not in busy_cdns
        ]
        if not holders:
            return None
        now = self._sim.now
        not_backed_off = [
            name
            for name in holders
            if self._source_backoff.get(name, 0.0) <= now
        ]
        if not_backed_off:
            holders = not_backed_off
        pool = [h for h in holders if h != self._seeder_name] or holders
        load: dict[str, int] = {}
        for source in self._inflight.values():
            load[source] = load.get(source, 0) + 1
        lightest = min(load.get(name, 0) for name in pool)
        candidates = [
            name for name in pool if load.get(name, 0) == lightest
        ]
        return self._rng.choice(candidates)
