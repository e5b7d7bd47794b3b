"""End-to-end swarm orchestration.

Builds the paper's experimental setup — one seeder plus N leechers on a
star topology with configured bandwidth, latency and loss — runs the
streaming session, and collects every peer's metrics.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field

from ..core.policy import AdaptivePoolPolicy, DownloadPolicy
from ..core.segments import SpliceResult
from ..errors import ConfigurationError, SwarmError
from ..net.engine import Simulator
from ..net.flownet import FlowNetwork
from ..net.tcp import TcpParams
from ..net.topology import StarTopology, per_link_loss
from ..obs.context import Observability
from ..player.metrics import StreamingMetrics
from ..units import milliseconds
from .churn import ChurnConfig, ChurnModel
from .leecher import BandwidthEstimator, Leecher, LeecherConfig
from .peer import ControlPlane
from .seeder import Seeder
from .selection import PieceSelector, SequentialSelector
from .tracker import Tracker

#: Swarm backends selectable via :attr:`SwarmConfig.fidelity`.
FIDELITY_TIERS = ("exact", "cohort", "fluid")


@dataclass(frozen=True, slots=True)
class SwarmConfig:
    """Everything needed to run one streaming session.

    Defaults mirror the paper's setup: 20 nodes (1 seeder + 19
    leechers), 50 ms latency among peers, 500 ms to the seeder for the
    initial contact, 5 % end-to-end packet loss.  Latencies are
    round-trip times; joins are staggered (the paper's peers were
    started across 19 VMs, not at one instant — and simultaneous joins
    leave the swarm in lockstep, where no peer ever holds a segment
    another needs).

    Attributes:
        bandwidth: per-node access bandwidth, bytes/second (the paper's
            x-axis variable).
        seeder_bandwidth: the seeder's access bandwidth; ``None`` uses
            ``bandwidth``.  An origin/seeder is typically provisioned
            above the peers; without headroom somewhere, a swarm at
            ``bandwidth == bitrate`` has zero slack and every series
            degenerates to a permanent crawl.
        n_leechers: number of watching peers.
        peer_rtt: round-trip time between two leechers, seconds
            (paper: 50 ms).
        seeder_rtt: round-trip time of *control* exchanges with the
            seeder, seconds (paper: 500 ms; the paper quotes it for the
            startup manifest exchange — the seeder's data path uses
            normal access latency).
        path_loss: end-to-end packet loss between any two nodes.
        policy: download-pool policy shared by all leechers.
        selector: piece-selection strategy shared by all leechers
            (default: the paper's sequential order).
        bandwidth_hint: Eq. 1's ``B``; defaults to ``bandwidth``.
        seed: master seed (per-leecher RNGs derive from it).
        join_stagger: seconds between consecutive leecher joins.
        churn: optional churn parameters.
        tcp_params: TCP model tunables.
        estimator_factory: optional per-leecher live bandwidth
            estimator factory (called once per leecher).
        upload_slots: concurrent uploads a peer serves before queueing
            (BitTorrent-style unchoke count); ``None`` (the paper's
            plain-socket behaviour) serves every request concurrently.
        origin_one_at_a_time: treat the origin as a CDN per the paper's
            Section IV — each peer keeps at most one request in flight
            to it.
        preroll_segments: segments buffered before playback starts
            (paper: 1).
        max_time: simulation safety cap, seconds.
        fidelity: which swarm backend runs the session — ``"exact"``
            (the per-peer discrete-event engine), ``"cohort"`` (peers
            batched by join epoch, vectorized; 10³–10⁴ peers), or
            ``"fluid"`` (mean-field rate ODEs; 10⁵–10⁶ peers).  See
            ``docs/SCALING.md`` for accuracy envelopes.
        max_cohorts: population granularity of the vectorized tiers
            (ignored by ``"exact"``); more cohorts, closer to exact.
        fluid_dt: integration step of the ``"fluid"`` tier, seconds;
            ``None`` derives one from the shortest segment duration.
    """

    bandwidth: float
    seeder_bandwidth: float | None = None
    n_leechers: int = 19
    peer_rtt: float = milliseconds(50)
    seeder_rtt: float = milliseconds(500)
    path_loss: float = 0.05
    policy: DownloadPolicy = field(default_factory=AdaptivePoolPolicy)
    selector: PieceSelector = field(default_factory=SequentialSelector)
    bandwidth_hint: float | None = None
    seed: int = 0
    join_stagger: float = 5.0
    churn: ChurnConfig | None = None
    tcp_params: TcpParams = field(default_factory=TcpParams)
    estimator_factory: "type[BandwidthEstimator] | None" = None
    upload_slots: int | None = None
    origin_one_at_a_time: bool = False
    preroll_segments: int = 1
    max_time: float = 3600.0
    fidelity: str = "exact"
    max_cohorts: int = 64
    fluid_dt: float | None = None

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive, got {self.bandwidth}"
            )
        if self.fidelity not in FIDELITY_TIERS:
            raise ConfigurationError(
                f"fidelity must be one of {FIDELITY_TIERS}, "
                f"got {self.fidelity!r}"
            )
        if self.max_cohorts < 1:
            raise ConfigurationError(
                f"max_cohorts must be >= 1, got {self.max_cohorts}"
            )
        if self.fluid_dt is not None and self.fluid_dt <= 0:
            raise ConfigurationError(
                f"fluid_dt must be positive, got {self.fluid_dt}"
            )
        if self.n_leechers < 1:
            raise ConfigurationError(
                f"n_leechers must be >= 1, got {self.n_leechers}"
            )
        if self.peer_rtt < 0 or self.seeder_rtt < 0:
            raise ConfigurationError("latencies must be >= 0")
        if self.join_stagger < 0:
            raise ConfigurationError(
                f"join_stagger must be >= 0, got {self.join_stagger}"
            )
        if self.max_time <= 0:
            raise ConfigurationError(
                f"max_time must be positive, got {self.max_time}"
            )


@dataclass(frozen=True, slots=True)
class SwarmResult:
    """Outcome of one streaming session.

    Attributes:
        metrics: per-leecher streaming metrics, by peer name.
        seeder_bytes_uploaded: payload bytes served by the seeder.
        peer_bytes_uploaded: payload bytes served by leechers.
        control_messages: control-plane messages exchanged.
        departed: names of leechers that churned out.
        end_time: simulated time the session finished.
    """

    metrics: dict[str, StreamingMetrics]
    seeder_bytes_uploaded: float
    peer_bytes_uploaded: float
    control_messages: int
    departed: tuple[str, ...]
    end_time: float

    def finished_metrics(self) -> list[StreamingMetrics]:
        """Metrics of leechers that watched to the end."""
        return [m for m in self.metrics.values() if m.finished]

    @property
    def all_finished(self) -> bool:
        """Whether every non-departed leecher finished playback."""
        departed = set(self.departed)
        return all(
            m.finished
            for name, m in self.metrics.items()
            if name not in departed
        )

    def mean_stall_count(self) -> float:
        """Average stalls per finishing peer (paper Fig. 2/5 metric)."""
        finished = self.finished_metrics()
        if not finished:
            raise SwarmError("no leecher finished playback")
        return statistics.fmean(m.stall_count for m in finished)

    def mean_stall_duration(self) -> float:
        """Average total stall seconds per finishing peer (Fig. 3)."""
        finished = self.finished_metrics()
        if not finished:
            raise SwarmError("no leecher finished playback")
        return statistics.fmean(m.total_stall_duration for m in finished)

    def mean_startup_time(self) -> float:
        """Average startup seconds across peers that started (Fig. 4)."""
        started = [
            m.startup_time
            for m in self.metrics.values()
            if m.startup_time is not None
        ]
        if not started:
            raise SwarmError("no leecher started playback")
        return statistics.fmean(started)


class Swarm:
    """One fully-wired streaming session, ready to run.

    Args:
        splice: the spliced video to stream.
        config: session parameters.
        obs: optional observability context; when given, every layer
            (engine, TCP, peers, players) records into its tracer, and
            the engine times its handlers into its profile.
    """

    SEEDER_NAME = "seeder"

    def __init__(
        self,
        splice: SpliceResult,
        config: SwarmConfig,
        obs: Observability | None = None,
    ) -> None:
        self._splice = splice
        self._config = config
        self.obs = obs
        self.sim = Simulator(
            tracer=obs.tracer if obs is not None else None,
            profile=obs.profile if obs is not None else None,
        )
        self.network = FlowNetwork(self.sim)
        self.topology = StarTopology()
        loss = per_link_loss(config.path_loss)
        # A peer-to-peer path crosses four access-link traversals per
        # round trip (up, down, and back), so each link carries a
        # quarter of the configured RTT.
        hub_latency = config.peer_rtt / 4.0
        seeder_node = self.topology.add_node(
            self.SEEDER_NAME,
            (
                config.seeder_bandwidth
                if config.seeder_bandwidth is not None
                else config.bandwidth
            ),
            hub_latency,
            loss,
        )
        # Control messages to/from the seeder take the paper's 500 ms
        # round trip: the topology supplies half the peer RTT one-way,
        # the control plane adds the remainder.
        seeder_extra = max(
            0.0, (config.seeder_rtt - config.peer_rtt) / 2.0
        )
        seeder_name = self.SEEDER_NAME

        def extra_latency(src: str, dst: str) -> float:
            if seeder_name in (src, dst):
                return seeder_extra
            return 0.0

        self.control = ControlPlane(
            self.sim, self.topology, extra_latency
        )
        self.tracker = Tracker()
        self.seeder = Seeder(
            self.SEEDER_NAME,
            seeder_node,
            self.sim,
            self.network,
            self.topology,
            self.control,
            splice,
            self.tracker,
            config.tcp_params,
            config.upload_slots,
            obs=obs,
        )
        master = random.Random(config.seed)
        churn_model = (
            ChurnModel(config.churn, random.Random(master.getrandbits(32)))
            if config.churn is not None
            else None
        )
        hint = (
            config.bandwidth_hint
            if config.bandwidth_hint is not None
            else config.bandwidth
        )
        self.leechers: list[Leecher] = []
        self._departed: list[str] = []
        for i in range(config.n_leechers):
            name = f"peer-{i + 1}"
            node = self.topology.add_node(
                name, config.bandwidth, hub_latency, loss
            )
            estimator = (
                config.estimator_factory()
                if config.estimator_factory is not None
                else None
            )
            leecher = Leecher(
                name,
                node,
                self.sim,
                self.network,
                self.topology,
                self.control,
                self.SEEDER_NAME,
                LeecherConfig(
                    policy=config.policy,
                    bandwidth_hint=hint,
                    estimator=estimator,
                    selector=config.selector,
                    cdn_sources=(
                        frozenset({self.SEEDER_NAME})
                        if config.origin_one_at_a_time
                        else frozenset()
                    ),
                    seed=master.getrandbits(32),
                    preroll_segments=config.preroll_segments,
                ),
                config.tcp_params,
                config.upload_slots,
                obs=obs,
            )
            self.leechers.append(leecher)
            join_at = i * config.join_stagger
            self.sim.schedule(join_at, leecher.start)
            if churn_model is not None:
                delay = churn_model.departure_delay()
                if delay is not None:
                    self.sim.schedule(
                        join_at + delay, self._depart, leecher
                    )

    @property
    def config(self) -> SwarmConfig:
        """This session's :class:`SwarmConfig`."""
        return self._config

    def _depart(self, leecher: Leecher) -> None:
        if leecher.alive:
            self._departed.append(leecher.name)
            leecher.leave()

    def set_peer_bandwidth(self, bandwidth: float) -> None:
        """Change every leecher's access bandwidth mid-run.

        The variable-bandwidth experiments call this from scheduled
        sim events; every fidelity tier exposes the same hook.
        """
        if bandwidth <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive, got {bandwidth}"
            )
        for leecher in self.leechers:
            self.topology.set_node_bandwidth(
                self.network, leecher.node, bandwidth
            )

    def run(self) -> SwarmResult:
        """Run the session to completion (or the safety cap).

        Returns:
            A :class:`SwarmResult` with every peer's metrics.
        """
        self.sim.run(until=self._config.max_time)
        return SwarmResult(
            metrics={
                leecher.name: leecher.metrics for leecher in self.leechers
            },
            seeder_bytes_uploaded=self.seeder.bytes_uploaded,
            peer_bytes_uploaded=sum(
                leecher.bytes_uploaded for leecher in self.leechers
            ),
            control_messages=self.control.messages_sent,
            departed=tuple(self._departed),
            end_time=self.sim.now,
        )

    def release(self) -> None:
        """End the session so reference counting can free it.

        A session is a web of back-references: peers and the control
        plane, leechers and their players, transfers and their flows,
        queued events and their owners.  Release breaks them without
        firing an event or sending a message.  Read everything needed
        from the swarm first; it must not be used afterwards.
        """
        for peer in (self.seeder, *self.leechers):
            peer.release()
        self.control.release()
        self.network.release()
        self.sim.release()


def build_swarm(
    splice: SpliceResult,
    config: SwarmConfig,
    obs: Observability | None = None,
) -> "Swarm":
    """Build the swarm backend :attr:`SwarmConfig.fidelity` selects.

    Every backend exposes the same session surface — ``run()`` →
    :class:`SwarmResult`, ``sim``, ``config``, ``obs``,
    ``set_peer_bandwidth`` and ``release()`` — so runners, sweeps and
    benchmarks hold a swarm without caring which engine is underneath.

    Args:
        splice: the spliced video to stream.
        config: session parameters (``fidelity`` picks the engine).
        obs: optional observability context.

    Returns:
        A ready-to-run session object.
    """
    if config.fidelity == "exact":
        return Swarm(splice, config, obs=obs)
    from .scale import CohortSwarm, FluidSwarm

    if config.fidelity == "cohort":
        return CohortSwarm(splice, config, obs=obs)
    return FluidSwarm(splice, config, obs=obs)
