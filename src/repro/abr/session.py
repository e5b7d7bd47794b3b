"""A single ABR client streaming from a CDN.

The classic HLS loop: fetch segments sequentially over one connection
at a time, re-estimate throughput after each, pick the next segment's
rendition with the configured policy, and pause fetching when the
buffer is full.  Reports the paper's observables *plus* delivered
quality — the quantity duration-adaptive splicing preserves and ABR
sacrifices.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..bwest.estimators import WindowedThroughputEstimator
from ..errors import ConfigurationError
from ..net.engine import Simulator
from ..net.flownet import FlowNetwork
from ..net.tcp import TcpParams, start_tcp_transfer
from ..net.topology import StarTopology, per_link_loss
from ..player.metrics import StreamingMetrics
from ..player.player import Player, PlayerState
from .ladder import BitrateLadder
from .policy import AbrPolicy


@dataclass(frozen=True, slots=True)
class AbrSessionConfig:
    """Client-server ABR session parameters.

    Attributes:
        bandwidth: client access bandwidth, bytes/second.
        server_bandwidth: CDN bandwidth; ``None`` uses 8x the client.
        rtt: client-server round-trip time, seconds.
        path_loss: end-to-end loss probability.
        max_buffer: stop fetching above this many buffered seconds.
        tcp_params: transport model parameters.
    """

    bandwidth: float
    server_bandwidth: float | None = None
    rtt: float = 0.05
    path_loss: float = 0.05
    max_buffer: float = 30.0
    tcp_params: TcpParams = field(default_factory=TcpParams)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive, got {self.bandwidth}"
            )
        if self.max_buffer <= 0:
            raise ConfigurationError(
                f"max_buffer must be positive, got {self.max_buffer}"
            )


@dataclass(slots=True)
class AbrMetrics:
    """Streaming metrics plus quality accounting.

    Attributes:
        streaming: the stall/startup observables.
        rungs: rung chosen per segment, in order.
        bitrates: bitrate (bits/s) per segment, in order.
    """

    streaming: StreamingMetrics
    rungs: list[int] = field(default_factory=list)
    bitrates: list[float] = field(default_factory=list)

    @property
    def mean_bitrate(self) -> float:
        """Mean delivered bitrate across segments, bits/second."""
        return statistics.fmean(self.bitrates) if self.bitrates else 0.0

    @property
    def switches(self) -> int:
        """Rendition switches (instability, per the paper's ref [7])."""
        return sum(
            1 for a, b in zip(self.rungs, self.rungs[1:]) if a != b
        )


class AbrSession:
    """One ABR client against one CDN server.

    Args:
        ladder: the aligned multi-bitrate renditions.
        policy: the rendition-selection policy.
        config: network and buffering parameters.
    """

    def __init__(
        self,
        ladder: BitrateLadder,
        policy: AbrPolicy,
        config: AbrSessionConfig,
    ) -> None:
        self._ladder = ladder
        self._policy = policy
        self._config = config
        self.sim = Simulator()
        self.network = FlowNetwork(self.sim)
        self.topology = StarTopology()
        loss = per_link_loss(config.path_loss)
        server_bandwidth = (
            config.server_bandwidth
            if config.server_bandwidth is not None
            else 8 * config.bandwidth
        )
        self._server = self.topology.add_node(
            "cdn", server_bandwidth, config.rtt / 4.0, loss
        )
        self._client = self.topology.add_node(
            "client", config.bandwidth, config.rtt / 4.0, loss
        )
        self._estimator = WindowedThroughputEstimator(window=12.0)
        self.metrics = AbrMetrics(
            streaming=StreamingMetrics(session_start=0.0)
        )
        durations = [
            ladder.segment_duration(i)
            for i in range(ladder.segment_count)
        ]
        self.player = Player(
            self.sim, durations, metrics=self.metrics.streaming
        )
        self._next_segment = 0
        self._current_rung = 0
        self._fetching = False

    def run(self, max_time: float = 3600.0) -> AbrMetrics:
        """Stream the whole video; returns the collected metrics."""
        self.sim.schedule(0.0, self._fetch_next)
        self.sim.run(until=max_time)
        return self.metrics

    # ------------------------------------------------------------------

    def _buffer_level(self) -> float:
        if self.player.state is PlayerState.PLAYING:
            return self.player.buffered_playtime()
        # Before startup the whole contiguous run counts.
        end = self.player.buffer.contiguous_through(0)
        return sum(
            self.player.buffer.duration_of(i) for i in range(end)
        )

    def _fetch_next(self) -> None:
        if self._fetching:
            return
        if self._next_segment >= self._ladder.segment_count:
            return
        buffer_level = self._buffer_level()
        if buffer_level >= self._config.max_buffer:
            # Buffer full: resume when one segment's worth drained.
            self.sim.schedule(
                max(
                    0.1,
                    buffer_level - self._config.max_buffer + 1.0,
                ),
                self._fetch_next,
            )
            return
        rung = self._policy.choose(
            self._ladder,
            buffer_level,
            self._estimator.estimate(self.sim.now),
            self._current_rung,
        )
        segment_index = self._next_segment
        size = self._ladder.segment_size(rung, segment_index)
        self._fetching = True
        started = self.sim.now
        start_tcp_transfer(
            self.sim,
            self.network,
            self.topology.route(self._server, self._client),
            size,
            params=self._config.tcp_params,
            on_complete=lambda t: self._on_segment(
                segment_index, rung, size, started
            ),
        )

    def _on_segment(
        self, index: int, rung: int, size: int, started: float
    ) -> None:
        self._fetching = False
        self._estimator.record(self.sim.now, size)
        self.metrics.rungs.append(rung)
        self.metrics.bitrates.append(self._ladder.bitrates[rung])
        self.metrics.streaming.bytes_downloaded += size
        self.metrics.streaming.segments_downloaded += 1
        self._current_rung = rung
        self._next_segment = index + 1
        self.player.segment_available(index)
        self._fetch_next()
