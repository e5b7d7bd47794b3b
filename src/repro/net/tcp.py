"""Analytic TCP connection model.

Each segment download in the paper's application opens a fresh TCP
connection over Java sockets.  Three first-order TCP behaviours decide
the experiment outcomes, and all three are modeled here:

1. **connection setup** — ~1.5 RTT of handshake before the first data
   byte, inflated by loss (SYN retransmissions);
2. **slow start** — the congestion window starts small and doubles
   every RTT, so short transfers never reach link speed (why many tiny
   segments waste bandwidth);
3. **loss-bounded steady state** — with loss probability ``p`` a TCP
   connection cannot exceed the Mathis limit
   ``MSS / (RTT * sqrt(2p/3))`` regardless of link capacity (why peers
   must download several segments in parallel to fill a fat link).

The model drives a :class:`~repro.net.flownet.Flow` whose rate cap
follows the congestion window; actual sharing with competing transfers
is solved by the flow network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..errors import NetworkError
from ..obs.events import (
    FlowRateChanged,
    TransferCancelled,
    TransferCompleted,
    TransferStarted,
)
from ..obs.tracer import NULL_TRACER, Tracer
from ..units import DEFAULT_MSS
from .engine import EventHandle, Simulator
from .flownet import Flow, FlowNetwork
from .link import Link, path_latency, path_loss_rate

#: RTT floor so zero-latency test topologies don't divide by zero.
_MIN_RTT = 1e-4


@dataclass(frozen=True, slots=True)
class TcpParams:
    """Tunables of the transport model.

    The defaults model loss-based TCP (Reno/Cubic-flavoured).  Setting
    ``loss_capped=False`` models a delay-based transport in the
    PPSPP/Libswift (LEDBAT) family the paper's related work cites:
    losses neither bound the steady-state rate (no Mathis ceiling) nor
    collapse small windows (no retransmission-timeout floor), and the
    lightweight datagram handshake costs a single RTT.

    Attributes:
        mss: maximum segment size in bytes.
        initial_window: initial congestion window in MSS (RFC 6928's 10).
        handshake_rtts: RTTs consumed before the first data byte.
        loss_capped: whether loss bounds throughput (True for TCP,
            False for delay-based transports).
    """

    mss: int = DEFAULT_MSS
    initial_window: int = 10
    handshake_rtts: float = 1.5
    loss_capped: bool = True

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise NetworkError(f"mss must be positive, got {self.mss}")
        if self.initial_window < 1:
            raise NetworkError(
                f"initial_window must be >= 1, got {self.initial_window}"
            )
        if self.handshake_rtts < 0:
            raise NetworkError(
                f"handshake_rtts must be >= 0, got {self.handshake_rtts}"
            )

    def mathis_cap(self, rtt: float, loss_rate: float) -> float | None:
        """Loss-bounded steady-state rate in bytes/s.

        None when lossless or when the transport is not loss-capped.
        """
        if loss_rate <= 0 or not self.loss_capped:
            return None
        return self.mss / (rtt * math.sqrt(2.0 * loss_rate / 3.0))

    def handshake_delay(self, rtt: float, loss_rate: float) -> float:
        """Connection setup time, inflated by loss retransmissions."""
        return self.handshake_rtts * rtt / (1.0 - loss_rate)


def ppspp_params(mss: int = DEFAULT_MSS) -> TcpParams:
    """Transport parameters for a PPSPP/Libswift-style UDP protocol.

    One-RTT datagram handshake, delay-based congestion control (no
    Mathis ceiling, no timeout floor).
    """
    return TcpParams(
        mss=mss,
        initial_window=10,
        handshake_rtts=1.0,
        loss_capped=False,
    )


class TcpTransfer:
    """One TCP transfer in progress.

    Create via :func:`start_tcp_transfer`.  Lifecycle: handshake delay,
    then a flow whose rate cap doubles each RTT (slow start) until it
    reaches the Mathis ceiling, then steady state until completion.
    """

    def __init__(
        self,
        sim: Simulator,
        network: FlowNetwork,
        route: tuple[Link, ...],
        size: float,
        params: TcpParams,
        on_complete: Callable[["TcpTransfer"], None] | None,
        tracer: Tracer = NULL_TRACER,
        label: str = "",
    ) -> None:
        self._sim = sim
        self._network = network
        self.route = route
        self.size = size
        self.params = params
        self._on_complete = on_complete
        self._tracer = tracer
        self.label = label
        self.rtt = max(2.0 * path_latency(route), _MIN_RTT)
        self.loss_rate = path_loss_rate(route)
        self.started_at = sim.now
        self.completed_at: float | None = None
        self.cancelled = False
        self._flow: Flow | None = None
        self._cwnd_segments = params.initial_window
        self._pending: EventHandle | None = None
        self._cap = params.mathis_cap(self.rtt, self.loss_rate)
        self._bottleneck = 0.0
        self._capacity_gen = -1
        self._pending = sim.schedule(
            params.handshake_delay(self.rtt, self.loss_rate),
            self._begin_data,
        )

    @property
    def active(self) -> bool:
        """Whether the transfer is still in progress."""
        return self.completed_at is None and not self.cancelled

    @property
    def duration(self) -> float | None:
        """Wall-clock seconds from open to last byte (None if active)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def transferred(self) -> float:
        """Bytes delivered so far."""
        if self._flow is None:
            return 0.0 if self.active else self.size
        return self._flow.transferred

    def cancel(self) -> None:
        """Abort the transfer; no completion callback will fire."""
        if not self.active:
            return
        if self._tracer.enabled:
            # Before flipping ``cancelled`` so ``transferred`` still
            # reads the live flow, not the post-cancel fallback.
            self._tracer.emit(
                TransferCancelled(
                    time=self._sim.now,
                    label=self.label,
                    transferred=self.transferred,
                )
            )
        self.cancelled = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self._flow is not None and self._flow.active:
            self._network.cancel_flow(self._flow)

    # ------------------------------------------------------------------

    def _window_rate(self) -> float:
        """Rate implied by the current congestion window."""
        rate = self._cwnd_segments * self.params.mss / self.rtt
        if self._cap is not None:
            rate = min(rate, self._cap)
        return rate

    def _begin_data(self) -> None:
        self._pending = None
        if self.cancelled:
            return
        if self._tracer.enabled:
            self._tracer.emit(
                TransferStarted(
                    time=self._sim.now,
                    label=self.label,
                    size=self.size,
                    rtt=self.rtt,
                    loss_rate=self.loss_rate,
                )
            )
        # The window floor (sub-MSS congestion windows cannot recover
        # losses via fast retransmit) only bites loss-based transports
        # on lossy paths.
        floor = (
            self.params.mss / self.rtt
            if self.loss_rate > 0 and self.params.loss_capped
            else 0.0
        )
        self._flow = self._network.start_flow(
            self.route,
            self.size,
            rate_limit=self._window_rate(),
            on_complete=self._on_flow_complete,
            min_efficient_rate=floor,
        )
        self._schedule_window_growth()

    def _path_bottleneck(self) -> float:
        """Smallest capacity along the route, cached between RTT ticks.

        The scan only re-runs when the network's capacity generation
        moved (a ``set_capacity`` happened somewhere), so steady-state
        window growth pays an O(1) check instead of an O(route) scan
        per RTT.
        """
        generation = self._network.capacity_generation
        if generation != self._capacity_gen:
            self._capacity_gen = generation
            self._bottleneck = min(link.capacity for link in self.route)
        return self._bottleneck

    def _schedule_window_growth(self) -> None:
        if self._cap is not None and self._window_rate() >= self._cap:
            return  # already at the loss ceiling; stop ramping
        bottleneck = self._path_bottleneck()
        if self._window_rate() >= 2.0 * bottleneck:
            # The window has outgrown the path; it no longer binds.
            # Leave only the Mathis ceiling (if any) in place so the
            # flow tracks future capacity changes.
            if self._flow is not None and self._flow.active:
                self._network.set_rate_limit(self._flow, self._cap)
                if self._tracer.enabled:
                    self._tracer.emit(
                        FlowRateChanged(
                            time=self._sim.now,
                            label=self.label,
                            rate=self._cap if self._cap is not None else 0.0,
                        )
                    )
            return
        self._pending = self._sim.schedule(self.rtt, self._grow_window)

    def _grow_window(self) -> None:
        self._pending = None
        if self.cancelled or self._flow is None or not self._flow.active:
            return
        self._cwnd_segments *= 2
        self._network.set_rate_limit(self._flow, self._window_rate())
        if self._tracer.enabled:
            self._tracer.emit(
                FlowRateChanged(
                    time=self._sim.now,
                    label=self.label,
                    rate=self._window_rate(),
                )
            )
        self._schedule_window_growth()

    def _on_flow_complete(self, flow: Flow) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self.completed_at = self._sim.now
        if self._tracer.enabled:
            self._tracer.emit(
                TransferCompleted(
                    time=self._sim.now,
                    label=self.label,
                    size=self.size,
                    duration=self.completed_at - self.started_at,
                )
            )
        if self._on_complete is not None:
            self._on_complete(self)


def start_tcp_transfer(
    sim: Simulator,
    network: FlowNetwork,
    route: list[Link] | tuple[Link, ...],
    size: float,
    params: TcpParams | None = None,
    on_complete: Callable[[TcpTransfer], None] | None = None,
    tracer: Tracer = NULL_TRACER,
    label: str = "",
) -> TcpTransfer:
    """Open a TCP connection and transfer ``size`` bytes over ``route``.

    Args:
        sim: the simulator.
        network: the flow network the data flow joins after handshake.
        route: ordered links from sender to receiver (non-empty).
        size: bytes to transfer (> 0).
        params: TCP tunables (defaults per :class:`TcpParams`).
        on_complete: called with the transfer when the last byte lands.
        tracer: where transfer lifecycle events go (disabled default).
        label: caller-chosen transfer name carried in every event
            (convention: ``src->dst#segment``).

    Returns:
        The in-flight :class:`TcpTransfer` (cancel with ``.cancel()``).
    """
    route = tuple(route)
    if not route:
        raise NetworkError("transfer route must contain at least one link")
    if size <= 0:
        raise NetworkError(f"transfer size must be positive, got {size}")
    return TcpTransfer(
        sim,
        network,
        route,
        size,
        params or TcpParams(),
        on_complete,
        tracer=tracer,
        label=label,
    )
