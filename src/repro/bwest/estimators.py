"""Bandwidth estimators for Eq. 1's ``B``.

All estimators implement the
:class:`~repro.p2p.leecher.BandwidthEstimator` protocol:
``record(time, num_bytes)`` on every arrival, ``estimate(now)`` for
the current bytes/second figure (``None`` while undecided).
"""

from __future__ import annotations

import collections
import math

from ..errors import ConfigurationError
from ..units import DEFAULT_MSS


class WindowedThroughputEstimator:
    """Realized throughput over a sliding time window.

    The piece-arrival analogue of Libswift-style estimation: total
    bytes that arrived during the last ``window`` seconds, divided by
    the window.  Robust to bursty piece completions because whole
    segments land at once.

    Args:
        window: averaging window in seconds.
        min_samples: arrivals required before an estimate is offered.
    """

    def __init__(self, window: float = 10.0, min_samples: int = 2) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive: {window}")
        if min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1: {min_samples}"
            )
        self._window = window
        self._min_samples = min_samples
        self._arrivals: collections.deque[tuple[float, float]] = (
            collections.deque()
        )
        self._first_arrival: float | None = None

    def record(self, time: float, num_bytes: float) -> None:
        """Record ``num_bytes`` arriving at ``time``."""
        if num_bytes < 0:
            raise ConfigurationError(
                f"num_bytes must be >= 0, got {num_bytes}"
            )
        if self._first_arrival is None:
            self._first_arrival = time
        self._arrivals.append((time, num_bytes))

    def estimate(self, now: float) -> float | None:
        """Bytes/second over the last window, or None if undecided."""
        cutoff = now - self._window
        while self._arrivals and self._arrivals[0][0] < cutoff:
            self._arrivals.popleft()
        if len(self._arrivals) < self._min_samples:
            return None
        if self._first_arrival is None:
            return None
        span = min(self._window, max(now - self._first_arrival, 1e-9))
        total = sum(num_bytes for _, num_bytes in self._arrivals)
        return total / span


class MathisEstimator:
    """Model-based ceiling: ``MSS / (RTT * sqrt(2p/3))``.

    The classic Mathis/Semke/Mahdavi/Ott TCP throughput bound from
    path RTT and loss rate — what a sender can *hope for* on one
    connection, independent of observed arrivals.  ``record`` accepts
    arrivals for protocol compatibility but ignores them.

    Args:
        rtt: path round-trip time in seconds.
        loss_rate: packet loss probability in (0, 1).
        mss: segment size in bytes.
    """

    def __init__(
        self, rtt: float, loss_rate: float, mss: int = DEFAULT_MSS
    ) -> None:
        if rtt <= 0:
            raise ConfigurationError(f"rtt must be positive: {rtt}")
        if not 0.0 < loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in (0, 1): {loss_rate}"
            )
        if mss <= 0:
            raise ConfigurationError(f"mss must be positive: {mss}")
        self._ceiling = mss / (rtt * math.sqrt(2.0 * loss_rate / 3.0))

    @property
    def ceiling(self) -> float:
        """The modeled per-connection throughput bound, bytes/second."""
        return self._ceiling

    def record(self, time: float, num_bytes: float) -> None:
        """Ignored; the Mathis bound is purely model-based."""

    def estimate(self, now: float) -> float | None:
        """The Mathis ceiling in bytes/second."""
        return self._ceiling
