"""Bandwidth estimation.

The paper assumes the available bandwidth ``B`` of Eq. 1 is known
("we simulated the bandwidth on GENI") and cites the Libswift work for
estimating it in the wild from "packet inter-arrival time, round-trip
delay, packet-loss, and so on".  This package supplies both styles:

* :class:`WindowedThroughputEstimator` — measures realized download
  throughput over a sliding window (piece inter-arrival style);
* :class:`EwmaThroughputEstimator` — exponentially-weighted variant;
* :class:`MathisEstimator` — model-based ceiling from RTT and loss.
"""

from ..lazy import lazy_exports

__all__ = [
    "EwmaThroughputEstimator",
    "MathisEstimator",
    "WindowedThroughputEstimator",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "EwmaThroughputEstimator": "estimators",
    "MathisEstimator": "estimators",
    "WindowedThroughputEstimator": "estimators",
})
