"""Playback: buffer, player state machine, and streaming metrics.

The paper measures three things — stall count, total stall duration,
and startup time.  :class:`~repro.player.player.Player` produces all
three from the arrival times of segments, consuming them sequentially
in simulated real time (the paper cites that 95 % of P2P TV users watch
sequentially).
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "PlaybackBuffer": "buffer",
    "StallEvent": "metrics",
    "StreamingMetrics": "metrics",
    "Player": "player",
    "PlayerState": "player",
})
