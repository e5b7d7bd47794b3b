"""repro — reproduction of "Video Splicing Techniques for P2P Video
Streaming" (Islam & Khan, ICDCS 2015).

The package implements the paper's full stack in pure Python: a
synthetic MPEG-4 video model, GOP- and duration-based splicers, the
adaptive download-pool policy (Eq. 1), a discrete-event flow/TCP
network simulator, a BitTorrent-like streaming swarm, playback metrics
(stalls / startup), the Section IV one-request-at-a-time origin with
its ``B·T`` segment bound, GENI-style RSpec documents, and an
experiment harness regenerating every figure.

Quickstart::

    from repro import (
        encode_paper_video, DurationSplicer, Swarm, SwarmConfig, kB_per_s,
    )

    video = encode_paper_video(seed=1)
    splice = DurationSplicer(4.0).splice(video)
    swarm = Swarm(splice, SwarmConfig(bandwidth=kB_per_s(512)))
    result = swarm.run()
    print(result.mean_stall_count(), result.mean_startup_time())
"""

from .lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AdaptiveDurationPlanner": "core.segment_size",
    "AdaptivePoolPolicy": "core.policy",
    "DownloadPolicy": "core.policy",
    "DurationSplicer": "core.splicer",
    "FixedPoolPolicy": "core.policy",
    "GopSplicer": "core.splicer",
    "Segment": "core.segments",
    "SpliceResult": "core.segments",
    "Splicer": "core.splicer",
    "adaptive_pool_size": "core.policy",
    "max_cdn_segment_size": "core.segment_size",
    "ReproError": "errors",
    "Observability": "obs.context",
    "Swarm": "p2p.swarm",
    "SwarmConfig": "p2p.swarm",
    "Player": "player.player",
    "PlayerState": "player.player",
    "StreamingMetrics": "player.metrics",
    "kB_per_s": "units",
    "mbps": "units",
    "Bitstream": "video.bitstream",
    "EncoderConfig": "video.encoder",
    "SyntheticEncoder": "video.encoder",
    "encode_paper_video": "video.encoder",
})

__all__.append("__version__")
