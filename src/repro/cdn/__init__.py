"""Hybrid CDN + P2P streaming (paper Section IV).

"Many of the P2P video streaming services adopted hybrid architecture
where contents are served by peers as well as a CDN.  When a video is
served by a CDN, peers can download one segment at a time ... In that
case, the maximum size of the segment will be ``B * T``."

:class:`HybridSession` runs that architecture: the origin is a CDN
from which each peer keeps at most one request in flight, peers still
exchange segments with each other, and the segment duration can be
chosen by the Section-IV sizing rule.
"""

from ..lazy import lazy_exports

__all__ = ["HybridConfig", "HybridSession", "cdn_segment_duration"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "HybridConfig": "hybrid",
    "HybridSession": "hybrid",
    "cdn_segment_duration": "hybrid",
})
