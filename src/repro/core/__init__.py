"""The paper's primary contribution: splicing and downloading policy.

* :mod:`repro.core.segments` — the :class:`Segment` model shared by the
  splicers, the P2P layer, and the player.
* :mod:`repro.core.splicer` — GOP-based and duration-based splicing
  (paper Section II).
* :mod:`repro.core.policy` — the adaptive download-pool formula, Eq. 1
  (paper Section III), plus the fixed-pool baseline.
* :mod:`repro.core.segment_size` — hybrid-CDN segment sizing (paper
  Section IV) and the duration-adaptive splicing planner the paper
  lists as future work.
"""

from ..lazy import lazy_exports

__all__ = [
    "AdaptiveDurationPlanner",
    "AdaptivePoolPolicy",
    "DownloadPolicy",
    "DurationSplicer",
    "FixedPoolPolicy",
    "GopSplicer",
    "MediaPlaylist",
    "Segment",
    "SpliceResult",
    "SpliceValidation",
    "Splicer",
    "adaptive_pool_size",
    "deserialize_segment",
    "max_cdn_segment_size",
    "parse_m3u8",
    "predicted_download_time",
    "serialize_segment",
    "validate_splice",
    "write_m3u8",
    "write_segment_files",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "MediaPlaylist": "playlist",
    "parse_m3u8": "playlist",
    "write_m3u8": "playlist",
    "deserialize_segment": "segment_files",
    "serialize_segment": "segment_files",
    "write_segment_files": "segment_files",
    "SpliceValidation": "validate",
    "validate_splice": "validate",
    "AdaptivePoolPolicy": "policy",
    "DownloadPolicy": "policy",
    "FixedPoolPolicy": "policy",
    "adaptive_pool_size": "policy",
    "AdaptiveDurationPlanner": "segment_size",
    "max_cdn_segment_size": "segment_size",
    "predicted_download_time": "segment_size",
    "Segment": "segments",
    "SpliceResult": "segments",
    "DurationSplicer": "splicer",
    "GopSplicer": "splicer",
    "Splicer": "splicer",
})
