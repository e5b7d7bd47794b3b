"""The paper's primary contribution: splicing and downloading policy.

* :mod:`repro.core.segments` — the :class:`Segment` model shared by the
  splicers, the P2P layer, and the player.
* :mod:`repro.core.splicer` — GOP-based and duration-based splicing
  (paper Section II).
* :mod:`repro.core.policy` — the adaptive download-pool formula, Eq. 1
  (paper Section III), plus the fixed-pool baseline.
* :mod:`repro.core.segment_size` — hybrid-CDN segment sizing (paper
  Section IV: ``max_cdn_segment_size`` gives the ``B·T`` bound for a
  swarm built with ``SwarmConfig(origin_one_at_a_time=True)``) and the
  duration-adaptive splicing planner the paper lists as future work.
"""

from ..lazy import lazy_exports

__all__ = [
    "AdaptiveDurationPlanner",
    "AdaptivePoolPolicy",
    "DownloadPolicy",
    "DurationSplicer",
    "FixedPoolPolicy",
    "GopSplicer",
    "Segment",
    "SpliceResult",
    "SpliceValidation",
    "Splicer",
    "adaptive_pool_size",
    "max_cdn_segment_size",
    "predicted_download_time",
    "validate_splice",
]

__getattr__, __dir__ = lazy_exports(__name__, {
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
