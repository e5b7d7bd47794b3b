"""Figure 5 — total number of stalls for different pool sizes.

Series: the paper's adaptive pooling (Eq. 1) against fixed pools of 2,
4, and 8 segments; 4-second duration splicing; x-axis bandwidth
128–768 kB/s.

Expected shape (paper Section VI-B): adaptive pooling stalls least;
"when the bandwidth is small, a large pool size increases the network
overload in the peer's network which increases the stalls", while at
high bandwidth large pools are harmless.
"""

from __future__ import annotations

from ..core.policy import AdaptivePoolPolicy, DownloadPolicy, FixedPoolPolicy
from ..parallel import SplicerSpec
from .config import PAPER_BANDWIDTHS_KB, PAPER_POOL_SIZES
from .runner import paper_figure

#: Segment duration used in the pooling experiment, seconds.
FIG5_SEGMENT_DURATION = 4.0

_LABELS = {
    "adaptive": "Adaptive pooling",
    "fixed-2": "Pool size: 2",
    "fixed-4": "Pool size: 4",
    "fixed-8": "Pool size: 8",
}


def _rows() -> dict[str, tuple[SplicerSpec, DownloadPolicy]]:
    # Adaptive pooling is passed explicitly (not left to the config
    # default): the policy is part of every cell's store key.  The
    # simulation is still fig2's 4 s cell, so a shared executor runs
    # it once.
    policies = [AdaptivePoolPolicy()] + [
        FixedPoolPolicy(size) for size in PAPER_POOL_SIZES
    ]
    splicer = SplicerSpec("duration", FIG5_SEGMENT_DURATION)
    return {_LABELS[policy.name]: (splicer, policy) for policy in policies}


cells, run = paper_figure(
    "fig5",
    "Total number of stalls for different pool sizes",
    "stall_count",
    _rows,
    PAPER_BANDWIDTHS_KB,
)
