"""Figure 2 — total number of stalls for different bandwidths.

Series: GOP-based splicing and 2/4/8-second duration splicing; x-axis
bandwidth 128–768 kB/s; adaptive pooling throughout.

Expected shape (paper Section VI-A): GOP-based splicing stalls most;
2-second segments stall more than 4-second segments at low bandwidth
(many small TCP connections) and converge toward them as bandwidth
grows; 8-second segments stall more than 4-second at the low end; all
series decrease with bandwidth.
"""

from __future__ import annotations

from ..parallel import SplicerSpec
from .config import PAPER_BANDWIDTHS_KB, PAPER_DURATIONS
from .runner import paper_figure


def technique_rows() -> dict[str, tuple[SplicerSpec, None]]:
    """One series per splicing technique of Figs. 2 and 3."""
    specs = [SplicerSpec("gop")] + [
        SplicerSpec("duration", duration)
        for duration in PAPER_DURATIONS
    ]
    return {spec.technique: (spec, None) for spec in specs}


cells, run = paper_figure(
    "fig2",
    "Total number of stalls for different bandwidths",
    "stall_count",
    technique_rows,
    PAPER_BANDWIDTHS_KB,
)
