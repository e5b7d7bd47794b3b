"""Figure 4 — startup time for different bandwidths.

Series: 2/4/8-second duration splicing (the paper excludes GOP-based
splicing here because its startup depends on the particular video);
x-axis bandwidth 128–1024 kB/s.

Expected shape (paper Section VI-A): larger segments start slower —
"the large segments can result in a very high startup time in a low
bandwidth network" — and every series falls as bandwidth grows.
"""

from __future__ import annotations

from ..parallel import SplicerSpec
from .config import FIG4_BANDWIDTHS_KB, PAPER_DURATIONS
from .runner import paper_figure


def _rows() -> dict[str, tuple[SplicerSpec, None]]:
    return {
        f"{int(duration)} sec segment": (
            SplicerSpec("duration", duration),
            None,
        )
        for duration in PAPER_DURATIONS
    }


cells, run = paper_figure(
    "fig4",
    "Startup time for different bandwidths",
    "startup_time",
    _rows,
    FIG4_BANDWIDTHS_KB,
)
