"""Figure 3 — total stall duration for different bandwidths.

Same sweep as Figure 2, reporting summed stall seconds instead of
stall counts.  Expected shape (paper Section VI-A): GOP-based splicing
gives long stalls; smaller duration-based segments give shorter total
stall time even when their stall *count* is higher.
"""

from __future__ import annotations

from .config import PAPER_BANDWIDTHS_KB
from .fig2 import technique_rows
from .runner import paper_figure

cells, run = paper_figure(
    "fig3",
    "Total stall duration for different bandwidths",
    "stall_duration",
    technique_rows,
    PAPER_BANDWIDTHS_KB,
)
