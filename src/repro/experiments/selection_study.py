"""A6 — piece-selection study (sequential vs windowed rarest-first).

The paper's client fetches strictly sequentially; BitTorrent lore says
rarest-first keeps a swarm healthy.  This study measures both — plus
the streaming hybrid — with and without churn, where piece diversity
should matter most.
"""

from __future__ import annotations

from dataclasses import replace

from ..p2p.churn import ChurnConfig
from ..p2p.selection import (
    PieceSelector,
    SequentialSelector,
    WindowedRarestSelector,
)
from ..parallel import SplicerSpec, SweepExecutor, cell_for
from ..video.bitstream import Bitstream
from .config import ExperimentConfig
from .runner import FigureResult, run_figure


def selectors() -> list[PieceSelector]:
    """The strategies under study."""
    return [
        SequentialSelector(),
        WindowedRarestSelector(urgent_window=2, lookahead=8),
    ]


def run(
    config: ExperimentConfig | None = None,
    video: Bitstream | None = None,
    bandwidth_kb: int = 256,
    churn_fraction: float = 0.5,
    executor: SweepExecutor | None = None,
) -> FigureResult:
    """Compare selectors with and without churn at one bandwidth.

    Args:
        config: shared experiment parameters.
        video: pre-encoded video.
        bandwidth_kb: peer bandwidth, kB/s.
        churn_fraction: fraction of peers that depart in the churny
            variant.
        executor: sweep executor; ``None`` runs serially in-process.

    Returns:
        One series per (selector, churn) combination; the single cell
        of each series carries the seed-averaged metrics.
    """
    cfg = config or ExperimentConfig()
    churny = replace(
        cfg, churn=ChurnConfig(mean_lifetime=45.0, fraction=churn_fraction)
    )
    series = {}
    for selector in selectors():
        for suffix, scenario in (
            ("", replace(cfg, churn=None)),
            (" +churn", churny),
        ):
            label = selector.name + suffix
            series[label] = [
                cell_for(
                    SplicerSpec("duration", 4.0),
                    bandwidth_kb,
                    scenario,
                    video=video,
                    selector=selector,
                    label=f"A6/{label}",
                )
            ]
    return run_figure(
        "A6",
        f"Piece selection at {bandwidth_kb} kB/s "
        f"(churn = {int(churn_fraction * 100)}%)",
        "stall_count",
        series,
        executor,
    )
