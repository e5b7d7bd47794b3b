"""Sweep runner: one cell = one (technique, bandwidth, policy) point,
averaged over the configured seeds as the paper averages three runs.

Every figure and swarm ablation is an ordered ``{series label:
[CellSpec]}`` handed to :func:`run_figure`, which runs the cells as one
sweep and regroups the results; the paper's Figs. 2–5 are the
series-by-bandwidth special case bound by :func:`paper_figure`.

The per-seed reduction is split into two pieces — :func:`seed_stats`
(one swarm run -> its scalar stats, where the run executed) and
:func:`merge_cell` (stats in seed order -> a :class:`CellResult`, in
the parent) — so the sweep executor (:mod:`repro.parallel`) computes
bit-identical cells at any worker count.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .. import obs
from ..core.policy import DownloadPolicy
from ..errors import ExperimentError
from ..p2p.swarm import SwarmResult
from ..video.bitstream import Bitstream
from .config import ExperimentConfig

if TYPE_CHECKING:
    from ..obs.analyze import CellAnalysis
    from ..parallel import CellSpec, SplicerSpec, SweepExecutor


@dataclass(frozen=True, slots=True)
class CellResult:
    """Seed-averaged metrics for one experimental cell.

    Attributes:
        bandwidth_kb: peer bandwidth of the cell, kB/s.
        stall_count: mean stalls per finishing peer, averaged over
            seeds.
        stall_duration: mean total stall seconds per finishing peer.
        startup_time: mean startup seconds per starting peer.
        seeder_bytes: mean bytes served by the seeder per run.
        peer_bytes: mean bytes served peer-to-peer per run.
        finished_fraction: fraction of peers that finished playback.
        analysis: stall diagnosis aggregated over the cell's seeds
            (only populated by analyzing sweeps; ``None`` otherwise).
    """

    bandwidth_kb: float
    stall_count: float
    stall_duration: float
    startup_time: float
    seeder_bytes: float
    peer_bytes: float
    finished_fraction: float
    analysis: CellAnalysis | None = None


@dataclass(frozen=True, slots=True)
class FigureResult:
    """One reproduced figure: labeled series over the bandwidth axis.

    Attributes:
        figure: figure identifier (e.g. ``"fig2"``).
        title: human-readable title.
        metric: which CellResult field the figure plots.
        series: label -> cells in bandwidth order.
    """

    figure: str
    title: str
    metric: str
    series: dict[str, list[CellResult]]

    def value(self, cell: CellResult) -> float:
        """Extract this figure's metric from a cell."""
        return float(getattr(cell, self.metric))


@dataclass(frozen=True, slots=True)
class SeedStats:
    """Scalar outcome of one swarm run (one seed of one cell).

    Picklable on purpose: worker processes ship these back to the
    parent instead of whole :class:`~repro.p2p.swarm.SwarmResult`
    objects.

    Attributes:
        stall_count: mean stalls per finishing peer.
        stall_duration: mean total stall seconds per finishing peer.
        startup_time: mean startup seconds per starting peer.
        seeder_bytes: bytes served by the seeder.
        peer_bytes: bytes served peer-to-peer.
        finished_fraction: fraction of peers that finished playback.
        events_fired: simulator callbacks the run executed.
        end_time: simulated seconds the run covered.
    """

    stall_count: float
    stall_duration: float
    startup_time: float
    seeder_bytes: float
    peer_bytes: float
    finished_fraction: float
    events_fired: int = 0
    end_time: float = 0.0


def seed_stats(
    result: SwarmResult, events_fired: int = 0, end_time: float = 0.0
) -> SeedStats:
    """Reduce one :class:`SwarmResult` to its cell-level scalars."""
    return SeedStats(
        stall_count=result.mean_stall_count(),
        stall_duration=result.mean_stall_duration(),
        startup_time=result.mean_startup_time(),
        seeder_bytes=result.seeder_bytes_uploaded,
        peer_bytes=result.peer_bytes_uploaded,
        finished_fraction=(
            len(result.finished_metrics()) / max(1, len(result.metrics))
        ),
        events_fired=events_fired,
        end_time=end_time,
    )


def merge_cell(
    bandwidth_kb: float,
    stats: Sequence[SeedStats],
    analyses: Sequence[CellAnalysis] | None = None,
) -> CellResult:
    """Average per-seed stats (in seed order) into one cell.

    The executor merges outcomes in (cell, seed) order whatever order
    the runs finished in, so a cell's floats are identical regardless
    of worker count.

    Args:
        analyses: per-seed one-run diagnosis rollups (in seed order)
            from an analyzing sweep; merged onto the cell when given.
    """
    if not stats:
        raise ExperimentError("cannot merge a cell with no seed runs")
    return CellResult(
        bandwidth_kb=bandwidth_kb,
        stall_count=statistics.fmean(s.stall_count for s in stats),
        stall_duration=statistics.fmean(s.stall_duration for s in stats),
        startup_time=statistics.fmean(s.startup_time for s in stats),
        seeder_bytes=statistics.fmean(s.seeder_bytes for s in stats),
        peer_bytes=statistics.fmean(s.peer_bytes for s in stats),
        finished_fraction=statistics.fmean(
            s.finished_fraction for s in stats
        ),
        analysis=obs.merge_analyses(analyses) if analyses else None,
    )


def run_figure(
    figure: str,
    title: str,
    metric: str,
    series: dict[str, list[CellSpec]],
    executor: SweepExecutor | None = None,
    analyze: bool = False,
) -> FigureResult:
    """Run a figure's cells as one sweep and regroup them by series.

    Args:
        figure: figure identifier (e.g. ``"fig2"``, ``"A4"``).
        title: human-readable title.
        metric: which :class:`CellResult` field the figure plots.
        series: label -> cells, in series order; the concatenated
            cells are the sweep, so their order is the run order.
        executor: sweep executor; ``None`` runs serially in-process.
        analyze: trace + diagnose every run and attach a merged
            :class:`~repro.obs.analyze.CellAnalysis` to each cell.
    """
    if executor is None:
        from ..parallel import SweepExecutor

        executor = SweepExecutor(jobs=1)
    results = iter(
        executor.run_cells(
            [cell for cells in series.values() for cell in cells],
            analyze=analyze,
        )
    )
    return FigureResult(
        figure=figure,
        title=title,
        metric=metric,
        series={
            label: [next(results) for _ in cells]
            for label, cells in series.items()
        },
    )


def grid_series(
    figure: str,
    rows: dict[str, tuple[SplicerSpec, DownloadPolicy | None]],
    config: ExperimentConfig,
    video: Bitstream | None,
    bandwidths_kb: Sequence[int],
) -> dict[str, list[CellSpec]]:
    """One cell per (row, bandwidth), series-major, bandwidth-minor.

    ``rows`` maps each series label to its splicer and download policy
    (``None`` for the config default).  Cells are labelled ``"<figure>/<series> @ <bw> kB/s"``; the label
    is part of every run's store identity, so it must not drift.
    """
    from ..parallel import cell_for

    return {
        label: [
            cell_for(
                splicer,
                bw,
                config,
                policy=policy,
                video=video,
                label=f"{figure}/{label} @ {bw} kB/s",
            )
            for bw in bandwidths_kb
        ]
        for label, (splicer, policy) in rows.items()
    }


def paper_figure(
    figure: str,
    title: str,
    metric: str,
    rows: Callable[
        [], dict[str, tuple[SplicerSpec, DownloadPolicy | None]]
    ],
    bandwidths_kb: tuple[int, ...],
) -> tuple[Callable[..., list[CellSpec]], Callable[..., FigureResult]]:
    """Bind a series-by-bandwidth figure's ``cells`` and ``run``.

    ``rows`` builds the figure's :func:`grid_series` rows; ``cells`` is
    what the sweep planner (``repro sweep``) expands, so a sharded
    sweep covers exactly the cells ``run`` computes.
    """

    def cells(
        config: ExperimentConfig | None = None,
        video: Bitstream | None = None,
        bandwidths_kb: tuple[int, ...] = bandwidths_kb,
    ) -> list[CellSpec]:
        """The figure's sweep cells (series-major, bandwidth-minor)."""
        series = grid_series(
            figure, rows(), config or ExperimentConfig(), video,
            bandwidths_kb,
        )
        return [cell for group in series.values() for cell in group]

    def run(
        config: ExperimentConfig | None = None,
        video: Bitstream | None = None,
        bandwidths_kb: tuple[int, ...] = bandwidths_kb,
        executor: SweepExecutor | None = None,
        analyze: bool = False,
    ) -> FigureResult:
        """Reproduce the figure (see :func:`run_figure`)."""
        series = grid_series(
            figure, rows(), config or ExperimentConfig(), video,
            bandwidths_kb,
        )
        return run_figure(
            figure, title, metric, series, executor, analyze
        )

    return cells, run
