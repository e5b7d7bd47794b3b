"""Run the whole evaluation and emit one consolidated report.

``reproduce_all`` regenerates every paper figure plus the ablations
and renders them as a single markdown-ish document — the programmatic
equivalent of EXPERIMENTS.md's measured columns.

Every figure and swarm-running ablation goes through one shared
:class:`~repro.parallel.SweepExecutor`, so ``jobs>1`` fans the grid's
independent runs out over worker processes while producing numerically
identical tables (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..parallel import SweepExecutor, VideoSpec, cached_video
from ..video.bitstream import Bitstream
from . import fig2, fig3, fig4, fig5
from .ablations import (
    run_churn,
    run_overhead,
    run_preroll,
    run_segment_size_sweep,
    run_swarm_scaling,
    run_variable_bandwidth,
)
from .config import ExperimentConfig
from .report import format_figure, format_overhead
from .runner import FigureResult

#: The paper's figures by id, in paper order: the one table behind
#: ``repro figN``, ``reproduce [--figure N]`` and ``sweep plan
#: --figure N``.  Each module exposes ``cells(...)`` and ``run(...)``.
FIGURES = {"2": fig2, "3": fig3, "4": fig4, "5": fig5}


@dataclass(frozen=True, slots=True)
class ReproductionReport:
    """Everything one reproduction run produced.

    Attributes:
        figures: the regenerated figures, in paper order.
        overhead_table: the A3 byte-overhead rows, pre-rendered.
        elapsed: wall-clock seconds the run took.
        events_fired: simulator callbacks executed across every run.
        jobs: worker processes the sweep used.
        runs_cached: runs not simulated in this reproduction: served
            from the result store (``--cache``/``--resume``) or
            repeating a simulation an earlier figure already ran.
    """

    figures: tuple[FigureResult, ...]
    overhead_table: str
    elapsed: float
    events_fired: int = 0
    jobs: int = 1
    runs_cached: int = 0

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulated events per wall-clock second."""
        if self.elapsed <= 0:
            return 0.0
        return self.events_fired / self.elapsed

    def render(self) -> str:
        """Render the whole report as text."""
        header = f"(regenerated in {self.elapsed:.0f}s wall-clock"
        if self.events_fired:
            header += (
                f" with {self.jobs} worker"
                f"{'' if self.jobs == 1 else 's'} — "
                f"{self.events_fired} simulated events, "
                f"{self.events_per_sec:.0f} events/s"
            )
        if self.runs_cached:
            header += f"; {self.runs_cached} runs reused"
        header += ")"
        parts = [
            "# Reproduction report",
            "",
            header,
            "",
            "## Splicing overhead (A3)",
            "",
            self.overhead_table,
        ]
        for figure in self.figures:
            parts.append("")
            parts.append(f"## {figure.figure}")
            parts.append("")
            parts.append(format_figure(figure))
        return "\n".join(parts) + "\n"


def reproduce_all(
    config: ExperimentConfig | None = None,
    video: Bitstream | None = None,
    include_ablations: bool = True,
    jobs: int | None = 1,
    executor: SweepExecutor | None = None,
) -> ReproductionReport:
    """Regenerate every figure (and optionally every ablation).

    Args:
        config: shared experiment parameters (the paper's defaults).
        video: pre-encoded video; encoded fresh when omitted.
        include_ablations: also run A1/A2/A4/A7/A8 (slower).
        jobs: sweep worker processes; ``1`` (the default) runs fully
            in-process, ``None`` auto-detects the core count.
        executor: pre-built executor (overrides ``jobs``); its
            cumulative stats feed the report header.

    Returns:
        The consolidated :class:`ReproductionReport`.
    """
    cfg = config or ExperimentConfig()
    sweep = executor if executor is not None else SweepExecutor(jobs=jobs)
    # The overhead table needs the bitstream in-process; going through
    # the cache shares the encode with this process's sweep runs.
    stream = (
        video
        if video is not None
        else cached_video(VideoSpec(seed=cfg.video_seed))
    )
    # repro: lint-ok[D1] wall elapsed for the report header
    started = time.monotonic()
    events_before = sweep.stats.events_fired
    cached_before = sweep.stats.runs_cached

    figures: list[FigureResult] = [
        module.run(cfg, video=video, executor=sweep)
        for module in FIGURES.values()
    ]
    if include_ablations:
        figures.extend(
            [
                run_segment_size_sweep(cfg, video=video, executor=sweep),
                run_churn(cfg, video=video, executor=sweep),
                run_variable_bandwidth(cfg, video=video, executor=sweep),
                run_preroll(cfg, video=video, executor=sweep),
                run_swarm_scaling(cfg, video=video, executor=sweep),
            ]
        )

    return ReproductionReport(
        figures=tuple(figures),
        overhead_table=format_overhead(run_overhead(video=stream)),
        # repro: lint-ok[D1] wall elapsed for the report header
        elapsed=time.monotonic() - started,
        events_fired=sweep.stats.events_fired - events_before,
        jobs=sweep.jobs,
        runs_cached=sweep.stats.runs_cached - cached_before,
    )
