"""Experiment harness: regenerate every figure of the paper.

One module per figure plus ablations:

* :mod:`repro.experiments.fig2` — total stalls vs bandwidth per
  splicing technique;
* :mod:`repro.experiments.fig3` — total stall duration vs bandwidth;
* :mod:`repro.experiments.fig4` — startup time vs bandwidth;
* :mod:`repro.experiments.fig5` — stalls vs download-pool policy;
* :mod:`repro.experiments.ablations` — segment-size sweep, churn,
  splicing overhead, variable bandwidth, adaptive splicing.

Each figure module exposes ``cells(config)`` and ``run(config) ->
FigureResult`` (bound by :func:`repro.experiments.runner.paper_figure`),
``repro.experiments.reproduce.FIGURES`` maps figure ids to them, and a
result prints with :func:`repro.experiments.report.format_figure`.
"""

from ..lazy import lazy_exports

__all__ = [
    "CellResult",
    "ExperimentConfig",
    "FIG4_BANDWIDTHS_KB",
    "FigureResult",
    "PAPER_BANDWIDTHS_KB",
    "format_figure",
    "format_figure_analysis",
    "make_paper_video",
    "make_swarm_config",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "FIG4_BANDWIDTHS_KB": "config",
    "PAPER_BANDWIDTHS_KB": "config",
    "ExperimentConfig": "config",
    "make_paper_video": "config",
    "make_swarm_config": "config",
    "CellResult": "runner",
    "FigureResult": "runner",
    "format_figure": "report",
    "format_figure_analysis": "report",
})
