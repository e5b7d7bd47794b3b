"""The paper's fig2–fig5 grid as the benchmark runs it.

One *pass* regenerates Figures 2–5 exactly as ``repro reproduce`` does
(``figN.run`` with a shared :class:`~repro.parallel.SweepExecutor`):
60 cells — GOP and 2/4/8 s splicing, 128–1024 kB/s, pool sizes 2/4/8
and adaptive — with 19 leechers, 5 % loss and the other
``ExperimentConfig`` defaults, one swarm seed per cell.

The swarm seed is the benchmark's input: ``--seed n`` picks
``SEED_POOL[n % len(SEED_POOL)]``, and ``reference.json`` holds the
result digests recorded for every pool seed on both fidelity tiers.

Importing this module imports :mod:`repro`; callers put the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments import fig2, fig3, fig4, fig5
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import FigureResult

#: Figure modules in paper (and ``reproduce_all``) order.
FIGURES = (fig2, fig3, fig4, fig5)

#: Swarm seeds with recorded reference digests; the paper's first seed
#: (7) continued in steps of 10.
SEED_POOL: tuple[int, ...] = tuple(7 + 10 * i for i in range(16))

#: The :class:`~repro.experiments.runner.CellResult` fields a digest
#: covers (every field except the analysis, which these sweeps never
#: request and which must stay ``None``).
CELL_FIELDS = (
    "bandwidth_kb",
    "stall_count",
    "stall_duration",
    "startup_time",
    "seeder_bytes",
    "peer_bytes",
    "finished_fraction",
)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def swarm_seed(seed: int) -> int:
    """The swarm seed a benchmark ``--seed`` selects."""
    return SEED_POOL[seed % len(SEED_POOL)]


def config(fidelity: str, seed: int) -> ExperimentConfig:
    """The grid's shared experiment parameters for one swarm seed."""
    return ExperimentConfig(seeds=(seed,), fidelity=fidelity)


def cell_count(cfg: ExperimentConfig) -> list[int]:
    """Cells per figure, in :data:`FIGURES` order."""
    return [len(figure.cells(cfg)) for figure in FIGURES]


def cell_digests(figure: FigureResult) -> list[str]:
    """One digest per cell of ``figure``, in series order.

    A digest covers the figure id, the series label, the cell's
    position and the exact ``repr`` of every :data:`CELL_FIELDS`
    value, so any change to any plotted or derived number shows.
    """
    digests = []
    for label, cells in figure.series.items():
        for position, cell in enumerate(cells):
            if cell.analysis is not None:
                raise ValueError(
                    f"{figure.figure}/{label}[{position}]: unexpected "
                    "analysis on a non-analyzing sweep"
                )
            payload = [figure.figure, label, position] + [
                repr(float(getattr(cell, name))) for name in CELL_FIELDS
            ]
            digests.append(
                hashlib.sha256(
                    json.dumps(payload).encode("utf-8")
                ).hexdigest()[:16]
            )
    return digests


def load_reference() -> dict:
    """``{fidelity: {str(swarm seed): [digests per figure]}}``."""
    with REFERENCE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)["digests"]
