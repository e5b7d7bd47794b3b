"""ASCII rendering of reproduced figures and the A3 overhead table."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..obs.causes import STALL_CAUSES
from .runner import FigureResult

if TYPE_CHECKING:
    from .ablations import OverheadRow

_UNITS = {
    "stall_count": "stalls",
    "stall_duration": "seconds",
    "startup_time": "seconds",
}


def format_figure(result: FigureResult) -> str:
    """Render a figure as a bandwidth-by-series table.

    Mirrors the paper's presentation: one row per series (splicing
    technique or pool policy), one column per bandwidth.  Startup
    times get two decimals, every other metric one.
    """
    precision = 2 if result.metric == "startup_time" else 1
    bandwidths: list[float] = []
    for cells in result.series.values():
        for cell in cells:
            if cell.bandwidth_kb not in bandwidths:
                bandwidths.append(cell.bandwidth_kb)
    bandwidths.sort()

    unit = _UNITS.get(result.metric, result.metric)
    header = [f"{result.figure}  {result.title}  [{unit}]"]
    label_width = max(
        (len(label) for label in result.series), default=8
    )
    label_width = max(label_width, len("series"))
    columns = [f"{int(bw)} kB/s" for bw in bandwidths]
    widths = [max(len(c), 8) for c in columns]
    rule = "-" * (label_width + 3 + sum(w + 3 for w in widths))
    header.append(rule)
    header.append(
        "series".ljust(label_width)
        + " | "
        + " | ".join(c.rjust(w) for c, w in zip(columns, widths))
    )
    header.append(rule)
    for label, cells in result.series.items():
        by_bw = {cell.bandwidth_kb: cell for cell in cells}
        row = []
        for bw, width in zip(bandwidths, widths):
            cell = by_bw.get(bw)
            if cell is None:
                row.append("-".rjust(width))
            else:
                row.append(
                    f"{result.value(cell):.{precision}f}".rjust(width)
                )
        header.append(
            label.ljust(label_width) + " | " + " | ".join(row)
        )
    header.append(rule)
    return "\n".join(header)


def format_figure_analysis(result: FigureResult) -> str:
    """The stall-cause breakdown table for an analyzed figure.

    One row per (series, bandwidth) cell that carries an analysis,
    one column per cause in taxonomy order, plus the cell's health
    aggregates.  Returns a short notice when the figure was run
    without ``analyze=True``.
    """
    rows: list[tuple[str, object]] = []
    for label, cells in result.series.items():
        for cell in cells:
            if cell.analysis is not None:
                rows.append(
                    (f"{label} @ {int(cell.bandwidth_kb)} kB/s", cell)
                )
    if not rows:
        return (
            f"{result.figure}: no stall diagnosis attached "
            "(run with analyze=True / --analyze)"
        )

    label_width = max(len("cell"), max(len(r[0]) for r in rows))
    short = {
        "churn-loss": "churn",
        "oversized-segment": "oversized",
        "pool-undersubscription": "pool",
        "seeder-bottleneck": "seeder",
        "connection-overhead": "conn",
        "startup": "startup",
    }
    columns = [short[c] for c in STALL_CAUSES] + ["total", "eff", "warn"]
    widths = [max(len(c), 6) for c in columns]
    rule = "-" * (label_width + 3 + sum(w + 3 for w in widths))
    lines = [
        f"{result.figure}  stall causes per cell "
        "(totals across the cell's seeds)",
        rule,
        "cell".ljust(label_width)
        + " | "
        + " | ".join(c.rjust(w) for c, w in zip(columns, widths)),
        rule,
    ]
    for label, cell in rows:
        analysis = cell.analysis
        values = [
            str(analysis.causes.get(cause, 0)) for cause in STALL_CAUSES
        ]
        values.append(str(analysis.stall_count))
        values.append(
            f"{analysis.mean_transfer_efficiency:.2f}"
            if analysis.mean_transfer_efficiency is not None
            else "-"
        )
        warn = analysis.violation_count + analysis.truncated_runs
        values.append(str(warn) if warn else "-")
        lines.append(
            label.ljust(label_width)
            + " | "
            + " | ".join(v.rjust(w) for v, w in zip(values, widths))
        )
    lines.append(rule)
    lines.append(
        "causes: churn=churn-loss  oversized=oversized-segment  "
        "pool=pool-undersubscription  seeder=seeder-bottleneck  "
        "conn=connection-overhead  | eff=transfer efficiency  "
        "warn=violations+truncated runs"
    )
    return "\n".join(lines)


def format_overhead(rows: Sequence[OverheadRow]) -> str:
    """Render the A3 byte-overhead rows as a technique table."""
    lines = [
        f"{'technique':12s} {'segments':>8s} {'total MB':>9s} "
        f"{'overhead':>9s}"
    ]
    for row in rows:
        lines.append(
            f"{row.technique:12s} {row.segments:8d} "
            f"{row.total_bytes / 1e6:9.2f} "
            f"{row.overhead_percent:8.1f}%"
        )
    return "\n".join(lines)
