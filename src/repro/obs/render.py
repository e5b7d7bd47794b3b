"""ASCII per-peer timelines: one row per peer, one column per time
bucket.

:func:`render_gantt` draws a reconstructed trace (live or loaded from
disk) and marks every stall span with the *cause letter* the
attribution pass assigned — so a glance shows not just where sessions
froze but why.  :func:`render_timeline` is its trace-free special case:
it draws a finished swarm's live metrics, every stall as ``#``.  Both
share one row loop and one symbol rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import ExperimentError
from .causes import StallAttribution
from .timeline import PeerTimeline, TimelineSet

if TYPE_CHECKING:
    from ..p2p.swarm import SwarmResult

#: cause -> single-letter Gantt marker.
CAUSE_SYMBOLS: dict[str, str] = {
    "churn-loss": "X",
    "oversized-segment": "O",
    "pool-undersubscription": "P",
    "seeder-bottleneck": "S",
    "connection-overhead": "C",
    "startup": "*",
}

_LEGEND = (
    "legend: `.` waiting  `=` playing  `$` finished  stall causes: "
    "`X` churn-loss  `O` oversized-segment  `P` pool-undersubscription  "
    "`S` seeder-bottleneck  `C` connection-overhead  `*` startup  "
    "`#` unattributed"
)


def _symbol_at(
    line: PeerTimeline,
    stall_symbols: list[tuple[float, float, str]],
    t: float,
) -> str:
    if line.joined is not None and t < line.joined:
        return " "
    if line.departed_at is not None and t >= line.departed_at:
        return " "
    if line.finished_at is not None and t >= line.finished_at:
        return "$"
    for start, end, symbol in stall_symbols:
        if start <= t < end:
            return symbol
    if (
        line.playback_started_at is None
        or t < line.playback_started_at
    ):
        return "."
    return "="


def _rows(
    lanes: Iterable[
        tuple[str, PeerTimeline, list[tuple[float, float, str]]]
    ],
    width: int,
    scale: float,
) -> list[str]:
    """One ``name |symbols|`` row per (name, timeline, stalls) lane."""
    return [
        f"{name:>8s} |"
        + "".join(
            _symbol_at(line, stall_symbols, column * scale)
            for column in range(width)
        )
        + "|"
        for name, line, stall_symbols in lanes
    ]


def render_timeline(
    result: SwarmResult,
    width: int = 80,
    end_time: float | None = None,
) -> str:
    """Render a swarm result as one timeline row per peer.

    Legend: ``.`` waiting for startup, ``=`` playing, ``#`` stalled,
    ``$`` finished, `` `` not yet joined.

    Args:
        result: the finished swarm run.
        width: characters per row.
        end_time: timeline horizon; defaults to the last playback end
            (or stall) observed.

    Returns:
        A multi-line string, peers in name order.

    Raises:
        ExperimentError: ``width < 10`` or an empty horizon.
    """
    if width < 10:
        raise ExperimentError(f"width must be >= 10, got {width}")
    horizon = end_time if end_time is not None else _horizon(result)
    if horizon <= 0:
        raise ExperimentError("nothing to render: horizon is 0")
    lanes = []
    for name in sorted(result.metrics):
        metrics = result.metrics[name]
        line = PeerTimeline(
            peer=name,
            joined=metrics.session_start,
            playback_started_at=metrics.playback_start,
            finished_at=metrics.playback_end,
        )
        stalls = [(stall.start, stall.end, "#") for stall in metrics.stalls]
        lanes.append((name, line, stalls))
    header = (
        f"timeline  0s .. {horizon:.0f}s   "
        "(. startup, = playing, # stalled, $ finished)"
    )
    return "\n".join([header, *_rows(lanes, width, horizon / width)])


def _horizon(result: SwarmResult) -> float:
    latest = 0.0
    for metrics in result.metrics.values():
        if metrics.playback_end is not None:
            latest = max(latest, metrics.playback_end)
        for stall in metrics.stalls:
            latest = max(latest, stall.end)
    return latest


def render_gantt(
    timelines: TimelineSet,
    attributions: Sequence[StallAttribution] = (),
    width: int = 72,
) -> str:
    """Render per-peer playback timelines with cause-marked stalls.

    Args:
        timelines: the reconstructed trace.
        attributions: verdicts from
            :func:`~repro.obs.causes.attribute_stalls`; stalls without
            a matching verdict render as ``#``.
        width: columns in the time axis.
    """
    if not timelines.timelines:
        return "(no peers in trace)"
    horizon = max(timelines.last_time, 1e-9)
    scale = horizon / width

    verdicts: dict[tuple[str, float], str] = {
        (a.peer, a.start): CAUSE_SYMBOLS.get(a.cause, "#")
        for a in attributions
    }

    lanes = []
    for name, line in timelines.timelines.items():
        stall_symbols: list[tuple[float, float, str]] = []
        for span in line.stalls:
            if span.start is None:
                continue
            end = span.end if span.end is not None else horizon
            symbol = verdicts.get((name, span.start), "#")
            stall_symbols.append((span.start, end, symbol))
        lanes.append((name, line, stall_symbols))
    rows = _rows(lanes, width, scale)

    axis = f"{'':>8s} 0{'':{width - 1}s}{horizon:.0f}s"
    return "\n".join([*rows, axis, _LEGEND])
