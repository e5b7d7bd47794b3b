"""Trace analysis: timelines + attribution + swarm health rollups.

The public face of the diagnosis subsystem.  Feed it a trace — a live
:class:`~repro.obs.context.Observability`, an event list, or a JSONL
file — and get back a :class:`RunAnalysis`: per-peer timelines reduced
to QoE summaries, every completed stall attributed to one cause from
:data:`~repro.obs.causes.STALL_CAUSES` with its evidence window, and
swarm-health aggregates (cause histogram, transfer efficiency,
pool-occupancy-vs-Eq.1 deficit).  Its renderers are what ``repro
analyze`` prints and what :func:`render_run_report` builds on.

Everything here is pure and deterministic: no wall clock, no
randomness, no mutation of inputs.  The same trace yields the same
analysis whether it was recorded in-process or in a worker — which is
what lets sweep results carry diagnoses that are byte-identical
across ``jobs=1`` and ``jobs=4``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import TraceError
from .causes import (
    STALL_CAUSES,
    StallAttribution,
    attribute_stalls,
    cause_histogram,
)
from .context import Observability
from .events import TraceEvent
from .timeline import InvariantViolation, PeerTimeline, build_timelines

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class PeerTraceSummary:
    """One peer's session, reconstructed purely from trace events.

    Matches :class:`~repro.player.metrics.StreamingMetrics` field for
    field when the trace is complete — the cross-check the integration
    tests enforce.

    Attributes:
        peer: the peer's name.
        joined: sim time the peer joined (None if never seen joining).
        startup_time: join-to-first-frame seconds (None = never
            started).
        stall_count: completed stalls (paired start/end events).
        total_stall_duration: summed stall seconds.
        finished: whether playback reached the end.
        departed: whether the peer churned out.
    """

    peer: str
    joined: float | None
    startup_time: float | None
    stall_count: int
    total_stall_duration: float
    finished: bool
    departed: bool


@dataclass(frozen=True, slots=True)
class RunAnalysis:
    """Everything the analyzer concluded about one run's trace.

    Attributes:
        attributions: one verdict per completed stall, ordered by
            (peer, start time).
        causes: cause -> count, every taxonomy entry present.
        peers: per-peer QoE summaries reconstructed from the timeline
            pass (tolerant of truncated traces).
        violations: event-ordering invariants the trace broke.
        truncated: whether the trace lost its head to a capacity-bounded
            ring buffer.
        notes: human-readable caveats about the reconstruction.
        stall_count: completed stalls across all peers — equals
            ``len(attributions)`` and, on a complete trace, the summed
            :class:`~repro.player.metrics.StreamingMetrics` counts.
        transfer_efficiency: payload bytes delivered / wire bytes moved
            by completed transfers (None when nothing completed).
            Below 1.0 means duplicate or abandoned traffic.
        pool_deficit: time-weighted mean of ``max(0, k - inflight)``
            across peers — how far below Eq. 1's target the pools
            actually ran (None when no pool decisions were traced).
        duration: sim seconds the trace covers.
        event_count: events consumed.
    """

    attributions: tuple[StallAttribution, ...]
    causes: dict[str, int]
    peers: dict[str, PeerTraceSummary]
    violations: tuple[InvariantViolation, ...]
    truncated: bool
    notes: tuple[str, ...]
    stall_count: int
    transfer_efficiency: float | None
    pool_deficit: float | None
    duration: float
    event_count: int

    def rollup(self) -> CellAnalysis:
        """This run as a one-run :class:`CellAnalysis`: all a sweep
        keeps of it (cells fold these with :func:`merge_analyses`)."""
        return CellAnalysis(
            causes=dict(self.causes),
            stall_count=self.stall_count,
            runs=1,
            mean_transfer_efficiency=self.transfer_efficiency,
            mean_pool_deficit=self.pool_deficit,
            violation_count=len(self.violations),
            truncated_runs=int(self.truncated),
        )


@dataclass(frozen=True, slots=True)
class CellAnalysis:
    """Stall diagnosis aggregated over one sweep cell's seeds, or one
    run's (:meth:`RunAnalysis.rollup`, ``runs == 1``).

    Attributes:
        causes: summed stall-cause histogram across the cell's runs.
        stall_count: total attributed stalls across runs.
        runs: how many runs contributed.
        mean_transfer_efficiency: mean over runs that had completed
            transfers (None when none did).
        mean_pool_deficit: mean over runs with pool decisions.
        violation_count: invariant violations across runs.
        truncated_runs: runs whose traces lost events to the ring
            buffer.
    """

    causes: dict[str, int]
    stall_count: int
    runs: int
    mean_transfer_efficiency: float | None
    mean_pool_deficit: float | None
    violation_count: int
    truncated_runs: int


def _peer_summary(line: PeerTimeline) -> PeerTraceSummary:
    complete = [s for s in line.stalls if s.complete]
    return PeerTraceSummary(
        peer=line.peer,
        joined=line.joined,
        startup_time=line.startup_time,
        stall_count=len(complete),
        total_stall_duration=sum(
            s.duration for s in complete if s.duration is not None
        ),
        finished=line.finished_at is not None,
        departed=line.departed_at is not None,
    )


def _transfer_efficiency(timelines) -> float | None:
    payload = 0.0
    for line in timelines.timelines.values():
        for fetch in line.fetches:
            if fetch.size is not None:
                payload += fetch.size
    wire = sum(
        t.size
        for t in timelines.transfers
        if not t.cancelled and t.ended_at is not None and t.size
    )
    if wire <= 0:
        return None
    return payload / wire


def _pool_deficit(timelines) -> float | None:
    """Time-weighted mean of ``max(0, k - inflight)`` across peers."""
    horizon = timelines.last_time
    per_peer: list[float] = []
    for line in timelines.timelines.values():
        decisions = line.pool_decisions
        if not decisions:
            continue
        session_end = min(
            t
            for t in (line.finished_at, line.departed_at, horizon)
            if t is not None
        )
        weighted = 0.0
        total = 0.0
        for i, decision in enumerate(decisions):
            start = decision.time
            end = (
                decisions[i + 1].time
                if i + 1 < len(decisions)
                else session_end
            )
            if end <= start + _EPS:
                continue
            deficit = max(0, decision.size - line.inflight_at(start))
            weighted += deficit * (end - start)
            total += end - start
        if total > 0:
            per_peer.append(weighted / total)
    if not per_peer:
        return None
    return sum(per_peer) / len(per_peer)


def analyze_events(
    events: Sequence[TraceEvent], truncated: bool = False
) -> RunAnalysis:
    """Analyze an in-memory trace.

    Args:
        events: the trace, oldest first.
        truncated: caller-supplied hint that events were lost before
            the trace was captured (e.g. the tracer's ``evicted``
            counter was non-zero).
    """
    timelines = build_timelines(events, truncated=truncated)
    attributions = tuple(attribute_stalls(timelines))
    return RunAnalysis(
        attributions=attributions,
        causes=cause_histogram(list(attributions)),
        peers={
            name: _peer_summary(line)
            for name, line in timelines.timelines.items()
        },
        violations=tuple(timelines.violations),
        truncated=timelines.truncated,
        notes=tuple(timelines.notes),
        stall_count=len(attributions),
        transfer_efficiency=_transfer_efficiency(timelines),
        pool_deficit=_pool_deficit(timelines),
        duration=max(0.0, timelines.last_time - timelines.first_time),
        event_count=timelines.event_count,
    )


def analyze_observability(obs: Observability) -> RunAnalysis:
    """Analyze a live run's retained events.

    The tracer's ``evicted`` counter (ring-buffer wraparound) feeds
    the truncation flag, so a wrapped buffer is reported even when the
    retained window happens to look well-formed.
    """
    evicted = getattr(obs.tracer, "evicted", 0)
    return analyze_events(obs.events(), truncated=evicted > 0)


def merge_analyses(rollups: Sequence[CellAnalysis]) -> CellAnalysis:
    """Fold one-run rollups (:meth:`RunAnalysis.rollup`) into a cell's.

    Raises:
        TraceError: on a rollup of more than one run, whose means this
            would average as if they were one run's values.
    """
    causes = {cause: 0 for cause in STALL_CAUSES}
    for rollup in rollups:
        if rollup.runs != 1:
            raise TraceError(f"not a one-run rollup: runs={rollup.runs}")
        for cause, count in rollup.causes.items():
            causes[cause] = causes.get(cause, 0) + count
    efficiencies = [
        r.mean_transfer_efficiency
        for r in rollups
        if r.mean_transfer_efficiency is not None
    ]
    deficits = [
        r.mean_pool_deficit for r in rollups if r.mean_pool_deficit is not None
    ]
    return CellAnalysis(
        causes=causes,
        stall_count=sum(r.stall_count for r in rollups),
        runs=len(rollups),
        mean_transfer_efficiency=(
            sum(efficiencies) / len(efficiencies) if efficiencies else None
        ),
        mean_pool_deficit=(
            sum(deficits) / len(deficits) if deficits else None
        ),
        violation_count=sum(r.violation_count for r in rollups),
        truncated_runs=sum(r.truncated_runs for r in rollups),
    )


# -- rendering ---------------------------------------------------------


def render_trace_summary(
    summaries: dict[str, PeerTraceSummary]
) -> str:
    """The per-peer session table."""
    lines = [
        f"{'peer':<10s} {'joined':>8s} {'startup':>8s} {'stalls':>7s} "
        f"{'stall s':>8s} {'outcome':>9s}"
    ]
    for peer in sorted(summaries):
        summary = summaries[peer]
        joined = (
            f"{summary.joined:8.1f}" if summary.joined is not None
            else f"{'-':>8s}"
        )
        startup = (
            f"{summary.startup_time:8.2f}"
            if summary.startup_time is not None
            else f"{'-':>8s}"
        )
        if summary.departed:
            outcome = "departed"
        elif summary.finished:
            outcome = "finished"
        elif summary.startup_time is not None:
            outcome = "cut off"
        else:
            outcome = "waiting"
        lines.append(
            f"{peer:<10s} {joined} {startup} {summary.stall_count:>7d} "
            f"{summary.total_stall_duration:>8.1f} {outcome:>9s}"
        )
    return "\n".join(lines)


def event_counts(
    events: Iterable[TraceEvent],
) -> dict[str, dict[str, int]]:
    """``category -> event name -> count`` over a trace."""
    counts: dict[str, dict[str, int]] = {}
    for event in events:
        bucket = counts.setdefault(event.category, {})
        bucket[event.name] = bucket.get(event.name, 0) + 1
    return counts


def render_event_counts(events: Sequence[TraceEvent]) -> str:
    """Event counts per category (with per-name detail) and per
    severity: the "Events" section of ``repro analyze`` and of
    :func:`render_run_report`."""
    lines = ["Events by category:"]
    for category, names in sorted(event_counts(events).items()):
        detail = ", ".join(
            f"{name} x{count}" for name, count in sorted(names.items())
        )
        lines.append(f"  {category} ({sum(names.values())}): {detail}")
    lines.append("Events by severity:")
    severities = Counter(event.severity for event in events)
    for severity, count in sorted(severities.items()):
        lines.append(f"  {severity}: {count}")
    return "\n".join(lines)


def render_cause_table(causes: dict[str, int]) -> str:
    """The stall-cause histogram as a two-column table."""
    total = sum(causes.values())
    lines = [f"{'cause':<22s} {'stalls':>7s} {'share':>7s}"]
    for cause in STALL_CAUSES:
        count = causes.get(cause, 0)
        share = f"{100.0 * count / total:6.1f}%" if total else f"{'-':>7s}"
        lines.append(f"{cause:<22s} {count:>7d} {share}")
    lines.append(f"{'total':<22s} {total:>7d}")
    return "\n".join(lines)


def render_attributions(
    attributions: Sequence[StallAttribution],
) -> str:
    """One line per attributed stall, with its evidence."""
    if not attributions:
        return "(no completed stalls)"
    lines = [
        f"{'peer':<10s} {'seg':>4s} {'start':>8s} {'dur s':>7s} "
        f"{'cause':<22s} {'source':<10s} evidence"
    ]
    for a in attributions:
        evidence = a.evidence[0] if a.evidence else ""
        lines.append(
            f"{a.peer:<10s} {a.segment:>4d} {a.start:>8.1f} "
            f"{a.duration:>7.2f} {a.cause:<22s} "
            f"{(a.blocking_source or '-'):<10s} {evidence}"
        )
    return "\n".join(lines)


def render_analysis(analysis: RunAnalysis) -> str:
    """The full ``repro analyze`` report for one run."""
    parts: list[str] = ["# Stall diagnosis"]
    if analysis.truncated:
        parts.append("")
        parts.append(
            "WARNING: trace is truncated (ring-buffer wraparound); "
            "results cover only the retained window"
        )
    for note in analysis.notes:
        parts.append(f"note: {note}")
    if analysis.violations:
        parts += ["", "## Invariant violations", ""]
        for v in analysis.violations:
            parts.append(
                f"- t={v.time:.3f} {v.peer or '(swarm)'} [{v.rule}] "
                f"{v.detail} (event #{v.event_id})"
            )
    parts += [
        "",
        f"Trace: {analysis.event_count} events over "
        f"{analysis.duration:.1f}s of sim time, "
        f"{len(analysis.peers)} peers, "
        f"{analysis.stall_count} completed stalls.",
    ]
    if analysis.transfer_efficiency is not None:
        parts.append(
            "Transfer efficiency: "
            f"{analysis.transfer_efficiency:.3f} "
            "(payload bytes / wire bytes)"
        )
    if analysis.pool_deficit is not None:
        parts.append(
            f"Pool deficit vs Eq. 1: {analysis.pool_deficit:.2f} "
            "requests below target (time-weighted mean)"
        )
    parts += [
        "",
        "## Stall causes",
        "",
        render_cause_table(analysis.causes),
        "",
        "## Attributed stalls",
        "",
        render_attributions(analysis.attributions),
        "",
        "## Per-peer sessions",
        "",
        render_trace_summary(analysis.peers),
    ]
    return "\n".join(parts) + "\n"


def render_run_report(obs: Observability) -> str:
    """Everything a run recorded, as one readable document.

    The per-peer table is derived *from the trace alone* (so it can be
    cross-checked against :class:`~repro.p2p.swarm.SwarmResult`), then
    come event counts and the engine profile.
    """
    parts: list[str] = ["# Run report"]
    events = obs.events()
    if events:
        parts += [
            "",
            "## Per-peer sessions (from trace)",
            "",
            render_trace_summary(analyze_observability(obs).peers),
            "",
            "## Events",
            "",
            render_event_counts(events),
        ]
    if obs.profile is not None and obs.profile.counts:
        parts += ["", "## Engine profile", "", obs.profile.render()]
    return "\n".join(parts) + "\n"
