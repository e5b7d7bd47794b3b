"""Per-peer timeline reconstruction from a trace.

The analyzer's first pass: turn a flat event stream back into what
each leecher actually *lived through* — an ordered lifecycle of
segment request -> TCP transfer -> piece receipt -> playback state —
plus the swarm-level transfer ledger the attribution pass joins
against.

Reconstruction is defensive on purpose.  Real traces are imperfect
(a file is cut down to its tail, a run's safety cap cuts sessions
mid-stall), so event-ordering invariants are *validated* and
violations reported in the result rather than raised: a malformed
trace yields a partial timeline with an explanation, never a crash.
:class:`TimelineSet.truncated` flags a trace whose head is missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .events import TraceEvent

#: Tolerance when comparing two simulator timestamps.
_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One event-ordering rule a trace broke.

    Attributes:
        time: sim time of the offending event.
        peer: the peer involved ("" for swarm-wide rules).
        rule: short rule name (e.g. ``"stall-end-unmatched"``).
        detail: human-readable explanation.
        event_id: index of the offending event in the trace.
    """

    time: float
    peer: str
    rule: str
    detail: str
    event_id: int


@dataclass(slots=True)
class RequestRetry:
    """One timeout-driven re-request of an in-flight segment.

    Attributes:
        time: when the timeout fired.
        source: the holder that went silent.
        retry_source: the replacement holder.
        event_id: trace index of the ``RequestTimedOut`` event.
    """

    time: float
    source: str
    retry_source: str
    event_id: int


@dataclass(slots=True)
class SegmentFetch:
    """One segment's journey from request to receipt for one peer.

    Attributes:
        peer: the requesting leecher.
        segment: segment index.
        requested_at: first request time (None for unrequested
            duplicates, which the leecher records with ``wait=-1``).
        source: holder of the most recent request.
        urgent: whether any request for it was playback-critical.
        expected_size: manifest size from the request event (-1.0 when
            the trace predates the enrichment).
        retries: timeout re-requests, in order.
        transfer_started_at: when the serving TCP transfer finished
            its handshake and began moving data (None if never seen).
        received_at: when the piece fully arrived (None if in flight
            when the trace ended).
        size: received payload bytes (None until received).
        wait: request-to-arrival seconds as the leecher recorded it.
        request_event_id: trace index of the first request event.
        received_event_id: trace index of the receipt event.
    """

    peer: str
    segment: int
    requested_at: float | None
    source: str | None
    urgent: bool = False
    expected_size: float = -1.0
    retries: list[RequestRetry] = field(default_factory=list)
    transfer_started_at: float | None = None
    received_at: float | None = None
    size: float | None = None
    wait: float | None = None
    request_event_id: int = -1
    received_event_id: int = -1

    @property
    def pending(self) -> bool:
        """Whether the fetch was still in flight when the trace ended."""
        return self.received_at is None


@dataclass(slots=True)
class StallSpan:
    """One playback interruption, as the trace recorded it.

    Attributes:
        peer: the stalling peer.
        segment: the blocking segment.
        start: stall begin time (None when the ``StallStarted`` fell
            off a truncated trace).
        end: stall end time (None when the run was cut mid-stall).
        expected_size: the blocking segment's manifest size (-1.0
            unknown).
        start_event_id: trace index of ``StallStarted`` (-1 missing).
        end_event_id: trace index of ``StallEnded`` (-1 missing).
    """

    peer: str
    segment: int
    start: float | None
    end: float | None = None
    expected_size: float = -1.0
    start_event_id: int = -1
    end_event_id: int = -1

    @property
    def complete(self) -> bool:
        """Whether both endpoints of the stall were observed."""
        return self.start is not None and self.end is not None

    @property
    def duration(self) -> float | None:
        """Stall length in seconds (None unless complete)."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class PoolDecision:
    """One Eq. 1 (or fixed-policy) pool resize.

    Attributes:
        time: decision time.
        size: the new pool size ``k``.
        buffered_playtime: Eq. 1's ``T`` at decision time.
        bandwidth: Eq. 1's ``B`` at decision time.
        event_id: trace index of the ``PoolResized`` event.
    """

    time: float
    size: int
    buffered_playtime: float
    bandwidth: float
    event_id: int


@dataclass(slots=True)
class TransferRecord:
    """One TCP transfer's data phase, parsed from its label.

    Labels follow the peer layer's ``src->dst#segment`` convention;
    transfers with unparseable labels are kept with ``segment=-1`` so
    concurrency counts stay correct.

    Attributes:
        label: the transfer label.
        src: serving peer.
        dst: receiving peer.
        segment: segment index (-1 when not encoded in the label).
        started_at: handshake-done / first-data time.
        ended_at: completion or cancellation time (None if open).
        size: wire bytes (None until completed).
        cancelled: whether the transfer was aborted.
    """

    label: str
    src: str
    dst: str
    segment: int
    started_at: float
    ended_at: float | None = None
    size: float | None = None
    cancelled: bool = False

    def overlaps(self, start: float, end: float) -> bool:
        """Whether the data phase intersects ``[start, end]``."""
        ended = self.ended_at if self.ended_at is not None else end
        return self.started_at <= end + _EPS and ended >= start - _EPS


@dataclass(slots=True)
class PeerTimeline:
    """One peer's reconstructed session.

    Attributes:
        peer: the peer's name.
        joined: join time (None if the join fell off the trace).
        manifest_at: manifest arrival time.
        playback_started_at: first-frame time.
        startup_time: join-to-first-frame seconds as traced.
        finished_at: playback completion time.
        departed_at: churn-out time.
        fetches: segment fetches in first-request order.
        stalls: stall spans in start order.
        pool_decisions: Eq. 1 decisions in time order.
    """

    peer: str
    joined: float | None = None
    manifest_at: float | None = None
    playback_started_at: float | None = None
    startup_time: float | None = None
    finished_at: float | None = None
    departed_at: float | None = None
    fetches: list[SegmentFetch] = field(default_factory=list)
    stalls: list[StallSpan] = field(default_factory=list)
    pool_decisions: list[PoolDecision] = field(default_factory=list)

    def fetch_for(
        self, segment: int, before: float | None = None
    ) -> SegmentFetch | None:
        """The latest fetch of ``segment`` requested at/before ``before``."""
        best: SegmentFetch | None = None
        for fetch in self.fetches:
            if fetch.segment != segment:
                continue
            if (
                before is not None
                and fetch.requested_at is not None
                and fetch.requested_at > before + _EPS
            ):
                continue
            best = fetch
        return best

    def pool_decision_at(self, time: float) -> PoolDecision | None:
        """The pool decision in force at ``time`` (None before any)."""
        current: PoolDecision | None = None
        for decision in self.pool_decisions:
            if decision.time > time + _EPS:
                break
            current = decision
        return current

    def inflight_at(self, time: float) -> int:
        """Requests in flight at ``time`` (requested, not yet arrived)."""
        count = 0
        for fetch in self.fetches:
            if fetch.requested_at is None or fetch.requested_at > time:
                continue
            if fetch.received_at is None or fetch.received_at > time:
                count += 1
        return count


@dataclass(slots=True)
class TimelineSet:
    """Everything the timeline pass reconstructed from one trace.

    Attributes:
        timelines: per-peer timelines, by peer name.
        transfers: every TCP transfer seen, in start order.
        violations: event-ordering invariants the trace broke.
        truncated: whether the trace's head is missing (engine events
            without the ``SimulationStarted`` that opens every run).
        notes: human-readable caveats about the reconstruction.
        first_time: earliest event time (0.0 for an empty trace).
        last_time: latest event time.
        event_count: events consumed.
    """

    timelines: dict[str, PeerTimeline]
    transfers: list[TransferRecord]
    violations: list[InvariantViolation]
    truncated: bool
    notes: list[str]
    first_time: float = 0.0
    last_time: float = 0.0
    event_count: int = 0

    def transfers_from(self, src: str) -> list[TransferRecord]:
        """Transfers served by ``src``, in start order."""
        return [t for t in self.transfers if t.src == src]


def parse_transfer_label(label: str) -> tuple[str, str, int] | None:
    """Split a ``src->dst#segment`` transfer label.

    Returns ``None`` when the label does not follow the convention
    (e.g. transfers started outside the peer layer).
    """
    head, sep, seg = label.rpartition("#")
    if not sep:
        return None
    src, sep, dst = head.partition("->")
    if not sep or not src or not dst:
        return None
    try:
        return src, dst, int(seg)
    except ValueError:
        return None


def build_timelines(
    events: Sequence[TraceEvent] | Iterable[TraceEvent],
) -> TimelineSet:
    """Reconstruct per-peer timelines from a trace.

    Never raises on a structurally odd trace: ordering problems become
    :class:`InvariantViolation` entries and partial sessions are
    flagged through ``truncated``/``notes``.

    Args:
        events: the trace, oldest first (list or any iterable).  It
            counts as truncated on the trace's own evidence: engine
            events (e.g. a ``SimulationCompleted``) without the
            ``SimulationStarted`` that opens every engine-traced run.
            A trace with no engine events at all is not evidence —
            it may simply have been recorded without that category.
    """
    events = list(events)
    timelines: dict[str, PeerTimeline] = {}
    transfers: list[TransferRecord] = []
    open_transfers: dict[str, TransferRecord] = {}
    open_stalls: dict[str, StallSpan] = {}
    violations: list[InvariantViolation] = []
    notes: list[str] = []

    engine = [e.name for e in events if e.category == "engine"]
    truncated = bool(engine) and "SimulationStarted" not in engine
    if truncated:
        notes.append(
            "trace is truncated (its head, with SimulationStarted, is "
            "missing); timelines and attribution cover only the "
            "events present"
        )

    def timeline(peer: str) -> PeerTimeline:
        line = timelines.get(peer)
        if line is None:
            line = timelines[peer] = PeerTimeline(peer=peer)
        return line

    def violate(
        event_id: int, time: float, peer: str, rule: str, detail: str
    ) -> None:
        violations.append(
            InvariantViolation(
                time=time,
                peer=peer,
                rule=rule,
                detail=detail,
                event_id=event_id,
            )
        )

    previous_time = None
    for index, event in enumerate(events):
        name = event.name
        time = event.time
        if previous_time is not None and time < previous_time - _EPS:
            violate(
                index,
                time,
                getattr(event, "peer", "") or "",
                "time-order",
                f"{name} at t={time:.6g} precedes previous event at "
                f"t={previous_time:.6g}",
            )
        previous_time = max(previous_time or time, time)

        peer = getattr(event, "peer", None)
        if peer is not None:
            line = timeline(peer)
            if (
                line.departed_at is not None
                and name != "PeerJoined"
                and time > line.departed_at + _EPS
            ):
                violate(
                    index,
                    time,
                    peer,
                    "post-departure",
                    f"{name} for {peer!r} at t={time:.6g} after its "
                    f"departure at t={line.departed_at:.6g}",
                )

        if name == "PeerJoined":
            line = timeline(event.peer)
            if line.joined is None:
                line.joined = time
        elif name == "PeerDeparted":
            timeline(event.peer).departed_at = time
        elif name == "ManifestReceived":
            line = timeline(event.peer)
            if line.manifest_at is None:
                line.manifest_at = time
        elif name == "SegmentRequested":
            line = timeline(event.peer)
            fetch = line.fetch_for(event.segment)
            if fetch is not None and fetch.pending:
                # A re-request of an in-flight segment (timeout path);
                # the RequestTimedOut event carries the retry detail,
                # here we just track the current source.
                fetch.source = event.source
                fetch.urgent = fetch.urgent or event.urgent
            else:
                line.fetches.append(
                    SegmentFetch(
                        peer=event.peer,
                        segment=event.segment,
                        requested_at=time,
                        source=event.source,
                        urgent=event.urgent,
                        expected_size=event.expected_size,
                        request_event_id=index,
                    )
                )
        elif name == "RequestTimedOut":
            line = timeline(event.peer)
            fetch = line.fetch_for(event.segment)
            if fetch is not None and fetch.pending:
                fetch.retries.append(
                    RequestRetry(
                        time=time,
                        source=event.source,
                        retry_source=event.retry_source,
                        event_id=index,
                    )
                )
            elif not truncated:
                violate(
                    index,
                    time,
                    event.peer,
                    "timeout-without-request",
                    f"RequestTimedOut for segment {event.segment} with "
                    "no pending request",
                )
        elif name == "PieceReceived":
            line = timeline(event.peer)
            fetch = line.fetch_for(event.segment)
            if fetch is None or not fetch.pending:
                # Unrequested duplicate (the leecher records wait=-1)
                # or the request fell off a truncated trace.
                fetch = SegmentFetch(
                    peer=event.peer,
                    segment=event.segment,
                    requested_at=None,
                    source=event.source,
                )
                line.fetches.append(fetch)
            fetch.received_at = time
            fetch.size = event.size
            fetch.wait = event.wait
            fetch.received_event_id = index
            if fetch.source is None:
                fetch.source = event.source
        elif name == "PoolResized":
            timeline(event.peer).pool_decisions.append(
                PoolDecision(
                    time=time,
                    size=event.size,
                    buffered_playtime=event.buffered_playtime,
                    bandwidth=event.bandwidth,
                    event_id=index,
                )
            )
        elif name == "PlaybackStarted":
            line = timeline(event.peer)
            if line.playback_started_at is None:
                line.playback_started_at = time
                line.startup_time = event.startup_time
        elif name == "StallStarted":
            line = timeline(event.peer)
            open_span = open_stalls.get(event.peer)
            if open_span is not None:
                violate(
                    index,
                    time,
                    event.peer,
                    "stall-start-while-stalled",
                    f"StallStarted at t={time:.6g} while the stall on "
                    f"segment {open_span.segment} is still open",
                )
            span = StallSpan(
                peer=event.peer,
                segment=event.segment,
                start=time,
                expected_size=event.expected_size,
                start_event_id=index,
            )
            open_stalls[event.peer] = span
            line.stalls.append(span)
        elif name == "StallEnded":
            line = timeline(event.peer)
            span = open_stalls.pop(event.peer, None)
            if span is None:
                if not truncated:
                    violate(
                        index,
                        time,
                        event.peer,
                        "stall-end-unmatched",
                        f"StallEnded for segment {event.segment} at "
                        f"t={time:.6g} has no matching StallStarted",
                    )
                span = StallSpan(
                    peer=event.peer,
                    segment=event.segment,
                    start=None,
                    expected_size=event.expected_size,
                )
                line.stalls.append(span)
            elif span.segment != event.segment:
                violate(
                    index,
                    time,
                    event.peer,
                    "stall-segment-mismatch",
                    f"StallEnded names segment {event.segment} but the "
                    f"open stall waits on segment {span.segment}",
                )
            span.end = time
            span.end_event_id = index
            if span.expected_size < 0:
                span.expected_size = event.expected_size
        elif name == "PlaybackFinished":
            line = timeline(event.peer)
            line.finished_at = time
            if event.peer in open_stalls:
                violate(
                    index,
                    time,
                    event.peer,
                    "finish-while-stalled",
                    "PlaybackFinished while a stall is still open",
                )
        elif name == "TransferStarted":
            parsed = parse_transfer_label(event.label)
            src, dst, segment = parsed or ("", "", -1)
            record = TransferRecord(
                label=event.label,
                src=src,
                dst=dst,
                segment=segment,
                started_at=time,
                size=event.size,
            )
            transfers.append(record)
            open_transfers[event.label] = record
            if parsed is not None:
                line = timelines.get(dst)
                if line is not None:
                    fetch = line.fetch_for(segment)
                    if (
                        fetch is not None
                        and fetch.pending
                        and fetch.transfer_started_at is None
                    ):
                        fetch.transfer_started_at = time
        elif name in ("TransferCompleted", "TransferCancelled"):
            record = open_transfers.pop(event.label, None)
            if record is not None:
                record.ended_at = time
                record.cancelled = name == "TransferCancelled"
                if name == "TransferCompleted":
                    record.size = event.size

    unpaired = sum(
        1
        for line in timelines.values()
        for span in line.stalls
        if not span.complete
    )
    if unpaired:
        notes.append(
            f"{unpaired} stall span(s) missing an endpoint (run cut "
            "mid-stall or trace truncated); only complete stalls are "
            "attributed"
        )

    first_time = events[0].time if events else 0.0
    last_time = previous_time if previous_time is not None else 0.0
    return TimelineSet(
        timelines=dict(sorted(timelines.items())),
        transfers=transfers,
        violations=violations,
        truncated=truncated,
        notes=notes,
        first_time=first_time,
        last_time=last_time,
        event_count=len(events),
    )
