"""Stall root-cause attribution.

Classifies every completed stall span in a reconstructed timeline into
the paper's causal vocabulary, with the evidence window (event ids,
times, the blocking segment and flow) that justifies the verdict.

The taxonomy, in precedence order (first matching rule wins):

``churn-loss``
    The blocking fetch lost its source mid-flight: a request timeout,
    the source's departure, or the serving transfer's cancellation
    falls inside the stall's evidence window.
``oversized-segment``
    Section IV's condition: the blocking segment's size ``W`` exceeds
    ``B * T`` — more bytes than the pool's bandwidth could deliver in
    the playtime that was buffered when it was requested.  This is the
    signature failure of GOP/scene splicing's long segments.
``pool-undersubscription``
    The playhead reached the gap *before* the pool ever asked for the
    segment: Eq. 1's ``k`` (or the fixed policy) kept the request
    parked while capacity sat idle.
``seeder-bottleneck``
    The blocking transfer came from a seeder that was fanning out to
    :data:`SEEDER_CONCURRENCY_THRESHOLD` or more concurrent downloads
    while the stall ran — the origin, not the path, was the choke
    point.
``connection-overhead``
    Per-segment TCP setup dominated: handshake + slow start took at
    least as long as moving the data.  The signature failure of
    duration splicing's many tiny segments.
``startup``
    Fallback: nothing above matched (typically early-session stalls
    while the swarm warms up, or no fetch record survives in the
    trace).

Attribution is pure and deterministic: same trace in, same verdicts
out, regardless of how many worker processes produced sibling runs.
Only *complete* spans (both endpoints observed) are attributed, so a
run's cause histogram sums exactly to its
:class:`~repro.player.metrics.StreamingMetrics` stall count, which
counts the same paired stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .timeline import PeerTimeline, StallSpan, TimelineSet

#: The documented taxonomy, in attribution precedence order.
STALL_CAUSES: tuple[str, ...] = (
    "churn-loss",
    "oversized-segment",
    "pool-undersubscription",
    "seeder-bottleneck",
    "connection-overhead",
    "startup",
)

#: Concurrent downloads from one seeder that mark it saturated.
SEEDER_CONCURRENCY_THRESHOLD = 4

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class StallAttribution:
    """One stall's verdict plus the evidence that justifies it.

    Attributes:
        peer: the stalling peer.
        segment: the blocking segment.
        start: stall begin time.
        end: stall end time.
        duration: stall length, seconds.
        cause: one of :data:`STALL_CAUSES`.
        evidence: human-readable clauses supporting the verdict.
        event_ids: trace indices of the events cited as evidence,
            sorted ascending.
        window: the ``(from, to)`` sim-time span the evidence covers
            (request time through stall end when a fetch exists).
        blocking_source: the peer serving the blocking segment (""
            unknown).
        blocking_label: the blocking TCP transfer's label ("" unknown).
    """

    peer: str
    segment: int
    start: float
    end: float
    duration: float
    cause: str
    evidence: tuple[str, ...]
    event_ids: tuple[int, ...]
    window: tuple[float, float]
    blocking_source: str = ""
    blocking_label: str = ""


def attribute_stalls(timelines: TimelineSet) -> list[StallAttribution]:
    """Attribute every complete stall span in ``timelines``.

    Returns attributions ordered by (peer, start time) — a stable,
    process-count-independent order.
    """
    out: list[StallAttribution] = []
    for line in timelines.timelines.values():
        for span in line.stalls:
            if not span.complete:
                continue
            out.append(_attribute(span, line, timelines))
    out.sort(key=lambda a: (a.peer, a.start, a.segment))
    return out


def _attribute(
    span: StallSpan, line: PeerTimeline, timelines: TimelineSet
) -> StallAttribution:
    assert span.start is not None and span.end is not None
    start, end = span.start, span.end
    fetch = line.fetch_for(span.segment, before=end)

    evidence: list[str] = []
    event_ids: set[int] = set()
    if span.start_event_id >= 0:
        event_ids.add(span.start_event_id)
    if span.end_event_id >= 0:
        event_ids.add(span.end_event_id)

    window_from = start
    if fetch is not None and fetch.requested_at is not None:
        window_from = min(window_from, fetch.requested_at)
        if fetch.request_event_id >= 0:
            event_ids.add(fetch.request_event_id)
    window = (window_from, end)

    source = (fetch.source if fetch is not None else None) or ""
    label = ""
    transfer = None
    if fetch is not None:
        for record in timelines.transfers:
            if (
                record.dst == span.peer
                and record.segment == span.segment
                and record.overlaps(window_from, end)
            ):
                transfer = record
                label = record.label
                break

    def verdict(cause: str) -> StallAttribution:
        return StallAttribution(
            peer=span.peer,
            segment=span.segment,
            start=start,
            end=end,
            duration=end - start,
            cause=cause,
            evidence=tuple(evidence),
            event_ids=tuple(sorted(event_ids)),
            window=window,
            blocking_source=source,
            blocking_label=label,
        )

    # 1. churn-loss: the fetch lost its source inside the window.
    if fetch is not None:
        retry = next(
            (
                r
                for r in fetch.retries
                if window_from - _EPS <= r.time <= end + _EPS
            ),
            None,
        )
        if retry is not None:
            evidence.append(
                f"request to {retry.source!r} timed out at "
                f"t={retry.time:.3f} and was re-issued to "
                f"{retry.retry_source!r}"
            )
            event_ids.add(retry.event_id)
            return verdict("churn-loss")
        if source:
            src_line = timelines.timelines.get(source)
            if (
                src_line is not None
                and src_line.departed_at is not None
                and window_from - _EPS
                <= src_line.departed_at
                <= end + _EPS
            ):
                evidence.append(
                    f"source {source!r} departed at "
                    f"t={src_line.departed_at:.3f} while serving the "
                    "blocking segment"
                )
                return verdict("churn-loss")
        if (
            transfer is not None
            and transfer.cancelled
            and transfer.ended_at is not None
            and window_from - _EPS <= transfer.ended_at <= end + _EPS
        ):
            evidence.append(
                f"blocking transfer {transfer.label!r} was cancelled "
                f"at t={transfer.ended_at:.3f}"
            )
            return verdict("churn-loss")

    # 2. oversized-segment: W > B*T at request time (Section IV).
    expected = span.expected_size
    if expected <= 0 and fetch is not None:
        if fetch.expected_size > 0:
            expected = fetch.expected_size
        elif fetch.size is not None and fetch.size > 0:
            expected = fetch.size
    decision_time = (
        fetch.requested_at
        if fetch is not None and fetch.requested_at is not None
        else start
    )
    decision = line.pool_decision_at(decision_time)
    if expected > 0 and decision is not None:
        budget = decision.bandwidth * decision.buffered_playtime
        if decision.buffered_playtime > 0 and expected > budget + _EPS:
            evidence.append(
                f"blocking segment weighs W={expected:.0f} B but the "
                f"pool could deliver only B*T="
                f"{decision.bandwidth:.0f}*"
                f"{decision.buffered_playtime:.2f}={budget:.0f} B "
                "before the buffer drained (Section IV)"
            )
            event_ids.add(decision.event_id)
            return verdict("oversized-segment")

    # 3. pool-undersubscription: the pool asked only after the
    #    playhead had already reached the gap.
    if fetch is not None and fetch.requested_at is not None:
        if fetch.requested_at >= start - _EPS:
            evidence.append(
                f"segment {span.segment} was first requested at "
                f"t={fetch.requested_at:.3f}, after the stall began at "
                f"t={start:.3f} — the pool had not subscribed it"
            )
            return verdict("pool-undersubscription")

    # 4. seeder-bottleneck: the origin was fanning out to many peers.
    if source.startswith("seeder"):
        probe_from = (
            fetch.requested_at
            if fetch is not None and fetch.requested_at is not None
            else start
        )
        concurrent = [
            record
            for record in timelines.transfers_from(source)
            if record.overlaps(probe_from, end)
        ]
        if len(concurrent) >= SEEDER_CONCURRENCY_THRESHOLD:
            evidence.append(
                f"seeder {source!r} served {len(concurrent)} "
                "concurrent transfers during the stall window "
                f"(threshold {SEEDER_CONCURRENCY_THRESHOLD})"
            )
            return verdict("seeder-bottleneck")

    # 5. connection-overhead: setup >= data time on the blocking flow.
    if (
        fetch is not None
        and fetch.requested_at is not None
        and fetch.transfer_started_at is not None
        and fetch.received_at is not None
    ):
        setup = fetch.transfer_started_at - fetch.requested_at
        data = fetch.received_at - fetch.transfer_started_at
        if setup >= data - _EPS and setup > 0:
            evidence.append(
                f"connection setup took {setup:.3f}s vs {data:.3f}s "
                "of data transfer on the blocking flow — handshake "
                "and slow start dominated"
            )
            if fetch.received_event_id >= 0:
                event_ids.add(fetch.received_event_id)
            return verdict("connection-overhead")

    # 6. startup: nothing above matched.
    if fetch is None:
        evidence.append(
            "no surviving fetch record for the blocking segment; "
            "early-session warm-up assumed"
        )
    else:
        evidence.append(
            "no churn, size, pool, seeder, or setup signature matched; "
            "residual (warm-up or general bandwidth scarcity)"
        )
    return verdict("startup")


def cause_histogram(
    attributions: list[StallAttribution],
) -> dict[str, int]:
    """Count attributions per cause, keyed in taxonomy order.

    Every cause appears, zero-valued when unseen, so tables render
    with a stable shape.
    """
    histogram = {cause: 0 for cause in STALL_CAUSES}
    for attribution in attributions:
        histogram[attribution.cause] += 1
    return histogram
