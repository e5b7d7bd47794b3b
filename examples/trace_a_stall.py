#!/usr/bin/env python3
"""Trace a stall: starve a swarm on purpose, then diagnose it.

Runs one small swarm at deliberately scarce bandwidth so stalls are
guaranteed, records a full event trace, and then walks the events the
way docs/OBSERVABILITY.md describes: find a stall, find the request
that should have prevented it, and watch Eq. 1's pool react.  The
same stall is then handed to ``repro.obs.analyze``, which reproduces
the manual verdict automatically for every stall in the run.

Usage::

    python examples/trace_a_stall.py [trace.jsonl]

Pass a path to also keep the JSONL trace for
``python -m repro analyze <path> --gantt``.
"""

from __future__ import annotations

import sys

from repro import (
    DurationSplicer,
    Observability,
    Swarm,
    SwarmConfig,
    encode_paper_video,
    kB_per_s,
)
from repro.obs import (
    analyze_events,
    attribute_stalls,
    build_timelines,
    dump_jsonl,
    render_cause_table,
    render_gantt,
    render_run_report,
)


def main() -> None:
    print("Encoding and splicing the paper's video...")
    video = encode_paper_video(seed=1)
    splice = DurationSplicer(4.0).splice(video)

    # 96 kB/s is below the video's ~1 Mbps bitrate: every peer stalls.
    config = SwarmConfig(
        bandwidth=kB_per_s(96),
        seeder_bandwidth=kB_per_s(384),
        n_leechers=4,
        seed=7,
        max_time=900.0,
    )
    obs = Observability.tracing(profile=True)
    print("Streaming at a starvation-level 96 kB/s (stalls expected)...")
    result = Swarm(splice, config, obs=obs).run()
    events = obs.events()
    print(f"  {len(events)} events recorded")
    print()

    # Pick the first completed stall and reconstruct its story.
    stall_start = next(e for e in events if e.name == "StallStarted")
    peer, segment = stall_start.peer, stall_start.segment
    stall_end = next(
        e
        for e in events
        if e.name == "StallEnded"
        and e.peer == peer
        and e.time >= stall_start.time
    )
    print(
        f"{peer} stalled at t={stall_start.time:.2f}s waiting for "
        f"segment {segment}; resumed at t={stall_end.time:.2f}s "
        f"({stall_end.duration:.2f}s stalled)"
    )

    request = next(
        (
            e
            for e in reversed(events)
            if e.name == "SegmentRequested"
            and e.peer == peer
            and e.segment == segment
            and e.time <= stall_start.time
        ),
        None,
    )
    if request is not None:
        print(
            f"  the blocking segment was requested from "
            f"{request.source} at t={request.time:.2f}s "
            f"(urgent={request.urgent})"
        )

    arrival = next(
        (
            e
            for e in events
            if e.name == "PieceReceived"
            and e.peer == peer
            and e.segment == segment
        ),
        None,
    )
    if arrival is not None:
        print(
            f"  it arrived after {arrival.wait:.2f}s in flight — "
            f"longer than the playout buffer could cover"
        )

    resizes = [
        e
        for e in events
        if e.name == "PoolResized"
        and e.peer == peer
        and e.time <= stall_end.time
    ]
    if resizes:
        trail = ", ".join(
            f"k={e.size} @t={e.time:.0f}s" for e in resizes[-4:]
        )
        print(f"  Eq. 1 pool sizes leading up to it: {trail}")
    print()

    # Now let the analyzer do the same forensics for *every* stall.
    print("The analyzer's verdicts (repro.obs.analyze):")
    analysis = analyze_events(obs.events())
    verdict = next(
        a
        for a in analysis.attributions
        if a.peer == peer and a.segment == segment
    )
    print(
        f"  our stall above is attributed to '{verdict.cause}': "
        + "; ".join(verdict.evidence)
    )
    print()
    print(render_cause_table(analysis.causes))
    print()

    timelines = build_timelines(events)
    print(render_gantt(timelines, attribute_stalls(timelines)))
    print()

    print(render_run_report(obs))

    mean = sum(
        m.stall_count for m in result.metrics.values()
    ) / len(result.metrics)
    print(f"(mean stalls per peer: {mean:.1f})")

    if len(sys.argv) > 1:
        dump_jsonl(events, sys.argv[1])
        print(f"trace written to {sys.argv[1]}")
        print(
            f"  diagnose with: python -m repro analyze "
            f"{sys.argv[1]} --gantt"
        )


if __name__ == "__main__":
    main()
