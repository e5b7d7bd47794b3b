"""Observability: sim-time tracing, profiles, diagnosis, exporters.

The paper's entire evaluation is observational — stall counts, stall
durations, startup times, pool sizes — and this package is the layer
every other subsystem records into:

* :mod:`repro.obs.events` — the typed event taxonomy, keyed on
  simulator time;
* :mod:`repro.obs.tracer` — event recording with a
  one-attribute-check disabled path (:data:`NULL_TRACER`);
* :mod:`repro.obs.profile` — event-loop wall-time profiling by
  handler category;
* :mod:`repro.obs.context` — :class:`Observability`, the bundle
  threaded through :class:`~repro.p2p.swarm.Swarm` and the experiment
  harness;
* :mod:`repro.obs.export` — JSONL traces and JSON documents;
* :mod:`repro.obs.analyze` (with :mod:`~repro.obs.timeline`,
  :mod:`~repro.obs.causes`, :mod:`~repro.obs.render`) — the diagnosis
  layer: per-peer timeline reconstruction, stall root-cause
  attribution, swarm-health rollups, the cause-marked ASCII Gantt,
  and the human-readable run report;
* :mod:`repro.obs.ops` — *wall-clock* operational telemetry for the
  sweep orchestration layer (``repro.ops/1`` shard heartbeats and the
  fleet view behind ``repro sweep status``), cleanly separated from
  the sim-time tracer above.

Tracing a run::

    from repro import Observability, Swarm, SwarmConfig
    from repro.obs import dump_jsonl, render_run_report

    obs = Observability.tracing()
    result = Swarm(splice, SwarmConfig(bandwidth=64e3), obs=obs).run()
    dump_jsonl(obs.events(), "run.jsonl")
    print(render_run_report(obs))
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CellAnalysis": "analyze",
    "PeerTraceSummary": "analyze",
    "RunAnalysis": "analyze",
    "analyze_events": "analyze",
    "event_counts": "analyze",
    "merge_analyses": "analyze",
    "render_analysis": "analyze",
    "render_attributions": "analyze",
    "render_cause_table": "analyze",
    "render_event_counts": "analyze",
    "render_run_report": "analyze",
    "render_trace_summary": "analyze",
    "SEEDER_CONCURRENCY_THRESHOLD": "causes",
    "STALL_CAUSES": "causes",
    "StallAttribution": "causes",
    "attribute_stalls": "causes",
    "cause_histogram": "causes",
    "BenchCase": "bench",
    "BenchHarness": "bench",
    "CaseTiming": "bench",
    "build_artifact": "bench",
    "figure_metrics": "bench",
    "load_artifact": "bench",
    "validate_artifact": "bench",
    "Comparison": "compare",
    "MetricDelta": "compare",
    "compare_artifacts": "compare",
    "render_comparison": "compare",
    "Observability": "context",
    "EVENT_TYPES": "events",
    "FlowRateChanged": "events",
    "ManifestReceived": "events",
    "PeerDeparted": "events",
    "PeerJoined": "events",
    "PieceReceived": "events",
    "PlaybackFinished": "events",
    "PlaybackStarted": "events",
    "PoolResized": "events",
    "RequestTimedOut": "events",
    "SegmentRequested": "events",
    "SelectionMade": "events",
    "SimulationCompleted": "events",
    "SimulationStarted": "events",
    "StallEnded": "events",
    "StallStarted": "events",
    "TraceEvent": "events",
    "TransferCancelled": "events",
    "TransferCompleted": "events",
    "TransferStarted": "events",
    "event_from_dict": "events",
    "event_type": "events",
    "dump_json": "export",
    "dump_jsonl": "export",
    "load_jsonl": "export",
    "build_manifest": "manifest",
    "environment_block": "manifest",
    "git_info": "manifest",
    "render_environment": "manifest",
    "run_manifest": "manifest",
    "OPS_SCHEMA": "ops",
    "ShardHeartbeat": "ops",
    "ShardStatus": "ops",
    "find_heartbeats": "ops",
    "fleet_status": "ops",
    "heartbeat_path": "ops",
    "ops_root": "ops",
    "read_heartbeat": "ops",
    "render_fleet": "ops",
    "EngineProfile": "profile",
    "handler_category": "profile",
    "CAUSE_SYMBOLS": "render",
    "render_gantt": "render",
    "InvariantViolation": "timeline",
    "PeerTimeline": "timeline",
    "PoolDecision": "timeline",
    "SegmentFetch": "timeline",
    "StallSpan": "timeline",
    "TimelineSet": "timeline",
    "TransferRecord": "timeline",
    "build_timelines": "timeline",
    "NULL_TRACER": "tracer",
    "EventTracer": "tracer",
    "NullTracer": "tracer",
    "Tracer": "tracer",
})
