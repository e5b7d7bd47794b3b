"""The diagnosis subsystem: timelines, attribution, rollups, CLI."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.splicer import DurationSplicer
from repro.errors import TraceError
from repro.experiments.config import ExperimentConfig
from repro.obs import (
    STALL_CAUSES,
    Observability,
    PeerDeparted,
    PeerJoined,
    PieceReceived,
    PlaybackStarted,
    PoolResized,
    RequestTimedOut,
    SegmentRequested,
    SimulationCompleted,
    SimulationStarted,
    StallEnded,
    StallStarted,
    TransferStarted,
    analyze_events,
    attribute_stalls,
    build_timelines,
    cause_histogram,
    dump_jsonl,
    merge_analyses,
    render_analysis,
    render_gantt,
)
from repro.p2p.swarm import Swarm, SwarmConfig
from repro.parallel import SplicerSpec, SweepExecutor, cell_for
from repro.units import kB_per_s


def _stream(video, n_leechers=4, bandwidth_kb=192.0):
    """One traced swarm run over ``video``; returns (result, obs)."""
    splice = DurationSplicer(4.0).splice(video)
    obs = Observability.tracing()
    config = SwarmConfig(
        bandwidth=kB_per_s(bandwidth_kb),
        seeder_bandwidth=kB_per_s(8 * bandwidth_kb),
        n_leechers=n_leechers,
        seed=7,
    )
    result = Swarm(splice, config, obs=obs).run()
    return result, obs


# -- timeline reconstruction -------------------------------------------


class TestTimelines:
    def test_real_run_reconstructs_cleanly(self, short_video):
        result, obs = _stream(short_video)
        timelines = build_timelines(obs.events())
        assert not timelines.truncated
        assert not timelines.violations
        assert set(timelines.timelines) == set(result.metrics)
        for name, line in timelines.timelines.items():
            metrics = result.metrics[name]
            complete = [s for s in line.stalls if s.complete]
            assert len(complete) == metrics.stall_count

    def test_fetch_lifecycle_links_request_to_receipt(self, short_video):
        _, obs = _stream(short_video)
        timelines = build_timelines(obs.events())
        fetches = [
            f
            for line in timelines.timelines.values()
            for f in line.fetches
            if not f.pending
        ]
        assert fetches
        for fetch in fetches:
            if fetch.requested_at is not None:
                assert fetch.received_at >= fetch.requested_at
                assert fetch.expected_size > 0  # enriched events
            assert fetch.size is not None

    def test_post_departure_event_is_a_violation_not_a_crash(self):
        events = [
            SimulationStarted(time=0.0, pending=1),
            PeerJoined(time=0.0, peer="p"),
            PeerDeparted(time=5.0, peer="p", downloads_cancelled=0),
            PieceReceived(
                time=9.0, peer="p", segment=1, source="s",
                size=10.0, wait=1.0,
            ),
        ]
        timelines = build_timelines(events)
        rules = [v.rule for v in timelines.violations]
        assert "post-departure" in rules

    def test_unmatched_stall_end_is_reported_not_raised(self):
        events = [
            SimulationStarted(time=0.0, pending=1),
            PeerJoined(time=0.0, peer="p"),
            StallEnded(time=4.0, peer="p", segment=2, duration=1.0),
        ]
        timelines = build_timelines(events)
        rules = [v.rule for v in timelines.violations]
        assert "stall-end-unmatched" in rules
        spans = timelines.timelines["p"].stalls
        assert len(spans) == 1 and not spans[0].complete

    def test_time_going_backwards_is_a_violation(self):
        events = [
            SimulationStarted(time=5.0, pending=1),
            PeerJoined(time=1.0, peer="p"),
        ]
        timelines = build_timelines(events)
        assert any(
            v.rule == "time-order" for v in timelines.violations
        )


# -- truncated traces (a missing head, never a crash) ------------------


class TestTruncation:
    def test_tail_slice_is_flagged_truncated(self, short_video):
        _, obs = _stream(short_video)
        analysis = analyze_events(obs.events()[-60:])
        assert analysis.truncated
        assert any("truncated" in note for note in analysis.notes)

    def test_truncated_trace_never_raises_and_attributes_fully(
        self, short_video
    ):
        # Cut the stream's head off at many different points; none
        # may crash and every completed stall still gets exactly one
        # documented cause.
        _, obs = _stream(short_video)
        events = obs.events()
        assert not analyze_events(events).truncated
        for k in (5, 17, 60, 200):
            analysis = analyze_events(events[-k:])
            assert analysis.truncated == (k < len(events))
            for attribution in analysis.attributions:
                assert attribution.cause in STALL_CAUSES
            render_analysis(analysis)  # must not raise either

    def test_missing_simulation_started_implies_truncated(self):
        # The run's SimulationCompleted survived but its head (and
        # SimulationStarted with it) was cut off.
        events = [
            PeerJoined(time=1.0, peer="p"),
            StallEnded(time=4.0, peer="p", segment=2, duration=1.0),
            SimulationCompleted(
                time=9.0, events_fired=40, wall_seconds=0.01
            ),
        ]
        timelines = build_timelines(events)
        assert timelines.truncated
        # Unmatched StallEnded on a truncated trace is expected, not
        # an invariant violation.
        assert not any(
            v.rule == "stall-end-unmatched"
            for v in timelines.violations
        )

    def test_trace_without_engine_events_is_complete(self):
        # Recorded without the engine category: no SimulationStarted
        # to miss, so nothing says the head was lost.
        events = [
            PeerJoined(time=0.0, peer="peer-1"),
            PlaybackStarted(time=2.0, peer="peer-1", startup_time=2.0),
            StallStarted(time=5.0, peer="peer-1", segment=3),
            StallEnded(time=6.5, peer="peer-1", segment=3, duration=1.5),
        ]
        timelines = build_timelines(events)
        assert not timelines.truncated
        assert not any("truncated" in note for note in timelines.notes)
        assert not timelines.violations
        # ...so an unmatched StallEnded is reported again.
        orphan = build_timelines(
            events[:2]
            + [StallEnded(time=6.5, peer="peer-1", segment=3,
                          duration=1.5)]
        )
        assert not orphan.truncated
        assert [v.rule for v in orphan.violations] == [
            "stall-end-unmatched"
        ]


# -- attribution rules -------------------------------------------------


def _session_prefix(peer="p"):
    return [
        SimulationStarted(time=0.0, pending=1),
        PeerJoined(time=0.0, peer=peer),
        PlaybackStarted(time=1.0, peer=peer, startup_time=1.0),
    ]


class TestCauses:
    def _one_cause(self, events):
        attributions = attribute_stalls(build_timelines(events))
        assert len(attributions) == 1
        return attributions[0]

    def test_churn_loss_on_request_timeout(self):
        events = _session_prefix() + [
            SegmentRequested(
                time=2.0, peer="p", segment=3, source="q",
                urgent=True, expected_size=100.0,
            ),
            StallStarted(time=4.0, peer="p", segment=3,
                         expected_size=100.0),
            RequestTimedOut(
                time=5.0, peer="p", segment=3, source="q",
                retry_source="r",
            ),
            StallEnded(time=8.0, peer="p", segment=3, duration=4.0,
                       expected_size=100.0),
        ]
        verdict = self._one_cause(events)
        assert verdict.cause == "churn-loss"
        assert verdict.event_ids

    def test_churn_loss_on_source_departure(self):
        events = _session_prefix() + [
            PeerJoined(time=0.0, peer="q"),
            SegmentRequested(
                time=2.0, peer="p", segment=3, source="q",
                urgent=True, expected_size=100.0,
            ),
            StallStarted(time=4.0, peer="p", segment=3),
            PeerDeparted(time=5.0, peer="q", downloads_cancelled=1),
            StallEnded(time=8.0, peer="p", segment=3, duration=4.0),
        ]
        assert self._one_cause(events).cause == "churn-loss"

    def test_oversized_segment_when_w_exceeds_bt(self):
        events = _session_prefix() + [
            PoolResized(
                time=1.5, peer="p", size=2,
                buffered_playtime=2.0, bandwidth=100.0,
            ),
            SegmentRequested(
                time=2.0, peer="p", segment=3, source="q",
                urgent=True, expected_size=5000.0,  # W=5000 > B*T=200
            ),
            StallStarted(time=4.0, peer="p", segment=3,
                         expected_size=5000.0),
            StallEnded(time=8.0, peer="p", segment=3, duration=4.0,
                       expected_size=5000.0),
        ]
        verdict = self._one_cause(events)
        assert verdict.cause == "oversized-segment"
        assert "Section IV" in " ".join(verdict.evidence)

    def test_pool_undersubscription_when_requested_after_stall(self):
        events = _session_prefix() + [
            StallStarted(time=4.0, peer="p", segment=3),
            SegmentRequested(
                time=5.0, peer="p", segment=3, source="q",
                urgent=True, expected_size=100.0,
            ),
            StallEnded(time=8.0, peer="p", segment=3, duration=4.0),
        ]
        assert (
            self._one_cause(events).cause == "pool-undersubscription"
        )

    def test_seeder_bottleneck_on_concurrent_fanout(self):
        events = _session_prefix() + [
            SegmentRequested(
                time=2.0, peer="p", segment=3, source="seeder",
                urgent=True, expected_size=100.0,
            ),
            StallStarted(time=4.0, peer="p", segment=3),
        ]
        for i in range(5):
            events.append(
                TransferStarted(
                    time=3.0,
                    label=f"seeder->peer-{i}#{i}",
                    size=100.0, rtt=0.05, loss_rate=0.0,
                )
            )
        events.append(
            StallEnded(time=8.0, peer="p", segment=3, duration=4.0)
        )
        verdict = self._one_cause(events)
        assert verdict.cause == "seeder-bottleneck"
        assert verdict.blocking_source == "seeder"

    def test_connection_overhead_when_setup_dominates(self):
        events = _session_prefix() + [
            SegmentRequested(
                time=2.0, peer="p", segment=3, source="q",
                urgent=True, expected_size=100.0,
            ),
            StallStarted(time=4.0, peer="p", segment=3),
            TransferStarted(
                time=7.0, label="q->p#3", size=100.0,
                rtt=0.5, loss_rate=0.0,
            ),  # 5s of setup...
            PieceReceived(
                time=8.0, peer="p", segment=3, source="q",
                size=100.0, wait=6.0,
            ),  # ...1s of data
            StallEnded(time=8.0, peer="p", segment=3, duration=4.0),
        ]
        assert self._one_cause(events).cause == "connection-overhead"

    def test_startup_fallback_when_nothing_matches(self):
        events = _session_prefix() + [
            StallStarted(time=4.0, peer="p", segment=3),
            StallEnded(time=8.0, peer="p", segment=3, duration=4.0),
        ]
        assert self._one_cause(events).cause == "startup"

    def test_histogram_has_stable_shape_and_sums(self):
        events = _session_prefix() + [
            StallStarted(time=4.0, peer="p", segment=3),
            StallEnded(time=8.0, peer="p", segment=3, duration=4.0),
        ]
        histogram = cause_histogram(
            attribute_stalls(build_timelines(events))
        )
        assert tuple(histogram) == STALL_CAUSES
        assert sum(histogram.values()) == 1


# -- the property the ISSUE pins (hypothesis) --------------------------


class TestAttributionProperties:
    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.sampled_from((7, 17, 27, 42)),
        bandwidth_kb=st.sampled_from((128.0, 256.0, 512.0)),
    )
    def test_every_stall_gets_exactly_one_cause_summing_to_metrics(
        self, short_video, seed, bandwidth_kb
    ):
        splice = DurationSplicer(4.0).splice(short_video)
        obs = Observability.tracing()
        config = SwarmConfig(
            bandwidth=kB_per_s(bandwidth_kb),
            seeder_bandwidth=kB_per_s(8 * bandwidth_kb),
            n_leechers=4,
            seed=seed,
        )
        result = Swarm(splice, config, obs=obs).run()
        analysis = analyze_events(obs.events())
        # every stall attributed to exactly one documented cause
        for attribution in analysis.attributions:
            assert attribution.cause in STALL_CAUSES
            assert attribution.end >= attribution.start
            assert attribution.window[0] <= attribution.end
        # histogram sums to the run's StreamingMetrics stall count
        metrics_stalls = sum(
            m.stall_count for m in result.metrics.values()
        )
        assert sum(analysis.causes.values()) == metrics_stalls
        assert analysis.stall_count == metrics_stalls
        # and analysis is a pure function of the trace
        assert analysis == analyze_events(obs.events())


class TestSweepDeterminism:
    def test_jobs1_and_jobs4_attributions_are_byte_identical(
        self, short_video
    ):
        cfg = ExperimentConfig(seeds=(7, 17), n_leechers=4)
        cells = [
            cell_for(
                SplicerSpec("duration", 4.0), 192, cfg,
                video=short_video, label="det/a",
            ),
            cell_for(
                SplicerSpec("gop"), 512, cfg,
                video=short_video, label="det/b",
            ),
        ]
        serial = SweepExecutor(jobs=1).run_cells(cells, analyze=True)
        pooled = SweepExecutor(jobs=4).run_cells(cells, analyze=True)
        assert repr(serial) == repr(pooled)
        for cell in serial:
            assert cell.analysis is not None
            assert cell.analysis.runs == 2
            assert sum(cell.analysis.causes.values()) == (
                cell.analysis.stall_count
            )

    def test_unanalyzed_sweep_attaches_no_analysis(self, short_video):
        cfg = ExperimentConfig(seeds=(7,), n_leechers=4)
        cells = [
            cell_for(
                SplicerSpec("duration", 4.0), 192, cfg,
                video=short_video, label="plain",
            )
        ]
        (result,) = SweepExecutor(jobs=1).run_cells(cells)
        assert result.analysis is None


class TestMergeAnalyses:
    def test_folds_one_run_rollups_only(self, short_video):
        analysis = analyze_events(_stream(short_video)[1].events())
        rollup = analysis.rollup()
        assert (rollup.runs, rollup.mean_transfer_efficiency) == (
            1, analysis.transfer_efficiency
        )
        assert merge_analyses([rollup]) == rollup
        with pytest.raises(TraceError, match="runs=2"):
            merge_analyses([merge_analyses([rollup, rollup])])


# -- rendering ---------------------------------------------------------


class TestRendering:
    def test_render_analysis_mentions_causes_and_peers(
        self, short_video
    ):
        _, obs = _stream(short_video)
        analysis = analyze_events(obs.events())
        text = render_analysis(analysis)
        assert "## Stall causes" in text
        for cause in STALL_CAUSES:
            assert cause in text
        assert "peer-1" in text

    def test_gantt_has_one_row_per_peer_and_a_legend(
        self, short_video
    ):
        _, obs = _stream(short_video)
        timelines = build_timelines(obs.events())
        chart = render_gantt(
            timelines, attribute_stalls(timelines), width=40
        )
        lines = chart.splitlines()
        assert sum("|" in line for line in lines) >= len(
            timelines.timelines
        )
        assert "legend:" in lines[-1]

    def test_gantt_on_empty_trace(self):
        assert "no peers" in render_gantt(build_timelines([]))


# -- CLI ---------------------------------------------------------------


class TestAnalyzeCommand:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["analyze", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_corrupt_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text("this is not json\n")
        code = main(["analyze", str(path)])
        assert code == 2
        assert "corrupt trace" in capsys.readouterr().err

    def test_analyzes_a_real_trace(self, capsys, tmp_path, short_video):
        _, obs = _stream(short_video)
        path = tmp_path / "run.jsonl"
        dump_jsonl(obs.events(), str(path))
        code = main(["analyze", str(path), "--gantt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Stall causes" in out
        assert "## Timeline" in out
        assert "legend:" in out

    def test_prints_event_counts_by_severity(
        self, capsys, tmp_path, short_video
    ):
        _, obs = _stream(short_video)
        path = tmp_path / "run.jsonl"
        dump_jsonl(obs.events(), str(path))
        code = main(["analyze", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Events" in out
        assert "Events by category:" in out
        assert "Events by severity:" in out
        assert "info:" in out

    def test_reproduce_analyze_requires_figure(self, capsys):
        code = main(["reproduce", "--quick", "--analyze"])
        assert code == 2
        assert "--figure" in capsys.readouterr().err
