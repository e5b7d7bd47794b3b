"""Exporters: JSONL round-trips, CSV, and the per-peer trace summary."""

from __future__ import annotations

import io

import pytest

from repro.errors import TraceError
from repro.obs import (
    EVENT_TYPES,
    EventTracer,
    MetricsRegistry,
    PeerDeparted,
    PeerJoined,
    PlaybackFinished,
    PlaybackStarted,
    SelectionMade,
    StallEnded,
    StallStarted,
    analyze_events,
    dump_jsonl,
    event_counts,
    events_to_jsonl,
    load_jsonl,
    timeseries_csv,
)

def _one_of_each():
    """Build one plausible instance of every registered event type."""
    import dataclasses

    samples = {
        "time": 1.5,
        "pending": 3,
        "events_fired": 10,
        "wall_seconds": 0.25,
        "label": "a->b#4",
        "size": 1024.0,
        "rtt": 0.05,
        "loss_rate": 0.0125,
        "rate": 64000.0,
        "duration": 2.0,
        "transferred": 512.0,
        "peer": "peer-1",
        "downloads_cancelled": 2,
        "segments": 30,
        "known_peers": 4,
        "segment": 7,
        "source": "seeder",
        "urgent": True,
        "expected_size": 4096.0,
        "wait": 0.75,
        "retry_source": "peer-2",
        "buffered_playtime": 8.0,
        "bandwidth": 128000.0,
        "selector": "sequential",
        "head": (1, 2, 3),
        "candidates": 9,
        "startup_time": 4.5,
        "stalls": 2,
        "total_stall_duration": 3.25,
    }
    events = []
    for cls in EVENT_TYPES.values():
        kwargs = {
            field.name: samples[field.name]
            for field in dataclasses.fields(cls)
        }
        events.append(cls(**kwargs))
    return events


class TestJsonlRoundTrip:
    def test_every_event_type_round_trips_identically(self, tmp_path):
        events = _one_of_each()
        path = tmp_path / "trace.jsonl"
        dump_jsonl(events, str(path))
        assert load_jsonl(str(path)) == events

    def test_round_trip_through_file_object(self):
        events = _one_of_each()
        buffer = io.StringIO()
        dump_jsonl(events, buffer)
        buffer.seek(0)
        assert load_jsonl(buffer) == events

    def test_events_to_jsonl_one_line_per_event(self):
        events = _one_of_each()
        text = events_to_jsonl(events)
        assert len(text.strip().splitlines()) == len(events)

    def test_tuple_fields_survive(self, tmp_path):
        event = SelectionMade(
            time=0.0, peer="p", selector="s", head=(5, 6), candidates=2
        )
        path = tmp_path / "t.jsonl"
        dump_jsonl([event], str(path))
        loaded = load_jsonl(str(path))[0]
        assert loaded.head == (5, 6)
        assert isinstance(loaded.head, tuple)
        assert loaded == event

    def test_missing_file_raises(self):
        with pytest.raises(TraceError):
            load_jsonl("/nonexistent/trace.jsonl")

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{this is broken\n")
        with pytest.raises(TraceError, match="not JSON"):
            load_jsonl(str(path))

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(TraceError):
            load_jsonl(str(path))

    def test_unknown_event_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"event": "Mystery", "time": 0.0, '
            '"category": "x", "severity": "info"}\n'
        )
        with pytest.raises(TraceError, match="Mystery"):
            load_jsonl(str(path))

    def test_wrong_fields_raise(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"event": "PeerJoined", "time": 0.0, "category": "swarm", '
            '"severity": "info", "bogus": 1}\n'
        )
        with pytest.raises(TraceError, match="PeerJoined"):
            load_jsonl(str(path))


class TestTimeseriesCsv:
    def test_header_and_rows(self):
        registry = MetricsRegistry()
        series = registry.timeseries("net.link.up.utilization")
        series.sample(0.0, 0.5)
        series.sample(1.0, 0.75)
        lines = timeseries_csv(registry).strip().splitlines()
        assert lines[0] == "metric,time,value"
        assert lines[1] == "net.link.up.utilization,0.0,0.5"
        assert len(lines) == 3


class TestSummarizeTrace:
    """The per-peer sessions :func:`analyze_events` rebuilds."""

    def test_pairs_stalls(self):
        events = [
            PeerJoined(time=0.0, peer="p"),
            PlaybackStarted(time=2.0, peer="p", startup_time=2.0),
            StallStarted(time=5.0, peer="p", segment=3),
            StallEnded(time=6.0, peer="p", segment=3, duration=1.0),
            PlaybackFinished(
                time=30.0, peer="p", stalls=1, total_stall_duration=1.0
            ),
        ]
        summary = analyze_events(events).peers["p"]
        assert summary.joined == 0.0
        assert summary.startup_time == 2.0
        assert summary.stall_count == 1
        assert summary.total_stall_duration == pytest.approx(1.0)
        assert summary.finished
        assert not summary.departed

    def test_unpaired_start_not_counted(self):
        """A stall the safety cap cut short matches StreamingMetrics,
        which records a stall only once it has ended."""
        events = [
            PeerJoined(time=0.0, peer="p"),
            StallStarted(time=5.0, peer="p", segment=3),
        ]
        summary = analyze_events(events).peers["p"]
        assert summary.stall_count == 0
        assert summary.total_stall_duration == 0.0

    def test_departure_recorded(self):
        events = [
            PeerJoined(time=0.0, peer="p"),
            PeerDeparted(time=9.0, peer="p", downloads_cancelled=1),
        ]
        assert analyze_events(events).peers["p"].departed


class TestEventCounts:
    def test_counts_by_category_and_name(self):
        tracer = EventTracer()
        tracer.emit(PeerJoined(time=0.0, peer="a"))
        tracer.emit(PeerJoined(time=1.0, peer="b"))
        tracer.emit(StallStarted(time=2.0, peer="a", segment=0))
        counts = event_counts(tracer.events())
        assert counts["swarm"]["PeerJoined"] == 2
        assert counts["player"]["StallStarted"] == 1
