"""Wall-clock ops telemetry: heartbeats and the fleet view."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.errors import OpsError
from repro.obs.ops import (
    OPS_SCHEMA,
    ShardHeartbeat,
    find_heartbeats,
    fleet_status,
    heartbeat_path,
    ops_root,
    read_heartbeat,
    render_fleet,
)


class FakeClock:
    """A deterministic epoch-seconds clock tests advance by hand."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def outcome(ok: bool = True, cached: bool = False) -> SimpleNamespace:
    return SimpleNamespace(
        ok=ok,
        cached=cached,
        cell_index=0,
        stats=SimpleNamespace(stall_count=0.0),
    )


def runs(count: int) -> list[SimpleNamespace]:
    cell = SimpleNamespace(describe=lambda: "cell")
    return [SimpleNamespace(cell_index=0, cell=cell)] * count


def fake_plan(shards: int, per_shard: list[int]) -> dict:
    runs = [
        {"shard": shard}
        for shard, count in enumerate(per_shard)
        for _ in range(count)
    ]
    return {
        "figure": "2",
        "quick": True,
        "shards": shards,
        "runs": runs,
    }


def heartbeat(
    shard: int,
    updated: float,
    state: str = "running",
    done: int = 0,
    total: int = 4,
    rate: float | None = None,
    computed: int | None = None,
) -> dict:
    return {
        "schema": OPS_SCHEMA,
        "kind": "heartbeat",
        "shard": shard,
        "shards": 3,
        "pid": 123,
        "state": state,
        "started": updated - 10.0,
        "updated": updated,
        "runs_total": total,
        "runs_done": done,
        "runs_computed": computed if computed is not None else done,
        "runs_cached": 0,
        "runs_failed": 0,
        "in_flight": total - done,
        "last_commit": None,
        "rate_runs_per_s": rate,
        "eta_s": (total - done) / rate if rate else None,
    }


class TestShardHeartbeat:
    def make(self, tmp_path, clock, interval=1.0):
        return ShardHeartbeat(
            heartbeat_path(tmp_path, 0),
            shard=0,
            shards=3,
            interval=interval,
            clock=clock,
        )

    def test_begin_writes_immediately(self, tmp_path):
        beat = self.make(tmp_path, FakeClock())
        beat.begin(runs(4))
        payload = read_heartbeat(beat.path)
        assert payload["state"] == "running"
        assert payload["runs_total"] == 4
        assert payload["runs_done"] == 0
        assert payload["in_flight"] == 4
        assert payload["schema"] == OPS_SCHEMA

    def test_updates_are_rate_limited(self, tmp_path):
        clock = FakeClock()
        beat = self.make(tmp_path, clock, interval=10.0)
        beat.begin(runs(4))
        clock.advance(1.0)
        beat.update(outcome())
        # Inside the interval: file still shows the begin state.
        assert read_heartbeat(beat.path)["runs_done"] == 0
        clock.advance(10.0)
        beat.update(outcome())
        assert read_heartbeat(beat.path)["runs_done"] == 2

    def test_final_run_always_writes(self, tmp_path):
        clock = FakeClock()
        beat = self.make(tmp_path, clock, interval=1000.0)
        beat.begin(runs(2))
        clock.advance(0.1)
        beat.update(outcome())
        clock.advance(0.1)
        beat.update(outcome())
        assert read_heartbeat(beat.path)["runs_done"] == 2

    def test_rate_and_eta_from_observed_run_rate(self, tmp_path):
        clock = FakeClock()
        beat = self.make(tmp_path, clock)
        beat.begin(runs(4))
        clock.advance(2.0)
        beat.update(outcome())
        clock.advance(2.0)
        beat.update(outcome())
        payload = read_heartbeat(beat.path)
        assert payload["rate_runs_per_s"] == pytest.approx(0.5)
        assert payload["eta_s"] == pytest.approx(4.0)
        assert payload["last_commit"] == pytest.approx(clock.now)

    def test_finish_downgrades_to_failed_on_failures(self, tmp_path):
        clock = FakeClock()
        beat = self.make(tmp_path, clock)
        beat.begin(runs(2))
        beat.update(outcome(ok=False))
        clock.advance(2.0)
        beat.update(outcome())
        beat.finish()
        payload = read_heartbeat(beat.path)
        assert payload["state"] == "failed"
        assert payload["runs_failed"] == 1

    def test_cached_runs_counted_separately(self, tmp_path):
        clock = FakeClock()
        beat = self.make(tmp_path, clock)
        beat.begin(runs(2))
        clock.advance(2.0)
        beat.update(outcome(cached=True))
        clock.advance(2.0)
        beat.update(outcome())
        beat.finish()
        payload = read_heartbeat(beat.path)
        assert payload["runs_cached"] == 1
        assert payload["runs_computed"] == 1
        assert payload["state"] == "done"

    def test_read_rejects_schema_drift(self, tmp_path):
        path = tmp_path / "bad.heartbeat.json"
        for payload, match in [
            ({"schema": "repro.ops/99", "kind": "heartbeat"},
             "repro.ops/99"),
            ({**heartbeat(0, 1000.0), "shard": True}, "shard"),
            ({**heartbeat(0, 1000.0), "runs_done": "lots"}, "runs_done"),
            ({**heartbeat(0, 1000.0), "updated": "x"}, "updated"),
            ({**heartbeat(0, 1000.0), "state": "paused"}, "state"),
        ]:
            path.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(OpsError, match=match):
                read_heartbeat(path)

    def test_read_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.heartbeat.json"
        path.write_text(
            json.dumps({"schema": OPS_SCHEMA, "kind": "header"}),
            encoding="utf-8",
        )
        with pytest.raises(OpsError, match="kind"):
            read_heartbeat(path)

    def test_find_heartbeats_scans_store_roots(self, tmp_path):
        clock = FakeClock()
        for shard, root in enumerate(["a", "b"]):
            beat = ShardHeartbeat(
                heartbeat_path(tmp_path / root, shard),
                shard=shard,
                shards=2,
                clock=clock,
            )
            beat.begin(runs(1))
        found = find_heartbeats(
            [tmp_path / "a", tmp_path / "b", tmp_path / "empty"]
        )
        assert sorted(p["shard"] for p in found) == [0, 1]


class TestFleetStatus:
    def test_joins_plan_with_heartbeats(self):
        plan = fake_plan(3, [4, 4, 4])
        now = 1000.0
        statuses = fleet_status(
            plan,
            [
                heartbeat(0, now - 1.0, done=4, state="done"),
                heartbeat(1, now - 1.0, done=2, rate=1.0),
            ],
            now=now,
        )
        assert [s.state for s in statuses] == [
            "done",
            "running",
            "missing",
        ]
        assert statuses[0].planned == 4
        assert statuses[1].done == 2
        assert statuses[2].note == "no heartbeat"

    def test_stale_running_heartbeat_marks_shard_dead(self):
        plan = fake_plan(3, [4, 4, 4])
        now = 1000.0
        statuses = fleet_status(
            plan,
            [
                heartbeat(0, now - 1.0, done=2, rate=1.0),
                heartbeat(1, now - 120.0, done=1, rate=1.0),
                heartbeat(2, now - 1.0, done=4, state="done"),
            ],
            now=now,
            stale_after=30.0,
        )
        assert statuses[1].state == "dead"
        assert "stale" in statuses[1].note
        # Terminal heartbeats never go stale: the shard exited.
        assert statuses[2].state == "done"

    def test_slow_shard_flagged_as_straggler(self):
        plan = fake_plan(3, [4, 4, 4])
        now = 1000.0
        statuses = fleet_status(
            plan,
            [
                heartbeat(0, now - 1.0, done=2, rate=2.0),
                heartbeat(1, now - 1.0, done=2, rate=2.0),
                heartbeat(2, now - 1.0, done=1, rate=0.1),
            ],
            now=now,
            straggler_below=0.5,
        )
        assert [s.straggler for s in statuses] == [False, False, True]
        assert statuses[2].state == "running"
        assert "median" in statuses[2].note

    def test_lone_running_shard_is_never_a_straggler(self):
        plan = fake_plan(2, [4, 4])
        now = 1000.0
        statuses = fleet_status(
            plan,
            [
                heartbeat(0, now - 1.0, done=4, state="done"),
                heartbeat(1, now - 1.0, done=1, rate=0.01),
            ],
            now=now,
        )
        assert not statuses[1].straggler

    def test_freshest_heartbeat_wins_per_shard(self):
        plan = fake_plan(1, [4])
        now = 1000.0
        statuses = fleet_status(
            plan,
            [
                heartbeat(0, now - 50.0, done=1),
                heartbeat(0, now - 1.0, done=3, rate=1.0),
            ],
            now=now,
        )
        assert statuses[0].done == 3
        assert statuses[0].state == "running"

    def test_render_fleet_shows_bars_and_flags(self):
        plan = fake_plan(3, [4, 4, 4])
        now = 1000.0
        statuses = fleet_status(
            plan,
            [
                heartbeat(0, now - 1.0, done=2, rate=2.0),
                heartbeat(1, now - 1.0, done=2, rate=2.0),
                heartbeat(2, now - 120.0, done=1, rate=1.0),
            ],
            now=now,
        )
        text = render_fleet(plan, statuses)
        assert "figure 2 (quick)" in text
        assert "shard 0" in text
        assert "runs/s" in text
        assert "ETA" in text
        assert "DEAD" in text
        assert "#" in text

    def test_telemetry_paths_live_under_the_store(self, tmp_path):
        path = heartbeat_path(tmp_path, 2)
        assert path.name == "shard-2.heartbeat.json"
        assert path.parent == ops_root(tmp_path) == tmp_path / "repro.ops"
