"""Sharded sweep service: plan determinism, partition, merge parity.

The protocol's guarantee: K shards run anywhere, at any worker count,
and the merged figure is byte-identical to a single-machine run —
because the plan's content digests pin the exact sweep and the merged
store serves the original per-run outcomes.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.errors import StoreError
from repro.experiments import ablations, fig2, sweep_service
from repro.experiments.config import QUICK_BANDWIDTHS_KB, sweep_config
from repro.experiments.report import format_figure
from repro.experiments.sweep_service import (
    SWEEP_SCHEMA,
    build_plan,
    dump_plan,
    expand_runs,
    load_plan,
    merge_plan,
    run_shard,
    shard_of,
)
from repro.obs.ops import (
    OPS_SCHEMA,
    fleet_status,
    heartbeat_path,
    ops_root,
    read_heartbeat,
)
from repro.parallel import ResultStore, SweepExecutor, run_identity


@pytest.fixture(scope="module")
def quick_plan():
    return build_plan("2", quick=True, shards=3)


class TestPlan:
    def test_plan_is_deterministic(self, quick_plan):
        again = build_plan("2", quick=True, shards=3)
        assert again == quick_plan

    def test_plan_shape(self, quick_plan):
        assert quick_plan["schema"] == SWEEP_SCHEMA
        assert quick_plan["figure"] == "2"
        assert quick_plan["shards"] == 3
        assert quick_plan["total_runs"] == len(quick_plan["runs"])
        # quick fig2: 4 techniques x 2 bandwidths x 1 seed
        assert quick_plan["total_runs"] == 8

    def test_every_run_lands_in_exactly_one_shard(self, quick_plan):
        for run in quick_plan["runs"]:
            assert run["shard"] == shard_of(run["digest"], 3)
            assert 0 <= run["shard"] < 3

    def test_digests_are_unique(self, quick_plan):
        digests = [run["digest"] for run in quick_plan["runs"]]
        assert len(set(digests)) == len(digests)

    def test_shard_count_scales_partition(self):
        single = build_plan("2", quick=True, shards=1)
        assert {run["shard"] for run in single["runs"]} == {0}
        # Same sweep, same digests — only the partition changes.
        wide = build_plan("2", quick=True, shards=5)
        assert [run["digest"] for run in wide["runs"]] == [
            run["digest"] for run in single["runs"]
        ]

    def test_rejects_bad_shard_count(self):
        with pytest.raises(StoreError):
            build_plan("2", quick=True, shards=0)

    def test_rejects_unknown_figure(self):
        with pytest.raises(StoreError):
            build_plan("9", quick=True)

    def test_plan_round_trips_through_disk(
        self, quick_plan, tmp_path
    ):
        path = tmp_path / "plan.json"
        dump_plan(quick_plan, path)
        assert load_plan(path) == quick_plan


#: sha256 of the JSON list of ordered run digests of every figure
#: plan, per (figure, quick).  Each digest is a run's result-store key,
#: so any drift in a cell's label, policy, splicer or config silently
#: orphans every existing store entry and stales every sweep plan.
#: Change these only together with a deliberate store-key break.
STORE_KEYS = {
    ("2", True): "9dee0c7d1aab9d8bf891d66570a31ffd"
    "157105a02a8b123a7234d50f4ef29597",
    ("2", False): "57399cf2406275b31b4508a32e4d08a7"
    "49ee4db19d4ce52ba2089555123de184",
    ("3", True): "9b793456b2eb10256767c51c24182460"
    "95c802299e150defb1389d55534d84dc",
    ("3", False): "16e7c10e41615abf8b81e964bc0b3e47"
    "bcbb7e8de90b8d378b27da718c84caa0",
    ("4", True): "8bc733005d05756d8abd00d04360b9e4"
    "a5998bc9350e7fbde4a6ad926fc48568",
    ("4", False): "ce3c8b89d9e01f25475ba1f7fb7a4b1e"
    "73da63012237d94e42455497df582fba",
    ("5", True): "b649c7f9f7dc8f6a44c41fcd72845759"
    "19886c5bdc672d43cac06ea3f7e3e99c",
    ("5", False): "2b7fb9595d9c4a4a09946d394922131f"
    "13b8aa43f0c35f2304ff133f97efd39f",
}


class TestStoreKeys:
    @pytest.mark.parametrize("figure,quick", sorted(STORE_KEYS))
    def test_figure_store_keys_are_pinned(self, figure, quick):
        digests = [
            run["digest"] for run in build_plan(figure, quick)["runs"]
        ]
        payload = json.dumps(digests).encode("utf-8")
        assert (
            hashlib.sha256(payload).hexdigest()
            == STORE_KEYS[(figure, quick)]
        )


#: sha256 of the JSON list of ordered run digests of each swarm
#: ablation at quick scale and its default axes, as ``repro reproduce
#: --quick`` requests them.  Recorded before cells could carry a piece
#: selector or transport: those optional ``CellSpec`` fields must not
#: move an existing key.
ABLATION_KEYS = {
    "A1": "e25331ca28ad4a96f7e8e17bbd7b35cf"
    "21fc4024f1d318c8537866ac6eced871",
    "A2": "3c4eebe31dae9a02ae278bdaf0fe55d6"
    "40aa89ff047f9825dcd444335fc5265f",
    "A4": "975658002bc6a6c41d956a4b09c9383a"
    "20d22588bf25dd1575dd3714b0fab339",
    "A5": "94884d78ee71f969c934e34e2731f7d0"
    "8b64c03d6d16fac75d134cf04192abcd",
    "A7": "48762c0de85de3eac029a28a6e49a128"
    "26f90deaf5cbdda70aa3d7817381d422",
    "A8": "c345b648fd3ad44c46ed28c537c193da"
    "4908f14b806d63bb74db66fe699edcb3",
}

ABLATIONS = {
    "A1": ablations.run_segment_size_sweep,
    "A2": ablations.run_churn,
    "A4": ablations.run_variable_bandwidth,
    "A5": ablations.run_adaptive_splicing,
    "A7": ablations.run_preroll,
    "A8": ablations.run_swarm_scaling,
}


class _CellRecorder:
    """Stands in for a :class:`SweepExecutor`: records, runs nothing."""

    def __init__(self):
        self.cells = []

    def run_cells(self, cells, analyze=False):
        self.cells.extend(cells)
        return [None] * len(cells)


class TestAblationStoreKeys:
    @pytest.mark.parametrize("figure", sorted(ABLATION_KEYS))
    def test_ablation_store_keys_are_pinned(self, figure):
        recorder = _CellRecorder()
        ABLATIONS[figure](sweep_config(True), executor=recorder)
        digests = [run_identity(spec) for spec in expand_runs(recorder.cells)]
        payload = json.dumps(digests).encode("utf-8")
        assert (
            hashlib.sha256(payload).hexdigest() == ABLATION_KEYS[figure]
        )


def _reload(document, tmp_path):
    """Write ``document`` as a plan file and read it back."""
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(document))
    return load_plan(path)


class TestValidation:
    def test_rejects_non_object(self, tmp_path):
        with pytest.raises(StoreError):
            _reload([1, 2], tmp_path)

    def test_rejects_wrong_schema(self, quick_plan, tmp_path):
        with pytest.raises(StoreError, match="schema"):
            _reload({**quick_plan, "schema": "repro.sweep/0"}, tmp_path)

    def test_rejects_unknown_figure(self, quick_plan, tmp_path):
        with pytest.raises(StoreError, match="figure"):
            _reload({**quick_plan, "figure": "7"}, tmp_path)

    def test_rejects_empty_runs(self, quick_plan, tmp_path):
        with pytest.raises(StoreError, match="no runs"):
            _reload({**quick_plan, "runs": []}, tmp_path)

    def test_rejects_out_of_range_shard(self, quick_plan, tmp_path):
        runs = [dict(run) for run in quick_plan["runs"]]
        runs[0]["shard"] = 99
        with pytest.raises(StoreError, match="outside"):
            _reload({**quick_plan, "runs": runs}, tmp_path)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(StoreError, match="JSON"):
            load_plan(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(StoreError, match="cannot read"):
            load_plan(tmp_path / "absent.json")


class TestStalePlans:
    def test_tampered_digest_detected(self, quick_plan, tmp_path):
        runs = [dict(run) for run in quick_plan["runs"]]
        runs[0]["digest"] = "0" * 16
        stale = _reload({**quick_plan, "runs": runs}, tmp_path)
        with pytest.raises(StoreError, match="stale"):
            sweep_service._rebuild_specs(stale)

    def test_bad_shard_index_rejected(self, quick_plan, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StoreError, match="shard"):
            run_shard(quick_plan, 3, store)


@pytest.mark.slow
class TestShardedRunParity:
    def test_three_shards_merge_to_direct_run(self, tmp_path):
        plan = build_plan("2", quick=True, shards=3)
        reports = []
        for shard in range(3):
            store = ResultStore(tmp_path / f"shard-{shard}")
            reports.append(
                run_shard(plan, shard, store, jobs=2)
            )
        assert sum(r.runs for r in reports) == plan["total_runs"]
        assert all(r.cached == 0 for r in reports)

        merged = ResultStore(tmp_path / "merged")
        report = merge_plan(
            plan,
            merged,
            sources=[tmp_path / f"shard-{s}" for s in range(3)],
            jobs=2,
        )
        assert report.absorbed == plan["total_runs"]
        assert report.cached == plan["total_runs"]
        assert report.computed == 0

        config = sweep_service.sweep_config(True, "exact")
        direct = fig2.run(
            config,
            bandwidths_kb=QUICK_BANDWIDTHS_KB,
            executor=SweepExecutor(jobs=1),
        )
        assert format_figure(report.result) == format_figure(direct)

    def test_merge_computes_missing_shards(self, tmp_path):
        plan = build_plan("2", quick=True, shards=3)
        # Only shard 0 ever ran: merge must compute the rest.
        store = ResultStore(tmp_path / "shard-0")
        report0 = run_shard(plan, 0, store, jobs=2)
        merged = ResultStore(tmp_path / "merged")
        report = merge_plan(
            plan, merged, sources=[tmp_path / "shard-0"], jobs=2
        )
        assert report.cached == report0.runs
        assert report.computed == plan["total_runs"] - report0.runs

    def test_rerunning_a_shard_is_all_cache_hits(self, tmp_path):
        plan = build_plan("2", quick=True, shards=3)
        store = ResultStore(tmp_path / "store")
        first = run_shard(plan, 0, store, jobs=2)
        second = run_shard(plan, 0, store, jobs=1)
        assert second.runs == first.runs
        assert second.cached == first.runs
        assert second.computed == 0


class TestCliSweep:
    @pytest.mark.slow
    def test_plan_run_merge_round_trip(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        plan_path = tmp_path / "plan.json"
        assert main([
            "sweep", "plan", "--figure", "2", "--quick",
            "--shards", "2", "--output", str(plan_path),
        ]) == 0
        assert "2 shard(s)" in capsys.readouterr().out
        payload = json.loads(plan_path.read_text())
        assert payload["schema"] == SWEEP_SCHEMA

        for shard in ("0", "1"):
            assert main([
                "sweep", "run", str(plan_path),
                "--shard", shard,
                "--store", str(tmp_path / f"s{shard}"),
                "--jobs", "2",
            ]) == 0
        assert "shard 1/2" in capsys.readouterr().out

        assert main([
            "sweep", "merge", str(plan_path),
            "--store", str(tmp_path / "merged"),
            "--from", str(tmp_path / "s0"),
            "--from", str(tmp_path / "s1"),
        ]) == 0
        merged_out = capsys.readouterr()
        assert "fig2" in merged_out.out
        assert "0 computed" in merged_out.err

    def test_malformed_plan_exits_2(self, tmp_path, capsys, quick_plan):
        from repro.cli import main

        incomplete = [
            {k: v for k, v in quick_plan.items() if k != "quick"},
            {k: v for k, v in quick_plan.items() if k != "fidelity"},
            {**quick_plan, "quick": "yes"},
            {**quick_plan, "fidelity": 3},
        ]
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        assert main([
            "sweep", "run", str(bad),
            "--shard", "0", "--store", str(tmp_path / "s"),
        ]) == 2
        assert "error:" in capsys.readouterr().err
        for plan in incomplete:
            dump_plan(plan, bad)
            with pytest.raises(StoreError, match="quick|fidelity"):
                load_plan(bad)
            assert main([
                "sweep", "run", str(bad),
                "--shard", "0", "--store", str(tmp_path / "s"),
            ]) == 2
            assert "error:" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, quick_plan, tmp_path, capsys):
        from repro.cli import main

        plan = tmp_path / "plan.json"
        dump_plan(quick_plan, plan)
        assert main([
            "sweep", "run", str(plan),
            "--shard", "0", "--store", str(tmp_path / "s"),
            "--jobs", "0",
        ]) == 2
        assert "error: jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.slow
class TestOpsTelemetry:
    def test_shard_and_merge_leave_only_the_heartbeat(
        self, quick_plan, tmp_path
    ):
        store = ResultStore(tmp_path / "s0")
        run_shard(quick_plan, 0, store, jobs=1)
        merged = ResultStore(tmp_path / "merged")
        merge_plan(quick_plan, merged, sources=[store.root], jobs=1)
        merge_plan(quick_plan, store, jobs=1)
        assert sorted(ops_root(store.root).iterdir()) == [
            heartbeat_path(store.root, 0)
        ]
        assert not ops_root(merged.root).exists()

    def test_run_shard_writes_heartbeat(self, quick_plan, tmp_path):
        store = ResultStore(tmp_path / "s0")
        report = run_shard(quick_plan, 0, store, jobs=1)
        payload = read_heartbeat(heartbeat_path(store.root, 0))
        assert payload["schema"] == OPS_SCHEMA
        assert payload["state"] == "done"
        assert payload["shard"] == 0
        assert payload["shards"] == 3
        assert payload["pid"] == os.getpid()
        assert payload["runs_done"] == report.runs
        assert payload["runs_computed"] == report.computed
        assert payload["in_flight"] == 0


class TestFleetView:
    def beat(self, updated, shard=0, state="running", done=0,
             total=3, rate=None):
        return {
            "schema": OPS_SCHEMA,
            "kind": "heartbeat",
            "shard": shard,
            "shards": 3,
            "pid": 1,
            "state": state,
            "started": updated - 10.0,
            "updated": updated,
            "runs_total": total,
            "runs_done": done,
            "runs_computed": done,
            "runs_cached": 0,
            "runs_failed": 0,
            "in_flight": total - done,
            "last_commit": None,
            "rate_runs_per_s": rate,
            "eta_s": None,
        }

    def test_planned_counts_come_from_the_plan(self, quick_plan):
        statuses = fleet_status(quick_plan, [], now=0.0)
        assert len(statuses) == 3
        assert sum(s.planned for s in statuses) == 8
        assert all(s.state == "missing" for s in statuses)

    def test_stalled_shard_flagged_as_straggler(self, quick_plan):
        now = 1000.0
        statuses = fleet_status(
            quick_plan,
            [
                self.beat(now - 1.0, shard=0, done=2, rate=2.0),
                self.beat(now - 1.0, shard=1, done=2, rate=2.0),
                self.beat(now - 1.0, shard=2, done=1, rate=0.2),
            ],
            now=now,
        )
        assert [s.straggler for s in statuses] == [
            False, False, True,
        ]

    def test_killed_shard_detected_by_stale_heartbeat(
        self, quick_plan
    ):
        now = 1000.0
        statuses = fleet_status(
            quick_plan,
            [
                self.beat(now - 1.0, shard=0, done=3, state="done"),
                self.beat(now - 300.0, shard=1, done=1, rate=1.0),
            ],
            now=now,
            stale_after=30.0,
        )
        assert statuses[1].state == "dead"
        assert statuses[2].state == "missing"

    @pytest.mark.slow
    def test_cli_status_renders_fleet(
        self, quick_plan, tmp_path, capsys
    ):
        import time

        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        dump_plan(quick_plan, plan_path)
        store = ResultStore(tmp_path / "s0")
        run_shard(quick_plan, 0, store, jobs=1)
        assert main([
            "sweep", "status", str(plan_path),
            "--store", str(store.root),
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep fleet: figure 2 (quick)" in out
        assert "shard 0" in out
        assert "done" in out
        assert "no heartbeat" in out

        # A stale still-"running" heartbeat from a killed worker.
        dead = self.beat(time.time() - 300.0, shard=1, done=1)
        heartbeat_path(tmp_path / "s1", 1).parent.mkdir(
            parents=True, exist_ok=True
        )
        heartbeat_path(tmp_path / "s1", 1).write_text(
            json.dumps(dead), encoding="utf-8"
        )
        assert main([
            "sweep", "status", str(plan_path),
            "--store", str(store.root),
            "--store", str(tmp_path / "s1"),
        ]) == 0
        assert "DEAD" in capsys.readouterr().out
