"""Content-addressed result store: identity, parity, resumability.

The store's contract is fourfold: (1) a run's cache key changes iff
something that determines the simulation's output changes, (2) a warm
sweep's merged results are byte-identical to the cold run at any
worker count, (3) entries commit as runs finish, so an interrupted
sweep resumes from disk, and (4) an entry is a checked JSON document:
whatever is wrong with one makes it a miss, never an exception.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import FixedPoolPolicy
from repro.errors import StoreError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SeedStats
from repro.obs.analyze import CellAnalysis
from repro.obs.causes import STALL_CAUSES
from repro.parallel import (
    CellSpec,
    ResultStore,
    SplicerSpec,
    SweepExecutor,
    VideoSpec,
    cell_for,
    run_identity,
)
from repro.parallel import store as store_module
from repro.parallel.spec import RunSpec, expand_runs
from repro.parallel.worker import RunOutcome

#: A run whose key needs no video: its spec names the video by seed.
SPEC = RunSpec(
    cell=CellSpec(
        splicer=SplicerSpec("duration", 4.0), bandwidth_kb=256,
        config=ExperimentConfig(n_leechers=2, seeds=(5,), max_time=300.0),
        video_spec=VideoSpec(seed=1, duration=20.0), label="entry",
    ),
    seed=5, cell_index=3, seed_index=0,
)
STATS = SeedStats(1.0, 1.1049846512611001, 4.692017059391286, 3678271.0,
                  1187617.0, 1.0, events_fired=75, end_time=300.0)
ROLLUP = CellAnalysis(
    causes=dict.fromkeys(STALL_CAUSES, 0) | {"seeder-bottleneck": 2},
    stall_count=2, runs=1, mean_transfer_efficiency=0.9733333333333334,
    mean_pool_deficit=None, violation_count=0, truncated_runs=0,
)
COUNTS = st.integers(min_value=0)
#: Unpickling a :class:`_Tripwire` records the call in ``UNPICKLED``.
UNPICKLED: list[bool] = []


def _unpickled() -> None:
    UNPICKLED.append(True)


class _Tripwire:
    def __reduce__(self):
        return _unpickled, ()


def _outcome(stats=STATS, analysis=ROLLUP) -> RunOutcome:
    return RunOutcome(
        cell_index=0, seed_index=0, seed=5, label="entry", stats=stats,
        wall_seconds=0.0625, analysis=analysis, pid=4242,
    )


def _entry_path(store: ResultStore, key: str):
    return store.root / key[:2] / f"{key}.json"


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(n_leechers=3, seeds=(5, 9), max_time=600.0)


def _cells(config, video):
    return [
        cell_for(SplicerSpec("gop"), 512, config, video=video,
                 label="store/gop @ 512"),
        cell_for(SplicerSpec("duration", 4.0), 256, config,
                 video=video, label="store/duration-4s @ 256"),
    ]


def _spec(config, video, **overrides):
    cell = cell_for(
        SplicerSpec("duration", 4.0), 256, config, video=video
    )
    if overrides:
        cell = replace(cell, **overrides)
    return RunSpec(cell=cell, seed=5, cell_index=0, seed_index=0)


class TestRunIdentity:
    def test_identity_is_stable(self, fast_config, short_video):
        a = run_identity(_spec(fast_config, short_video))
        b = run_identity(_spec(fast_config, short_video))
        assert a == b

    def test_merge_keys_do_not_participate(
        self, fast_config, short_video
    ):
        base = _spec(fast_config, short_video)
        moved = replace(base, cell_index=3, seed_index=1)
        flagged = replace(base, collect_analysis=True)
        assert run_identity(moved) == run_identity(base)
        assert run_identity(flagged) == run_identity(base)

    def test_seed_changes_identity(self, fast_config, short_video):
        base = _spec(fast_config, short_video)
        reseeded = replace(base, seed=6)
        assert run_identity(reseeded) != run_identity(base)

    def test_splicer_param_changes_identity(
        self, fast_config, short_video
    ):
        base = _spec(fast_config, short_video)
        resliced = _spec(
            fast_config, short_video,
            splicer=SplicerSpec("duration", 8.0),
        )
        assert run_identity(resliced) != run_identity(base)

    def test_fidelity_changes_identity(
        self, fast_config, short_video
    ):
        base = _spec(fast_config, short_video)
        tiered = _spec(fast_config, short_video, fidelity="cohort")
        assert run_identity(tiered) != run_identity(base)

    def test_policy_changes_identity(self, fast_config, short_video):
        base = _spec(fast_config, short_video)
        pooled = _spec(
            fast_config, short_video, policy=FixedPoolPolicy(2)
        )
        assert run_identity(pooled) != run_identity(base)

    def test_schema_changes_identity(
        self, fast_config, short_video, monkeypatch
    ):
        base = _spec(fast_config, short_video)
        current = run_identity(base)
        monkeypatch.setattr(store_module, "STORE_SCHEMA", "repro.store/999")
        assert run_identity(base) != current


class TestWarmSweep:
    def test_warm_rerun_hits_everything(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        cold = SweepExecutor(jobs=1, store=store).run_cells(cells)
        warm_exec = SweepExecutor(jobs=1, store=store)
        warm = warm_exec.run_cells(cells)
        assert warm == cold  # exact float equality
        stats = warm_exec.stats
        assert stats.runs_cached == stats.runs == 4
        assert stats.cells_cached == len(cells)
        assert stats.cells_computed == 0
        assert stats.events_fired == 0  # nothing was simulated

    def test_warm_hits_at_any_worker_count(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        cold = SweepExecutor(jobs=1, store=store).run_cells(cells)
        pooled_exec = SweepExecutor(jobs=4, store=store)
        pooled = pooled_exec.run_cells(cells)
        assert pooled == cold
        assert pooled_exec.stats.runs_cached == 4

    def test_cold_pooled_and_serial_fill_identical_stores(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        serial_store = ResultStore(tmp_path / "serial")
        pooled_store = ResultStore(tmp_path / "pooled")
        SweepExecutor(jobs=1, store=serial_store).run_cells(cells)
        SweepExecutor(jobs=4, store=pooled_store).run_cells(cells)
        assert serial_store.keys() == pooled_store.keys()

    def test_changed_cell_misses_unchanged_cells_hit(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        edited = [
            cells[0],
            cell_for(
                SplicerSpec("duration", 8.0), 256, fast_config,
                video=short_video,
                label="store/duration-8s @ 256",
            ),
        ]
        rerun = SweepExecutor(jobs=1, store=store)
        rerun.run_cells(edited)
        stats = rerun.stats
        assert stats.runs_cached == 2  # cells[0]'s two seeds
        assert stats.cells_cached == 1
        assert stats.cells_computed == 1


class TestResumability:
    def test_partial_store_resumes(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        # "Interrupted" sweep: only the first cell ever committed.
        SweepExecutor(jobs=1, store=store).run_cells(cells[:1])
        committed = len(store)
        resumed_exec = SweepExecutor(jobs=2, store=store)
        resumed = resumed_exec.run_cells(cells)
        stats = resumed_exec.stats
        assert stats.runs_cached == committed == 2
        assert stats.cells_cached == 1
        assert stats.cells_computed == 1
        cold = SweepExecutor(jobs=1).run_cells(cells)
        assert resumed == cold

    def test_commit_happens_per_run_not_per_sweep(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        # Both of the cell's seeds were committed individually.
        assert len(store) == 2


class TestWallClockRecord:
    """A computed run's wall time and pid live in its store entry."""

    def _entries(self, store, cells):
        return [
            json.loads(
                _entry_path(store, run_identity(spec)).read_text()
            )
            for spec in expand_runs(cells)
        ]

    def test_inline_entries_carry_wall_time_and_this_pid(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        entries = self._entries(store, cells)
        assert len(entries) == 4
        for entry in entries:
            assert entry["wall_seconds"] > 0
            assert entry["pid"] == os.getpid()

    def test_pooled_entries_carry_worker_pids(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=2, store=store).run_cells(cells)
        for entry in self._entries(store, cells):
            assert entry["wall_seconds"] > 0
            assert entry["pid"] != os.getpid()

    def test_repeat_entry_carries_the_original_run(
        self, fast_config, short_video, tmp_path
    ):
        original = _cells(fast_config, short_video)[0]
        # A label-only difference is the same simulation: a repeat.
        twin = replace(original, label="store/twin")
        store = ResultStore(tmp_path / "store")
        executor = SweepExecutor(jobs=1, store=store)
        executor.run_cells([original, twin])
        assert executor.stats.runs_cached == 2
        first = self._entries(store, [original])
        again = self._entries(store, [twin])
        assert [e["key"] for e in first] != [e["key"] for e in again]
        for one, repeat in zip(first, again):
            assert repeat["wall_seconds"] == one["wall_seconds"] > 0
            assert repeat["pid"] == one["pid"]


class TestComponentGating:
    def test_analysis_less_entry_misses_when_needed(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        upgraded = SweepExecutor(jobs=1, store=store)
        (result,) = upgraded.run_cells(cells, analyze=True)
        # Plain entries lack a diagnosis: the analyzing sweep
        # recomputed...
        assert upgraded.stats.runs_cached == 0
        assert result.analysis is not None
        # ...and upgraded the entries, so a second one hits.
        second = SweepExecutor(jobs=1, store=store)
        assert second.run_cells(cells, analyze=True) == [result]
        assert second.stats.runs_cached == 2

    def test_upgraded_entries_still_serve_plain_sweeps(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(
            cells, analyze=True
        )
        plain = SweepExecutor(jobs=1, store=store)
        (result,) = plain.run_cells(cells)
        assert plain.stats.runs_cached == 2
        assert result.analysis is None


class TestInvalidation:
    def test_schema_bump_orphans_old_entries(
        self, fast_config, short_video, tmp_path, monkeypatch
    ):
        cells = _cells(fast_config, short_video)[:1]
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "STORE_SCHEMA", "repro.store/0")
            old = ResultStore(tmp_path / "store")
            SweepExecutor(jobs=1, store=old).run_cells(cells)
        # Same directory, current schema: the schema participates in
        # the key, so every old entry simply misses (different path).
        new = ResultStore(tmp_path / "store")
        rerun = SweepExecutor(jobs=1, store=new)
        rerun.run_cells(cells)
        assert rerun.stats.runs_cached == 0
        assert new.stats.misses == 2
        assert new.stats.stores == 2

    def test_schema_mismatch_inside_entry_invalidates(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "STORE_SCHEMA", "repro.store/0")
            store.put(SPEC, _outcome())
            old = _entry_path(store, run_identity(SPEC))
        # Plant the old-schema entry, its key field rewritten to the
        # current key, where the current schema looks.
        entry = json.loads(old.read_text())
        assert entry["schema"] == "repro.store/0"
        key = run_identity(SPEC)
        _entry_path(store, key).parent.mkdir(exist_ok=True)
        _entry_path(store, key).write_text(json.dumps({**entry, "key": key}))
        assert store.get(SPEC) is None
        assert store.stats.invalidations == 1

    def test_corrupt_entry_invalidates(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        for key in store.keys():
            _entry_path(store, key).write_bytes(b"not json")
        rerun = SweepExecutor(jobs=1, store=store)
        outcome = rerun.run_cells(cells)
        assert rerun.stats.runs_cached == 0
        assert store.stats.invalidations == 2
        assert outcome  # recomputed fine

    def test_wrong_key_entry_invalidates(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        other = replace(SPEC, seed=9)
        store.put(other, _outcome())
        # Splice one run's entry under the other's key.
        path = _entry_path(store, run_identity(SPEC))
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(_entry_path(store, run_identity(other)).read_bytes())
        assert store.get(SPEC) is None
        assert store.stats.invalidations == 1


class TestStoreApi:
    def test_put_rejects_failed_outcome(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.put(SPEC, replace(_outcome(), error="boom"))

    def test_entries_never_carry_profiles(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells, analyze=True)
        assert len(store) == 2
        for key in store.keys():
            entry = json.loads(_entry_path(store, key).read_text())
            assert list(entry) == [
                "schema", "key", "wall_seconds", "pid", "stats",
                "analysis",
            ]
            assert list(entry["stats"]) == list(asdict(STATS))
            assert list(entry["analysis"]) == list(asdict(ROLLUP))
            assert (entry["schema"], entry["key"]) == (
                store_module.STORE_SCHEMA, key
            )

    def test_absorb_unions_stores(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)
        left = ResultStore(tmp_path / "left")
        right = ResultStore(tmp_path / "right")
        SweepExecutor(jobs=1, store=left).run_cells(cells[:1])
        SweepExecutor(jobs=1, store=right).run_cells(cells[1:])
        merged = ResultStore(tmp_path / "merged")
        assert merged.absorb(left) == 2
        assert merged.absorb(right) == 2
        assert merged.absorb(left) == 0  # already present
        assert len(merged) == 4
        warm = SweepExecutor(jobs=1, store=merged)
        warm.run_cells(cells)
        assert warm.stats.runs_cached == 4


class TestEntryFormat:
    @settings(max_examples=60, deadline=None)
    @given(
        # Fields typed ``float`` draw every float, NaN and +-inf included.
        stats=st.builds(SeedStats, events_fired=COUNTS, end_time=st.floats()),
        analysis=st.none() | st.builds(
            CellAnalysis, causes=st.dictionaries(st.text(), COUNTS),
            stall_count=COUNTS, runs=st.just(1), violation_count=COUNTS,
            truncated_runs=COUNTS,
        ),
    )
    def test_round_trip_is_exact(self, tmp_path_factory, stats, analysis):
        # A hit takes its merge keys, seed and label from the request.
        store = ResultStore(tmp_path_factory.mktemp("store"))
        outcome = _outcome(stats, analysis)
        store.put(SPEC, outcome)
        expected = replace(outcome, cell_index=3, cached=True)
        assert repr(store.get(SPEC)) == repr(expected)

    def test_non_finite_floats_use_the_json_module_tokens(self, tmp_path):
        # Not JSON numbers: entries hold the tokens Python's json reads.
        store = ResultStore(tmp_path / "store")
        nan, inf = float("nan"), float("inf")
        stats = replace(STATS, stall_count=nan, startup_time=inf,
                        end_time=-inf)
        store.put(SPEC, _outcome(stats))
        text = _entry_path(store, run_identity(SPEC)).read_text()
        assert '"stall_count": NaN, ' in text
        assert '"startup_time": Infinity, ' in text
        assert '"end_time": -Infinity}' in text
        assert repr(store.get(SPEC).stats) == repr(stats)

    @pytest.mark.parametrize("corrupt", [
        lambda doc, raw: {**doc, "stats": {**doc["stats"], "peer_bytes": "1"}},
        lambda doc, raw: {k: v for k, v in doc.items() if k != "pid"},
        lambda doc, raw: {**doc, "analysis": {**doc["analysis"], "runs": 2}},
        lambda doc, raw: raw[: len(raw) // 2],
        lambda doc, raw: b"\xff" + raw,
        lambda doc, raw: [doc],
    ], ids=["wrong-type", "missing-field", "two-run-rollup", "truncated",
            "not-utf-8", "array"])
    def test_corrupt_entry_is_an_invalidation(self, tmp_path, corrupt):
        store = ResultStore(tmp_path / "store")
        store.put(SPEC, _outcome())
        path = _entry_path(store, run_identity(SPEC))
        raw = path.read_bytes()
        bad = corrupt(json.loads(raw), raw)
        path.write_bytes(bad if isinstance(bad, bytes) else
                         json.dumps(bad).encode())
        assert store.get(SPEC) is None
        assert (store.stats.misses, store.stats.invalidations) == (1, 1)

    def test_legacy_pickle_entry_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = run_identity(SPEC)
        legacy = store.root / key[:2] / f"{key}.pkl"
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(pickle.dumps({"outcome": _Tripwire()}))
        assert store.get(SPEC) is None
        assert (store.stats.misses, store.stats.invalidations) == (1, 0)
        merged = ResultStore(tmp_path / "merged")
        assert (len(store), merged.absorb(store)) == (0, 0)
        assert not merged.root.exists() and UNPICKLED == []
