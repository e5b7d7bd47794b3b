"""Content-addressed result store: identity, parity, resumability.

The store's contract is threefold: (1) a run's cache key changes iff
something that determines the simulation's output changes, (2) a warm
sweep's merged results are byte-identical to the cold run at any
worker count, and (3) entries commit as runs finish, so an interrupted
sweep resumes from disk.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.policy import FixedPoolPolicy
from repro.errors import StoreError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SeedStats
from repro.parallel import (
    CellSpec,
    ResultStore,
    SplicerSpec,
    SweepExecutor,
    VideoSpec,
    cell_for,
    run_identity,
)
from repro.parallel.spec import RunSpec

FIXTURES = Path(__file__).resolve().parent / "fixtures"


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

    def test_schema_changes_identity(self, fast_config, short_video):
        base = _spec(fast_config, short_video)
        assert run_identity(base, schema="repro.store/999") != (
            run_identity(base)
        )


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
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        old = ResultStore(tmp_path / "store", schema="repro.store/0")
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
        self, fast_config, short_video, tmp_path
    ):
        cell = _cells(fast_config, short_video)[1]
        spec = RunSpec(cell=cell, seed=5, cell_index=0, seed_index=0)
        old = ResultStore(tmp_path / "store", schema="repro.store/0")
        SweepExecutor(jobs=1, store=old).run_cells([cell])
        old_key = old.run_key(spec)
        new = ResultStore(tmp_path / "store")
        new_key = new.run_key(spec)
        # Plant the old-schema entry where the new schema looks.
        source = tmp_path / "store" / old_key[:2] / f"{old_key}.pkl"
        target = tmp_path / "store" / new_key[:2] / f"{new_key}.pkl"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert new.get(spec) is None
        assert new.stats.invalidations == 1

    def test_corrupt_entry_invalidates(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        for key in store.keys():
            (tmp_path / "store" / key[:2] / f"{key}.pkl").write_bytes(
                b"not a pickle"
            )
        rerun = SweepExecutor(jobs=1, store=store)
        outcome = rerun.run_cells(cells)
        assert rerun.stats.runs_cached == 0
        assert store.stats.invalidations == 2
        assert outcome  # recomputed fine

    def test_wrong_key_entry_invalidates(
        self, fast_config, short_video, tmp_path
    ):
        cell = _cells(fast_config, short_video)[0]
        spec_a = RunSpec(
            cell=cell, seed=5, cell_index=0, seed_index=0
        )
        spec_b = RunSpec(
            cell=cell, seed=9, cell_index=0, seed_index=1
        )
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells([cell])
        key_a = store.run_key(spec_a)
        key_b = store.run_key(spec_b)
        path_a = tmp_path / "store" / key_a[:2] / f"{key_a}.pkl"
        path_b = tmp_path / "store" / key_b[:2] / f"{key_b}.pkl"
        # Splice one run's entry under the other's key.
        path_a.parent.mkdir(parents=True, exist_ok=True)
        path_a.write_bytes(path_b.read_bytes())
        before = store.stats.invalidations
        assert store.get(spec_a) is None
        assert store.stats.invalidations == before + 1


class TestStoreApi:
    def test_put_rejects_failed_outcome(
        self, fast_config, short_video, tmp_path
    ):
        from repro.parallel.worker import RunOutcome

        store = ResultStore(tmp_path / "store")
        failed = RunOutcome(
            cell_index=0, seed_index=0, seed=5, label="x",
            error="boom",
        )
        with pytest.raises(StoreError):
            store.put(_spec(fast_config, short_video), failed)

    def test_entries_never_carry_profiles(
        self, fast_config, short_video, tmp_path
    ):
        cells = _cells(fast_config, short_video)[:1]
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(cells)
        for key in store.keys():
            raw = (
                tmp_path / "store" / key[:2] / f"{key}.pkl"
            ).read_bytes()
            entry = pickle.loads(raw)
            assert entry["outcome"].profile is None
            assert entry["outcome"].cached is False

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

    def test_clear_empties_the_store(
        self, fast_config, short_video, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        SweepExecutor(jobs=1, store=store).run_cells(
            _cells(fast_config, short_video)[:1]
        )
        assert store.clear() == 2
        assert len(store) == 0


class TestEntryLayout:
    def test_twelve_slot_entry_still_hits(self, tmp_path):
        # An entry committed while ``RunOutcome`` carried its
        # metrics/profile snapshot slots (now always ``None``).
        # Slotted dataclasses unpickle by position, so the slots stay:
        # without them ``analysis`` would land in ``cached``.
        cell = CellSpec(
            splicer=SplicerSpec("duration", 4.0),
            bandwidth_kb=256,
            config=ExperimentConfig(
                n_leechers=2, seeds=(5,), max_time=300.0
            ),
            video_spec=VideoSpec(seed=1, duration=20.0),
            label="compat/duration-4s @ 256",
        )
        spec = RunSpec(cell=cell, seed=5, cell_index=3, seed_index=0)
        store = ResultStore(tmp_path / "store")
        key = store.run_key(spec)
        path = tmp_path / "store" / key[:2] / f"{key}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(
            (FIXTURES / "store_entry_12_slots.pkl").read_bytes()
        )
        hit = store.get(spec, need_analysis=True)
        assert hit is not None
        assert (hit.cell_index, hit.cached, hit.pid) == (3, True, 22393)
        assert hit.stats == SeedStats(
            stall_count=1.0,
            stall_duration=1.1049846512611001,
            startup_time=4.692017059391286,
            seeder_bytes=3678271.0,
            peer_bytes=1187617.0,
            finished_fraction=1.0,
            events_fired=75,
            end_time=300.0,
        )
        analysis = hit.analysis
        assert analysis.stall_count == 2
        assert analysis.causes["seeder-bottleneck"] == 2
        assert sorted(analysis.peers) == ["peer-1", "peer-2"]
        assert analysis.event_count == 66
        assert hit.metrics is None and hit.profile is None
