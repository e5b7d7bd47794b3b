"""SweepProgress reporting: live-mode gating and plain-mode lines."""

from __future__ import annotations

import io
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError, SweepError
from repro.obs.ops import ShardHeartbeat, read_heartbeat
from repro.parallel import executor as executor_module
from repro.parallel.executor import SweepExecutor
from repro.parallel.progress import (
    PROGRESS_MODES,
    SweepProgress,
)
from repro.experiments.config import ExperimentConfig
from repro.parallel.spec import RunSpec, SplicerSpec, cell_for
from repro.parallel.worker import RunOutcome, simulation_identity


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def spec(cell_index, label):
    return SimpleNamespace(
        cell_index=cell_index,
        cell=SimpleNamespace(describe=lambda: label),
    )


def ok_outcome(cell_index, seed=7, stalls=2.0):
    return RunOutcome(
        cell_index=cell_index,
        seed_index=0,
        seed=seed,
        label=f"cell-{cell_index}",
        stats=SimpleNamespace(stall_count=stalls),
    )


def failed_outcome(cell_index, seed=7):
    return RunOutcome(
        cell_index=cell_index,
        seed_index=0,
        seed=seed,
        label=f"cell-{cell_index}",
        error="ValueError: boom",
    )


def cached_outcome(cell_index, seed=7, stalls=2.0):
    return RunOutcome(
        cell_index=cell_index,
        seed_index=0,
        seed=seed,
        label=f"cell-{cell_index}",
        stats=SimpleNamespace(stall_count=stalls),
        cached=True,
    )


def plain_progress(min_interval=0.0, clock=None):
    stream = io.StringIO()
    progress = SweepProgress(
        stream=stream,
        mode="plain",
        min_interval=min_interval,
        clock=clock if clock is not None else FakeClock(),
    )
    return progress, stream


class TestModeSelection:
    def test_modes_are_exactly_live_and_plain(self):
        assert PROGRESS_MODES == ("live", "plain")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExperimentError, match="unknown progress"):
            SweepProgress(stream=io.StringIO(), mode="fancy")

    def test_negative_interval_rejected(self):
        with pytest.raises(ExperimentError, match="min_interval"):
            SweepProgress(
                stream=io.StringIO(), mode="plain", min_interval=-1.0
            )

    def test_live_mode_disabled_without_tty(self):
        progress = SweepProgress(stream=io.StringIO(), mode="live")
        assert not progress.enabled

    def test_plain_mode_enabled_without_tty(self):
        progress, _ = plain_progress()
        assert progress.enabled


class TestPlainMode:
    def test_header_cells_and_summary(self):
        progress, stream = plain_progress()
        progress.begin([spec(0, "cell-a"), spec(1, "cell-b")])
        progress.update(ok_outcome(0, stalls=3.0))
        progress.update(ok_outcome(1, stalls=1.0))
        progress.finish()
        lines = stream.getvalue().splitlines()
        assert lines[0] == "sweep: starting 2 cells (2 runs)"
        assert "cell-a done (3.0 stalls/peer" in lines[1]
        assert lines[-1] == (
            "sweep: 2/2 cells done, 0 failed, 2/2 runs"
        )
        # Append-only: no carriage returns anywhere.
        assert "\r" not in stream.getvalue()

    def test_cell_line_waits_for_all_seeds(self):
        progress, stream = plain_progress()
        progress.begin([spec(0, "cell-a"), spec(0, "cell-a")])
        progress.update(ok_outcome(0, seed=7, stalls=4.0))
        assert "done" not in stream.getvalue()
        progress.update(ok_outcome(0, seed=11, stalls=2.0))
        # Mean over both seeds: (4 + 2) / 2.
        assert "cell-a done (3.0 stalls/peer" in stream.getvalue()

    def test_failures_print_immediately_with_error(self):
        clock = FakeClock()
        progress, stream = plain_progress(
            min_interval=60.0, clock=clock
        )
        progress.begin([spec(0, "cell-a"), spec(1, "cell-b")])
        progress.update(ok_outcome(0))  # sets _last_emit
        progress.update(failed_outcome(1))
        assert (
            "sweep: cell-b seed 7 FAILED (ValueError: boom)"
            in stream.getvalue()
        )

    def test_rate_limit_folds_intermediate_cells(self):
        clock = FakeClock()
        progress, stream = plain_progress(
            min_interval=1.0, clock=clock
        )
        progress.begin([spec(i, f"cell-{i}") for i in range(3)])
        clock.advance(1.5)
        progress.update(ok_outcome(0))  # past the interval: emits
        clock.advance(0.1)
        progress.update(ok_outcome(1))  # suppressed: too soon
        clock.advance(0.1)
        progress.update(ok_outcome(2))  # final: always emits
        lines = stream.getvalue().splitlines()
        assert any("cell-0 done" in line for line in lines)
        assert not any("cell-1 done" in line for line in lines)
        assert any("cell-2 done" in line for line in lines)

    def test_final_summary_counts_failures(self):
        progress, stream = plain_progress()
        progress.begin([spec(0, "cell-a"), spec(1, "cell-b")])
        progress.update(failed_outcome(0))
        progress.update(ok_outcome(1))
        progress.finish()
        assert (
            "sweep: 2/2 cells done, 1 failed, 2/2 runs"
            in stream.getvalue()
        )

    def test_fully_cached_cell_reports_cached(self):
        progress, stream = plain_progress()
        progress.begin([spec(0, "cell-a"), spec(1, "cell-b")])
        progress.update(cached_outcome(0, stalls=3.0))
        progress.update(ok_outcome(1, stalls=1.0))
        progress.finish()
        text = stream.getvalue()
        assert "cell-a cached (3.0 stalls/peer" in text
        assert "cell-b done (1.0 stalls/peer" in text

    def test_partially_cached_cell_reports_done(self):
        progress, stream = plain_progress()
        progress.begin([spec(0, "cell-a"), spec(0, "cell-a")])
        progress.update(cached_outcome(0, seed=7, stalls=4.0))
        progress.update(ok_outcome(0, seed=11, stalls=2.0))
        # One seed was computed: the cell was not served purely
        # from the store.
        assert "cell-a done (3.0 stalls/peer" in stream.getvalue()

    def test_summary_counts_cached_runs(self):
        progress, stream = plain_progress()
        progress.begin([spec(0, "cell-a"), spec(1, "cell-b")])
        progress.update(cached_outcome(0))
        progress.update(ok_outcome(1))
        progress.finish()
        assert (
            "sweep: 2/2 cells done, 0 failed, 1 cached, 2/2 runs"
            in stream.getvalue()
        )

    def test_all_cache_hits_shard_stays_plain_text(self):
        # A fully warm shard (every run served from the store) on a
        # non-TTY stream: cached counts appear, and the output is
        # pure append-only text with no terminal control codes.
        progress, stream = plain_progress()
        assert not stream.isatty()
        progress.begin([spec(0, "cell-a"), spec(1, "cell-b")])
        progress.update(cached_outcome(0, stalls=3.0))
        progress.update(cached_outcome(1, stalls=1.0))
        progress.finish()
        text = stream.getvalue()
        assert "cell-a cached" in text
        assert "cell-b cached" in text
        assert (
            "sweep: 2/2 cells done, 0 failed, 2 cached, 2/2 runs"
            in text
        )
        assert "\r" not in text
        assert "\x1b" not in text

    def test_summary_unchanged_without_cache(self):
        # Cacheless sweeps keep the historical summary text.
        progress, stream = plain_progress()
        progress.begin([spec(0, "cell-a")])
        progress.update(ok_outcome(0))
        progress.finish()
        assert (
            "sweep: 1/1 cells done, 0 failed, 1/1 runs"
            in stream.getvalue()
        )

    def test_executor_drives_plain_mode(
        self, tiny_video
    ):
        """End-to-end: a real (serial) sweep through a plain reporter."""
        from repro.experiments.config import ExperimentConfig
        from repro.parallel import (
            SplicerSpec,
            SweepExecutor,
            cell_for,
        )

        config = ExperimentConfig(
            n_leechers=2, seeds=(5,), max_time=300.0
        )
        cells = [
            cell_for(
                SplicerSpec("duration", 4.0),
                512,
                config,
                video=tiny_video,
                label="progress/cell",
            )
        ]
        progress, stream = plain_progress()
        SweepExecutor(jobs=1, progress=progress).run_cells(cells)
        output = stream.getvalue()
        assert "sweep: starting 1 cells (1 runs)" in output
        assert "progress/cell" in output


@st.composite
def settled_sweeps(draw):
    """Cells x seeds, each run's kind, and a completion order."""
    cells = draw(st.integers(1, 4))
    seeds = draw(st.integers(1, 3))
    kinds = draw(
        st.lists(
            st.sampled_from(["ok", "failed", "cached"]),
            min_size=cells * seeds,
            max_size=cells * seeds,
        )
    )
    order = draw(st.permutations(range(cells * seeds)))
    return cells, seeds, kinds, order


def _sweep_outcome(spec, kind):
    stats = SimpleNamespace(stall_count=1.0, events_fired=3, end_time=2.0)
    return RunOutcome(
        cell_index=spec.cell_index,
        seed_index=spec.seed_index,
        seed=spec.seed,
        label=spec.cell.describe(),
        stats=None if kind == "failed" else stats,
        error="ValueError: boom" if kind == "failed" else None,
        cached=kind == "cached",
    )


class TestOneTally:
    """Meter, heartbeat and executor stats agree with a direct count."""

    @settings(max_examples=60, deadline=None)
    @given(sweep=settled_sweeps())
    def test_every_consumer_counts_the_same(self, sweep):
        n_cells, n_seeds, kinds, order = sweep
        # Real cells (resolvable into simulation identities), every
        # run a distinct simulation, so none is served as a repeat.
        config = ExperimentConfig(seeds=tuple(range(1, n_seeds + 1)))
        cells = [
            cell_for(
                SplicerSpec("gop"), 128 + c, config, label=f"cell-{c}"
            )
            for c in range(n_cells)
        ]
        specs = [
            RunSpec(cell=cell, seed=seed, cell_index=c, seed_index=s)
            for c, cell in enumerate(cells)
            for s, seed in enumerate(config.seeds)
        ]
        runs = len(specs)
        assert len({simulation_identity(spec) for spec in specs}) == runs
        failed = kinds.count("failed")
        cached = kinds.count("cached")
        failed_cells = len(
            {c for c in range(n_cells)
             for s in range(n_seeds) if kinds[c * n_seeds + s] == "failed"}
        )
        all_cached = sum(
            1 for c in range(n_cells)
            if all(kinds[c * n_seeds + s] == "cached" for s in range(n_seeds))
        )

        # The meter and the heartbeat, driven in a shuffled order.
        progress, stream = plain_progress()
        with tempfile.TemporaryDirectory() as scratch:
            beat = ShardHeartbeat(
                Path(scratch) / "beat.json", shard=0, shards=1
            )
            for sink in (progress, beat):
                sink.begin(specs)
                for index in order:
                    sink.update(_sweep_outcome(specs[index], kinds[index]))
                sink.finish()
            payload = read_heartbeat(beat.path)
        cached_text = f" {cached} cached," if cached else ""
        assert stream.getvalue().splitlines()[-1] == (
            f"sweep: {n_cells}/{n_cells} cells done,"
            f" {failed_cells} failed,{cached_text} {runs}/{runs} runs"
        )
        assert payload["state"] == ("failed" if failed else "done")
        assert payload["runs_total"] == payload["runs_done"] == runs
        assert payload["runs_failed"] == failed
        assert payload["runs_cached"] == cached
        assert payload["runs_computed"] == runs - failed - cached
        assert payload["in_flight"] == 0

        # The executor, over a store holding the cached runs.
        by_key = {
            (spec.cell_index, spec.seed_index): kind
            for spec, kind in zip(specs, kinds)
        }

        def kind_of(spec):
            return by_key[spec.cell_index, spec.seed_index]

        store = SimpleNamespace(
            stats=SimpleNamespace(invalidations=0),
            get=lambda spec, **_: (
                _sweep_outcome(spec, "cached")
                if kind_of(spec) == "cached"
                else None
            ),
            put=lambda spec, outcome: None,
        )
        executor = SweepExecutor(jobs=1, store=store)
        with mock.patch.object(
            executor_module,
            "pool_entry",
            lambda spec: _sweep_outcome(spec, kind_of(spec)),
        ), mock.patch.object(
            executor_module, "merge_cell", lambda *a, **k: None
        ):
            if failed:
                with pytest.raises(SweepError):
                    executor.run_cells(cells)
            else:
                executor.run_cells(cells)
        stats = executor.stats
        assert stats.runs == runs
        assert stats.failures == failed
        assert stats.runs_cached == cached
        assert stats.events_fired == 3 * (runs - failed - cached)
        # Cells are only counted for a sweep that succeeded.
        assert stats.cells_cached == (0 if failed else all_cached)
        assert stats.cells_computed == (
            0 if failed else n_cells - all_cached
        )
