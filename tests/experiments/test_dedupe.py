"""One simulation per distinct run: identity, executor dedupe, store.

Figures 2 and 3 read the same sessions, fig4 repeats fig2's duration
cells and fig5's explicit adaptive policy repeats fig2's 4 s cells.
An executor resolves every pending run into the
:class:`~repro.parallel.worker.Simulation` it performs, runs each
distinct one once, and serves the rest as repeats committed under
their own store keys.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from repro.core.policy import AdaptivePoolPolicy, FixedPoolPolicy
from repro.experiments import fig2, fig3
from repro.experiments.config import (
    ExperimentConfig,
    figure_axis,
    sweep_config,
)
from repro.net.tcp import ppspp_params
from repro.p2p.churn import ChurnConfig
from repro.p2p.selection import WindowedRarestSelector
from repro.parallel import (
    CellSpec,
    ResultStore,
    RunSpec,
    SplicerSpec,
    SquareWave,
    SweepExecutor,
    VideoSpec,
    cell_for,
    run_identity,
    simulation_identity,
    worker,
)
from repro.parallel import executor as executor_module

QUICK = sweep_config(True)
AXIS = figure_axis(True)


def _run(cell=None, seed=7, **cell_changes):
    if cell is None:
        cell = cell_for(
            SplicerSpec("duration", 4.0), 256, ExperimentConfig()
        )
    if cell_changes:
        cell = replace(cell, **cell_changes)
    return RunSpec(cell=cell, seed=seed, cell_index=0, seed_index=0)


def _with_config(**changes):
    return _run(
        cell_for(
            SplicerSpec("duration", 4.0),
            256,
            replace(ExperimentConfig(), **changes),
        )
    )


def _fig23_cells():
    return fig2.cells(QUICK, **AXIS) + fig3.cells(QUICK, **AXIS)


def _specs(cells):
    return [
        RunSpec(cell=cell, seed=seed, cell_index=c, seed_index=s)
        for c, cell in enumerate(cells)
        for s, seed in enumerate(cell.config.seeds)
    ]


@pytest.fixture
def execute_runs(monkeypatch):
    """Labels of the runs ``execute_run`` performs in this process."""
    calls = []
    execute_run = worker.execute_run

    def counted(spec, obs=None):
        calls.append(spec.cell.describe())
        return execute_run(spec, obs)

    monkeypatch.setattr(worker, "execute_run", counted)
    return calls


@pytest.fixture(scope="module")
def separate():
    """fig2 and fig3 (quick), each from its own executor."""
    fig2_executor = SweepExecutor(jobs=1)
    results = (
        fig2.run(QUICK, executor=fig2_executor, **AXIS),
        fig3.run(QUICK, executor=SweepExecutor(jobs=1), **AXIS),
    )
    return results, fig2_executor.stats


class TestSimulationIdentity:
    def test_label_does_not_separate(self):
        base = _run()
        relabelled = _run(label="fig3/duration-4s @ 256 kB/s")
        assert simulation_identity(relabelled) == simulation_identity(base)
        assert run_identity(relabelled) != run_identity(base)

    def test_default_policy_is_the_adaptive_policy(self):
        implicit = _run()
        explicit = _run(policy=AdaptivePoolPolicy())
        assert simulation_identity(explicit) == simulation_identity(
            implicit
        )
        assert run_identity(explicit) != run_identity(implicit)

    def test_seed_list_and_merge_keys_do_not_separate(self):
        base = _run()
        other_seeds = _with_config(seeds=(7, 99))
        placed = replace(
            base, cell_index=4, seed_index=2, collect_analysis=True
        )
        assert simulation_identity(other_seeds) == simulation_identity(
            base
        )
        assert simulation_identity(placed) == simulation_identity(base)

    @pytest.mark.parametrize(
        "changed",
        [
            pytest.param(lambda: _run(seed=8), id="seed"),
            pytest.param(lambda: _run(bandwidth_kb=512), id="bandwidth"),
            pytest.param(
                lambda: _run(splicer=SplicerSpec("gop")), id="technique"
            ),
            pytest.param(
                lambda: _run(splicer=SplicerSpec("duration", 8.0)),
                id="segment-duration",
            ),
            pytest.param(
                lambda: _run(policy=AdaptivePoolPolicy(max_pool=3)),
                id="policy-parameter",
            ),
            pytest.param(
                lambda: _run(policy=FixedPoolPolicy(2)), id="policy-kind"
            ),
            pytest.param(lambda: _run(preroll_segments=2), id="preroll"),
            pytest.param(lambda: _run(fidelity="cohort"), id="fidelity"),
            pytest.param(
                lambda: _run(square_wave=SquareWave(0.5, 20.0)),
                id="square-wave",
            ),
            pytest.param(
                lambda: _run(selector=WindowedRarestSelector()),
                id="selector",
            ),
            pytest.param(
                lambda: _run(tcp_params=ppspp_params()), id="transport"
            ),
            pytest.param(
                lambda: _run(video_spec=VideoSpec(seed=2)), id="video"
            ),
            pytest.param(
                lambda: _with_config(video_seed=2), id="config-video-seed"
            ),
        ]
        + [
            pytest.param(
                lambda field=field, value=value: _with_config(
                    **{field: value}
                ),
                id=f"config-{field}",
            )
            for field, value in [
                ("n_leechers", 9),
                ("seeder_multiplier", 4.0),
                ("peer_rtt", 0.1),
                ("seeder_rtt", 0.25),
                ("path_loss", 0.01),
                ("join_stagger", 2.0),
                ("churn", ChurnConfig(fraction=0.5)),
                ("max_time", 1800.0),
                ("fidelity", "cohort"),
                ("max_cohorts", 32),
                ("fluid_dt", 0.5),
            ]
        ],
    )
    def test_simulation_inputs_separate(self, changed):
        assert simulation_identity(changed()) != simulation_identity(
            _run()
        )
        assert run_identity(changed()) != run_identity(_run())

    def test_explicit_videos_separate(self, short_video, tiny_video):
        spec = _run()
        short = _run(video_spec=None, video=short_video)
        tiny = _run(video_spec=None, video=tiny_video)
        identities = {
            simulation_identity(spec),
            simulation_identity(short),
            simulation_identity(tiny),
        }
        assert len(identities) == 3


class TestOneSimulationPerDistinctRun:
    def test_fig3_after_fig2_simulates_nothing(
        self, separate, execute_runs
    ):
        (fig2_alone, fig3_alone), fig2_stats = separate
        executor = SweepExecutor(jobs=1)
        assert fig2.run(QUICK, executor=executor, **AXIS) == fig2_alone
        assert len(execute_runs) == 8
        assert fig3.run(QUICK, executor=executor, **AXIS) == fig3_alone
        assert len(execute_runs) == 8
        stats = executor.stats
        assert (stats.runs, stats.runs_cached) == (16, 8)
        assert (stats.cells_computed, stats.cells_cached) == (8, 8)
        # A simulation's events count once.
        assert stats.events_fired == fig2_stats.events_fired
        assert stats.sim_seconds == fig2_stats.sim_seconds

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_call_runs_each_distinct_simulation_once(
        self, jobs, separate, monkeypatch
    ):
        (fig2_alone, fig3_alone), fig2_stats = separate
        # Every run the executor starts, inline or submitted to a pool.
        started = []

        class CountingPool(ProcessPoolExecutor):
            def submit(self, fn, spec, *args, **kwargs):
                started.append(spec.cell.describe())
                return super().submit(fn, spec, *args, **kwargs)

        pool_entry = executor_module.pool_entry

        def counted(spec):
            started.append(spec.cell.describe())
            return pool_entry(spec)

        if jobs == 1:
            monkeypatch.setattr(executor_module, "pool_entry", counted)
        else:
            monkeypatch.setattr(
                executor_module, "ProcessPoolExecutor", CountingPool
            )
        cells = _fig23_cells()
        executor = SweepExecutor(jobs=jobs)
        results = executor.run_cells(cells)
        assert sorted(started) == sorted(c.describe() for c in cells[:8])
        assert executor.tally.computed == 8
        assert executor.tally.cached == 8
        assert executor.stats.events_fired == fig2_stats.events_fired
        # Same cells as each figure's own executor gave.
        assert results[:8] == [
            cell for series in fig2_alone.series.values() for cell in series
        ]
        assert results[8:] == [
            cell for series in fig3_alone.series.values() for cell in series
        ]

    def test_repeats_carry_their_own_identity(self):
        cells = _fig23_cells()
        outcomes = SweepExecutor(jobs=1).map_runs(_specs(cells))
        for first, repeat in zip(outcomes[:8], outcomes[8:]):
            assert not first.cached and repeat.cached
            assert repeat.stats == first.stats
            assert repeat.label == cells[repeat.cell_index].describe()
            assert repeat.label.startswith("fig3/")
            assert repeat.cell_index == first.cell_index + 8
            assert repeat.seed_index == first.seed_index


class TestStoreUnderDedupe:
    def test_repeats_commit_under_their_own_keys(self, tmp_path):
        cells = _fig23_cells()
        store = ResultStore(tmp_path / "store")
        cold = SweepExecutor(jobs=1, store=store)
        cold_results = cold.run_cells(cells)
        assert store.stats.stores == 16
        assert store.stats.hits == 0
        assert store.keys() == sorted(
            run_identity(spec) for spec in _specs(cells)
        )
        assert cold.stats.runs_cached == 8  # repeats, not store hits

        fresh = ResultStore(tmp_path / "store")
        warm = SweepExecutor(jobs=1, store=fresh)
        assert warm.run_cells(cells) == cold_results
        assert (fresh.stats.hits, fresh.stats.misses) == (16, 0)
        assert warm.stats.events_fired == 0
        # Every served entry names its own request.
        labels = [o.label for o in warm.map_runs(_specs(cells))]
        assert labels == [cell.describe() for cell in cells]


class TestAnalysisNeverCrosses:
    @pytest.fixture
    def specs(self, short_video):
        config = ExperimentConfig(n_leechers=3, seeds=(5,), max_time=600.0)
        cell = cell_for(
            SplicerSpec("duration", 4.0), 512, config, video=short_video,
            label="a",
        )
        twin = replace(cell, label="b")
        return _specs([cell, twin])

    def test_plain_after_analyzing(self, specs, execute_runs):
        executor = SweepExecutor(jobs=1)
        analyzed = executor.map_runs(specs, analyze=True)
        assert all(o.analysis is not None for o in analyzed)
        assert [o.cached for o in analyzed] == [False, True]
        plain = executor.map_runs(specs)
        assert all(o.analysis is None for o in plain)
        assert [o.cached for o in plain] == [False, True]
        assert len(execute_runs) == 2

    def test_analyzing_after_plain(self, specs, execute_runs):
        executor = SweepExecutor(jobs=1)
        plain = executor.map_runs(specs)
        assert all(o.analysis is None for o in plain)
        analyzed = executor.map_runs(specs, analyze=True)
        assert all(o.analysis is not None for o in analyzed)
        assert analyzed[1].analysis == analyzed[0].analysis
        assert len(execute_runs) == 2


class TestFailuresAreNotReused:
    @staticmethod
    def _bad(label, **changes):
        cell = CellSpec(
            splicer=SplicerSpec("duration", -1.0),
            bandwidth_kb=512,
            config=ExperimentConfig(n_leechers=3, seeds=(5,)),
            video_spec=VideoSpec(seed=1),
            label=label,
        )
        return replace(cell, **changes)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_repeat_of_a_failure_fails_under_its_own_label(self, jobs):
        specs = _specs([self._bad("bad-a"), self._bad("bad-b")])
        executor = SweepExecutor(jobs=jobs)
        outcomes = executor.map_runs(specs)
        assert [o.ok for o in outcomes] == [False, False]
        assert [o.label for o in outcomes] == ["bad-a", "bad-b"]
        assert outcomes[0].error == outcomes[1].error
        assert "target_duration" in outcomes[1].error
        assert executor.tally.failed == 2

    def test_a_failure_runs_again_in_the_next_call(self, execute_runs):
        executor = SweepExecutor(jobs=1)
        specs = _specs([self._bad("bad")])
        executor.map_runs(specs)
        executor.map_runs(specs)
        assert execute_runs == ["bad", "bad"]
        assert executor.stats.failures == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unresolvable_run_fails_without_raising(self, jobs):
        bad = self._bad("bad-bandwidth", splicer=SplicerSpec("gop"))
        bad = replace(bad, bandwidth_kb=-1.0)
        outcomes = SweepExecutor(jobs=jobs).map_runs(_specs([bad]))
        assert not outcomes[0].ok
        assert outcomes[0].label == "bad-bandwidth"
        assert outcomes[0].error.startswith("ExperimentError")
