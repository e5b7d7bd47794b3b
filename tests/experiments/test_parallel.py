"""Parallel sweep executor: parity, isolation, and plumbing.

The load-bearing guarantee is bit-identical results at any worker
count; the parity tests compare whole ``CellResult`` dataclasses
(float equality, not approx) between ``jobs=1`` and ``jobs=4`` for
cells drawn from every figure family.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from repro.errors import ExperimentError, SweepError
from repro.experiments import fig2, fig4, fig5
from repro.experiments.config import ExperimentConfig
from repro.experiments.reproduce import reproduce_all
from repro.core.policy import FixedPoolPolicy
from repro.p2p.churn import ChurnConfig
from repro.parallel import (
    CellSpec,
    ResultStore,
    RunSpec,
    SplicerSpec,
    SquareWave,
    SweepExecutor,
    VideoSpec,
    cell_for,
    default_jobs,
    worker,
)

from ..conftest import requires_numpy


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(n_leechers=3, seeds=(5, 9), max_time=600.0)


def _figure_cells(config, video):
    """A small sweep touching every figure family's cell shape."""
    return [
        # fig2/fig3: technique x bandwidth
        cell_for(SplicerSpec("gop"), 512, config, video=video,
                 label="fig2/gop @ 512"),
        cell_for(SplicerSpec("duration", 2.0), 512, config,
                 video=video, label="fig2/duration-2s @ 512"),
        # fig4: duration splicing at another bandwidth
        cell_for(SplicerSpec("duration", 4.0), 256, config,
                 video=video, label="fig4/4 sec @ 256"),
        # fig5: fixed-pool policy override
        cell_for(SplicerSpec("duration", 4.0), 512, config,
                 policy=FixedPoolPolicy(2), video=video,
                 label="fig5/pool-2 @ 512"),
    ]


class TestParity:
    def test_serial_and_parallel_cells_identical(
        self, fast_config, short_video
    ):
        cells = _figure_cells(fast_config, short_video)
        serial = SweepExecutor(jobs=1).run_cells(cells)
        parallel = SweepExecutor(jobs=4).run_cells(cells)
        assert serial == parallel  # exact float equality

    def test_figure_run_parity(self, fast_config, short_video):
        serial = fig2.run(
            fast_config, video=short_video, bandwidths_kb=(512,)
        )
        parallel = fig2.run(
            fast_config,
            video=short_video,
            bandwidths_kb=(512,),
            executor=SweepExecutor(jobs=4),
        )
        assert serial.series == parallel.series

    def test_fig4_and_fig5_parity(self, fast_config, short_video):
        for module in (fig4, fig5):
            serial = module.run(
                fast_config, video=short_video, bandwidths_kb=(512,)
            )
            parallel = module.run(
                fast_config,
                video=short_video,
                bandwidths_kb=(512,),
                executor=SweepExecutor(jobs=4),
            )
            assert serial.series == parallel.series, module.__name__

    def test_reproduce_all_jobs_parity(self, fast_config, short_video):
        serial = reproduce_all(
            fast_config,
            video=short_video,
            include_ablations=False,
            jobs=1,
        )
        parallel = reproduce_all(
            fast_config,
            video=short_video,
            include_ablations=False,
            jobs=4,
        )
        assert serial.figures == parallel.figures
        assert serial.overhead_table == parallel.overhead_table

    def test_square_wave_and_preroll_cells_match(
        self, fast_config, short_video
    ):
        cells = [
            cell_for(
                SplicerSpec("duration", 4.0), 256, fast_config,
                video=short_video,
                square_wave=SquareWave(amplitude=0.5, period=20.0),
                label="A4",
            ),
            cell_for(
                SplicerSpec("duration", 4.0), 256, fast_config,
                video=short_video, preroll_segments=2, label="A7",
            ),
        ]
        assert (
            SweepExecutor(jobs=1).run_cells(cells)
            == SweepExecutor(jobs=2).run_cells(cells)
        )


class TestCrashIsolation:
    # One failure policy at every worker count: the other runs finish,
    # then one SweepError names each failed run.
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_run_reports_its_cell(
        self, fast_config, short_video, jobs
    ):
        good = _figure_cells(fast_config, short_video)[0]
        bad = CellSpec(
            splicer=SplicerSpec("duration", -1.0),
            bandwidth_kb=512,
            config=fast_config,
            video_spec=VideoSpec(seed=1),
            label="bad-cell",
        )
        executor = SweepExecutor(jobs=jobs)
        with pytest.raises(SweepError) as excinfo:
            executor.run_cells([bad, good])
        message = str(excinfo.value)
        assert "bad-cell" in message
        assert "target_duration" in message
        # The healthy cell's runs completed despite the failures.
        assert executor.stats.runs == 2 * len(fast_config.seeds)
        assert executor.stats.failures == len(fast_config.seeds)

    def test_deadline_failures_reach_heartbeat_and_progress(
        self, fast_config, tmp_path
    ):
        # Every run fails, in the pool: the failures must still reach
        # the heartbeat and the progress lines.
        import io

        from repro.obs.ops import ShardHeartbeat, read_heartbeat
        from repro.parallel import SweepProgress

        cells = [
            cell_for(SplicerSpec("duration", -1.0), bw, fast_config,
                     label=f"bad @ {bw}")
            for bw in (256, 512)
        ]
        runs = len(cells) * len(fast_config.seeds)
        stream = io.StringIO()
        heartbeat = ShardHeartbeat(
            tmp_path / "shard-0.heartbeat.json", shard=0, shards=1
        )
        executor = SweepExecutor(
            jobs=2,
            progress=SweepProgress(stream=stream, mode="plain"),
            heartbeat=heartbeat,
        )
        with pytest.raises(SweepError):
            executor.run_cells(cells)
        beat = read_heartbeat(heartbeat.path)
        assert beat["state"] == "failed"
        assert beat["runs_failed"] == beat["runs_total"] == runs
        lines = stream.getvalue().splitlines()
        assert sum("FAILED (SpliceError" in line for line in lines) == runs
        assert lines[-1] == (
            f"sweep: {len(cells)}/{len(cells)} cells done,"
            f" {len(cells)} failed, {runs}/{runs} runs"
        )
        assert executor.stats.failures == executor.stats.runs == runs

    def test_interrupt_stops_an_inline_sweep(
        self, fast_config, short_video, tmp_path, monkeypatch
    ):
        from repro.parallel import worker

        started = []

        def interrupted(spec, obs=None):
            started.append(spec.seed_index)
            raise KeyboardInterrupt

        monkeypatch.setattr(worker, "execute_run", interrupted)
        cell = _figure_cells(fast_config, short_video)[0]
        specs = [
            RunSpec(cell=cell, seed=seed, cell_index=0, seed_index=i)
            for i, seed in enumerate((5, 9, 13))
        ]
        store = ResultStore(tmp_path / "store")
        executor = SweepExecutor(jobs=1, store=store)
        with pytest.raises(KeyboardInterrupt):
            executor.map_runs(specs)
        # Run 1 was interrupted; runs 2 and 3 never started.
        assert started == [0]
        assert len(store) == 0

    def test_map_runs_surfaces_outcomes(
        self, fast_config, short_video
    ):
        good = _figure_cells(fast_config, short_video)[0]
        bad = CellSpec(
            splicer=SplicerSpec("duration", -1.0),
            bandwidth_kb=512,
            config=fast_config,
            video_spec=VideoSpec(seed=1),
            label="bad-cell",
        )
        specs = [
            RunSpec(cell=good, seed=5, cell_index=0, seed_index=0),
            RunSpec(cell=bad, seed=5, cell_index=1, seed_index=0),
        ]
        outcomes = SweepExecutor(jobs=2).map_runs(specs)
        assert [o.cell_index for o in outcomes] == [0, 1]
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].label == "bad-cell"


def _explode() -> None:
    raise RuntimeError("simulated fault")


def _probe_in_flight(swarm, seen: list) -> None:
    """Record the flows still active when the run reaches ``max_time``."""
    network = swarm.network
    swarm.sim.schedule_at(
        swarm.config.max_time,
        lambda: seen.append(len(network.active_flows)),
    )


def _inject_fault(swarm, seen: list) -> None:
    swarm.sim.schedule(15.0, _explode)


def _cut(config):
    # Five leechers at 128 kB/s: at 40 s one has finished and three
    # segment transfers are still in flight.
    return replace(config, n_leechers=5, max_time=40.0)


_GOP = SplicerSpec("gop")
_FOUR = SplicerSpec("duration", 4.0)

#: name -> (``(config, video) -> cell``, hook run on each built swarm).
RELEASE_CASES = {
    "fig2": (lambda c, v: cell_for(_GOP, 512, c, video=v), None),
    "cut-at-max-time": (
        lambda c, v: cell_for(_GOP, 128, _cut(c), video=v),
        _probe_in_flight,
    ),
    "A2-churn": (
        lambda c, v: cell_for(
            _FOUR, 256,
            replace(c, churn=ChurnConfig(mean_lifetime=20.0, fraction=0.5)),
            video=v,
        ),
        None,
    ),
    "A4-square-wave": (
        lambda c, v: cell_for(
            _FOUR, 256, c, video=v,
            square_wave=SquareWave(amplitude=0.5, period=20.0),
        ),
        None,
    ),
    "cohort": (
        lambda c, v: cell_for(_FOUR, 256, c, video=v, fidelity="cohort"),
        None,
    ),
    # The cut leaves the next integration step queued.
    "fluid-cut-at-max-time": (
        lambda c, v: cell_for(_GOP, 128, _cut(c), video=v, fidelity="fluid"),
        None,
    ),
    "raises": (lambda c, v: cell_for(_FOUR, 256, c, video=v), _inject_fault),
}
_NEEDS_NUMPY = {"cohort", "fluid-cut-at-max-time"}


class TestRunRelease:
    """A run's object graph is freed by reference counting when it ends.

    A finished session left cyclic would stay in memory until the next
    full collection; with the collector off, ``gc.collect()`` counts
    exactly what one run left behind.
    """

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(
                name, marks=requires_numpy if name in _NEEDS_NUMPY else ()
            )
            for name in RELEASE_CASES
        ],
    )
    def test_run_leaves_no_cyclic_garbage(
        self, fast_config, short_video, monkeypatch, name
    ):
        make_cell, hook = RELEASE_CASES[name]
        spec = RunSpec(
            cell=make_cell(fast_config, short_video),
            seed=5,
            cell_index=0,
            seed_index=0,
        )
        seen: list = []
        if hook is not None:
            build = worker.build_swarm

            def hooked(*args, **kwargs):
                swarm = build(*args, **kwargs)
                hook(swarm, seen)
                return swarm

            monkeypatch.setattr(worker, "build_swarm", hooked)
        enabled = gc.isenabled()
        gc.disable()
        try:
            # The first run absorbs import-time and cache garbage.
            worker.pool_entry(spec)
            gc.collect()
            seen.clear()
            outcome = worker.pool_entry(spec)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        if name == "raises":
            assert outcome.error == "RuntimeError: simulated fault"
        else:
            assert outcome.ok, outcome.error
        if name == "cut-at-max-time":
            assert outcome.stats.end_time == 40.0
            assert seen == [3]


class TestConfiguration:
    def test_repro_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert SweepExecutor().jobs == 3

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ExperimentError):
            default_jobs()

    def test_explicit_jobs_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert SweepExecutor(jobs=2).jobs == 2

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            SweepExecutor(jobs=0)

    def test_cell_spec_needs_exactly_one_video(self, fast_config):
        with pytest.raises(ExperimentError):
            CellSpec(
                splicer=SplicerSpec("gop"),
                bandwidth_kb=256,
                config=fast_config,
            )

    def test_executor_accumulates_events(
        self, fast_config, short_video
    ):
        executor = SweepExecutor(jobs=1)
        cells = _figure_cells(fast_config, short_video)[:1]
        executor.run_cells(cells)
        assert executor.stats.events_fired > 0
        assert executor.stats.sim_seconds > 0
