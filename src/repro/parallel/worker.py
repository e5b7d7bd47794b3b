"""The work a single sweep run performs, parent- or worker-side.

:func:`pool_entry` is the one place a sweep run executes: the executor
calls it inline at ``jobs=1`` and submits it to pool workers otherwise.
Both paths run the same deterministic simulation on the same
reconstructed inputs, so a cell's numbers are identical at any worker
count.

:func:`pool_entry` must stay a module-level function (pickled by
reference into worker processes) and never raise on a failed run: any
``Exception`` is folded into a failed :class:`RunOutcome` naming its
cell, so one crashed run reports itself instead of killing the sweep.
A ``KeyboardInterrupt`` is not a failed run; it propagates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING

from .. import obs
from ..experiments.config import make_swarm_config
from ..experiments.runner import SeedStats, seed_stats
from ..obs.context import Observability
from ..p2p.swarm import Swarm, SwarmConfig, build_swarm
from ..video.bitstream import Bitstream
from .cache import splice_for
from .digest import content_digest
from .spec import RunSpec, SplicerSpec, SquareWave, VideoSpec

if TYPE_CHECKING:
    from ..obs.analyze import CellAnalysis


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """What one (cell, seed) run produced — or how it failed.

    Attributes:
        cell_index: merge key (position of the cell in the sweep).
        seed_index: merge key (position of the seed in the cell).
        seed: the swarm seed that ran.
        label: the cell's human-readable identity.
        stats: per-seed scalars (``None`` when the run failed).
        error: ``"ExcType: message"`` when the run failed.
        wall_seconds: wall-clock time the run took where it executed.
        analysis: the run's stall diagnosis as a one-run rollup
            (analyzing sweeps only); computed from the run's private
            trace where the run executed, so it is identical at any
            worker count.
        cached: the run was not simulated now: it was served from a
            :class:`~repro.parallel.store.ResultStore`, or it repeats
            a simulation the executor already ran (same
            :func:`simulation_identity`); ``wall_seconds`` then
            reports what the *original* execution cost.
        pid: process id that executed the run (the parent for
            inline sweeps, a pool worker otherwise).
    """

    cell_index: int
    seed_index: int
    seed: int
    label: str = ""
    stats: SeedStats | None = None
    error: str | None = None
    wall_seconds: float = 0.0
    analysis: CellAnalysis | None = None
    cached: bool = False
    pid: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run completed and produced stats."""
        return self.error is None and self.stats is not None


def _schedule_square_wave(
    swarm: Swarm, base: float, wave: SquareWave
) -> None:
    """Toggle every leecher's bandwidth between the two wave levels."""
    low = base * (1.0 - wave.amplitude)
    high = base * (1.0 + wave.amplitude)
    half = wave.period / 2.0
    swarm.sim.schedule(half, _set_level, swarm, half, low, high)


def _set_level(
    swarm: Swarm, half: float, level: float, next_level: float
) -> None:
    """One square-wave edge: apply ``level``, schedule the next edge."""
    swarm.set_peer_bandwidth(level)
    swarm.sim.schedule(half, _set_level, swarm, half, next_level, level)


@dataclass(frozen=True, slots=True)
class Simulation:
    """Exactly what one run's simulation consumes, resolved from its spec.

    :func:`execute_run` builds from this and nothing else, so two runs
    that resolve to equal simulations produce bit-identical outcomes.
    What only names or places a run — the cell label, the merge
    indices, ``config.seeds`` — does not reach it, and an unresolved
    ``policy=None`` is already the paper's adaptive pooling here.

    Attributes:
        splicer: splicing technique.
        video_spec: the cacheable video description, or ``None``.
        video: the explicit bitstream, or ``None``.
        swarm_config: the session parameters, with the cell's
            pre-roll, fidelity, selector and transport overrides
            applied.
        square_wave: optional mid-run bandwidth modulation.
    """

    splicer: SplicerSpec
    video_spec: VideoSpec | None
    video: Bitstream | None
    swarm_config: SwarmConfig
    square_wave: SquareWave | None


def resolve(spec: RunSpec) -> Simulation:
    """Resolve a run into the inputs its simulation consumes."""
    cell = spec.cell
    swarm_config = make_swarm_config(
        cell.bandwidth_kb, spec.seed, cell.config, cell.policy
    )
    if cell.preroll_segments is not None:
        swarm_config = replace(
            swarm_config, preroll_segments=cell.preroll_segments
        )
    if cell.fidelity is not None:
        swarm_config = replace(swarm_config, fidelity=cell.fidelity)
    if cell.selector is not None:
        swarm_config = replace(swarm_config, selector=cell.selector)
    if cell.tcp_params is not None:
        swarm_config = replace(swarm_config, tcp_params=cell.tcp_params)
    return Simulation(
        splicer=cell.splicer,
        video_spec=cell.video_spec,
        video=cell.video,
        swarm_config=swarm_config,
        square_wave=cell.square_wave,
    )


def simulation_identity(spec: RunSpec) -> str:
    """The content digest of the simulation a run performs.

    Two runs with the same identity are the same simulation, however
    their cells are labelled or placed: the executor runs it once and
    serves the other as a repeat.  Compare
    :func:`~repro.parallel.store.run_identity`, which names a
    *request* and keys the result store.

    Raises:
        Exception: whatever resolving the spec raises (the same error
            :func:`execute_run` would fail the run with).
    """
    return content_digest(resolve(spec))


def execute_run(
    spec: RunSpec, obs: Observability | None = None
) -> RunOutcome:
    """Run one (cell, seed) swarm and reduce it to an outcome.

    Args:
        spec: the run to perform; only its :func:`resolve`-d
            :class:`Simulation` and its merge keys and label are used.
        obs: observability context the swarm records into (a private
            tracer on analyzing runs).  Exceptions propagate —
            isolation is :func:`pool_entry`'s job.
    """
    simulation = resolve(spec)
    swarm = build_swarm(
        splice_for(simulation), simulation.swarm_config, obs=obs
    )
    try:
        if simulation.square_wave is not None:
            _schedule_square_wave(
                swarm,
                simulation.swarm_config.bandwidth,
                simulation.square_wave,
            )
        started = perf_counter()
        result = swarm.run()
        return RunOutcome(
            cell_index=spec.cell_index,
            seed_index=spec.seed_index,
            seed=spec.seed,
            label=spec.cell.describe(),
            stats=seed_stats(
                result,
                events_fired=swarm.sim.events_fired,
                end_time=swarm.sim.now,
            ),
            wall_seconds=perf_counter() - started,
            pid=os.getpid(),
        )
    finally:
        # A finished session is one large reference cycle; releasing
        # it lets reference counting free it now instead of at the
        # next full collection.
        swarm.release()


def failed_outcome(spec: RunSpec, error: str) -> RunOutcome:
    """The outcome of a run that failed with ``error``."""
    return RunOutcome(
        cell_index=spec.cell_index,
        seed_index=spec.seed_index,
        seed=spec.seed,
        label=spec.cell.describe(),
        error=error,
        pid=os.getpid(),
    )


def pool_entry(spec: RunSpec) -> RunOutcome:
    """Execute one run: a failure becomes an outcome, never a raise.

    An analyzing run (``spec.collect_analysis``) is traced in full
    into its own tracer, diagnosed, and reduced to a one-run
    :class:`~repro.obs.analyze.CellAnalysis` here, where it executed;
    only that rollup travels back.
    """
    tracing = Observability.tracing() if spec.collect_analysis else None
    try:
        outcome = execute_run(spec, tracing)
        if tracing is not None:
            outcome = replace(
                outcome,
                analysis=obs.analyze_events(tracing.events()).rollup(),
            )
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        return failed_outcome(spec, f"{type(exc).__name__}: {exc}")
    return outcome
