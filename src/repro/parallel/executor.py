"""The sweep executor: fan independent swarm runs out over processes.

The paper's evaluation is a grid of independent runs (technique x
bandwidth x policy x seed), which :class:`SweepExecutor` executes at a
configurable worker count.  Every run executes through
:func:`~repro.parallel.worker.pool_entry`; the worker count only
chooses where:

* ``jobs=1`` — inline, in the caller's process;
* ``jobs>1`` — in a ``ProcessPoolExecutor``; completion order is
  whatever the machine gives, but outcomes are merged in (cell, seed)
  order, so results are identical to the inline path.

A failed run never kills a sweep: it comes back as a failed
:class:`~repro.parallel.worker.RunOutcome` naming its cell, and
:meth:`SweepExecutor.run_cells` raises one :class:`SweepError` listing
every failure after the surviving runs completed.

An executor simulates each distinct run once for its lifetime.  Runs
that resolve to the same
:func:`~repro.parallel.worker.simulation_identity` — fig3 re-reading
fig2's sessions, a label-only difference, ``policy=None`` beside an
explicit ``AdaptivePoolPolicy()`` — are served from the first run's
outcome as repeats (``cached=True``) and committed to the store under
their own keys.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import ExperimentError
from ..experiments.runner import CellResult, merge_cell
from ..obs.ops import ShardHeartbeat
from .progress import SweepProgress, SweepTally
from .spec import CellSpec, RunSpec, expand_runs
from .store import ResultStore
from .worker import (
    RunOutcome,
    failed_outcome,
    pool_entry,
    simulation_identity,
)

#: Environment variable overriding the auto-detected worker count.
JOBS_ENV_VAR = "REPRO_JOBS"

#: What makes two pending runs one simulation: the simulation identity
#: and whether the run is analyzed (an analyzing request needs an
#: analysis; a plain one must not receive one).
RunKey = tuple[str, bool]


def default_jobs() -> int:
    """Resolve the worker count: ``REPRO_JOBS`` env var, else cores.

    Core detection prefers the scheduling affinity mask (what a
    container is actually allowed to use) over the raw core count.
    """
    env = os.environ.get(JOBS_ENV_VAR, "").strip()
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise ExperimentError(
                f"{JOBS_ENV_VAR} must be a positive integer: {env!r}"
            ) from None
        if jobs < 1:
            raise ExperimentError(
                f"{JOBS_ENV_VAR} must be >= 1: {jobs}"
            )
        return jobs
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True, slots=True)
class SweepStats:
    """Cumulative totals across everything an executor has run.

    Built from each sweep's :class:`~repro.parallel.progress.SweepTally`.
    ``events_fired``/``sim_seconds`` count work *this* executor
    actually performed: runs served from the result store, and repeats
    of a simulation already run, contribute to ``runs``/``runs_cached``
    but fired no events now, so a fully warm sweep reports zero events
    and a simulation's events count once.

    Attributes:
        runs: swarm runs completed, failed, or not simulated now.
        failures: runs that failed.
        runs_cached: runs not simulated now: store hits and repeats
            (the store's own ``stats.hits`` tells them apart).
        cells_cached: cells none of whose seed runs was simulated now
            (maintained by :meth:`SweepExecutor.run_cells`).
        cells_computed: cells where at least one run was computed.
        events_fired: simulator callbacks executed across all runs.
        sim_seconds: simulated seconds covered across all runs.
    """

    runs: int = 0
    failures: int = 0
    runs_cached: int = 0
    cells_cached: int = 0
    cells_computed: int = 0
    events_fired: int = 0
    sim_seconds: float = 0.0


class SweepExecutor:
    """Execute independent swarm runs at a configurable worker count.

    Args:
        jobs: worker processes; ``None`` auto-detects via
            :func:`default_jobs`.  ``1`` never creates a pool.
        progress: optional progress sink (:class:`SweepProgress`, or
            any object with ``begin(specs)``, ``update(outcome)`` and
            ``finish()``), notified once per settled run in completion
            order.  Display only: it never influences results.
        store: optional persistent result store.  Runs whose content
            digest is already committed are served from disk (and
            reported with ``cached=True``); every other successful
            run, repeats included, is committed under its own key as
            it settles, making interrupted sweeps resumable.
        heartbeat: optional shard heartbeat
            (:class:`~repro.obs.ops.ShardHeartbeat`), begun/updated/
            finished around each :meth:`map_runs` like the progress
            sink.
    """

    def __init__(
        self,
        jobs: int | None = None,
        progress: SweepProgress | None = None,
        store: ResultStore | None = None,
        heartbeat: ShardHeartbeat | None = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ExperimentError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self.store = store
        self._sinks = [s for s in (progress, heartbeat) if s is not None]
        self._tally = SweepTally()
        self._stats = SweepStats()
        # Successful outcomes by RunKey, for the executor's lifetime.
        self._simulated: dict[RunKey, RunOutcome] = {}

    @property
    def stats(self) -> SweepStats:
        """Cumulative totals across every sweep this executor ran."""
        return self._stats

    @property
    def tally(self) -> SweepTally:
        """The settled-run counts of the latest :meth:`map_runs`."""
        return self._tally

    def map_runs(
        self, specs: Sequence[RunSpec], analyze: bool = False
    ) -> list[RunOutcome]:
        """Execute runs and return outcomes in (cell, seed) order.

        Failures are isolated into the returned outcomes at any worker
        count.  When a :class:`~repro.parallel.store.ResultStore` is
        attached, each spec is first looked up by content digest: hits
        skip execution entirely and join the deterministic merge.  The
        remaining runs are grouped by simulation identity: the first
        of each group executes, unless this executor already ran that
        simulation, and the rest are served from its outcome.  Every
        successful run that was not a store hit is committed to the
        store, under its own key, as it settles.

        Args:
            analyze: trace every run in full, into its own tracer,
                and attach its one-run
                :class:`~repro.obs.analyze.CellAnalysis` rollup to
                its outcome.  Each analysis is computed from that
                run's own trace where the run executed, so verdicts
                are identical at any worker count.
        """
        specs = list(specs)
        store = self.store
        tally = self._tally
        tally.begin(specs)
        for sink in self._sinks:
            sink.begin(specs)
        try:
            outcomes: list[RunOutcome] = []
            groups: dict[RunKey, list[RunSpec]] = {}
            for spec in specs:
                hit = (
                    None
                    if store is None
                    else store.get(spec, need_analysis=analyze)
                )
                if hit is not None:
                    outcomes.append(hit)
                    self._observe(hit, spec, stored=True)
                    continue
                spec = replace(spec, collect_analysis=analyze)
                try:
                    key = (simulation_identity(spec), analyze)
                except Exception as exc:  # noqa: BLE001 - as pool_entry
                    outcome = failed_outcome(
                        spec, f"{type(exc).__name__}: {exc}"
                    )
                    outcomes.append(outcome)
                    self._observe(outcome, spec)
                    continue
                known = self._simulated.get(key)
                if known is not None:
                    repeat = _repeat(known, spec)
                    outcomes.append(repeat)
                    self._observe(repeat, spec)
                else:
                    groups.setdefault(key, []).append(spec)
            if self.jobs == 1:
                outcomes += self._map_inline(groups)
            else:
                outcomes += self._map_pool(groups)
            outcomes.sort(key=lambda o: (o.cell_index, o.seed_index))
        finally:
            for sink in self._sinks:
                sink.finish()
        stats = self._stats
        self._stats = replace(
            stats,
            runs=stats.runs + tally.done,
            failures=stats.failures + tally.failed,
            runs_cached=stats.runs_cached + tally.cached,
            events_fired=stats.events_fired + tally.events_fired,
            sim_seconds=tally.sim_seconds(stats.sim_seconds),
        )
        return outcomes

    def _observe(
        self, outcome: RunOutcome, spec: RunSpec, stored: bool = False
    ) -> None:
        """One settled run: tally it, commit it, notify the sinks.

        Called in completion order (non-deterministic on the pool
        path), which is fine: the sinks are display/telemetry, never
        data.  A successful run that is not a store hit (``stored``) —
        computed or a repeat — is committed to the store first, under
        its own key: as runs finish, not at sweep end, which is what
        makes an interrupted sweep resumable.  The entry carries the
        run's ``wall_seconds`` and ``pid``; a repeat carries those of
        the run it repeats.
        """
        kind = self._tally.update(outcome)
        if kind != "failed" and not stored and self.store is not None:
            self.store.put(spec, outcome)
        for sink in self._sinks:
            sink.update(outcome)

    def _settle(
        self, key: RunKey, group: list[RunSpec], outcome: RunOutcome
    ) -> list[RunOutcome]:
        """Settle a group's executed run and every repeat of it.

        A successful outcome is remembered for later calls; a failed
        one is not, and its repeats fail with the same error under
        their own labels.
        """
        if outcome.ok:
            self._simulated[key] = outcome
        settled = [outcome] + [_repeat(outcome, spec) for spec in group[1:]]
        for one, spec in zip(settled, group):
            self._observe(one, spec)
        return settled

    def _map_inline(
        self, groups: dict[RunKey, list[RunSpec]]
    ) -> list[RunOutcome]:
        """Run each group's first spec in this process, in turn."""
        outcomes: list[RunOutcome] = []
        for key, group in groups.items():
            outcomes += self._settle(key, group, pool_entry(group[0]))
        return outcomes

    def _map_pool(
        self, groups: dict[RunKey, list[RunSpec]]
    ) -> list[RunOutcome]:
        """Run each group's first spec in a process pool, settling
        groups as their run finishes."""
        if not groups:
            return []
        workers = max(1, min(self.jobs, len(groups)))
        pool = ProcessPoolExecutor(max_workers=workers)
        outcomes: list[RunOutcome] = []
        try:
            futures = {
                pool.submit(pool_entry, group[0]): key
                for key, group in groups.items()
            }
            # Consume in completion order so the progress reporter sees
            # runs as workers finish; determinism comes from the
            # caller's (cell, seed) sort afterwards.
            for future in as_completed(futures):
                key = futures[future]
                group = groups[key]
                outcomes += self._settle(
                    key, group, self._result(future, group[0])
                )
        finally:
            pool.shutdown(cancel_futures=True)
        return outcomes

    def _result(self, future, spec: RunSpec) -> RunOutcome:
        try:
            return future.result()
        except BaseException as exc:  # noqa: BLE001
            # A worker died hard (e.g. the pool broke) or the outcome
            # failed to unpickle; blame the run, keep the sweep.
            return failed_outcome(spec, f"{type(exc).__name__}: {exc}")

    def run_cells(
        self, cells: Sequence[CellSpec], analyze: bool = False
    ) -> list[CellResult]:
        """Run every seed of every cell; merge to cells in input order.

        Args:
            cells: the sweep, one spec per experimental cell.
            analyze: also trace + diagnose every run and attach the
                merged :class:`~repro.obs.analyze.CellAnalysis` to
                each cell's result.

        Returns:
            One seed-averaged :class:`CellResult` per input cell, in
            input order, numerically identical at any worker count.

        Raises:
            SweepError: when any run failed; the message lists every
                failing (cell, seed).
        """
        cells = list(cells)
        outcomes = self.map_runs(expand_runs(cells), analyze=analyze)
        tally = self._tally
        tally.check("sweep")
        results: list[CellResult] = []
        position = 0
        for cell in cells:
            count = len(cell.config.seeds)
            group = outcomes[position : position + count]
            position += count
            results.append(
                merge_cell(
                    cell.bandwidth_kb,
                    [o.stats for o in group],
                    [o.analysis for o in group] if analyze else None,
                )
            )
        stats = self._stats
        self._stats = replace(
            stats,
            cells_cached=stats.cells_cached + tally.cells_cached,
            cells_computed=(
                stats.cells_computed + len(cells) - tally.cells_cached
            ),
        )
        return results


def _repeat(outcome: RunOutcome, spec: RunSpec) -> RunOutcome:
    """``spec``'s outcome when it repeats the run that gave ``outcome``.

    A success is the same outcome under ``spec``'s merge keys and
    label, marked ``cached`` (it was not simulated now); a failure is
    the same error reported against ``spec``.
    """
    if not outcome.ok:
        return failed_outcome(spec, outcome.error)
    return replace(
        outcome,
        cell_index=spec.cell_index,
        seed_index=spec.seed_index,
        label=spec.cell.describe(),
        cached=True,
    )
