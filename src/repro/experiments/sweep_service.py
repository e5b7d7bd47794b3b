"""The sharded, resumable sweep service behind ``repro sweep``.

A figure sweep is a deterministic function of (figure, scale,
fidelity): every machine that rebuilds it gets the same cells, the
same :class:`~repro.parallel.spec.RunSpec` expansion, and — thanks to
the canonical-JSON content digest — the same identity per run.  That
makes multi-machine sweeps a three-verb protocol over plain files:

* ``plan`` — expand the sweep, digest every run, and deterministically
  partition the digests into K shards (``int(digest, 16) % K``).  The
  plan document (schema :data:`SWEEP_SCHEMA`) records the digests it
  expects, so a shard runner on another machine can prove it rebuilt
  the *same* sweep before running a single cell.
* ``run`` — execute one shard into a
  :class:`~repro.parallel.store.ResultStore` directory.  Any shard can
  run on any machine, at any ``--jobs``, in any order; interrupted
  shards resume from their store.
* ``merge`` — union the shard stores (content-addressed entries make
  the union conflict-free) and replay the figure against the merged
  store: every run is a cache hit, and the resulting
  :class:`~repro.experiments.runner.FigureResult` is byte-identical to
  a single-machine run because the cached outcomes *are* the original
  per-run results, merged in the same (cell, seed) order.

Missing entries (a shard that never ran, a killed machine) are not an
error at merge time: the merge executor simply computes them — merge
degrades gracefully into resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .. import schema
from ..errors import StoreError
from ..obs.export import dump_json
from ..obs.ops import ShardHeartbeat, heartbeat_path
from ..p2p.swarm import FIDELITY_TIERS
from ..parallel import (
    ResultStore,
    SweepExecutor,
    SweepProgress,
)
from ..parallel.spec import CellSpec, RunSpec, expand_runs
from ..parallel.store import STORE_SCHEMA, run_identity
from .config import ExperimentConfig, figure_axis, sweep_config
from .reproduce import FIGURES
from .runner import FigureResult

#: Version tag of the sweep-plan document.  Bump the integer on any
#: change to the plan layout (policy: :mod:`repro.schema`).
SWEEP_SCHEMA = "repro.sweep/1"

def figure_cells(
    figure: str, config: ExperimentConfig, quick: bool
) -> list[CellSpec]:
    """Rebuild the figure's sweep cells from plan parameters."""
    module = FIGURES.get(figure)
    if module is None:
        raise StoreError(
            f"unknown figure {figure!r} "
            f"(expected one of {', '.join(FIGURES)})"
        )
    return module.cells(config, **figure_axis(quick))


def shard_of(digest: str, shards: int) -> int:
    """Deterministic shard assignment of one run digest."""
    return int(digest, 16) % shards


def build_plan(
    figure: str,
    quick: bool = False,
    fidelity: str = "exact",
    shards: int = 1,
) -> dict:
    """Expand, digest, and partition one figure sweep into a plan."""
    if shards < 1:
        raise StoreError(f"shards must be >= 1: {shards}")
    config = sweep_config(quick, fidelity)
    cells = figure_cells(figure, config, quick)
    specs = expand_runs(cells)
    runs = []
    for spec in specs:
        digest = run_identity(spec)
        runs.append(
            {
                "digest": digest,
                "shard": shard_of(digest, shards),
                "cell_index": spec.cell_index,
                "seed_index": spec.seed_index,
                "seed": spec.seed,
                "label": spec.cell.describe(),
            }
        )
    return {
        "schema": SWEEP_SCHEMA,
        "store_schema": STORE_SCHEMA,
        "figure": figure,
        "quick": quick,
        "fidelity": fidelity,
        "shards": shards,
        "total_runs": len(runs),
        "runs": runs,
    }


def _check_runs(plan: dict) -> None:
    if not plan["runs"]:
        raise schema.Invalid("runs", "no runs")
    for index, run in enumerate(plan["runs"]):
        if run["shard"] >= plan["shards"]:
            raise schema.Invalid(
                f"runs[{index}].shard",
                f"{run['shard']} outside [0, {plan['shards']})",
            )


_PLAN = schema.table(
    {
        "schema": schema.tag(SWEEP_SCHEMA),
        "figure": schema.one_of(FIGURES),
        "quick": schema.BOOL,
        "fidelity": schema.one_of(FIDELITY_TIERS),
        "shards": schema.integer(1),
        "runs": schema.list_of(schema.table({
            "digest": schema.STR,
            "shard": schema.COUNT,
            "cell_index": schema.COUNT,
            "seed_index": schema.COUNT,
            "seed": schema.integer(),
        })),
    },
    check=_check_runs,
)


def load_plan(path: str | Path) -> dict:
    """Read and validate a plan written by ``repro sweep plan``."""
    return schema.load_json(path, _PLAN, StoreError, "sweep plan")


def dump_plan(plan: dict, path: str | Path) -> None:
    """Write a plan document as stable, diffable JSON."""
    dump_json(plan, str(path))


def _rebuild_specs(plan: dict) -> dict[str, RunSpec]:
    """Re-expand the plan's sweep and index the specs by digest.

    Raises:
        StoreError: when the rebuilt sweep does not produce the
            digests the plan expects — the plan was built by a
            different code version (or different defaults) and running
            it here would silently compute a *different* sweep.
    """
    config = sweep_config(plan["quick"], plan["fidelity"])
    cells = figure_cells(plan["figure"], config, plan["quick"])
    specs = {
        run_identity(spec): spec for spec in expand_runs(cells)
    }
    planned = {run["digest"] for run in plan["runs"]}
    missing = planned - set(specs)
    if missing:
        sample = ", ".join(list(sorted(missing))[:3])
        raise StoreError(
            f"sweep plan is stale: {len(missing)} of "
            f"{len(planned)} planned runs do not exist in this "
            f"code version (e.g. {sample}); regenerate the plan with "
            f"'repro sweep plan'"
        )
    if len(specs) != len(planned):
        raise StoreError(
            f"sweep plan is stale: this code version expands the "
            f"sweep to {len(specs)} runs, the plan recorded "
            f"{len(planned)}; regenerate the plan"
        )
    return specs


@dataclass(frozen=True, slots=True)
class ShardReport:
    """What running one shard accomplished.

    Attributes:
        shard: the shard index that ran.
        shards: total shards in the plan.
        runs: runs belonging to this shard.
        computed: runs executed here and committed to the store.
        cached: runs not simulated here: already in the store (a
            resumed shard), or repeats of a run the shard simulated.
    """

    shard: int
    shards: int
    runs: int
    computed: int
    cached: int


def run_shard(
    plan: dict,
    shard: int,
    store: ResultStore,
    jobs: int | None = 1,
    progress: SweepProgress | None = None,
) -> ShardReport:
    """Execute one shard of a plan into a result store.

    The shard writes wall-clock telemetry next to the store: an
    atomically-rewritten heartbeat that ``repro sweep status`` reads
    (its terminal ``updated - started`` is the shard's wall time).
    Each computed run's own wall time and pid live in its store
    entry.  Telemetry never influences results.

    Raises:
        StoreError: invalid shard index or a stale plan.
        SweepError: when any of the shard's runs failed.
    """
    shards = plan["shards"]
    if not 0 <= shard < shards:
        raise StoreError(
            f"shard must be in [0, {shards}): {shard}"
        )
    specs_by_digest = _rebuild_specs(plan)
    selected = [
        specs_by_digest[run["digest"]]
        for run in plan["runs"]
        if run["shard"] == shard
    ]
    selected.sort(key=lambda spec: (spec.cell_index, spec.seed_index))
    heartbeat = ShardHeartbeat(
        heartbeat_path(store.root, shard), shard=shard, shards=shards
    )
    executor = SweepExecutor(
        jobs=jobs, progress=progress, store=store, heartbeat=heartbeat
    )
    executor.map_runs(selected)
    tally = executor.tally
    tally.check("shard")
    return ShardReport(
        shard=shard,
        shards=shards,
        runs=tally.done,
        computed=tally.computed,
        cached=tally.cached,
    )


@dataclass(frozen=True, slots=True)
class MergeReport:
    """What merging a plan produced.

    Attributes:
        result: the final figure, byte-identical to a single-machine
            run of the same sweep.
        absorbed: entries copied in from shard stores.
        runs: total runs of the sweep.
        cached: runs served from the merged store (or repeating a
            run the merge simulated).
        computed: runs the merge had to compute (missing shards —
            merge doubles as resume).
    """

    result: FigureResult
    absorbed: int
    runs: int
    cached: int
    computed: int


def merge_plan(
    plan: dict,
    store: ResultStore,
    sources: Sequence[str | Path] = (),
    jobs: int | None = 1,
    progress: SweepProgress | None = None,
) -> MergeReport:
    """Merge shard stores and produce the plan's final figure.

    The merge writes no telemetry of its own: runs it has to compute
    record their wall time in their store entries.
    """
    _rebuild_specs(plan)  # fail fast on a stale plan
    executor = SweepExecutor(jobs=jobs, progress=progress, store=store)
    config = sweep_config(plan["quick"], plan["fidelity"])
    module = FIGURES[plan["figure"]]
    absorbed = 0
    for source in sources:
        absorbed += store.absorb(source)
    result = module.run(
        config, executor=executor, **figure_axis(plan["quick"])
    )
    stats = executor.stats
    return MergeReport(
        result=result,
        absorbed=absorbed,
        runs=stats.runs,
        cached=stats.runs_cached,
        computed=stats.runs - stats.runs_cached,
    )
