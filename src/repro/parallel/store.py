"""Persistent, content-addressed cache of sweep run results.

A sweep cell is a pure function of its spec: the same
:class:`~repro.parallel.spec.CellSpec` and seed always produce the
same :class:`~repro.experiments.runner.SeedStats`.  The canonical JSON
:func:`~repro.parallel.digest.content_digest` turns that purity into
an *identity* — two processes, two machines, or two weeks compute the
same digest for the same spec — and this module turns the identity
into a disk cache of one checked JSON document per run:

* **warm re-runs**: only cells whose spec changed are computed;
  unchanged cells are disk hits whose merged results are
  byte-identical at any ``--jobs`` count (entries keep floats exact);
* **resumability**: the executor commits each successful run as it
  finishes, so an interrupted sweep resumes where it left off;
* **sharding**: stores are plain directories of digest-named files
  that merge by file union (``repro sweep merge``).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .. import obs, schema
from ..errors import StoreError
from ..experiments.runner import SeedStats
from .digest import content_digest
from .spec import RunSpec
from .worker import RunOutcome

#: Version tag of the result-store entry layout, part of every key.
#: Bump the integer on any change to what an entry contains or how it
#: is keyed; old entries then miss instead of being misread (policy:
#: ``docs/OBSERVABILITY.md``).  An entry of the earlier pickle layout
#: (``<k>.pkl``) is never read either: it misses and is recomputed.
STORE_SCHEMA = "repro.store/1"

#: Environment variable naming a default store directory.
STORE_ENV_VAR = "REPRO_STORE"

#: Default store directory (relative to the working directory).
DEFAULT_STORE_DIR = ".repro-store"

#: The fields of :class:`~repro.experiments.runner.SeedStats`.
_STATS = dict.fromkeys(
    ("stall_count", "stall_duration", "startup_time", "seeder_bytes",
     "peer_bytes", "finished_fraction", "end_time"),
    schema.NUMBER,
) | {"events_fired": schema.COUNT}

#: The fields of a one-run :class:`~repro.obs.analyze.CellAnalysis`.
_ANALYSIS = {
    "causes": schema.map_of(schema.COUNT),
    "stall_count": schema.COUNT,
    "runs": schema.integer(1),
    "mean_transfer_efficiency": schema.nullable(schema.NUMBER),
    "mean_pool_deficit": schema.nullable(schema.NUMBER),
    "violation_count": schema.COUNT,
    "truncated_runs": schema.COUNT,
}


def _one_run(analysis: dict) -> None:
    if analysis["runs"] != 1:
        raise schema.Invalid("analysis.runs", "expected 1")


#: One entry.  The run's label, seed and merge keys are not stored: a
#: hit takes them from the request, whose key names them.
ENTRY = schema.table({
    "schema": schema.tag(STORE_SCHEMA),
    "key": schema.STR,
    "wall_seconds": schema.NUMBER,
    "pid": schema.COUNT,
    "stats": schema.table(_STATS),
    "analysis": schema.nullable(schema.table(_ANALYSIS, _one_run)),
})


def run_identity(spec: RunSpec) -> str:
    """The content digest that *is* a run's store key.

    The key names a *request*: the whole cell spec as written (label
    and unresolved policy included) and the run's seed, under
    :data:`STORE_SCHEMA`, so fig2's and fig3's request for one session
    have distinct keys.  The merge keys and the analysis flag do not
    participate.  ``TestStoreKeys`` pins the keys.  Whether two runs
    are the same simulation is
    :func:`~repro.parallel.worker.simulation_identity`.
    """
    return content_digest((STORE_SCHEMA, spec.cell, spec.seed))


@dataclass(frozen=True, slots=True)
class StoreStats:
    """Cumulative cache traffic of one :class:`ResultStore` instance.

    Attributes:
        hits: lookups served from disk.
        misses: lookups that found no usable entry (including entries
            lacking a stall analysis the caller needs).
        stores: entries committed.
        invalidations: entries found but rejected — not UTF-8 JSON,
            not fitting :data:`ENTRY` (schema tag included), or
            holding another key.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0


class ResultStore:
    """A directory of JSON run entries keyed by content.

    Layout: ``<root>/<k[:2]>/<k>.json`` where ``k`` is
    :func:`run_identity` of the run and the document fits
    :data:`ENTRY`.  Entries are committed atomically (temp file +
    ``os.replace``), so concurrent writers — pool workers, parallel
    shards on a shared filesystem — can only ever race to write
    equivalent entries, never corrupt one.  ``json`` writes floats by
    ``repr``, so they read back bit-identical; NaN and ±inf become the
    ``NaN``/``Infinity``/``-Infinity`` tokens it reads back.

    Args:
        root: store directory; created on first commit.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._stats = StoreStats()

    @property
    def stats(self) -> StoreStats:
        """Cumulative hit/miss/store/invalidation totals."""
        return self._stats

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(
        self, spec: RunSpec, *, need_analysis: bool = False
    ) -> RunOutcome | None:
        """The cached outcome for ``spec``, or ``None`` on a miss.

        A returned outcome has ``cached=True`` and the *caller's*
        merge keys, seed and label, so it drops straight into the
        executor's deterministic (cell, seed) merge.  An entry that
        does not load as :data:`ENTRY` misses as an invalidation; it
        never raises.

        Args:
            need_analysis: require a stall diagnosis in the entry;
                entries without one miss.
        """
        key = run_identity(spec)
        try:
            raw = self._path(key).read_bytes()
        except OSError:
            self._count(misses=1)
            return None
        try:
            entry = schema.validate(
                json.loads(raw.decode("utf-8")), ENTRY, StoreError, "entry"
            )
        except (ValueError, StoreError):
            entry = None
        if entry is None or entry["key"] != key:
            self._count(misses=1, invalidations=1)
            return None
        analysis = entry["analysis"]
        if need_analysis and analysis is None:
            self._count(misses=1)
            return None
        self._count(hits=1)
        stats = entry["stats"]
        return RunOutcome(
            cell_index=spec.cell_index,
            seed_index=spec.seed_index,
            seed=spec.seed,
            label=spec.cell.describe(),
            stats=SeedStats(**{name: stats[name] for name in _STATS}),
            wall_seconds=entry["wall_seconds"],
            analysis=None if analysis is None else obs.CellAnalysis(
                **{name: analysis[name] for name in _ANALYSIS}
            ),
            cached=True,
            pid=entry["pid"],
        )

    def put(self, spec: RunSpec, outcome: RunOutcome) -> None:
        """Commit one successful run's outcome.

        Failed outcomes are rejected (a crash is not a result).
        """
        if not outcome.ok:
            raise StoreError(
                f"refusing to cache a failed run: {outcome.label!r} "
                f"({outcome.error})"
            )
        key = run_identity(spec)
        entry = {
            "schema": STORE_SCHEMA,
            "key": key,
            "wall_seconds": outcome.wall_seconds,
            "pid": outcome.pid,
            "stats": asdict(outcome.stats),
            "analysis": (
                None if outcome.analysis is None
                else asdict(outcome.analysis)
            ),
        }
        self._write(key, json.dumps(entry).encode("utf-8"))
        self._count(stores=1)

    def _write(self, key: str, payload: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)

    def keys(self) -> list[str]:
        """Every entry key in the store, sorted."""
        return sorted(path.stem for path in self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def absorb(self, source: "ResultStore | str | Path") -> int:
        """Copy entries from ``source`` into this store (shard merge).

        Entries already present locally are kept (content-addressed
        keys make both copies equivalent).  Returns the number of
        entries copied.
        """
        if not isinstance(source, ResultStore):
            source = ResultStore(source)
        copied = 0
        for key in source.keys():
            if not self._path(key).exists():
                self._write(key, source._path(key).read_bytes())
                copied += 1
        return copied

    def _count(self, **deltas: int) -> None:
        stats = self._stats
        self._stats = replace(stats, **{
            name: getattr(stats, name) + delta
            for name, delta in deltas.items()
        })


def default_store_root() -> Path:
    """The default store directory: ``$REPRO_STORE`` or
    ``.repro-store`` under the working directory."""
    env = os.environ.get(STORE_ENV_VAR, "").strip()
    return Path(env) if env else Path(DEFAULT_STORE_DIR)
