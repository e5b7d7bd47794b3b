"""Persistent, content-addressed cache of sweep run results.

A sweep cell is a pure function of its spec: the same
:class:`~repro.parallel.spec.CellSpec` and seed always produce the
same :class:`~repro.experiments.runner.SeedStats`.  PR 6's canonical
JSON :func:`~repro.parallel.digest.content_digest` turns that purity
into an *identity* — two processes, two machines, or two weeks compute
the same digest for the same spec — and this module turns the identity
into a disk cache:

* **warm re-runs**: re-running a sweep only computes cells whose spec
  changed; unchanged cells are disk hits whose merged results are
  byte-identical at any ``--jobs`` count (the cached object *is* the
  :class:`~repro.parallel.worker.RunOutcome` the original run
  produced);
* **resumability**: the executor commits each successful run as it
  finishes, so an interrupted sweep re-run against the same store
  picks up exactly where it left off;
* **sharding**: stores are plain directories of digest-named files —
  any shard of a sweep can run on any machine and the shard stores
  merge by file union (``repro sweep merge``).

Keys incorporate :data:`STORE_SCHEMA` so a format change never
misreads old entries: bump the version and every old entry simply
misses (see ``docs/OBSERVABILITY.md`` for the schema-version policy).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace
from pathlib import Path

from ..errors import StoreError
from ..obs.ops import NULL_OPS, OpsLog
from .digest import content_digest
from .spec import RunSpec
from .worker import RunOutcome

#: Version tag of the result-store entry layout.  Bump the integer on
#: any change to what an entry contains or how it is keyed; old
#: entries then miss instead of being misread (the policy mirrors
#: ``repro.bench/1``, see ``docs/OBSERVABILITY.md``).
STORE_SCHEMA = "repro.store/1"

#: Environment variable naming a default store directory.
STORE_ENV_VAR = "REPRO_STORE"

#: Default store directory (relative to the working directory).
DEFAULT_STORE_DIR = ".repro-store"


def run_identity(spec: RunSpec, schema: str = STORE_SCHEMA) -> str:
    """The content digest that *is* a run's store key.

    The key names a *request*: the whole cell spec as written
    (technique, bandwidth, config — including fidelity, seeds,
    churn —, the unresolved policy, video identity, and the label)
    and the run's seed.  So two requests for one simulation, such as
    fig2's and fig3's cell for the same session, have distinct keys.
    The executor-side merge keys (``cell_index``/``seed_index``) and
    the analysis flag do not participate.  Keys stay exactly as they
    are (``TestStoreKeys`` pins them), so existing stores and sweep
    plans keep hitting.  Whether two runs are the same simulation is
    :func:`~repro.parallel.worker.simulation_identity`.
    """
    return content_digest((schema, spec.cell, spec.seed))


@dataclass(frozen=True, slots=True)
class StoreStats:
    """Cumulative cache traffic of one :class:`ResultStore` instance.

    Attributes:
        hits: lookups served from disk.
        misses: lookups that found no usable entry (including entries
            lacking a stall analysis the caller needs).
        stores: entries committed.
        invalidations: entries found but rejected — schema mismatch,
            digest mismatch, or a corrupt/unreadable file.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0


class ResultStore:
    """A directory of :class:`RunOutcome` entries keyed by content.

    Layout: ``<root>/<k[:2]>/<k>.pkl`` where ``k`` is
    :func:`run_identity` of the run.  Entries are committed atomically
    (temp file + ``os.replace``), so concurrent writers — pool
    workers, parallel shards on a shared filesystem — can only ever
    race to write equivalent entries, never corrupt one.

    Args:
        root: store directory; created on first commit.
        schema: entry-layout version (tests inject a fake one to
            exercise invalidation); everything else should use the
            default :data:`STORE_SCHEMA`.
        ops: optional wall-clock span log; each commit emits a
            ``store-commit`` span and each :meth:`absorb` source a
            ``store-absorb`` span, parented under whatever span the
            orchestration layer holds open.  Also assignable after
            construction (the sweep service attaches its shard log).
    """

    def __init__(
        self,
        root: str | Path,
        schema: str = STORE_SCHEMA,
        ops: OpsLog | None = None,
    ) -> None:
        self.root = Path(root)
        self.schema = schema
        self.ops = ops if ops is not None else NULL_OPS
        self._stats = StoreStats()

    @property
    def stats(self) -> StoreStats:
        """Cumulative hit/miss/store/invalidation totals."""
        return self._stats

    def run_key(self, spec: RunSpec) -> str:
        """The run's cache key (see :func:`run_identity`)."""
        return run_identity(spec, self.schema)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(
        self, spec: RunSpec, *, need_analysis: bool = False
    ) -> RunOutcome | None:
        """The cached outcome for ``spec``, or ``None`` on a miss.

        A returned outcome has ``cached=True`` and the *caller's*
        merge keys patched in, so it drops straight into the
        executor's deterministic (cell, seed) merge.

        Args:
            need_analysis: require a stall diagnosis in the entry;
                entries without one miss.
        """
        path = self._path(self.run_key(spec))
        try:
            payload = path.read_bytes()
        except OSError:
            self._count(misses=1)
            return None
        try:
            entry = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any corrupt entry misses
            self._count(misses=1, invalidations=1)
            return None
        outcome = self._validate(entry, self.run_key(spec))
        if outcome is None:
            self._count(misses=1, invalidations=1)
            return None
        if need_analysis and outcome.analysis is None:
            self._count(misses=1)
            return None
        self._count(hits=1)
        return replace(
            outcome,
            cell_index=spec.cell_index,
            seed_index=spec.seed_index,
            cached=True,
        )

    def _validate(self, entry: object, key: str) -> RunOutcome | None:
        if not isinstance(entry, dict):
            return None
        if entry.get("schema") != self.schema:
            return None
        if entry.get("key") != key:
            return None
        outcome = entry.get("outcome")
        if not isinstance(outcome, RunOutcome) or not outcome.ok:
            return None
        # Entries pickled before the optional ``pid`` field existed
        # unpickle with that slot unset; default it so field access
        # and ``dataclasses.replace`` keep working (this is why the
        # addition was not a schema bump).
        if getattr(outcome, "pid", None) is None:
            object.__setattr__(outcome, "pid", 0)
        return outcome

    def put(self, spec: RunSpec, outcome: RunOutcome) -> None:
        """Commit one successful run's outcome.

        Failed outcomes are rejected (a crash is not a result).
        """
        if not outcome.ok:
            raise StoreError(
                f"refusing to cache a failed run: {outcome.label!r} "
                f"({outcome.error})"
            )
        key = self.run_key(spec)
        entry = {
            "schema": self.schema,
            "key": key,
            "outcome": replace(outcome, cached=False),
        }
        if self.ops.enabled:
            with self.ops.span(
                "store-commit",
                key=key,
                cell=outcome.label,
                seed=outcome.seed,
            ):
                self._commit(key, entry)
        else:
            self._commit(key, entry)
        self._count(stores=1)

    def _commit(self, key: str, entry: dict) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_bytes(
            pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        )
        os.replace(tmp, path)

    def keys(self) -> list[str]:
        """Every entry key in the store, sorted."""
        if not self.root.is_dir():
            return []
        found = [
            path.stem
            for path in self.root.glob("??/*.pkl")
        ]
        found.sort()
        return found

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in self.keys():
            try:
                self._path(key).unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def absorb(self, source: "ResultStore | str | Path") -> int:
        """Copy entries from ``source`` into this store (shard merge).

        Entries already present locally are kept (content-addressed
        keys make both copies equivalent).  Returns the number of
        entries copied.
        """
        other = (
            source
            if isinstance(source, ResultStore)
            else ResultStore(source, schema=self.schema)
        )
        if self.ops.enabled:
            with self.ops.span(
                "store-absorb", source=str(other.root)
            ) as span:
                copied = self._absorb(other)
                span.attrs["copied"] = copied
        else:
            copied = self._absorb(other)
        return copied

    def _absorb(self, other: "ResultStore") -> int:
        copied = 0
        for key in other.keys():
            target = self._path(key)
            if target.exists():
                continue
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(
                f"{target.name}.tmp.{os.getpid()}"
            )
            tmp.write_bytes(other._path(key).read_bytes())
            os.replace(tmp, target)
            copied += 1
        return copied

    def _count(
        self,
        hits: int = 0,
        misses: int = 0,
        stores: int = 0,
        invalidations: int = 0,
    ) -> None:
        stats = self._stats
        self._stats = StoreStats(
            hits=stats.hits + hits,
            misses=stats.misses + misses,
            stores=stats.stores + stores,
            invalidations=stats.invalidations + invalidations,
        )


def default_store_root() -> Path:
    """The default store directory: ``$REPRO_STORE`` or
    ``.repro-store`` under the working directory."""
    env = os.environ.get(STORE_ENV_VAR, "").strip()
    return Path(env) if env else Path(DEFAULT_STORE_DIR)
