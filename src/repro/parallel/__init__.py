"""Parallel sweep execution (:class:`SweepExecutor` and friends).

The paper's evaluation grid — splicing technique x bandwidth x policy
x seed — is embarrassingly parallel; this package fans those
independent swarm runs out over a process pool while keeping results
bit-identical to the serial path.  See ``docs/PERFORMANCE.md`` for the
design and determinism guarantees.
"""

from ..lazy import lazy_exports

__all__ = [
    "CellSpec",
    "DEFAULT_STORE_DIR",
    "JOBS_ENV_VAR",
    "ResultStore",
    "RunOutcome",
    "RunSpec",
    "STORE_ENV_VAR",
    "STORE_SCHEMA",
    "SplicerSpec",
    "SquareWave",
    "StoreStats",
    "SweepExecutor",
    "SweepProgress",
    "SweepStats",
    "SweepTally",
    "VideoSpec",
    "cached_splice",
    "cached_video",
    "canonical_data",
    "cell_for",
    "clear_caches",
    "content_digest",
    "default_jobs",
    "default_store_root",
    "execute_run",
    "pool_entry",
    "run_identity",
    "simulation_identity",
    "spec_digest",
    "splice_for",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "cached_splice": "cache",
    "cached_video": "cache",
    "clear_caches": "cache",
    "splice_for": "cache",
    "canonical_data": "digest",
    "content_digest": "digest",
    "spec_digest": "digest",
    "JOBS_ENV_VAR": "executor",
    "SweepExecutor": "executor",
    "SweepStats": "executor",
    "default_jobs": "executor",
    "SweepProgress": "progress",
    "SweepTally": "progress",
    "CellSpec": "spec",
    "RunSpec": "spec",
    "SplicerSpec": "spec",
    "SquareWave": "spec",
    "VideoSpec": "spec",
    "cell_for": "spec",
    "DEFAULT_STORE_DIR": "store",
    "STORE_ENV_VAR": "store",
    "STORE_SCHEMA": "store",
    "ResultStore": "store",
    "StoreStats": "store",
    "default_store_root": "store",
    "run_identity": "store",
    "RunOutcome": "worker",
    "execute_run": "worker",
    "pool_entry": "worker",
    "simulation_identity": "worker",
})
