"""Parallel sweep execution (:class:`SweepExecutor` and friends).

The paper's evaluation grid — splicing technique x bandwidth x policy
x seed — is embarrassingly parallel; this package fans those
independent swarm runs out over a process pool while keeping results
bit-identical to the serial path.  See ``docs/PERFORMANCE.md`` for the
design and determinism guarantees.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cached_splice": "cache",
    "cached_video": "cache",
    "clear_caches": "cache",
    "splice_for": "cache",
    "canonical_data": "digest",
    "content_digest": "digest",
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
