"""Parallel sweep execution (:class:`SweepExecutor` and friends).

The paper's evaluation grid — splicing technique x bandwidth x policy
x seed — is embarrassingly parallel; this package fans those
independent swarm runs out over a process pool while keeping results
bit-identical to the serial path.  See ``docs/PERFORMANCE.md`` for the
design and determinism guarantees.
"""

from .cache import cached_splice, cached_video, clear_caches, splice_for
from .digest import canonical_data, content_digest, spec_digest
from .executor import (
    JOBS_ENV_VAR,
    SweepExecutor,
    SweepStats,
    default_jobs,
)
from .progress import SweepProgress, SweepTally
from .spec import (
    CellSpec,
    RunSpec,
    SplicerSpec,
    SquareWave,
    VideoSpec,
    cell_for,
)
from .store import (
    DEFAULT_STORE_DIR,
    STORE_ENV_VAR,
    STORE_SCHEMA,
    ResultStore,
    StoreStats,
    default_store_root,
    run_identity,
)
from .worker import (
    RunOutcome,
    execute_run,
    pool_entry,
    simulation_identity,
)

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
