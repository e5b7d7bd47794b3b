"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
while still distinguishing subsystem-specific failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class VideoError(ReproError):
    """Base class for errors in the synthetic video subsystem."""


class BitstreamError(VideoError):
    """A bitstream violates MPEG-4 structural invariants."""


class SpliceError(ReproError):
    """A splicing operation could not produce valid segments."""


class NetworkError(ReproError):
    """Base class for errors in the network simulator."""


class SimulationError(NetworkError):
    """The discrete-event engine was driven into an invalid state."""


class RoutingError(NetworkError):
    """No path exists between two nodes in the topology."""


class LinkError(NetworkError):
    """A link was configured or used incorrectly."""


class PeerError(ReproError):
    """A peer was driven into an invalid state."""


class SwarmError(ReproError):
    """Swarm-level orchestration failure (e.g. no seeder available)."""


class PlaybackError(ReproError):
    """The player or playback buffer was used incorrectly."""


class RSpecError(ReproError):
    """An RSpec document could not be generated or parsed."""


class ExperimentError(ReproError):
    """An experiment configuration or run is invalid."""


class SweepError(ExperimentError):
    """One or more runs of a parallel sweep failed.

    The message names every failing (cell, seed) so a crashed worker
    is attributable without re-running the sweep.
    """


class StoreError(ExperimentError):
    """The content-addressed result store was misused or a sweep plan
    is malformed or stale.

    Covers caching a failed outcome, unreadable/invalid
    ``repro.sweep/1`` plan documents, and plan/code digest drift
    (a shard plan built by a different code version).
    """


class OpsError(ReproError):
    """An operational-telemetry document is malformed or unreadable.

    Covers ``repro.ops/1`` span logs that fail to parse or validate
    and shard heartbeat files with schema drift — the wall-clock
    observability layer (:mod:`repro.obs.ops`), not the sim-time
    tracer.
    """


class TraceError(ReproError):
    """A trace, metric, or exporter was configured or parsed incorrectly."""


class LintError(ReproError):
    """A lint run cannot read its input.

    Covers missing paths, unreadable/unparseable sources and malformed
    suppression comments — *not* rule findings, which are data, not
    exceptions.
    """


class ArtifactError(ReproError):
    """A benchmark artifact is missing, malformed, or schema-invalid."""


class BenchError(ReproError):
    """A benchmark suite was configured or driven incorrectly."""
