"""Picklable descriptions of sweep work.

A sweep is a list of :class:`CellSpec` (one experimental cell each);
the executor expands every cell into per-seed :class:`RunSpec` work
units.  Specs describe *how to build* a run rather than carrying the
built objects: a worker process reconstructs the video and splice from
a few scalars (memoized process-wide, see :mod:`repro.parallel.cache`)
instead of unpickling megabytes per task.

The one exception is an explicitly supplied
:class:`~repro.video.bitstream.Bitstream` (tests stream short custom
videos): such a cell embeds the bitstream itself and bypasses the
cross-process cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.policy import DownloadPolicy
from ..core.splicer import DurationSplicer, GopSplicer, Splicer
from ..errors import ExperimentError
from ..net.tcp import TcpParams
from ..p2p.selection import PieceSelector
from ..p2p.swarm import FIDELITY_TIERS
from ..video.bitstream import Bitstream
from ..video.encoder import encode_paper_video
from ..experiments.config import ExperimentConfig
from .digest import OMIT_AT_DEFAULT


@dataclass(frozen=True, slots=True)
class VideoSpec:
    """How to (re-)encode a synthetic video deterministically.

    Attributes:
        seed: encoder seed (scene plan + frame-size jitter).
        duration: length in seconds; ``None`` is the paper's 2 minutes.
        bitrate: realized mean bitrate in bits/s; ``None`` is the
            paper's default.
    """

    seed: int = 1
    duration: float | None = None
    bitrate: float | None = None

    def encode(self) -> Bitstream:
        """Encode the described video (deterministic in the spec)."""
        kwargs: dict = {"seed": self.seed}
        if self.duration is not None:
            kwargs["duration"] = self.duration
        if self.bitrate is not None:
            kwargs["bitrate"] = self.bitrate
        return encode_paper_video(**kwargs)


@dataclass(frozen=True, slots=True)
class SplicerSpec:
    """How to build a splicer: technique kind plus its parameter.

    Attributes:
        kind: ``"gop"`` or ``"duration"``.
        duration: segment duration in seconds (``"duration"`` only).
    """

    kind: str
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gop", "duration"):
            raise ExperimentError(
                f"unknown splicer kind {self.kind!r}"
            )
        if self.kind == "duration" and self.duration is None:
            raise ExperimentError(
                "duration splicing needs a segment duration"
            )

    def build(self) -> Splicer:
        """Instantiate the described splicer."""
        if self.kind == "gop":
            return GopSplicer()
        return DurationSplicer(self.duration)

    @property
    def technique(self) -> str:
        """The splicer's report name, without building it.

        Mirrors the splicers' own naming; safe even when the spec
        would not build (failure labels must never raise).
        """
        if self.kind == "gop":
            return "gop"
        duration = self.duration
        if duration == int(duration):
            return f"duration-{int(duration)}s"
        return f"duration-{duration}s"


@dataclass(frozen=True, slots=True)
class SquareWave:
    """Mid-run square-wave bandwidth modulation (ablation A4).

    Attributes:
        amplitude: swing as a fraction of the base bandwidth, in
            (0, 1).
        period: full oscillation period, seconds.
    """

    amplitude: float
    period: float

    def __post_init__(self) -> None:
        if not 0.0 < self.amplitude < 1.0:
            raise ExperimentError(
                f"amplitude must be in (0, 1): {self.amplitude}"
            )
        if self.period <= 0:
            raise ExperimentError(
                f"period must be positive: {self.period}"
            )


@dataclass(frozen=True, slots=True)
class CellSpec:
    """One experimental cell: everything needed to run its seeds.

    Attributes:
        splicer: splicing technique of the cell.
        bandwidth_kb: peer access bandwidth, kB/s.
        config: shared experiment parameters (defines the seeds).
        policy: download-policy override (``None``: the paper's
            adaptive pooling).
        video_spec: deterministic video description — the cacheable
            path.  Exactly one of ``video_spec``/``video`` is set.
        video: explicit pre-encoded bitstream (bypasses the
            cross-process cache; shipped pickled to workers).
        preroll_segments: override of the player's pre-roll depth.
        square_wave: optional mid-run bandwidth modulation.
        fidelity: swarm-backend override for this cell (``None``
            defers to ``config.fidelity``).  Part of the cell's
            content digest: changing the backend changes the spec
            identity, so manifests and caches never conflate tiers.
        selector: piece-selection override (``None``: the swarm's
            sequential default).
        tcp_params: transport override (``None``: the swarm's TCP
            default).  This field and ``selector`` are left out of the
            content digest while ``None``, so cells without them keep
            the keys they had before the fields existed.
        label: human-readable cell identity used in failure reports
            (e.g. ``"fig2/gop @ 128 kB/s"``).
    """

    splicer: SplicerSpec
    bandwidth_kb: float
    config: ExperimentConfig
    policy: DownloadPolicy | None = None
    video_spec: VideoSpec | None = None
    video: Bitstream | None = None
    preroll_segments: int | None = None
    square_wave: SquareWave | None = None
    fidelity: str | None = None
    selector: PieceSelector | None = field(
        default=None, metadata=OMIT_AT_DEFAULT
    )
    tcp_params: TcpParams | None = field(
        default=None, metadata=OMIT_AT_DEFAULT
    )
    label: str = ""

    def __post_init__(self) -> None:
        if (self.video_spec is None) == (self.video is None):
            raise ExperimentError(
                "exactly one of video_spec/video must be given"
            )
        if self.fidelity is not None and self.fidelity not in (
            FIDELITY_TIERS
        ):
            raise ExperimentError(
                f"fidelity must be one of {FIDELITY_TIERS}: "
                f"{self.fidelity!r}"
            )

    def describe(self) -> str:
        """The cell's label, or a synthesized one."""
        if self.label:
            return self.label
        return (
            f"{self.splicer.technique} @ "
            f"{self.bandwidth_kb:g} kB/s"
        )


def cell_for(
    splicer: SplicerSpec,
    bandwidth_kb: float,
    config: ExperimentConfig,
    *,
    policy: DownloadPolicy | None = None,
    video: Bitstream | None = None,
    preroll_segments: int | None = None,
    square_wave: SquareWave | None = None,
    fidelity: str | None = None,
    selector: PieceSelector | None = None,
    tcp_params: TcpParams | None = None,
    label: str = "",
) -> CellSpec:
    """Build a cell, picking the cacheable path when possible.

    When ``video`` is ``None`` the cell carries a :class:`VideoSpec`
    derived from ``config.video_seed`` (the paper's video), which
    worker processes encode once and reuse across every cell; an
    explicit ``video`` is embedded as-is.
    """
    return CellSpec(
        splicer=splicer,
        bandwidth_kb=bandwidth_kb,
        config=config,
        policy=policy,
        video_spec=(
            VideoSpec(seed=config.video_seed) if video is None else None
        ),
        video=video,
        preroll_segments=preroll_segments,
        square_wave=square_wave,
        fidelity=fidelity,
        selector=selector,
        tcp_params=tcp_params,
        label=label,
    )


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One independent swarm run: a (cell, seed) pair.

    Attributes:
        cell: the cell this run belongs to.
        seed: the swarm seed of this run.
        cell_index: position of the cell in the sweep (merge key).
        seed_index: position of the seed within the cell (merge key).
        collect_analysis: when true, the run is traced in full into
            its own unbounded tracer, diagnosed, and reduced to a one-run
            :class:`~repro.obs.analyze.CellAnalysis` where it executed
            — only that rollup crosses the process boundary, never
            the trace, so attribution is identical at any worker
            count.
    """

    cell: CellSpec
    seed: int
    cell_index: int
    seed_index: int
    collect_analysis: bool = False


def expand_runs(cells: Sequence[CellSpec]) -> list[RunSpec]:
    """Expand cells into per-seed runs, cell by cell, seed by seed.

    The executor runs these specs and a sweep plan digests them, so a
    planned run and an executed run share one identity.
    """
    return [
        RunSpec(
            cell=cell,
            seed=seed,
            cell_index=cell_index,
            seed_index=seed_index,
        )
        for cell_index, cell in enumerate(cells)
        for seed_index, seed in enumerate(cell.config.seeds)
    ]
