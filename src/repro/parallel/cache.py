"""Process-wide memo caches for encoded videos and splice results.

Encoding the paper's 2-minute video and splicing it are pure functions
of a few scalars, yet a sweep re-derives them for every cell.  These
caches make each derivation happen once *per process*: the parent does
it once for its inline runs, and every pool worker does it once on its
first task instead of once per task.

Keys are frozen spec dataclasses (hashable by value), so two cells
describing the same video/technique share one cached object.  An
explicit :class:`~repro.video.bitstream.Bitstream` is cached by
identity — within one process repeated splices of the same object are
free, while across processes each pickled copy is distinct (the
cacheable path for cross-process reuse is a
:class:`~repro.parallel.spec.VideoSpec`).
"""

from __future__ import annotations

from functools import lru_cache

from ..core.segments import SpliceResult
from ..video.bitstream import Bitstream
from .spec import CellSpec, SplicerSpec, VideoSpec


@lru_cache(maxsize=8)
def cached_video(spec: VideoSpec) -> Bitstream:
    """Encode (once per process) the video a spec describes."""
    return spec.encode()


@lru_cache(maxsize=64)
def cached_splice(
    video_spec: VideoSpec, splicer_spec: SplicerSpec
) -> SpliceResult:
    """Splice (once per process) a spec-described video."""
    return splicer_spec.build().splice(cached_video(video_spec))


@lru_cache(maxsize=64)
def _splice_explicit(
    video: Bitstream, splicer_spec: SplicerSpec
) -> SpliceResult:
    # Bitstream hashes by identity, so this memoizes per in-process
    # object — exactly the reuse the serial figure loops had.
    return splicer_spec.build().splice(video)


def splice_for(cell: CellSpec) -> SpliceResult:
    """The cell's spliced video, via whichever cache applies.

    Also takes a resolved :class:`~repro.parallel.worker.Simulation`,
    which carries the same ``splicer``/``video_spec``/``video``.
    """
    if cell.video is not None:
        return _splice_explicit(cell.video, cell.splicer)
    return cached_splice(cell.video_spec, cell.splicer)


def clear_caches() -> None:
    """Drop every memoized video and splice (tests, memory pressure)."""
    cached_video.cache_clear()
    cached_splice.cache_clear()
    _splice_explicit.cache_clear()
