"""Multi-bitrate encoding ladders.

An ABR service encodes the *same content* at several bitrates and
splices every rendition on aligned segment boundaries so the client
can switch at any boundary.  The ladder here encodes one scene plan at
each bitrate and duration-splices all renditions identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.segments import SpliceResult
from ..core.splicer import DurationSplicer
from ..errors import ConfigurationError
from ..video.encoder import EncoderConfig, SyntheticEncoder
from ..video.scene import generate_scene_plan

#: The ladder used by the transport study (bits/second); the top rung
#: matches the paper's 1 Mbps nominal video.
DEFAULT_BITRATES: tuple[float, ...] = (
    237_500.0,
    475_000.0,
    712_500.0,
    950_000.0,
)


@dataclass(frozen=True, slots=True)
class Rendition:
    """One rung of the ladder.

    Attributes:
        bitrate: realized mean bitrate, bits/second.
        splice: the rendition's segments (aligned across renditions).
    """

    bitrate: float
    splice: SpliceResult


class BitrateLadder:
    """Aligned renditions of one video at several bitrates."""

    def __init__(self, renditions: list[Rendition]) -> None:
        if not renditions:
            raise ConfigurationError("ladder must have >= 1 rendition")
        ordered = sorted(renditions, key=lambda r: r.bitrate)
        count = len(ordered[0].splice)
        for rendition in ordered[1:]:
            if len(rendition.splice) != count:
                raise ConfigurationError(
                    "renditions must have aligned segment counts; got "
                    f"{len(rendition.splice)} vs {count}"
                )
        self._renditions = tuple(ordered)

    @property
    def renditions(self) -> tuple[Rendition, ...]:
        """Rungs in ascending bitrate order."""
        return self._renditions

    @property
    def bitrates(self) -> tuple[float, ...]:
        """Available bitrates, ascending."""
        return tuple(r.bitrate for r in self._renditions)

    @property
    def segment_count(self) -> int:
        """Segments per rendition."""
        return len(self._renditions[0].splice)

    @property
    def top(self) -> Rendition:
        """The highest-quality rung."""
        return self._renditions[-1]

    def rung(self, index: int) -> Rendition:
        """The ``index``-th rung (ascending bitrate)."""
        return self._renditions[index]

    def __len__(self) -> int:
        return len(self._renditions)

    def segment_size(self, rung_index: int, segment_index: int) -> int:
        """Size in bytes of one segment of one rendition."""
        rendition = self._renditions[rung_index]
        return rendition.splice.segments[segment_index].size

    def segment_duration(self, segment_index: int) -> float:
        """Playback duration of a segment (same across renditions)."""
        return self._renditions[0].splice.segments[segment_index].duration


def encode_ladder(
    seed: int = 0,
    duration: float = 120.0,
    bitrates: tuple[float, ...] = DEFAULT_BITRATES,
    segment_duration: float = 4.0,
    config: EncoderConfig | None = None,
) -> BitrateLadder:
    """Encode one scene plan at every ladder bitrate and splice it.

    The scene plan (and thus GOP structure and segment alignment) is
    shared across renditions, exactly as a production packager aligns
    its ladder.

    Args:
        seed: scene-plan and jitter seed.
        duration: video duration, seconds.
        bitrates: ladder rungs in bits/second.
        segment_duration: aligned segment duration, seconds.
        config: base encoder configuration (bitrate is overridden).

    Returns:
        The aligned :class:`BitrateLadder`.
    """
    if not bitrates:
        raise ConfigurationError("bitrates must be non-empty")
    plan = generate_scene_plan(duration, random.Random(seed))
    base = config or EncoderConfig()
    splicer = DurationSplicer(segment_duration)
    renditions = []
    for bitrate in bitrates:
        encoder_config = EncoderConfig(
            fps=base.fps,
            bitrate=bitrate,
            keyframe_interval=base.keyframe_interval,
            b_frames=base.b_frames,
            i_weight=base.i_weight,
            p_weight=base.p_weight,
            b_weight=base.b_weight,
            size_jitter=base.size_jitter,
            open_gop=base.open_gop,
        )
        stream = SyntheticEncoder(encoder_config).encode(
            plan, random.Random(seed + 1)
        )
        renditions.append(
            Rendition(bitrate=bitrate, splice=splicer.splice(stream))
        )
    return BitrateLadder(renditions)
