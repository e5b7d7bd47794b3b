"""Group-of-Pictures data model."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BitstreamError
from .frames import Frame, FrameType


@dataclass(frozen=True, slots=True)
class Gop:
    """A Group of Pictures.

    A *closed* GOP starts with an IDR-style I-frame and contains no
    references to frames outside itself, so it can be decoded and
    played independently — the property GOP-based splicing exploits.
    An *open* GOP starts with a plain I-frame whose leading B-frames
    may reference the previous GOP (real encoders emit these at
    forced keyframe intervals); a splicer must not cut in front of it.

    Attributes:
        frames: the frames of the GOP in presentation order.
        closed: whether the GOP is independently decodable (the paper
            deals only with closed GOPs; open GOPs are modeled so the
            splicer can demonstrate why).
    """

    frames: tuple[Frame, ...]
    closed: bool = True

    def __post_init__(self) -> None:
        if not self.frames:
            raise BitstreamError("a GOP must contain at least one frame")
        if self.frames[0].frame_type is not FrameType.I:
            raise BitstreamError(
                "a closed GOP must start with an I-frame, got "
                f"{self.frames[0].frame_type.value}"
            )
        for earlier, later in zip(self.frames, self.frames[1:]):
            if later.frame_type is FrameType.I:
                raise BitstreamError(
                    "a GOP may contain only one I-frame (at its start); "
                    f"found another at stream index {later.index}"
                )
            if later.pts <= earlier.pts:
                raise BitstreamError(
                    "frame pts must strictly increase within a GOP"
                )

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def start_pts(self) -> float:
        """Presentation time of the first frame."""
        return self.frames[0].pts

    @property
    def end_pts(self) -> float:
        """Presentation time at which the last frame ends."""
        return self.frames[-1].end_pts

    @property
    def duration(self) -> float:
        """Playback duration of the GOP in seconds."""
        return self.end_pts - self.start_pts

    @property
    def size(self) -> int:
        """Total encoded size in bytes."""
        return sum(frame.size for frame in self.frames)

    @property
    def i_frame(self) -> Frame:
        """The GOP's leading I-frame."""
        return self.frames[0]
