"""Frame-level data model for the synthetic MPEG-4 stream."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import BitstreamError


class FrameType(enum.Enum):
    """MPEG-4 frame types.

    * ``I`` — intra-coded; decodable on its own.  Every closed GOP
      starts with one.
    * ``P`` — predicted from the previous reference frame.
    * ``B`` — bi-directionally predicted from surrounding references.
    """

    I = "I"  # noqa: E741 - the MPEG name
    P = "P"
    B = "B"


@dataclass(frozen=True, slots=True)
class Frame:
    """One encoded video frame.

    Attributes:
        index: position of the frame in the full stream (0-based,
            presentation order).
        frame_type: I, P, or B.
        size: encoded size in bytes.
        duration: presentation duration in seconds (``1 / fps``).
        pts: presentation timestamp in seconds from stream start.
    """

    index: int
    frame_type: FrameType
    size: int
    duration: float
    pts: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise BitstreamError(f"frame index must be >= 0, got {self.index}")
        if self.size <= 0:
            raise BitstreamError(f"frame size must be positive, got {self.size}")
        if self.duration <= 0:
            raise BitstreamError(
                f"frame duration must be positive, got {self.duration}"
            )
        if self.pts < 0:
            raise BitstreamError(f"frame pts must be >= 0, got {self.pts}")

    @property
    def end_pts(self) -> float:
        """Presentation time at which the frame stops being displayed."""
        return self.pts + self.duration

    def as_type(self, frame_type: FrameType, size: int) -> "Frame":
        """Return a copy re-encoded as ``frame_type`` with a new ``size``.

        Used by the duration splicer when it converts the first frame of
        a segment into an I-frame.
        """
        return Frame(
            index=self.index,
            frame_type=frame_type,
            size=size,
            duration=self.duration,
            pts=self.pts,
        )
