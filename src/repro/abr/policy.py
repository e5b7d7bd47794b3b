"""ABR rendition-selection policies.

The measurement literature (the paper's reference [7], "Confused,
Timid, and Unstable") contrasts throughput-based policies with
**buffer-based** (BBA-style) ones, which map the buffer level linearly
from a reservoir to a cushion onto the ladder, ignoring throughput.
The study runs the buffer-based policy against a fixed-rung control.
"""

from __future__ import annotations

import abc

from ..errors import ConfigurationError
from .ladder import BitrateLadder


class AbrPolicy(abc.ABC):
    """Strategy interface: choose a ladder rung for the next segment."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short policy name used in reports."""

    @abc.abstractmethod
    def choose(
        self,
        ladder: BitrateLadder,
        buffer_level: float,
        throughput_estimate: float | None,
        current_rung: int,
    ) -> int:
        """Pick the rung (index into the ladder) for the next segment.

        Args:
            ladder: the available renditions.
            buffer_level: seconds of video buffered ahead.
            throughput_estimate: recent bytes/second, None early on.
            current_rung: the rung of the previous segment.
        """


class BufferBasedAbr(AbrPolicy):
    """BBA-style: rung from buffer level, reservoir to cushion.

    Below ``reservoir`` seconds of buffer the lowest rung is used;
    above ``reservoir + cushion`` the highest; linear in between.

    Args:
        reservoir: panic threshold, seconds.
        cushion: width of the linear ramp, seconds.
    """

    def __init__(self, reservoir: float = 8.0, cushion: float = 16.0) -> None:
        if reservoir < 0:
            raise ConfigurationError(
                f"reservoir must be >= 0, got {reservoir}"
            )
        if cushion <= 0:
            raise ConfigurationError(
                f"cushion must be positive, got {cushion}"
            )
        self._reservoir = reservoir
        self._cushion = cushion

    @property
    def name(self) -> str:
        return f"buffer-{self._reservoir:g}+{self._cushion:g}"

    def choose(
        self,
        ladder: BitrateLadder,
        buffer_level: float,
        throughput_estimate: float | None,
        current_rung: int,
    ) -> int:
        if buffer_level <= self._reservoir:
            return 0
        if buffer_level >= self._reservoir + self._cushion:
            return len(ladder) - 1
        fraction = (buffer_level - self._reservoir) / self._cushion
        return min(
            len(ladder) - 1, int(fraction * len(ladder))
        )


class FixedRung(AbrPolicy):
    """Always the same rung — the non-adaptive control.

    Args:
        rung: ladder index to pin (negative indexes from the top).
    """

    def __init__(self, rung: int = -1) -> None:
        self._rung = rung

    @property
    def name(self) -> str:
        return f"fixed-rung-{self._rung}"

    def choose(
        self,
        ladder: BitrateLadder,
        buffer_level: float,
        throughput_estimate: float | None,
        current_rung: int,
    ) -> int:
        return self._rung % len(ladder)
