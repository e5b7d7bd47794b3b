"""Scene-content model.

GOP boundaries in a real encoder are driven by content: a scene cut
forces a new I-frame, while a stationary shot lets the GOP run to the
encoder's maximum keyframe interval.  The paper leans on exactly this
("if a video contains constantly changing scenery, the duration of the
GOP will be very short ... a stationary scene ... can be very long").

We model content as an alternating sequence of *scenes*, each either
``CALM`` (long shots, few cuts) or ``ACTION`` (rapid cuts), produced by
a two-state Markov chain.  Each scene carries a *complexity* factor
that scales frame sizes (action frames cost more bits).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from ..errors import ConfigurationError


class SceneKind(enum.Enum):
    """Coarse content class of a scene."""

    CALM = "calm"
    ACTION = "action"


@dataclass(frozen=True, slots=True)
class Scene:
    """A contiguous run of shots sharing one content class.

    Attributes:
        kind: content class.
        start: scene start time, seconds from stream start.
        duration: scene length in seconds.
        cut_times: times (absolute, within ``[start, start+duration)``)
            at which a shot cut occurs; each cut forces an I-frame.
        complexity: multiplier on nominal frame sizes (action > calm).
    """

    kind: SceneKind
    start: float
    duration: float
    cut_times: tuple[float, ...]
    complexity: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError(
                f"scene duration must be positive, got {self.duration}"
            )
        if self.complexity <= 0:
            raise ConfigurationError(
                f"scene complexity must be positive, got {self.complexity}"
            )
        end = self.start + self.duration
        for t in self.cut_times:
            if not (self.start <= t < end):
                raise ConfigurationError(
                    f"cut time {t} outside scene [{self.start}, {end})"
                )

    @property
    def end(self) -> float:
        """Scene end time in seconds."""
        return self.start + self.duration


@dataclass(frozen=True, slots=True)
class ScenePlan:
    """The full content plan for a video: back-to-back scenes."""

    scenes: tuple[Scene, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        expected_start = 0.0
        for scene in self.scenes:
            if abs(scene.start - expected_start) > 1e-9:
                raise ConfigurationError(
                    f"scene at {scene.start} does not abut previous scene "
                    f"ending at {expected_start}"
                )
            expected_start = scene.end

    @property
    def duration(self) -> float:
        """Total plan duration in seconds."""
        return self.scenes[-1].end if self.scenes else 0.0

    def scene_at(self, t: float) -> Scene:
        """Return the scene covering presentation time ``t``."""
        for scene in self.scenes:
            if scene.start <= t < scene.end:
                return scene
        if self.scenes and abs(t - self.duration) < 1e-9:
            return self.scenes[-1]
        raise ConfigurationError(f"time {t} outside plan [0, {self.duration})")

    def all_cut_times(self) -> list[float]:
        """All shot-cut times across the plan, ascending."""
        cuts: list[float] = []
        for scene in self.scenes:
            cuts.extend(scene.cut_times)
        return cuts


# The two-state Markov scene generator's parameters, tuned so a
# 2-minute video mixes multi-second calm shots with sub-second action
# cuts, giving GOP-based segments the high size variance the paper
# describes.  Lengths and intervals are in seconds.
CALM_SCENE_MEAN = 25.0
ACTION_SCENE_MEAN = 6.0
CALM_CUT_INTERVAL_MEAN = 25.0
ACTION_CUT_INTERVAL_MEAN = 0.6
CALM_COMPLEXITY = 0.85
ACTION_COMPLEXITY = 1.35
P_START_ACTION = 0.4  # probability the video opens on action
MIN_SCENE_DURATION = 1.0
MIN_CUT_INTERVAL = 0.2


def generate_scene_plan(duration: float, rng: random.Random) -> ScenePlan:
    """Generate a random scene plan covering ``duration`` seconds.

    Scenes strictly alternate between CALM and ACTION; lengths and shot
    cuts are exponentially distributed around the module's means.

    Args:
        duration: total video duration in seconds (> 0).
        rng: seeded random source; the plan is a pure function of it.

    Returns:
        A :class:`ScenePlan` whose scenes exactly tile ``[0, duration]``.
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")

    scenes: list[Scene] = []
    t = 0.0
    kind = (
        SceneKind.ACTION
        if rng.random() < P_START_ACTION
        else SceneKind.CALM
    )
    while t < duration - 1e-9:
        mean = (
            CALM_SCENE_MEAN
            if kind is SceneKind.CALM
            else ACTION_SCENE_MEAN
        )
        length = max(MIN_SCENE_DURATION, rng.expovariate(1.0 / mean))
        length = min(length, duration - t)
        cut_mean = (
            CALM_CUT_INTERVAL_MEAN
            if kind is SceneKind.CALM
            else ACTION_CUT_INTERVAL_MEAN
        )
        cuts = _generate_cuts(t, length, cut_mean, MIN_CUT_INTERVAL, rng)
        complexity = (
            CALM_COMPLEXITY
            if kind is SceneKind.CALM
            else ACTION_COMPLEXITY
        )
        scenes.append(
            Scene(
                kind=kind,
                start=t,
                duration=length,
                cut_times=tuple(cuts),
                complexity=complexity,
            )
        )
        t += length
        kind = SceneKind.ACTION if kind is SceneKind.CALM else SceneKind.CALM
    return ScenePlan(scenes=tuple(scenes))


def _generate_cuts(
    start: float,
    length: float,
    interval_mean: float,
    min_interval: float,
    rng: random.Random,
) -> list[float]:
    """Poisson-ish shot cuts inside a scene (excluding the scene start)."""
    cuts: list[float] = []
    t = start + max(min_interval, rng.expovariate(1.0 / interval_mean))
    end = start + length
    while t < end - 1e-9:
        cuts.append(t)
        t += max(min_interval, rng.expovariate(1.0 / interval_mean))
    return cuts
