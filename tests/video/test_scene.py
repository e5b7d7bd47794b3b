"""Tests for the scene-content model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.video.scene import (
    Scene,
    SceneKind,
    ScenePlan,
    generate_scene_plan,
)


def make_scene(**overrides):
    defaults = dict(
        kind=SceneKind.CALM,
        start=0.0,
        duration=10.0,
        cut_times=(),
        complexity=1.0,
    )
    defaults.update(overrides)
    return Scene(**defaults)


class TestScene:
    def test_end(self):
        assert make_scene(start=2.0, duration=3.0).end == pytest.approx(5.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scene(duration=0.0)

    def test_non_positive_complexity_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scene(complexity=0.0)

    def test_cut_before_start_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scene(start=5.0, cut_times=(4.0,))

    def test_cut_at_end_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scene(start=0.0, duration=10.0, cut_times=(10.0,))

    def test_cut_inside_accepted(self):
        scene = make_scene(cut_times=(3.0, 7.0))
        assert scene.cut_times == (3.0, 7.0)


class TestScenePlan:
    def test_scenes_must_abut(self):
        with pytest.raises(ConfigurationError):
            ScenePlan(
                scenes=(
                    make_scene(duration=5.0),
                    make_scene(start=6.0, duration=5.0),
                )
            )

    def test_duration_sums(self):
        plan = ScenePlan(
            scenes=(
                make_scene(duration=5.0),
                make_scene(start=5.0, duration=7.0),
            )
        )
        assert plan.duration == pytest.approx(12.0)

    def test_empty_plan_duration(self):
        assert ScenePlan().duration == 0.0

    def test_scene_at(self):
        first = make_scene(duration=5.0)
        second = make_scene(start=5.0, duration=5.0, kind=SceneKind.ACTION)
        plan = ScenePlan(scenes=(first, second))
        assert plan.scene_at(2.0) is first
        assert plan.scene_at(5.0) is second

    def test_scene_at_end_returns_last(self):
        plan = ScenePlan(scenes=(make_scene(duration=5.0),))
        assert plan.scene_at(5.0) is plan.scenes[0]

    def test_scene_at_out_of_range(self):
        plan = ScenePlan(scenes=(make_scene(duration=5.0),))
        with pytest.raises(ConfigurationError):
            plan.scene_at(6.0)

    def test_all_cut_times_sorted(self):
        plan = ScenePlan(
            scenes=(
                make_scene(duration=5.0, cut_times=(1.0, 3.0)),
                make_scene(start=5.0, duration=5.0, cut_times=(6.0,)),
            )
        )
        assert plan.all_cut_times() == [1.0, 3.0, 6.0]


class TestGenerateScenePlan:
    def test_covers_requested_duration(self):
        plan = generate_scene_plan(60.0, random.Random(1))
        assert plan.duration == pytest.approx(60.0)

    def test_alternates_kinds(self):
        plan = generate_scene_plan(200.0, random.Random(2))
        kinds = [scene.kind for scene in plan.scenes]
        for a, b in zip(kinds, kinds[1:]):
            assert a is not b

    def test_deterministic_for_seed(self):
        a = generate_scene_plan(60.0, random.Random(3))
        b = generate_scene_plan(60.0, random.Random(3))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_scene_plan(120.0, random.Random(4))
        b = generate_scene_plan(120.0, random.Random(5))
        assert a != b

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_scene_plan(0.0, random.Random(1))

    def test_action_scenes_cut_faster(self):
        plan = generate_scene_plan(600.0, random.Random(6))
        calm_rate = _mean_cut_rate(plan, SceneKind.CALM)
        action_rate = _mean_cut_rate(plan, SceneKind.ACTION)
        assert action_rate > calm_rate

    @settings(max_examples=25, deadline=None)
    @given(
        duration=st.floats(min_value=5.0, max_value=600.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_scenes_tile_interval(self, duration, seed):
        plan = generate_scene_plan(duration, random.Random(seed))
        assert plan.scenes[0].start == 0.0
        assert plan.duration == pytest.approx(duration)
        for earlier, later in zip(plan.scenes, plan.scenes[1:]):
            assert later.start == pytest.approx(earlier.end)


def _mean_cut_rate(plan, kind) -> float:
    scenes = [scene for scene in plan.scenes if scene.kind is kind]
    total_cuts = sum(len(scene.cut_times) for scene in scenes)
    total_time = sum(scene.duration for scene in scenes)
    return total_cuts / total_time if total_time else 0.0
